import dataclasses
import inspect
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gch import (
    BlowUpError,
    Field,
    Grid,
    Trajectory,
    estimate_dt,
    h1_norm,
    lp_norm,
    read_checkpoint,
    read_snapshots,
    rhs,
    rk4_step,
    sample,
    simulate,
    snapshots_to_csv,
    write_checkpoint,
    write_snapshots,
)
from gch.dynamics import SIMULATION_FORMS, RhsForm
from gch.integrate import BAND_FLOOR, DT_MAX, STEP_SAFETY


class TestRk4Step:
    def test_zero_derivative(self, sech):
        out = rk4_step(sech, 0.1, lambda v: 0.0 * v)
        np.testing.assert_array_equal(out.values, sech.values)

    def test_exponential_decay_tableau(self, grid1024):
        # u' = -u from u=1: one step of size 0.1 gives the quartic Taylor
        # polynomial of e^{-0.1} exactly
        one = Field(grid1024, np.ones(grid1024.n))
        out = rk4_step(one, 0.1, lambda v: -1.0 * v)
        assert out.values[0] == pytest.approx(0.90483750, abs=1e-12)

    def test_halving_error_ratio(self, sech2_small):
        # two half-steps vs one full step differ at O(dt^5)
        deriv = lambda v: rhs(v, RhsForm.FORM_B)

        def gap(dt):
            full = rk4_step(sech2_small, dt, deriv)
            half = rk4_step(rk4_step(sech2_small, dt / 2, deriv), dt / 2, deriv)
            return lp_norm(full - half, np.inf)

        ratio = gap(0.2) / gap(0.1)
        assert 24 <= ratio <= 40

    def test_rejects_nonpositive_dt(self, sech):
        with pytest.raises(ValueError):
            rk4_step(sech, 0.0, lambda v: v)

    def test_nonfinite_stage_named(self, grid1024):
        u = Field(grid1024, np.ones(grid1024.n))

        def bad(v):
            return np.full(grid1024.n, np.nan)

        with pytest.raises(FloatingPointError, match="stage 1"):
            rk4_step(u, 0.1, bad)


class TestEstimateDt:
    def test_zero_field(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert estimate_dt(z) == min(0.5 * grid1024.dx, DT_MAX)

    def test_amplitude_monotone(self, grid1024):
        u = sample(grid1024, lambda x: 1 / np.cosh(x))
        assert estimate_dt(2.0 * u) <= estimate_dt(u)

    def test_sech_value(self, grid1024, sech):
        # grid max of |sech'| sits just under the analytic 1/2, so the step
        # is the formula value, within 1e-3 of 0.5*dx/5
        from gch import derivative

        speed = 4.0 * lp_norm(sech, np.inf) + 2.0 * lp_norm(derivative(sech, 1), np.inf)
        assert estimate_dt(sech) == pytest.approx(
            0.5 * grid1024.dx / max(1.0, speed), rel=1e-14
        )
        assert estimate_dt(sech) == pytest.approx(0.0078125, rel=1e-3)


class TestSimulate:
    def test_zero_data_stays_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = simulate(z, 0.1, snapshot_stride=2)
        for snap in traj.snapshots:
            assert lp_norm(snap, np.inf) == 0.0
        assert traj.valid

    def test_small_run_clean(self, sech2_small):
        traj = simulate(sech2_small, 0.5, snapshot_stride=4)
        assert np.isfinite(lp_norm(traj.final, np.inf))
        assert np.max(traj.boundary_magnitudes) <= 1e-8
        assert traj.valid
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(0.5, rel=1e-12)

    def test_half_dt_agreement(self, sech2_small):
        a = simulate(sech2_small, 0.5, snapshot_stride=10**6)
        b = simulate(sech2_small, 0.5, snapshot_stride=10**6, dt=a.dt_initial / 2)
        assert lp_norm(a.final - b.final, np.inf) <= 1e-8

    def test_blow_up_guard(self, grid1024, monkeypatch):
        # wire a forced exponential growth through simulate's spectral-stage hook
        import gch.integrate as integrate_mod

        monkeypatch.setattr(
            integrate_mod, "spectral_rhs", lambda uh, grid, pre, post: 100.0 * uh
        )
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(BlowUpError, match="possible blow-up"):
            simulate(u, 1.0, dt=0.01)

    def test_nonfinite_stage_named(self, grid1024, monkeypatch):
        # every stage, the first one the default step is read from included,
        # is one _spectral_stage call
        import gch.integrate as integrate_mod

        monkeypatch.setattr(
            integrate_mod, "_spectral_stage",
            lambda uh, grid, pre, post: (np.nan * uh, grid.irfft(uh)),
        )
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(FloatingPointError, match="non-finite RK4 stage 1"):
            simulate(u, 0.1)

    def test_nonfinite_stage_named_explicit_dt(self, grid1024, monkeypatch):
        import gch.integrate as integrate_mod

        monkeypatch.setattr(
            integrate_mod, "spectral_rhs", lambda uh, grid, pre, post: np.nan * uh
        )
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(FloatingPointError, match="non-finite RK4 stage 1"):
            simulate(u, 0.1, dt=0.01)

    @pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_horizon(self, sech2_small, T):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            simulate(sech2_small, T)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0])
    def test_rejects_bad_step(self, sech2_small, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate(sech2_small, 0.1, dt=dt)

    @pytest.mark.parametrize("stride", [1.5, 2.0, np.float64(2.0), True, False, 0, -3, "2"])
    def test_rejects_non_integer_stride(self, sech2_small, stride):
        with pytest.raises(ValueError, match="snapshot_stride must be an integer >= 1"):
            simulate(sech2_small, 0.05, snapshot_stride=stride)

    def test_stride_past_the_horizon(self, sech2_small):
        # stride x estimate_dt overflows a float; the run keeps T only
        traj = simulate(sech2_small, 0.05, snapshot_stride=10**400)
        assert traj.times.tolist() == [0.0, 0.05]
        assert traj.n_steps == 5

    def test_numpy_integer_stride(self, sech2_small):
        a = simulate(sech2_small, 0.1, snapshot_stride=np.int64(3))
        b = simulate(sech2_small, 0.1, snapshot_stride=3)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.final.values.tobytes() == b.final.values.tobytes()

    def test_determinism(self, sech2_small):
        a = simulate(sech2_small, 0.3, snapshot_stride=3)
        b = simulate(sech2_small, 0.3, snapshot_stride=3)
        assert len(a) == len(b)
        for sa, sb in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_convergence_order(self, sech2_small):
        finals = [
            simulate(sech2_small, 0.8, snapshot_stride=10**6, dt=0.1 / 2**i).final
            for i in range(3)
        ]
        e1 = lp_norm(finals[0] - finals[1], np.inf)
        e2 = lp_norm(finals[1] - finals[2], np.inf)
        order = np.log2(e1 / e2)
        assert 3.8 <= order <= 4.2

    def test_time_reversal(self, sech2_small):
        traj = simulate(sech2_small, 0.2, snapshot_stride=10**6)
        back = traj.final
        deriv = lambda v: -1.0 * rhs(v, RhsForm.FORM_B)
        for _ in range(traj.n_steps):
            back = rk4_step(back, traj.dt_initial, deriv)
        assert lp_norm(back - sech2_small, np.inf) <= 1e-6


# simulate steps the rfft of u; the physical-space RK4 is the reference


# the ids keep their "-True" suffix so results compare with earlier runs of the suite
@pytest.mark.parametrize("form", SIMULATION_FORMS, ids=lambda v: f"{v.value}-True")
def test_spectral_matches_physical_rk4(form):
    grid = Grid(1024, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    dt = 0.01
    traj = simulate(u0, 0.2, snapshot_stride=1, dt=dt)
    assert traj.n_steps == 20
    u = u0
    for step in range(1, 21):
        u = rk4_step(u, dt, lambda v: rhs(v, form))
        gap = lp_norm(traj.snapshots[step] - u, np.inf)
        assert gap <= 1e-15, (step, gap)


def test_fft_pairs_per_step(fft_calls):
    grid = Grid(1024, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    traj = simulate(u0, 0.25, snapshot_stride=5)
    assert traj.n_steps > 0
    assert len(fft_calls) <= 10 * traj.n_steps


def _golden_pulse():
    return sample(Grid(1024, 30.0), lambda x: 0.05 / np.cosh(x) ** 2), 0.12


def _showcase_pulse():
    return sample(Grid(4096, 40.0), lambda x: 0.05 / np.cosh(x) ** 2), 0.25


def _stability_bound(grid, uh):
    """STEP_SAFETY * 2 sqrt(2) / (B ||w||_inf), rebuilt from the grid's wavenumbers."""
    k = np.where(grid.keep, grid.k_rfft, 0.0)
    pre = np.sqrt(4.0 + k**2) * grid.keep
    post = k * np.sqrt(4.0 + k**2) / (1.0 + k**2)
    w = grid.irfft(np.where(grid.keep, (2.0 - 1j * grid.k_rfft) * uh, 0.0))
    B = 2.0 * np.max(pre) * np.max(post)
    return STEP_SAFETY * 2.0 * np.sqrt(2.0) / (B * np.max(np.abs(w)))


class TestStepRule:
    """The default step comes from the stage's stability bound; snapshots from a fixed clock."""

    @pytest.mark.parametrize("pulse", [_golden_pulse, _showcase_pulse])
    def test_stride_one_takes_the_clock_steps(self, pulse):
        # small data: the bound allows more than the clock, so a stride-1
        # run steps exactly as a run at the explicit clock step does
        u0, T = pulse()
        a = simulate(u0, T, 1)
        b = simulate(u0, T, 1, dt=estimate_dt(u0))
        assert a.n_steps == b.n_steps == len(a) - 1
        assert a.times.tobytes() == b.times.tobytes()
        for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
            assert sa.values.tobytes() == sb.values.tobytes()
        assert a.h1_drift.tobytes() == b.h1_drift.tobytes()

    # 0.5 dx = 5/2048 < DT_MAX / 2, so a snapshot interval of 8 clock units
    # holds 4 steps of at most DT_MAX where the old rule took 8
    STRIDE, T = 8, 0.5

    @pytest.fixture
    def fine(self):
        u0 = sample(Grid(2048, 10.0), lambda x: 0.05 / np.cosh(x) ** 2)
        assert 0.5 * u0.grid.dx < DT_MAX / 2
        return u0

    def test_snapshot_times_are_clock_multiples(self, fine):
        traj = simulate(fine, self.T, self.STRIDE)
        clock = self.STRIDE * estimate_dt(fine)
        expected = [0.0]
        while expected[-1] < self.T:
            expected.append(min(expected[-1] + clock, self.T))
        assert traj.times.tolist() == expected
        steps = sum(int(np.ceil(gap / DT_MAX - 1e-9)) for gap in np.diff(traj.times))
        assert traj.n_steps == steps == 52
        assert traj.dt_initial == traj.dt_final == DT_MAX
        assert np.max(traj.h1_drift) < 1e-12

    def test_step_count_pinned_by_fft_calls(self, fine, fft_calls):
        # rfft(u0) and estimate_dt's derivative, then four stages and the
        # snapshot irfft per step
        traj = simulate(fine, self.T, self.STRIDE)
        assert len(fft_calls) == 3 + 9 * traj.n_steps == 3 + 9 * 52

    def test_large_data_steps_at_the_bound(self, grid4096, monkeypatch):
        import gch.integrate as integrate_mod

        steps = []
        original = integrate_mod._rk4

        def spy(y, dt, deriv, k1=None):
            # y is the compute band of the n-grid rfft; m/n rescales it to the m-grid's
            m = 2 * (len(y) - 1)
            steps.append((dt, _stability_bound(Grid(m, 40.0), y * (m / grid4096.n))))
            return original(y, dt, deriv, k1)

        monkeypatch.setattr(integrate_mod, "_rk4", spy)
        u0 = sample(grid4096, lambda x: 0.5 / np.cosh(x) ** 2)
        T = 0.25
        traj = simulate(u0, T, snapshot_stride=10**6)
        h, bound = np.array(steps).T
        assert np.all(bound < DT_MAX)
        # no step exceeds the bound (the last may overshoot by the 1e-12 T landing slack)
        assert np.all(h <= bound + 1e-12 * T)
        # every step before the landing one is the bound itself, re-checked each step
        np.testing.assert_allclose(h[:-1], bound[:-1], rtol=1e-12, atol=0.0)
        assert np.ptp(bound) > 0.0
        assert traj.n_steps == len(steps)
        assert traj.dt_initial == pytest.approx(bound[0], rel=1e-12)
        assert traj.times.tolist() == [0.0, T]
        assert lp_norm(traj.final, np.inf) < 2.0 * lp_norm(u0, np.inf)


def _long_pulse():
    return sample(Grid(16384, 40.0), lambda x: 0.05 / np.cosh(x) ** 2), 1.0


def _holds(y, m):
    """Every coefficient of the band ``y`` at or above mode 2m/9 is at most the floor."""
    a = np.abs(y)
    return bool(np.all(a[-(-2 * m // 9):] <= BAND_FLOOR * np.max(a)))


class TestComputeGrid:
    """Stages run on the smallest power-of-two grid whose 2/3 band holds the spectrum."""

    @pytest.fixture
    def full_grid(self, monkeypatch):
        """Run ``simulate`` with every coefficient counted, which forces m = n."""
        import gch.integrate as integrate_mod

        def run(*args):
            with monkeypatch.context() as patch:
                patch.setattr(integrate_mod, "BAND_FLOOR", 0.0)
                return simulate(*args)

        return run

    @pytest.fixture
    def bands(self, monkeypatch):
        """The band each RK4 step is taken on, as the ``_rk4`` state."""
        import gch.integrate as integrate_mod

        seen = []
        original = integrate_mod._rk4

        def spy(y, dt, deriv, k1=None):
            seen.append(y.copy())
            return original(y, dt, deriv, k1)

        monkeypatch.setattr(integrate_mod, "_rk4", spy)
        return seen

    def test_long_pulse_matches_the_full_grid(self, full_grid):
        u0, T = _long_pulse()
        a = simulate(u0, T, 32)
        b = full_grid(u0, T, 32)
        assert a.compute_n[0] < u0.grid.n
        assert b.compute_n.tolist() == [u0.grid.n] * len(b)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.n_steps == b.n_steps == 103
        gap = max(
            lp_norm(sa - sb, np.inf) for sa, sb in zip(a.snapshots, b.snapshots, strict=True)
        )
        assert gap <= 1e-15

    def test_every_step_holds_its_spectrum(self, bands, fft_calls):
        u0, T = _long_pulse()
        n = u0.grid.n
        traj = simulate(u0, T, 32)
        # the rule reads uh: 3 FFTs per run and 9 per step, as on the full grid
        assert len(fft_calls) == 3 + 9 * traj.n_steps == 930
        sizes = traj.compute_n
        assert sizes.shape == (len(traj),)
        assert np.all(np.diff(sizes) >= 0)
        assert all(16 <= m <= n and m & (m - 1) == 0 for m in sizes.tolist())
        steps = [2 * (len(y) - 1) for y in bands]
        assert len(steps) == traj.n_steps
        assert steps[0] == sizes[0] and steps[-1] == sizes[-1]
        assert np.all(np.diff(steps) >= 0) and set(steps) == set(sizes.tolist())
        for i, (y, m) in enumerate(zip(bands, steps)):
            assert _holds(y, m), (i, m)
            if i == 0 or m != steps[i - 1]:
                # m is the smallest size that holds: half of it does not
                assert not _holds(y[: m // 4 + 1], m // 2), (i, m)

    def test_golden_pulse_stays_on_the_full_grid(self, full_grid):
        u0, T = _golden_pulse()
        a = simulate(u0, T, 1)
        b = full_grid(u0, T, 1)
        assert a.compute_n.tolist() == [u0.grid.n] * len(a)
        assert a.times.tobytes() == b.times.tobytes()
        for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
            assert sa.values.tobytes() == sb.values.tobytes()
        assert a.h1_drift.tobytes() == b.h1_drift.tobytes()

    def test_zero_data_runs_at_the_smallest_grid(self, grid1024, bands):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = simulate(z, 0.05, snapshot_stride=2)
        assert traj.compute_n.tolist() == [16] * len(traj)
        assert {len(y) for y in bands} == {9}
        assert all(lp_norm(snap, np.inf) == 0.0 for snap in traj.snapshots)

    @pytest.mark.parametrize("dt", [None, 0.005])
    def test_content_at_the_band_edge_runs_at_n(self, grid1024, dt):
        j = grid1024.n // 3
        u0 = sample(
            grid1024,
            lambda x: 0.01 / np.cosh(x) ** 2 + 1e-6 * np.cos(np.pi * j * x / grid1024.half_width),
        )
        traj = simulate(u0, 0.02, dt=dt)
        assert traj.compute_n.tolist() == [grid1024.n] * len(traj)

    def test_wrapped_trajectories_have_no_compute_n(self, tmp_path, sech2_small):
        traj = simulate(sech2_small, 0.05)
        assert traj.compute_n is not None
        write_snapshots(tmp_path / "s.bin", traj, "0123456789ab")
        assert read_snapshots(tmp_path / "s.bin")[1].compute_n is None
        assert Trajectory.from_snapshots(traj.times, traj.snapshots).compute_n is None


def test_h1_drift_on_showcase_pulse():
    grid = Grid(4096, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    traj = simulate(u0, 0.25, snapshot_stride=1)
    drift = traj.h1_drift
    assert drift.shape == (len(traj),)
    assert drift[0] == 0.0
    assert np.all(drift < 1e-12)
    # Parseval agrees with the physical-space norm
    h1_0 = h1_norm(traj.u0)
    direct = abs(h1_norm(traj.final) - h1_0) / h1_0
    assert abs(drift[-1] - direct) <= 1e-14


def test_h1_drift_shrinks_like_dt4():
    # RK4 breaks the exact H^1 invariant only through its own O(dt^4) error
    grid = Grid(1024, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    drift = [
        simulate(u0, 1.0, snapshot_stride=10**6, dt=dt).h1_drift[-1]
        for dt in (0.04, 0.02, 0.01)
    ]
    orders = np.log2(np.divide(drift[:-1], drift[1:]))
    assert np.all((3.8 <= orders) & (orders <= 4.6)), orders


def test_h1_drift_zero_data(grid1024):
    z = Field(grid1024, np.zeros(grid1024.n))
    traj = simulate(z, 0.05)
    assert np.all(traj.h1_drift == 0.0)


class TestTrajectory:
    def test_no_form_state(self):
        params = list(inspect.signature(simulate).parameters)
        assert params == ["u0", "T", "snapshot_stride", "dt"]
        assert not {f.name for f in dataclasses.fields(Trajectory)} & {"form", "dealias"}

    def test_from_snapshots_validation(self, sech):
        with pytest.raises(ValueError, match="increase strictly"):
            Trajectory.from_snapshots([0.0, 0.0], [sech, sech])
        with pytest.raises(ValueError, match="start at 0"):
            Trajectory.from_snapshots([1.0], [sech])

    @pytest.fixture(scope="class")
    def traj(self, sech2_small):
        return simulate(sech2_small, 0.1)

    def test_values_are_one_read_only_block(self, traj):
        assert traj.values.shape == (len(traj), traj.grid.n)
        assert traj.values.dtype == np.float64
        with pytest.raises(ValueError):
            traj.values[0, 0] = 1.0

    def test_block_is_read_only_but_the_callers_array_is_not(self, sech):
        block = np.stack([sech.values, 2.0 * sech.values])
        traj = dataclasses.replace(
            Trajectory.from_snapshots([0.0, 1.0], [sech, sech]), values=block
        )
        assert block.flags.writeable and not traj.values.flags.writeable
        assert np.array_equal(traj.values, block)

    def test_spectrum_is_the_cached_rfft_of_every_row(self, traj):
        spec = traj.spectrum
        assert spec is traj.spectrum
        assert not spec.flags.writeable
        assert np.array_equal(spec, np.stack([traj.grid.rfft(row) for row in traj.values]))

    def test_fields_are_the_rows(self, traj):
        assert all(np.array_equal(u.values, row) for u, row in zip(traj.snapshots, traj.values))
        assert len(traj.snapshots) == len(traj)
        assert np.array_equal(traj.u0.values, traj.values[0])
        assert np.array_equal(traj.final.values, traj.values[-1])

    def test_boundary_magnitudes_per_row(self, traj):
        expected = [max(abs(u.values[0]), abs(u.values[-1])) for u in traj.snapshots]
        assert np.array_equal(traj.boundary_magnitudes, expected)
        wrapped = Trajectory.from_snapshots(traj.times, traj.snapshots)
        assert np.array_equal(wrapped.boundary_magnitudes, expected)

    @pytest.mark.parametrize(
        "values, message",
        [
            pytest.param(np.zeros((3, 1024)), "must be \\(2, 1024\\)", id="too_many_rows"),
            pytest.param(np.zeros((2, 512)), "must be \\(2, 1024\\)", id="wrong_n"),
            pytest.param(np.zeros(1024), "must be", id="one_dimensional"),
            pytest.param(np.full((2, 1024), np.nan), "non-finite", id="nan"),
        ],
    )
    def test_rejects_a_bad_block(self, sech, values, message):
        traj = Trajectory.from_snapshots([0.0, 1.0], [sech, sech])
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(traj, values=values)

    @pytest.mark.parametrize("budget", [1, 16 * 513, 3 * 16 * 513 + 5, 2**18])
    def test_row_blocks_cover_the_rows_in_order(self, traj, monkeypatch, budget):
        import gch.integrate as integrate_mod

        monkeypatch.setattr(integrate_mod, "ROW_BLOCK_BYTES", budget)
        per_block = max(1, budget // (16 * 513))
        for stop in (None, 1, len(traj)):
            blocks = traj.row_blocks(stop)
            rows = [i for b in blocks for i in range(b.start, b.stop)]
            assert rows == list(range(len(traj) if stop is None else stop))
            assert all(b.stop - b.start <= per_block for b in blocks)


def _put(offset, fmt, value):
    """An edit that overwrites the bytes at ``offset`` with ``value`` packed as ``fmt``."""

    def edit(raw):
        return raw[:offset] + struct.pack(fmt, value) + raw[offset + struct.calcsize(fmt):]

    return edit


class TestArtifacts:
    def test_snapshot_csv(self, sech2_small):
        traj = simulate(sech2_small, 0.05, snapshot_stride=10**6)
        buf = io.StringIO()
        snapshots_to_csv(traj, buf, config_hash="deadbeef0123")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# config-hash: deadbeef0123"
        assert lines[1] == "t,x,u"
        assert len(lines) == 2 + len(traj) * traj.grid.n
        t, x, u = lines[2].split(",")
        assert float(t) == 0.0
        assert float(x) == -40.0

    def test_checkpoint_round_trip(self, tmp_path, sech2_small):
        path = tmp_path / "state.bin"
        write_checkpoint(path, sech2_small, 0.375)
        t, field = read_checkpoint(path)
        assert t == 0.375
        assert field.grid == sech2_small.grid
        np.testing.assert_array_equal(field.values, sech2_small.values)

    def test_checkpoint_layout(self, tmp_path, grid1024):
        # documented little-endian layout: magic, uint32 n, f64 L, f64 t, data
        path = tmp_path / "state.bin"
        u = Field(grid1024, np.arange(grid1024.n, dtype=float))
        write_checkpoint(path, u, 1.5)
        raw = path.read_bytes()
        assert raw[:4] == b"GCH1"
        assert int.from_bytes(raw[4:8], "little") == 1024
        assert np.frombuffer(raw[8:16], "<f8")[0] == 40.0
        assert np.frombuffer(raw[16:24], "<f8")[0] == 1.5
        assert len(raw) == 24 + 8 * 1024

    @pytest.mark.parametrize("size", [0, 5, 23])
    def test_checkpoint_truncated_header(self, tmp_path, size):
        path = tmp_path / "short.bin"
        path.write_bytes((b"GCH1" + b"\0" * 20)[:size])
        with pytest.raises(ValueError, match="truncated header"):
            read_checkpoint(path)

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ValueError, match="bad magic"):
            read_checkpoint(path)


    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda raw: raw + bytes(16), "16 samples need 128 bytes after the header, "
                         "found 144", id="trailing_bytes"),
            pytest.param(lambda raw: raw[:-8], "truncated state \\(expected 16 samples, got 15",
                         id="state_cut"),
            pytest.param(lambda raw: raw[:4] + struct.pack("<I", 0) + raw[8:24],
                         "n must be a power of two >= 16, got 0", id="n_zero"),
            pytest.param(_put(8, "<d", np.nan), "half_width must be positive and finite",
                         id="L_nan"),
            pytest.param(_put(48, "<d", np.inf), "non-finite", id="non_finite_sample"),
        ],
    )
    def test_corrupt_checkpoint_names_the_path(self, tmp_path, edit, message):
        # 24 bytes of header, then 16 samples; the bytes written stay as they were
        path = tmp_path / "state_final.bin"
        u = Field(Grid(16, 2.0), np.arange(16.0))
        write_checkpoint(path, u, 0.5)
        raw = path.read_bytes()
        assert raw == struct.pack("<4sIdd", b"GCH1", 16, 2.0, 0.5) + u.values.astype("<f8").tobytes()
        path.write_bytes(edit(raw))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*" + message):
            read_checkpoint(path)


def _small_trajectory(n=16, times=(0.0, 0.25, 0.5)):
    grid = Grid(n, 2.0)
    snaps = [Field(grid, np.arange(n) + 100.0 * i) for i in range(len(times))]
    return Trajectory.from_snapshots(times, snaps)


class TestSnapshotDump:
    def test_layout(self, tmp_path):
        # GCHS header as GCH1 (t is the last time), uint32 K, 12-byte hash,
        # K f64 times, then the K x n f64 samples row by row
        path = tmp_path / "snapshots.bin"
        traj = _small_trajectory()
        write_snapshots(path, traj, "c5aaa2da2f94")
        raw = path.read_bytes()
        assert raw[:4] == b"GCHS"
        assert int.from_bytes(raw[4:8], "little") == 16
        assert np.frombuffer(raw[8:24], "<f8").tolist() == [2.0, 0.5]
        assert int.from_bytes(raw[24:28], "little") == 3
        assert raw[28:40] == b"c5aaa2da2f94"
        assert np.frombuffer(raw[40:64], "<f8").tolist() == [0.0, 0.25, 0.5]
        block = np.frombuffer(raw[64:], "<f8").reshape(3, 16)
        np.testing.assert_array_equal(block, np.stack([u.values for u in traj.snapshots]))

    def test_csv_conversion_loses_nothing(self, tmp_path, sech2_small):
        traj = simulate(sech2_small, 0.05)
        path = tmp_path / "snapshots.bin"
        write_snapshots(path, traj, "deadbeef0123")
        chash, back = read_snapshots(path)
        assert chash == "deadbeef0123"
        original, converted = io.StringIO(), io.StringIO()
        snapshots_to_csv(traj, original, chash)
        snapshots_to_csv(back, converted, chash)
        assert converted.getvalue() == original.getvalue()

    def test_readers_reject_each_others_files(self, tmp_path, sech2_small):
        snaps, state = tmp_path / "snapshots.bin", tmp_path / "state.bin"
        write_snapshots(snaps, Trajectory.from_snapshots([0.0], [sech2_small]), "deadbeef0123")
        write_checkpoint(state, sech2_small, 0.0)
        with pytest.raises(ValueError, match="bad magic b'GCHS'"):
            read_checkpoint(snaps)
        with pytest.raises(ValueError, match="bad magic b'GCH1'"):
            read_snapshots(state)

    @pytest.mark.parametrize("bad", ["deadbeef", "deadbeef01234", "deadbeef012\u00e9"])
    def test_hash_must_be_twelve_ascii_characters(self, tmp_path, bad):
        with pytest.raises(ValueError):
            write_snapshots(tmp_path / "s.bin", _small_trajectory(), bad)

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda raw: raw[:20], "truncated header \\(20 of 24", id="cut_in_header"),
            pytest.param(lambda raw: raw[:34], "truncated header \\(10 of 16", id="cut_in_count"),
            pytest.param(lambda raw: b"NOPE" + raw[4:], "bad magic b'NOPE'", id="bad_magic"),
            pytest.param(_put(24, "<I", 0), "0 snapshots of 16 samples need 0 bytes",
                         id="count_zero"),
            pytest.param(_put(24, "<I", 2), "need 272 bytes after the header, found 408",
                         id="count_too_small"),
            pytest.param(lambda raw: raw + bytes(8), "need 408 bytes after the header, found 416",
                         id="trailing_bytes"),
            pytest.param(_put(24, "<I", 4), "truncated block \\(408 of 544", id="count_too_large"),
            pytest.param(lambda raw: raw[:-8], "truncated block \\(400 of 408", id="block_cut"),
            pytest.param(_put(4, "<I", 2**31), "truncated block", id="n_too_large"),
            pytest.param(_put(16, "<d", 0.75), "last time 0.5 differs from the header's 0.75",
                         id="last_time_mismatch"),
            pytest.param(_put(48, "<d", 0.0), "increase strictly", id="times_not_increasing"),
            pytest.param(_put(104, "<d", np.nan), "non-finite", id="non_finite_sample"),
            pytest.param(_put(30, "B", 0xFF), "codec can't decode", id="hash_not_ascii"),
        ],
    )
    def test_corrupt_file_names_the_path(self, tmp_path, edit, message):
        # the file is 64 bytes of header and times, then 3 x 16 samples
        path = tmp_path / "snapshots.bin"
        write_snapshots(path, _small_trajectory(), "deadbeef0123")
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*" + message):
            read_snapshots(path)


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    n = draw(st.sampled_from([16, 32, 64, 128]))
    L = draw(st.floats(1e-3, 1e6, allow_nan=False))
    steps = draw(st.lists(st.floats(1e-6, 10.0), min_size=0, max_size=5))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    block = draw(hnp.arrays(np.float64, (times.size, n), elements=finite))
    grid = Grid(n, L)
    return Trajectory.from_snapshots(times, [Field(grid, row) for row in block])


class TestDumpRoundTripProperty:
    @settings(max_examples=150, deadline=None, database=None)
    @given(trajectories(), st.text("0123456789abcdef", min_size=12, max_size=12))
    def test_snapshots_and_state_read_back_exactly(self, tmp_path_factory, traj, chash):
        folder = tmp_path_factory.mktemp("dump", numbered=True)
        snaps, state = folder / "snapshots.bin", folder / "state_final.bin"
        write_snapshots(snaps, traj, chash)
        write_checkpoint(state, traj.final, float(traj.times[-1]))

        back_hash, back = read_snapshots(snaps)
        assert back_hash == chash
        assert back.grid == traj.grid
        assert back.times.tobytes() == traj.times.tobytes()
        for a, b in zip(back.snapshots, traj.snapshots, strict=True):
            assert a.values.tobytes() == b.values.tobytes()

        t, final = read_checkpoint(state)
        assert t == traj.times[-1]
        assert final.grid == traj.grid
        assert final.values.tobytes() == traj.final.values.tobytes()
