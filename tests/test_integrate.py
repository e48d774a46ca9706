import dataclasses
import inspect
import io

import numpy as np
import pytest

from gch import (
    BlowUpError,
    Field,
    Grid,
    Trajectory,
    estimate_dt,
    h1_norm,
    lp_norm,
    read_checkpoint,
    rhs,
    rk4_step,
    sample,
    simulate,
    snapshots_to_csv,
    write_checkpoint,
)
from gch.dynamics import SIMULATION_FORMS, RhsForm
from gch.integrate import DT_MAX


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
        import gch.integrate as integrate_mod

        monkeypatch.setattr(
            integrate_mod, "spectral_rhs", lambda uh, grid, pre, post: np.nan * uh
        )
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(FloatingPointError, match="non-finite RK4 stage 1"):
            simulate(u, 0.1)

    @pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_horizon(self, sech2_small, T):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            simulate(sech2_small, T)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0])
    def test_rejects_bad_step(self, sech2_small, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate(sech2_small, 0.1, dt=dt)

    def test_step_shrinks_but_never_grows(self, grid1024, monkeypatch):
        import gch.integrate as integrate_mod

        # pretend the CFL bound relaxes mid-run: the step must stay put
        estimates = iter([1e-3] + [5e-3] * 50)
        monkeypatch.setattr(integrate_mod, "estimate_dt", lambda u: next(estimates))
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = simulate(z, 0.25, snapshot_stride=10**6)
        assert traj.dt_initial == 1e-3
        assert traj.dt_final == 1e-3

    def test_step_shrinks_when_bound_tightens(self, grid1024, monkeypatch):
        import gch.integrate as integrate_mod

        estimates = iter([1e-3] + [5e-4] * 50)
        monkeypatch.setattr(integrate_mod, "estimate_dt", lambda u: next(estimates))
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = simulate(z, 0.25, snapshot_stride=10**6)
        assert traj.dt_initial == 1e-3
        assert traj.dt_final == 5e-4

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
