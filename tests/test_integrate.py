import dataclasses
import hashlib
import inspect
import itertools
import io
import re
import struct
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gch import (
    BlowUpError,
    ConfigError,
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
from gch.analyticity import _fit_bands, _radius_fits, radius_estimate, radius_track
from gch.integrate import BAND_FLOOR, DT_MAX, STEP_SAFETY, STEP_TOL, _compute_grid
from gch.integrate import _held, _hermite, _spectral_stage, spectral_rhs
from gch.persistence import persistence_ledger
from gch.weights import WeightSpec
from gch.rowpass import consume, run_pass, together
from gch.runner import CSV_CHUNK, _write_rows

# the benchmark's pulse for each workload seed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import pulse_for_seed  # noqa: E402


def _force(monkeypatch, stage):
    """Take every stage of ``simulate`` from ``stage(uh, grid)``, as ``(k, operand)``."""
    import gch.integrate as integrate_mod

    monkeypatch.setattr(
        integrate_mod, "_spectral_stage", lambda uh, grid, pre, post: stage(uh, grid)
    )


def _growth(rate):
    """Forced exponential growth ``rate * uh``, the samples of ``uh`` as the operand."""
    return lambda uh, grid: (rate * uh, grid.irfft(uh))


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
        _force(monkeypatch, _growth(100.0))
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(BlowUpError, match="possible blow-up"):
            simulate(u, 1.0, dt=0.01)

    # the (t, step, peak) at which the forced growth aborted when the guard
    # took every step's irfft; step 7 of the explicit run, a step of 0.01,
    # ends on no snapshot.  The default run's steps are set by the error
    # estimate: steps of ~4e-5 (|100 h| ~ 4e-3) reach the guard at step 1575,
    # also off the clock
    @pytest.mark.parametrize(
        "kwargs, t, step, peak",
        [
            ({"dt": 0.01, "snapshot_stride": 4}, 0.07, 7, 10.688451834612373),
            ({"snapshot_stride": 4}, 0.06908748198244767, 1575, 10.009934122116455),
        ],
        ids=["explicit_dt", "default_step"],
    )
    def test_blow_up_guard_fires_where_it_did(self, grid1024, monkeypatch, kwargs, t, step, peak):
        _force(monkeypatch, _growth(100.0))
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(BlowUpError) as info:
            simulate(u, 1.0, **kwargs)
        assert (info.value.t, info.value.step, info.value.peak) == (t, step, peak)
        assert info.value.threshold == 1e3 * lp_norm(u, np.inf)

    def test_guard_reads_the_samples_when_the_bound_is_near(self, grid1024, monkeypatch, fft_calls):
        # forced growth by R(0.9)^7 ~ 535 in seven steps of 0.01: the state at
        # t = 0.07 is past half the guard but under it, and step 7 of a run to
        # T = 0.08 lands no snapshot, so the guard takes that step's irfft and
        # does not fire; step 8 (R(0.9)^8 ~ 1313) lands on T and fires.  An
        # explicit step never reads the stage's operand
        _force(monkeypatch, lambda uh, grid: (90.0 * uh, None))
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        guard = 1e3 * lp_norm(u, np.inf)
        at_seven = simulate(u, 0.07, snapshot_stride=10**6, dt=0.01).final
        uh = grid1024.rfft(at_seven.values)
        assert 2.0 * np.sum(np.abs(uh)) / grid1024.n > 0.5 * guard
        assert lp_norm(at_seven, np.inf) <= guard
        fft_calls.clear()
        with pytest.raises(BlowUpError) as info:
            simulate(u, 0.08, snapshot_stride=10**6, dt=0.01)
        assert (info.value.t, info.value.step) == (0.08, 8)
        # rfft(u0), the guard's irfft after step 7 and the landing irfft
        assert fft_calls == ["rfft", "irfft", "irfft"]

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
        _force(monkeypatch, lambda uh, grid: (np.nan * uh, None))
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
        # stride x estimate_dt overflows a float; the run keeps T only, after
        # the starting step and three steps of the error estimate
        traj = simulate(sech2_small, 0.05, snapshot_stride=10**400)
        assert traj.times.tolist() == [0.0, 0.05]
        assert (traj.n_steps, traj.n_rejected) == (4, 0)

    def test_a_stage_that_never_meets_the_tolerance_raises(self, sech2_small, monkeypatch):
        # each stage flips sign, so k4 - k5 stays ~2e30 |uh| at any step:
        # the step shrinks fivefold per rejection until it passes the floor
        signs = itertools.cycle((-1e30, 1e30))
        _force(monkeypatch, lambda uh, grid: (next(signs) * uh, grid.irfft(uh)))
        with pytest.raises(FloatingPointError, match="step rejected below 5e-14 at t = 0.0"):
            simulate(sech2_small, 0.05)

    def test_snapshot_block_past_the_budget_is_refused(self, sech2_small):
        # ~1e8 snapshots of 1024 samples: refused before the block is allocated
        with pytest.raises(ConfigError, match="exceed SNAPSHOT_BYTES = 1073741824"):
            simulate(sech2_small, 1e4, dt=1e-4)
        traj = simulate(sech2_small, 0.05, snapshot_stride=10**400, dt=0.01)
        assert traj.times.tolist() == [0.0, 0.05]

    def test_more_steps_than_max_steps_are_refused(self, sech2_small, monkeypatch):
        # an infinite clock needs 3 rows, yet 1e12 steps: refused before the first stage
        def stage(uh, grid):
            raise AssertionError("a stage was taken")

        _force(monkeypatch, stage)
        with pytest.raises(ConfigError, match="MAX_STEPS = 1048576"):
            simulate(sech2_small, 1.0, snapshot_stride=10**12, dt=1e-12)

    def test_nonfinite_stage_names_the_time_and_the_step(self, sech2_small, monkeypatch):
        # the 7th stage is step 2's third: steps take k2-k4 and the next step's k1
        calls = itertools.count(1)
        _force(monkeypatch, lambda uh, grid: (uh * (np.nan if next(calls) == 7 else 1.0), None))
        with pytest.raises(FloatingPointError) as err:
            simulate(sech2_small, 0.1, dt=0.01)
        assert str(err.value) == "non-finite RK4 stage 3 at t = 0.01 (step 2)"

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
        # back as many equal steps as the run took forward
        T = 0.2
        traj = simulate(sech2_small, T, snapshot_stride=10**6)
        assert traj.n_steps == 14
        back = traj.final
        deriv = lambda v: -1.0 * rhs(v, RhsForm.FORM_B)
        for _ in range(traj.n_steps):
            back = rk4_step(back, T / traj.n_steps, deriv)
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


@pytest.mark.parametrize("amplitude", [0.05, 1.0])
def test_spectral_rhs_is_the_stage_and_the_primitive_form(amplitude):
    grid = Grid(1024, 40.0)
    u = sample(grid, lambda x: amplitude / np.cosh(x) ** 2)
    uh = grid.rfft(u.values)
    comp, pre, post = _compute_grid(grid, uh, 1024)[1]
    k = spectral_rhs(uh, grid, pre, post)
    assert np.array_equal(k, _spectral_stage(uh, comp, pre, post)[0])
    reference = grid.rfft(rhs(u, "primitive").values)
    assert np.max(np.abs(k - reference)) <= 1e-14 * np.max(np.abs(reference))


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


def _spy_steps(monkeypatch):
    """The ``(band, h)`` of every RK4 step ``simulate`` tries, kept or rejected."""
    import gch.integrate as integrate_mod

    seen = []
    original = integrate_mod._band_rk4

    def spy(y, h, k1, stage):
        seen.append((y.copy(), h))
        return original(y, h, k1, stage)

    monkeypatch.setattr(integrate_mod, "_band_rk4", spy)
    return seen


def _spy_thetas(monkeypatch):
    """The ``theta`` at which ``simulate`` reads each snapshot off its step's interpolant."""
    import gch.integrate as integrate_mod

    seen = []
    original = integrate_mod._hermite

    def spy(out, y0, y1, f0, f1, h, theta, scratch):
        seen.append(theta)
        return original(out, y0, y1, f0, f1, h, theta, scratch)

    monkeypatch.setattr(integrate_mod, "_hermite", spy)
    return seen


class TestStepRule:
    """The default step comes from an error estimate within the stability bound and lands only
    on T; snapshots run on a fixed clock and are read off the steps' interpolants."""

    @pytest.mark.parametrize(
        "pulse, steps", [(_golden_pulse, 8), (_showcase_pulse, 17)],
        ids=["_golden_pulse", "_showcase_pulse"],
    )
    def test_stride_one_steps_past_the_clock(self, pulse, steps):
        # small data: accuracy allows ~1.5 clocks per step, so a stride-1 run takes fewer
        # steps than snapshots; its snapshots match a run whose steps end on each of them
        # (measured 3.8e-11 and 4.0e-11 of max|u|)
        u0, T = pulse()
        a = simulate(u0, T, 1)
        b = simulate(u0, T, 1, dt=estimate_dt(u0))
        assert (a.n_steps, a.n_rejected) == (steps, 0)
        assert b.n_steps == len(b) - 1 > steps
        assert a.times.tobytes() == b.times.tobytes() and a.times[-1] == T
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * np.max(np.abs(b.values))

    # (n, L, T, dt) and the sha256 of the values and times of the stride-1 run, as recorded
    # when every step landed on its snapshot: a snapshot at theta = 1 is the step's end
    @pytest.mark.parametrize("n, L, T, dt, values, times", [
        (1024, 40.0, 0.25, 0.01,
         "e594caf073a75d41a6709b524abd2c0916e329f6384151b8537710c76a908005",
         "ca2f297ddc4e5cd1a3be9e424166c107358f31a1e0ef18b2588f657d15e92d23"),
        (4096, 40.0, 0.5, 0.01,
         "d074410e674c896bbcd97cc82b06296aa28588ff51707f214deb4d644c7ffa0d",
         "cfb246cd1e0ba9161dc0662a5743baf769b4238bc93d514580cf139519ce4ef3"),
        (2048, 10.0, 128 * 0.004, 0.004,
         "5ce2eda68d14dce4ca4f26c9d7477e2912efcea8e033491219b8da4dd23dcf2d",
         "d053e7305d7a4207a6ae7471509104f6ad6ea090f2c0b34b2ee1afa171790b61"),
    ], ids=["25_steps", "50_steps", "128_steps"])
    def test_explicit_stride_one_runs_are_unchanged(self, monkeypatch, n, L, T, dt, values, times):
        thetas = _spy_thetas(monkeypatch)
        traj = simulate(sample(Grid(n, L), lambda x: 0.05 / np.cosh(x) ** 2), T, 1, dt=dt)
        assert thetas == [1.0] * (len(traj) - 1) == [1.0] * traj.n_steps
        assert hashlib.sha256(traj.values.tobytes()).hexdigest() == values
        assert hashlib.sha256(traj.times.tobytes()).hexdigest() == times

    # 0.5 dx = 5/2048 < DT_MAX / 2, so a snapshot interval of 8 clock units
    # (0.039) holds ~2.5 of the error estimate's ~0.015 steps; 38 steps cut to
    # land on the 13 snapshots reached T, 33 accuracy-sized ones do
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
        assert (traj.n_steps, traj.n_rejected) == (33, 0)
        # the starting step is below DT_MAX, the error estimate's steps above it
        assert traj.dt_initial < DT_MAX < traj.dt_final
        # interpolated snapshots drift up to 5.2e-12, step ends below 1e-12
        assert np.max(traj.h1_drift) < 1e-11

    def test_no_step_is_cut_for_a_snapshot(self, fine, monkeypatch):
        seen = _spy_steps(monkeypatch)
        thetas = _spy_thetas(monkeypatch)
        traj = simulate(fine, self.T, self.STRIDE)
        h = [step for _, step in seen]
        assert len(h) == traj.n_steps and traj.n_rejected == 0
        # only T is landed on: every other snapshot is read inside a step
        assert len(thetas) == len(traj) - 1
        assert all(0.0 < theta < 1.0 for theta in thetas[:-1]) and thetas[-1] == 1.0
        t = 0.0
        for step in h[:-1]:
            t += step
        assert h[-1] == self.T - t
        # after the starting step, every step but the last is accuracy-sized
        assert min(h[1:-1]) > 0.9 * max(h[1:-1])

    def test_step_count_pinned_by_fft_calls(self, fine, fft_calls):
        # rfft(u0) and estimate_dt's derivative, the first stage and the starting
        # step's probe, then four stages per step tried (the last is the next
        # step's first) and the snapshot irfft; the guard takes no FFT at a step
        # end that is no snapshot
        traj = simulate(fine, self.T, self.STRIDE)
        assert len(traj) - 1 == 13
        steps = traj.n_steps + traj.n_rejected
        assert len(fft_calls) == 3 + 2 + 2 + 8 * steps + 13 == 3 + 2 + 2 + 8 * 33 + 13

    def test_explicit_step_count_pinned_by_fft_calls(self, fine, monkeypatch, fft_calls):
        # dt = 0.007 caps every step: 71 steps of 0.007 and a last one of what is
        # left, 0.003, which lands on T.  rfft(u0), the first stage, four stages per
        # step (the last step's fourth is the first stage of no step) and the irfft
        # per snapshot
        seen = _spy_steps(monkeypatch)
        traj = simulate(fine, self.T, self.STRIDE, dt=0.007)
        assert (traj.n_steps, traj.n_rejected, len(traj) - 1) == (72, 0, 9)
        assert len(fft_calls) == 1 + 2 + 8 * 72 + 9 == 588
        h = np.array([step for _, step in seen])
        assert np.all(h[:71] == 0.007)
        np.testing.assert_allclose(h[71], 0.003, rtol=1e-12, atol=0.0)
        assert traj.times[-1] == self.T

    def test_large_data_steps_at_the_bound(self, grid4096, monkeypatch):
        # the starting step sits well inside the stability bound and is kept; the error
        # estimate keeps every later step inside it too
        seen = _spy_steps(monkeypatch)
        u0 = sample(grid4096, lambda x: 0.5 / np.cosh(x) ** 2)
        T = 0.25
        traj = simulate(u0, T, snapshot_stride=10**6)
        # y is the compute band of the n-grid rfft; m/n rescales it to the m-grid's
        bound = np.array([
            _stability_bound(Grid(2 * (len(y) - 1), 40.0), y * ((2 * (len(y) - 1)) / grid4096.n))
            for y, _ in seen
        ])
        h = np.array([step for _, step in seen])
        assert np.all(bound < DT_MAX)
        assert h[0] == traj.dt_initial
        assert np.all(h < 0.35 * bound)
        assert np.ptp(bound) > 0.0
        assert (traj.n_steps, traj.n_rejected) == (202, 0)
        assert len(seen) == traj.n_steps + traj.n_rejected
        assert traj.times.tolist() == [0.0, T]
        assert np.max(traj.h1_drift) < 1e-11
        assert lp_norm(traj.final, np.inf) < 2.0 * lp_norm(u0, np.inf)


def _ticks(T, clock):
    """The rows of a run on ``clock``: u0, each tick short of ``T - 1e-12 T``, and T."""
    s, rows = 0.0, 1
    while s < T:
        s = s + clock if s + clock < T - 1e-12 * T else T
        rows += 1
    return rows


@st.composite
def horizons(draw):
    """``(T, unit, stride, explicit)``: T within 3 ulps of whole clocks, a sliver off them, or any."""
    unit = draw(st.floats(1e-4, 1.0))
    stride = draw(st.integers(1, 9))
    clock = stride * unit
    T = draw(st.integers(1, 60)) * clock
    near = draw(st.sampled_from(["ulps", "sliver", "any"]))
    if near == "ulps":
        T += draw(st.integers(-3, 3)) * np.spacing(T)
    elif near == "sliver":  # on either side of the stopping tolerance 1e-12 T
        T *= 1.0 + draw(st.sampled_from([-1e-9, -1e-12, 1e-12, 1e-9]))
    else:
        T = draw(st.floats(1e-3, 60.0)) * clock
    return T, unit, stride, draw(st.booleans())


class TestSnapshotAllocation:
    """The K x n block is allocated from T / clock before the first step; the run stops on time.

    The last snapshot is T: a clock tick within 1e-12 T of it is T itself.
    """

    @settings(max_examples=60, deadline=None, database=None)
    @given(horizons())
    @example((5000 * 1e-3, 1e-3, 1, False))
    @example((np.nextafter(5001 * 1e-3, 0.0), 1e-3, 1, True))
    def test_landings_fit_the_block_and_end_on_T(self, case):
        import gch.integrate as integrate_mod

        T, unit, stride, explicit = case
        u0 = sample(Grid(16, 4.0), lambda x: 0.01 / np.cosh(x) ** 2)
        with mock.patch.object(integrate_mod, "estimate_dt", lambda u: unit):
            traj = simulate(u0, T, stride, dt=unit if explicit else None)
        allocated = traj.values.base.shape[0]
        assert (len(traj), traj.times[-1]) == (_ticks(T, stride * unit), T)
        assert len(traj) < allocated <= len(traj) + 2
        assert traj.h1_drift.shape == traj.compute_n.shape == (len(traj),)


# (k, clock, ulps): T is k clocks moved by ``ulps`` spacings of k * clock.  From a sweep of 175
# such horizons (k up to 49, |ulps| <= 3), where 64 runs ended 1e-16..1.5e-15 relative short of T
# when the last clock tick was landed on in place of T; the first is the golden config's
SHORT_OF_T = [
    (12, 0.01, 0), (7, 0.01, 3), (25, 0.01, 2), (7, 0.003, 0),
    (12, 0.1 / 3, 3), (25, 0.1 / 3, 0), (49, 0.0123, -3), (49, 0.0123, 3),
]


@pytest.mark.parametrize("explicit", [True, False], ids=["explicit_dt", "default_step"])
@pytest.mark.parametrize("k, clock, ulps", SHORT_OF_T)
def test_last_snapshot_lands_on_T(k, clock, ulps, explicit):
    import gch.integrate as integrate_mod

    T = k * clock + ulps * np.spacing(k * clock)
    u0 = sample(Grid(16, 4.0), lambda x: 0.01 / np.cosh(x) ** 2)
    with mock.patch.object(integrate_mod, "estimate_dt", lambda u: clock):
        traj = simulate(u0, T, 1, dt=clock if explicit else None)
    assert traj.times[-1] == T
    assert len(traj) == k + 1


def _long_pulse():
    return sample(Grid(16384, 40.0), lambda x: 0.05 / np.cosh(x) ** 2), 1.0


class TestAccuracy:
    """The error estimate sets the step: what it buys against DT_MAX steps and fixed steps."""

    def test_long_pulse_steps_fewer_at_the_same_radius(self):
        # sigma(T) reads the RK4 error of the top modes, which grows like h^4; STEP_TOL
        # is the largest tolerance that keeps it within 5e-7 of a quarter-DT_MAX run
        # (measured 4.8e-7)
        u0, T = _long_pulse()
        traj = simulate(u0, T, 32)
        fixed = simulate(u0, T, 10**6, dt=DT_MAX / 4)
        assert (traj.n_steps, traj.n_rejected) == (67, 0) and fixed.n_steps == 400
        sigma, reference = (radius_estimate(u).sigma for u in (traj.final, fixed.final))
        assert abs(sigma - reference) <= 5e-7 * reference
        assert np.max(traj.h1_drift) <= 1e-11

    def test_large_pulse_is_conserved(self):
        # amp 0.5 to T = 0.3: the stability bound alone drifts 9.3e-9 in 62 steps
        u0 = sample(Grid(4096, 40.0), lambda x: 0.5 / np.cosh(x) ** 2)
        traj = simulate(u0, 0.3, snapshot_stride=10**6)
        assert (traj.n_steps, traj.n_rejected) == (277, 0)
        assert np.max(traj.h1_drift) <= 1e-9

    def test_tighter_tolerance_takes_shorter_steps(self, sech2_small, monkeypatch):
        import gch.integrate as integrate_mod

        runs = []
        for tol in (STEP_TOL, STEP_TOL / 16):
            monkeypatch.setattr(integrate_mod, "STEP_TOL", tol)
            runs.append(simulate(sech2_small, 0.5, snapshot_stride=10**6))
        # the local error is O(h^4): a 16x tighter tolerance halves the step
        assert 1.7 <= runs[1].n_steps / runs[0].n_steps <= 2.3
        assert runs[1].h1_drift[-1] < runs[0].h1_drift[-1]

    def test_snapshot_block_is_written_once(self):
        # history's config: the K x n block is allocated before the first step and
        # each landing row written into it, with no second copy of the block
        u0 = sample(Grid(4096, 40.0), lambda x: 0.05 / np.cosh(x) ** 2)
        simulate(u0, 0.05)
        tracemalloc.start()
        try:
            traj = simulate(u0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        K, n = traj.values.shape
        assert K == 104
        # the block and ~22 n-length stage temporaries; 122 when the rows were stacked
        assert peak <= (K + 32) * n * 8


# (n, T, snapshot_stride) of the benchmark's workloads, all on L = 40
DENSE_WORKLOADS = {"showcase": (4096, 0.25, 1), "history": (4096, 1.0, 1), "long": (16384, 1.0, 32)}
#: What an interpolated snapshot of a DENSE_WORKLOADS run may be off by, against a run that
#: steps an eighth of the clock and ends a step on every snapshot: u against max|u|, the
#: weighted norms W and the interior radii, relative.  The largest values on those workloads
#: at seeds 0-10: u 1.0e-10, W 6.0e-10, sigma 3.9e-6 (the radii's bands: one mode on one
#: snapshot in 33 runs); the step ends' own error is up to 1.0e-10 in u and 6.9e-7 in sigma.
DENSE_TOL = {"u": 2e-10, "W": 1e-9, "sigma": 1e-5}


class TestDenseOutput:
    """A snapshot inside a step is the step's cubic Hermite interpolant."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(1, 40), st.floats(1e-3, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_interpolant_is_exact_on_cubics_and_is_y1_at_one(self, size, h, theta, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(4))

        def y(t):
            return a + t * (b + t * (c + t * d))

        def slope(t):
            return b + t * (2.0 * c + 3.0 * t * d)

        out, scratch = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        _hermite(out, y(0.0), y(h), slope(0.0), slope(h), h, theta, scratch)
        np.testing.assert_allclose(out, y(theta * h), rtol=0.0, atol=1e-13)
        _hermite(out, y(0.0), y(h), slope(0.0), slope(h), h, 1.0, scratch)
        assert out.tobytes() == y(h).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("workload", DENSE_WORKLOADS)
    def test_snapshots_match_a_run_at_an_eighth_of_the_clock(self, workload, seed):
        # the benchmark's workloads and pulses, against explicit steps of an eighth of the
        # clock that end on every snapshot
        n, T, stride = DENSE_WORKLOADS[workload]
        pulse = pulse_for_seed(seed)
        u0 = sample(
            Grid(n, 40.0),
            lambda x: pulse.amplitude / np.cosh((x - pulse.center) / pulse.width) ** 2,
        )
        traj = simulate(u0, T, stride)
        fine = simulate(u0, T, 8, dt=stride * estimate_dt(u0) / 8)
        assert traj.times.tobytes() == fine.times.tobytes()
        gap = np.max(np.abs(traj.values - fine.values)) / np.max(np.abs(fine.values))
        assert gap <= DENSE_TOL["u"]
        phi = WeightSpec(0.5, 1.0, 0.5, 1.0)
        W, W_ref = (persistence_ledger(run, phi, np.inf).W for run in (traj, fine))
        assert np.max(np.abs(W - W_ref) / W_ref) <= DENSE_TOL["W"]
        # sigma is fitted on the reference's band: a coefficient within the interpolant's
        # error of SPECTRUM_FLOOR may cross it and lengthen or shorten the band by one mode
        # (history seed 5, t = 0.254), which moves that one estimate by 5.5e-4
        c, start, length = _fit_bands(traj.grid, traj.grid.rfft(traj.values))
        c_ref, start_ref, length_ref = _fit_bands(fine.grid, fine.grid.rfft(fine.values))
        assert np.all(start == start_ref) and np.all(np.abs(length - length_ref) <= 1)
        sigma = _radius_fits(traj.grid.k_rfft, c, start_ref, length_ref)[0]
        reference = radius_track(fine).sigma
        assert np.max(np.abs(sigma - reference)[1:-1] / reference[1:-1]) <= DENSE_TOL["sigma"]


def _pulse_runs():
    """``(amplitude, eps, T, stride, dt)``: a 256-mode pulse, eps a power of two, dt or None."""
    return st.tuples(
        st.floats(0.75, 3.0), st.sampled_from([0.25, 0.5, 2.0, 4.0]), st.floats(1e-3, 0.02),
        st.sampled_from([1, 3, 10**6]), st.one_of(st.none(), st.floats(5e-4, 5e-3)),
    )


@settings(max_examples=30, deadline=None, database=None)
@given(_pulse_runs())
@example((1.5, 2.0, 0.02, 1, None))
@example((1.0, 0.5, 0.02, 3, 2e-3))
def test_scaling_symmetry(case):
    # u -> eps u(eps t) maps solutions to solutions; a power-of-two eps scales every
    # float exactly, the interpolant's weights depend on theta only, and the default
    # step is scaled where the clock is (speed >= 1, unit below DT_MAX)
    amplitude, eps, T, stride, dt = case
    grid = Grid(256, 10.0)
    u0 = sample(grid, lambda x: amplitude / np.cosh(x) ** 2)
    v0 = Field(grid, eps * u0.values)
    assume(dt is not None or estimate_dt(v0) == estimate_dt(u0) / eps < DT_MAX)
    base = simulate(u0, T, stride, dt=dt)
    scaled = simulate(v0, T / eps, stride, dt=None if dt is None else dt / eps)
    assert scaled.values.tobytes() == (eps * base.values).tobytes()
    assert scaled.times.tobytes() == (base.times / eps).tobytes()
    assert (scaled.n_steps, scaled.n_rejected) == (base.n_steps, base.n_rejected)
    assert scaled.compute_n.tolist() == base.compute_n.tolist()
    assert scaled.h1_drift.tobytes() == base.h1_drift.tobytes()


def _holds(y, m):
    """Every coefficient of the band ``y`` at or above mode 2m/9 is at most the floor."""
    a = np.abs(y)
    return bool(np.all(a[-(-2 * m // 9):] <= BAND_FLOOR * np.max(a)))


def _full_read_size(uh, m, n):
    """The compute-grid rule read off every coefficient of ``uh``."""
    if m == n:
        return m
    a = np.abs(uh)
    above = np.flatnonzero(a > BAND_FLOOR * np.max(a))
    while m < n and above.size and 9 * above[-1] >= 2 * m:
        m *= 2
    return m


@pytest.mark.parametrize("seed", range(6))
def test_band_read_matches_the_full_read(seed):
    # decaying spectra over a roundoff plateau; the tail above the band is
    # either under the floor or holds one coefficient above it
    rng = np.random.default_rng(seed)
    n = 4096
    grid = Grid(n, 40.0)
    k = np.arange(n // 2 + 1)
    for trial in range(40):
        sigma = rng.uniform(0.01, 0.3)
        uh = np.exp(-sigma * k) * np.exp(2j * np.pi * rng.random(k.size))
        uh += 1e-17 * rng.standard_normal(k.size)
        m = int(2 ** rng.integers(4, 13))
        if trial % 4 == 0 and m < n:
            uh[rng.integers(m // 2 + 1, k.size)] = 1e-10
        if trial % 10 == 9:
            uh[:] = 0.0
        compute = _compute_grid(grid, uh, m)
        assert compute[3] == (np.max(np.abs(uh[m // 2 + 1 :])) if m < n else 0.0)
        held = _held(grid, uh, compute, np.abs(uh[: m // 2 + 1]))
        assert held[0] == _full_read_size(uh, m, n), (trial, m)
        assert (held is compute) == (held[0] == m)


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
        """The band each RK4 step is tried on, as the ``_band_rk4`` state."""
        return _spy_steps(monkeypatch)

    def test_long_pulse_matches_the_full_grid(self, full_grid, monkeypatch):
        import gch.integrate as integrate_mod

        u0, T = _long_pulse()
        a = simulate(u0, T, 32)
        # the full grid's stability bound is ~4x the compute grid's smaller and
        # would bind; lifted, the error estimate chooses the same steps on both
        monkeypatch.setattr(integrate_mod, "STEP_SAFETY", 1e6)
        b = full_grid(u0, T, 32)
        assert a.compute_n[0] < u0.grid.n
        assert b.compute_n.tolist() == [u0.grid.n] * len(b)
        assert a.times.tobytes() == b.times.tobytes()
        assert (a.n_steps, a.n_rejected) == (b.n_steps, b.n_rejected) == (67, 0)
        gap = max(
            lp_norm(sa - sb, np.inf) for sa, sb in zip(a.snapshots, b.snapshots, strict=True)
        )
        assert gap <= 1e-15

    def test_every_step_holds_its_spectrum(self, bands, fft_calls):
        u0, T = _long_pulse()
        n = u0.grid.n
        traj = simulate(u0, T, 32)
        # the rule reads uh: 7 FFTs per run (the starting step's probe included), 8 per
        # step tried and 1 per snapshot
        tried = traj.n_steps + traj.n_rejected
        assert len(fft_calls) == 3 + 2 + 2 + 8 * tried + len(traj) - 1 == 556
        sizes = traj.compute_n
        assert sizes.shape == (len(traj),)
        assert np.all(np.diff(sizes) >= 0)
        assert all(16 <= m <= n and m & (m - 1) == 0 for m in sizes.tolist())
        steps = [2 * (len(y) - 1) for y, _ in bands]
        assert len(steps) == tried
        assert steps[0] == sizes[0] and steps[-1] == sizes[-1]
        assert np.all(np.diff(steps) >= 0) and set(steps) == set(sizes.tolist())
        for i, ((y, _), m) in enumerate(zip(bands, steps)):
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
        assert {len(y) for y, _ in bands} == {9}
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


def test_h1_drift_on_showcase_pulse(monkeypatch):
    grid = Grid(4096, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    seen = _spy_thetas(monkeypatch)
    traj = simulate(u0, 0.25, snapshot_stride=1)
    thetas = np.array([1.0] + seen)  # u0 is no interpolant
    drift = traj.h1_drift
    assert drift.shape == thetas.shape == (len(traj),)
    assert drift[0] == 0.0
    # a step end conserves H^1 to RK4's own error; an interpolated snapshot
    # carries the interpolant's (max 6.6e-12)
    ends = thetas == 1.0
    assert 2 <= np.count_nonzero(ends) < len(traj)
    assert np.all(drift[ends] < 1e-12)
    assert np.all(drift < 1e-11)
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
        with pytest.raises(ValueError, match="need at least one snapshot"):
            Trajectory.from_snapshots([], [])

    @pytest.mark.parametrize(
        "times", [[], [[0.0], [0.1]], 0.0], ids=["empty", "two_dimensional", "scalar"]
    )
    def test_times_must_be_non_empty_and_one_dimensional(self, sech, times):
        values = np.tile(sech.values, (np.size(times), 1))
        with pytest.raises(ValueError, match="times must be non-empty and 1-D"):
            Trajectory(sech.grid, times, values)

    @pytest.mark.parametrize(
        "times", [[0.0, np.nan, 0.2], [0.0, 0.1, np.nan], [0.0, 0.1, np.inf], [0.0, np.inf]],
        ids=["nan_inside", "nan_last", "inf_last", "inf_second"],
    )
    def test_times_must_be_finite(self, sech, times):
        block = np.tile(sech.values, (len(times), 1))
        with pytest.raises(ValueError, match="times must be finite"):
            Trajectory(sech.grid, np.array(times), block)

    @pytest.mark.parametrize("other", [Grid(64, 4.0), Grid(32, 8.0)], ids=["other_L", "other_n"])
    def test_from_snapshots_rejects_mixed_grids(self, other):
        first = Field(Grid(64, 8.0), np.zeros(64))
        with pytest.raises(ValueError) as err:
            Trajectory.from_snapshots([0.0, 1.0], [first, Field(other, np.zeros(other.n))])
        assert str(err.value) == f"snapshot 1 lives on {other}, snapshot 0 on {first.grid}"

    @pytest.fixture(scope="class")
    def traj(self, sech2_small):
        return simulate(sech2_small, 0.1)

    def test_values_are_one_read_only_block(self, traj):
        assert traj.values.shape == (len(traj), traj.grid.n)
        assert traj.values.dtype == np.float64
        with pytest.raises(ValueError):
            traj.values[0, 0] = 1.0

    def test_times_are_read_only(self, traj, sech):
        built = Trajectory(sech.grid, [0.0, 0.5], np.stack([sech.values, sech.values]))
        assert isinstance(built.times, np.ndarray) and built.times.dtype == np.float64
        for times in (traj.times, built.times):
            with pytest.raises(ValueError):
                times[1] = -1.0

    def test_block_is_read_only_but_the_callers_array_is_not(self, sech):
        block = np.stack([sech.values, 2.0 * sech.values])
        traj = dataclasses.replace(
            Trajectory.from_snapshots([0.0, 1.0], [sech, sech]), values=block
        )
        assert block.flags.writeable and not traj.values.flags.writeable
        assert np.array_equal(traj.values, block)

    @pytest.mark.parametrize("top", [0, 1, 2])
    def test_a_pass_takes_each_blocks_rfft_and_derivatives(self, traj, monkeypatch, top):
        import gch.integrate as integrate_mod

        monkeypatch.setattr(integrate_mod, "ROW_BLOCK_BYTES", 3 * 16 * 513)
        blocks = []
        run_pass(traj, consume(lambda *block: blocks.append(block), top, 5))
        assert [rows for rows, _, _ in blocks] == [slice(0, 3), slice(3, 5)]
        grid = traj.grid
        for rows, spec, d in blocks:
            assert len(d) == top + 1 and np.array_equal(d[0], traj.values[rows])
            # bit for bit the rfft and derivatives of each row on its own
            for i, row in enumerate(traj.values[rows]):
                row_spec = grid.rfft(row)
                assert np.array_equal(spec[i], row_spec)
                for k in range(1, top + 1):
                    assert np.array_equal(d[k][i], grid.irfft(grid.diff_hat(row_spec, k)))

    def test_together_isolates_a_consumer_that_raises(self, traj, monkeypatch):
        import gch.integrate as integrate_mod

        monkeypatch.setattr(integrate_mod, "ROW_BLOCK_BYTES", 16 * 513)

        def fail_at_row_3(rows, spec, d):
            if rows.start == 3:
                raise ValueError("row 3")

        def failing():
            return consume(fail_at_row_3, 0, len(traj))

        seen = []
        watching = consume(lambda rows, spec, d: seen.append((rows.start, len(d))), 1, len(traj))
        failed, watched = run_pass(traj, together(failing(), watching, isolate=True))
        assert isinstance(failed, ValueError) and watched is None
        # the pass went on, with the derivatives the other consumer asked for
        assert seen == [(i, 2) for i in range(len(traj))]
        with pytest.raises(ValueError, match="row 3"):
            run_pass(traj, together(failing()))

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

    @pytest.mark.parametrize("rows", [1, 7, CSV_CHUNK, 2 * CSV_CHUNK + 3])
    def test_rows_text_is_each_entry_formatted(self, rows):
        signed_zeros = np.where(np.arange(rows) % 2 == 0, 0.0, -0.0)
        columns = (
            signed_zeros,  # equal as numbers, not bit for bit: formatted entry by entry
            np.full(rows, -0.0),
            np.full(rows, np.nan),
            np.full(rows, 0.1),
            np.full(rows, 7, dtype=np.intp),
            np.linspace(-1.0, 1.0, rows),
            np.arange(rows) % 3,
            np.arange(rows) % 2 == 0,
        )
        buf = io.StringIO()
        _write_rows(buf, "deadbeef0123", "a,b,c,d,e,f,g,h", [columns, [col[:2] for col in columns]])
        entries = [
            ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
            for block in (columns, [col[:2] for col in columns])
            for row in zip(*(col.tolist() for col in block))
        ]
        expected = "# config-hash: deadbeef0123\na,b,c,d,e,f,g,h\n" + "\n".join(entries) + "\n"
        assert buf.getvalue() == expected
        if rows > 1:
            assert "0.0,-0.0,nan,0.1,7," in expected and "-0.0,-0.0,nan,0.1,7," in expected

    def test_checkpoint_round_trip(self, tmp_path, sech2_small):
        path = tmp_path / "state.bin"
        write_checkpoint(path, sech2_small, 0.375)
        t, field = read_checkpoint(path)
        assert t == 0.375
        assert field.grid == sech2_small.grid
        np.testing.assert_array_equal(field.values, sech2_small.values)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_checkpoint_of_a_non_finite_time_is_refused(self, tmp_path, sech2_small, t):
        # read_checkpoint refuses such a dump, so it is never written
        path = tmp_path / "state.bin"
        with pytest.raises(ValueError, match="t must be finite"):
            write_checkpoint(path, sech2_small, t)
        assert not path.exists()

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
            pytest.param(lambda raw: raw[:-8], "16 samples need 128 bytes after the header, "
                         "found 120", id="state_cut"),
            pytest.param(lambda raw: raw[:4] + struct.pack("<I", 0) + raw[8:24],
                         "n must be a power of two >= 16, got 0", id="n_zero"),
            pytest.param(_put(8, "<d", np.nan), "half_width must be positive and finite",
                         id="L_nan"),
            pytest.param(_put(48, "<d", np.inf), "non-finite", id="non_finite_sample"),
            pytest.param(_put(16, "<d", np.nan), "t must be finite, got nan", id="t_nan"),
            pytest.param(_put(16, "<d", -np.inf), "t must be finite, got -inf", id="t_inf"),
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
            pytest.param(_put(24, "<I", 4), "4 snapshots of 16 samples need 544 bytes after the "
                         "header, found 408", id="count_too_large"),
            pytest.param(lambda raw: raw[:-8], "3 snapshots of 16 samples need 408 bytes after the "
                         "header, found 400", id="block_cut"),
            pytest.param(_put(4, "<I", 2**31), "3 snapshots of 2147483648 samples need 51539607576 "
                         "bytes after the header, found 408", id="n_too_large"),
            pytest.param(_put(16, "<d", 0.75), "last time 0.5 differs from the header's 0.75",
                         id="last_time_mismatch"),
            pytest.param(_put(48, "<d", 0.0), "increase strictly", id="times_not_increasing"),
            pytest.param(_put(48, "<d", np.nan), "increase strictly", id="time_nan"),
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
