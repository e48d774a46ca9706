import dataclasses
import hashlib
import inspect
import itertools
import io
import math
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
from gch.config import MAX_N
from gch.grid import GRID_SIZES
from gch.dynamics import SIMULATION_FORMS, RhsForm
from gch.analyticity import _fit_bands, _radius_fits, radius_estimate, radius_track
from gch.integrate import BAND_FLOOR, DT_MAX, K, _compute_grid, _root, _series
from gch.integrate import _held, _spectral_stage
from gch.persistence import persistence_ledger
from gch.weights import WeightSpec
from gch.rowpass import consume, run_pass, together
from gch.runner import CSV_CHUNK, _write_rows

# the benchmark's pulse for each workload seed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import pulse_for_seed  # noqa: E402


def _force(monkeypatch, stage):
    """Take every RK4 stage of ``simulate`` from ``stage(uh, grid)``."""
    import gch.integrate as integrate_mod

    monkeypatch.setattr(
        integrate_mod, "_spectral_stage", lambda uh, grid, pre, post: stage(uh, grid)
    )


def _growth(rate):
    """Forced exponential growth ``rate * uh``."""
    return lambda uh, grid: rate * uh


def _force_series(monkeypatch, rate=None, rho=None):
    """Take every series of ``simulate`` as that of ``u_t = rate * u``: ``a_j = rate^j / j! a_0``,
    with its own radius, or ``rho`` in its place."""
    import gch.integrate as integrate_mod

    def series(y, ops, W, A, work, spec):
        previous = y[: A.shape[1]]
        for j in range(1, K + 1):
            previous = np.multiply(previous, rate / j, out=A[j - 1])
        if rho is not None:
            return rho
        return min(_root(math.factorial(j) / rate**j, j) for j in (K // 2, K))

    monkeypatch.setattr(integrate_mod, "_series", series)


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
        # explicit RK4 at a 32nd and a 64th of the series' first step: the series' final state
        # is within the RK4 pair's own gap of the finer run (measured 1.2e-14 and 1.8e-13)
        a = simulate(sech2_small, 0.5, snapshot_stride=10**6)
        b, c = (
            simulate(sech2_small, 0.5, snapshot_stride=10**6, dt=a.dt_initial / k).final
            for k in (32, 64)
        )
        assert lp_norm(a.final - c, np.inf) <= lp_norm(b - c, np.inf) <= 1e-12

    def test_blow_up_guard(self, grid1024, monkeypatch):
        # wire a forced exponential growth through simulate's spectral-stage hook
        _force(monkeypatch, _growth(100.0))
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(BlowUpError, match="possible blow-up"):
            simulate(u, 1.0, dt=0.01)

    # the (t, step, peak) at which the forced growth aborted when the guard
    # took every step's irfft; step 7 of the explicit run, a step of 0.01,
    # ends on no snapshot.  The default run sums the series of u_t = 100 u,
    # whose radius sets steps of 0.0044, and reaches the guard at step 16,
    # also off the clock
    @pytest.mark.parametrize(
        "kwargs, t, step, peak",
        [
            ({"dt": 0.01, "snapshot_stride": 4}, 0.07, 7, 10.688451834612373),
            ({"snapshot_stride": 4}, 0.0695520681017788, 16, 10.485953757255599),
        ],
        ids=["explicit_dt", "default_step"],
    )
    def test_blow_up_guard_fires_where_it_did(self, grid1024, monkeypatch, kwargs, t, step, peak):
        _force(monkeypatch, _growth(100.0))
        _force_series(monkeypatch, rate=100.0)
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
        _force(monkeypatch, lambda uh, grid: 90.0 * uh)
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

    def test_nonfinite_stage_named(self, grid1024):
        # the default path's first stage is its series' first order: the square of a 1e200
        # pulse overflows there
        u = sample(grid1024, lambda x: 1e200 / np.cosh(x) ** 2)
        with pytest.raises(FloatingPointError) as err:
            simulate(u, 0.1, snapshot_stride=10**400)
        assert str(err.value) == "non-finite series order 1 at t = 0.0 (step 1)"

    def test_nonfinite_later_order_named(self, grid1024):
        # the Cauchy products of a 1e80 pulse overflow in the third order
        u = sample(grid1024, lambda x: 1e80 / np.cosh(x) ** 2)
        with pytest.raises(FloatingPointError) as err:
            simulate(u, 0.1, snapshot_stride=10**400)
        assert str(err.value) == "non-finite series order 3 at t = 0.0 (step 1)"

    def test_nonfinite_stage_named_explicit_dt(self, grid1024, monkeypatch):
        _force(monkeypatch, lambda uh, grid: np.nan * uh)
        u = sample(grid1024, lambda x: 0.01 / np.cosh(x) ** 2)
        with pytest.raises(FloatingPointError, match="non-finite RK4 stage 1"):
            simulate(u, 0.1, dt=0.01)

    @pytest.mark.parametrize("T", [1e21, 2e21], ids=["snapshot", "step_end"])
    def test_a_step_end_that_overflows_is_a_blow_up(self, T):
        # an RK4 step of 1e21 whose stages stay finite but whose end overflows: the guard reads
        # a NaN peak and fires at that step, at a snapshot (T) or at a step end that is none
        u0 = sample(Grid(64, 10.0), lambda x: 1.0 / np.cosh(x) ** 2)
        with pytest.raises(BlowUpError) as info:
            simulate(u0, T, 10**6, dt=1e21)
        assert (info.value.t, info.value.step) == (1e21, 1) and math.isnan(info.value.peak)

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
        # stride x estimate_dt overflows a float; the run keeps T only, in one step
        traj = simulate(sech2_small, 0.05, snapshot_stride=10**400)
        assert traj.times.tolist() == [0.0, 0.05]
        assert (traj.n_steps, traj.n_rejected) == (1, 0)

    def test_a_series_step_below_the_floor_raises(self, sech2_small, monkeypatch):
        # a radius of 1e-14 makes a step of ~1.2e-15, under STEP_FLOOR * T = 5e-14
        _force_series(monkeypatch, rate=1.0, rho=1e-14)
        with pytest.raises(FloatingPointError) as err:
            simulate(sech2_small, 0.05)
        assert str(err.value) == "series step 1.15e-15 below 5e-14 at t = 0.0 (step 1)"

    def test_a_stage_that_never_meets_the_tolerance_raises(self, sech2_small, monkeypatch):
        # a step whose end the band never holds to BAND_FLOOR (past the first grid's choice)
        # is halved until it passes the floor: it cannot spin
        import gch.integrate as integrate_mod

        calls = itertools.count()
        monkeypatch.setattr(
            integrate_mod, "_held",
            lambda grid, uh, compute, a: compute[0] if next(calls) == 0 else grid.n + 1,
        )
        with pytest.raises(FloatingPointError, match=r"series step \S+ below 5e-14 at t = 0.0"):
            simulate(sech2_small, 0.05)

    def test_a_default_run_stops_after_max_steps(self, monkeypatch):
        # the 0.5 pulse past its loss of analyticity takes well over 8 steps
        import gch.integrate as integrate_mod

        monkeypatch.setattr(integrate_mod, "MAX_STEPS", 8)
        u0 = sample(Grid(1024, 40.0), lambda x: 0.5 / np.cosh(x) ** 2)
        with pytest.raises(FloatingPointError) as err:
            simulate(u0, 1.0, snapshot_stride=10**6)
        assert re.fullmatch(
            r"MAX_STEPS = 8 steps end short of T at t = 0\.\d+ \(step 9\)", str(err.value)
        )

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
        # the 7th stage is step 2's third: each step takes its four stages
        calls = itertools.count(1)
        _force(monkeypatch, lambda uh, grid: uh * (np.nan if next(calls) == 7 else 1.0))
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
        # back in 14 equal physical-space RK4 steps of the negated right side
        T = 0.2
        traj = simulate(sech2_small, T, snapshot_stride=10**6)
        assert traj.n_steps == 1
        back = traj.final
        deriv = lambda v: -1.0 * rhs(v, RhsForm.FORM_B)
        for _ in range(14):
            back = rk4_step(back, T / 14, deriv)
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


# (n, amplitude, T, dt, snapshot_stride) of explicit runs of amplitude / cosh(x)^2 on L = 40,
# and the sha256 over their times, values, h1_drift and compute_n: the selftest's order-check
# run and one at a quarter of its dt, CI's explicit showcase run, a run whose compute grid
# grows 1280 -> 4096, and a large pulse on a fine step
EXPLICIT_RUNS = {
    "selftest": ((1024, 0.05, 0.8, 0.1, 10**6),
                 "8452112e3eb7722f7faf743a643fecdb2cd17e0a4b5ad68cbce3ccaba675b1b8"),
    "selftest_dt_025": ((1024, 0.05, 0.8, 0.025, 10**6),
                        "dba19c6e7b77b12d46806f3c7dd35a70c8036e143c038a1c02b9bd4be865725b"),
    "showcase": ((4096, 0.05, 0.25, 0.002, 4),
                 "06498c2c928c08d776935dd50522b2f31dba0a582658a3979b8661a6aab79995"),
    "growing": ((4096, 0.2, 1.0, 0.01, 10),
                "6dfd85092a9271e203679a31c157fa4753e5ab00109450c7b9049c316dc40823"),
    "large": ((4096, 0.5, 0.3, 5e-4, 100),
              "1d13ddbdad989bdb69188ff925e9ee06377378cad9b7e8b1b5c0991a3b34b5eb"),
}


@pytest.mark.parametrize("case", sorted(EXPLICIT_RUNS))
def test_explicit_runs_are_pinned(case):
    (n, amplitude, T, dt, stride), expected = EXPLICIT_RUNS[case]
    traj = simulate(sample(Grid(n, 40.0), lambda x: amplitude / np.cosh(x) ** 2), T, stride, dt=dt)
    digest = hashlib.sha256()
    for part in (traj.times, traj.values, traj.h1_drift, traj.compute_n):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == expected
    if case == "growing":
        assert (traj.compute_n[0], traj.compute_n[-1]) == (1280, 4096)


@pytest.mark.parametrize("amplitude", [0.05, 1.0])
def test_spectral_stage_is_the_primitive_form(amplitude):
    grid = Grid(1024, 40.0)
    u = sample(grid, lambda x: amplitude / np.cosh(x) ** 2)
    uh = grid.rfft(u.values)
    k = _spectral_stage(uh, *_compute_grid(grid, uh, 1024)[1])
    reference = grid.rfft(rhs(u, "primitive").values)
    assert np.max(np.abs(k - reference)) <= 1e-14 * np.max(np.abs(reference))


def _spy_series(monkeypatch):
    """The ``(band, h_max)`` of every series ``simulate`` builds: its start and its step."""
    import gch.integrate as integrate_mod

    seen = []
    original = integrate_mod._series

    def spy(y, ops, W, A, work, spec):
        rho = original(y, ops, W, A, work, spec)
        seen.append((y.copy(), rho * _root(BAND_FLOOR, K)))
        return rho

    monkeypatch.setattr(integrate_mod, "_series", spy)
    return seen


def _spy_sums(monkeypatch):
    """The ``(series, tau)`` of every sum ``simulate`` takes: how many series came before it,
    and the time from the step's start."""
    import gch.integrate as integrate_mod

    seen = []
    series = _spy_series(monkeypatch)
    original = integrate_mod._sum

    def spy(out, y, A, tau):
        seen.append((len(series), tau))
        return original(out, y, A, tau)

    monkeypatch.setattr(integrate_mod, "_sum", spy)
    return series, seen


def _by_step(sums):
    """Per step, ``(trial, end, inside)``: the sum at the step's rule length, the one the step
    ended at (halved from the trial while the band did not hold), and the snapshots inside."""
    steps = []
    for index, group in itertools.groupby(sums, key=lambda call: call[0]):
        taus = [tau for _, tau in group]
        k = 1
        while k < len(taus) and taus[k] == 0.5 * taus[k - 1]:
            k += 1
        steps.append((taus[0], taus[k - 1], taus[k:]))
    return steps


def _build_series(y, ops, samples=False):
    """``(rho, A)`` of :func:`_series` at the band ``y`` on the compute grid ``ops``, and the
    samples ``W`` of orders 0 .. K - 1 with ``samples``."""
    comp = ops[0]
    W, A = np.empty((K, comp.n)), np.empty((K, -(-comp.n // 3)), complex)
    rho = _series(y, ops, W, A, np.empty((2, comp.n)), np.empty(comp.n // 2 + 1, complex))
    return (rho, A, W) if samples else (rho, A)


def _sample_sum(y, ops, A, tau):
    """The oracle of ``_sum``: the series summed over its samples, as it was first taken.

    ``sum_j tau^j w_j`` with ``w_j = irfft(pre a_j)``, j = 1 .. K, in j's order with the
    powers taken by repeated products, then one rfft on the compute grid, divided by ``pre``
    on the kept band; the modes from m/3 up are ``y``'s.
    """
    comp, pre, _ = ops
    kept = A.shape[1]
    q = np.einsum("j,jm->m", np.cumprod(np.full(K, tau)), comp.irfft(A * pre[:kept]))
    out = y.copy()
    out[:kept] += comp.rfft(q)[:kept] / pre[:kept]
    return out


def test_fft_pairs_per_step(fft_calls, monkeypatch):
    # rfft(u0) and estimate_dt's derivative, 2K FFTs per series (no irfft of its last order)
    # and one irfft per snapshot; a sum, at a step's end, a halving or a snapshot, takes none
    grid = Grid(1024, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    series, sums = _spy_sums(monkeypatch)
    traj = simulate(u0, 0.25, snapshot_stride=5)
    assert traj.n_steps == len(series) > 0
    assert len(sums) > traj.n_steps
    assert len(fft_calls) == 3 + 2 * K * traj.n_steps + len(traj) - 1


def _golden_pulse():
    return sample(Grid(1024, 30.0), lambda x: 0.05 / np.cosh(x) ** 2), 0.12


def _showcase_pulse():
    return sample(Grid(4096, 40.0), lambda x: 0.05 / np.cosh(x) ** 2), 0.25


def _spy_steps(monkeypatch):
    """The ``(band, h)`` of every RK4 step ``simulate`` takes."""
    import gch.integrate as integrate_mod

    seen = []
    original = integrate_mod.rk4_step

    def spy(y, h, deriv):
        seen.append((y.copy(), h))
        return original(y, h, deriv)

    monkeypatch.setattr(integrate_mod, "rk4_step", spy)
    return seen


class TestStepRule:
    """A default step sums the flow's Taylor series over ``rho BAND_FLOOR^(1/K)`` and lands only
    on T; snapshots run on a fixed clock and are the step's series summed at their times."""

    @pytest.mark.parametrize(
        "pulse, steps, cut", [(_golden_pulse, 1, 0), (_showcase_pulse, 2, 1)],
        ids=["_golden_pulse", "_showcase_pulse"],
    )
    def test_stride_one_steps_past_the_clock(self, pulse, steps, cut):
        # small data: one series step spans many clocks; the snapshots match a stride-1 RK4
        # run whose steps end on each of them to that run's own error (measured 1.9e-12 and
        # 3.7e-12 of max|u|)
        u0, T = pulse()
        a = simulate(u0, T, 1)
        b = simulate(u0, T, 1, dt=estimate_dt(u0))
        assert (a.n_steps, a.n_rejected) == (steps, cut)
        assert b.n_steps == len(b) - 1 > steps
        assert a.times.tobytes() == b.times.tobytes() and a.times[-1] == T
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * np.max(np.abs(b.values))

    # (n, L, T, dt) and the sha256 of the values and times of the stride-1 run, as recorded
    # when a step's snapshot was read off its interpolant at theta = 1, the step's end.
    # 50_steps steps on m = 1280-2048; stepped on powers of two only (m = 2048-4096) its
    # values were within 5.5e-16 of max|u| of these
    @pytest.mark.parametrize("n, L, T, dt, values, times", [
        (1024, 40.0, 0.25, 0.01,
         "e594caf073a75d41a6709b524abd2c0916e329f6384151b8537710c76a908005",
         "ca2f297ddc4e5cd1a3be9e424166c107358f31a1e0ef18b2588f657d15e92d23"),
        (4096, 40.0, 0.5, 0.01,
         "4c36d3a75a3913f7386ca7eff017cc91fb0c5f0757a8f087251a32428b0c7bf4",
         "cfb246cd1e0ba9161dc0662a5743baf769b4238bc93d514580cf139519ce4ef3"),
        (2048, 10.0, 128 * 0.004, 0.004,
         "5ce2eda68d14dce4ca4f26c9d7477e2912efcea8e033491219b8da4dd23dcf2d",
         "d053e7305d7a4207a6ae7471509104f6ad6ea090f2c0b34b2ee1afa171790b61"),
    ], ids=["25_steps", "50_steps", "128_steps"])
    def test_explicit_stride_one_runs_are_unchanged(self, n, L, T, dt, values, times):
        traj = simulate(sample(Grid(n, L), lambda x: 0.05 / np.cosh(x) ** 2), T, 1, dt=dt)
        assert len(traj) - 1 == traj.n_steps
        assert hashlib.sha256(traj.values.tobytes()).hexdigest() == values
        assert hashlib.sha256(traj.times.tobytes()).hexdigest() == times

    @pytest.fixture(scope="class")
    def every_step(self):
        """The 50-step run of the 50_steps pin, which steps on m = 1280-2048."""
        u0 = sample(Grid(4096, 40.0), lambda x: 0.05 / np.cosh(x) ** 2)
        traj = simulate(u0, 0.5, 1, dt=0.01)
        assert traj.n_steps == 50 and len(set(traj.compute_n.tolist())) > 1
        return u0, traj

    @pytest.mark.parametrize("stride", [3, 4, 7])
    def test_explicit_stride_keeps_every_stride_th_step(self, every_step, stride):
        # a stride-k run keeps rows [::k] of the stride-1 run and T, bit for bit; 50 steps
        # are no multiple of k, so T is a row of its own
        u0, every = every_step
        kept = simulate(u0, 0.5, stride, dt=0.01)
        rows = [*range(0, every.n_steps, stride), every.n_steps]
        assert every.n_steps % stride != 0 and len(kept) == len(rows)
        for name in ("times", "values", "h1_drift", "compute_n"):
            assert getattr(kept, name).tobytes() == getattr(every, name)[rows].tobytes(), name
        assert (kept.n_steps, kept.n_rejected) == (every.n_steps, 0)

    def test_a_long_explicit_run_takes_T_over_dt_steps(self, monkeypatch):
        # t gathers about 1e-12 T of rounding over 37669 additions of dt = T / 37669, more
        # than a landing tolerance of 1e-12 T absorbs (it leaves a 37670th step of 3.9e-8 dt).
        # The stages are zero, so only the clock runs
        _force(monkeypatch, lambda uh, grid: 0.0 * uh)
        dt = 1.0 / 37669
        traj = simulate(sample(Grid(16, 4.0), lambda x: 0.01 / np.cosh(x) ** 2), 1.0, 1, dt=dt)
        assert traj.n_steps == len(traj) - 1 == 37669
        assert traj.times[-1] == 1.0
        np.testing.assert_allclose(np.diff(traj.times), dt, rtol=1e-6, atol=0.0)

    def test_a_long_default_run_takes_T_over_clock_ticks(self, monkeypatch):
        # the snapshot clock's running sum gathers about 1e-12 T of rounding over 37669 ticks
        # of T / 37669: a landing tolerance of 1e-12 T left a last row 3.9e-8 clock after the
        # one before.  The series' steps are far longer than the clock, so only the clock runs
        import gch.integrate as integrate_mod

        clock = 1.0 / 37669
        monkeypatch.setattr(integrate_mod, "estimate_dt", lambda u: clock)
        traj = simulate(sample(Grid(16, 4.0), lambda x: 0.01 / np.cosh(x) ** 2), 1.0, 1)
        assert len(traj) - 1 == 37669
        assert traj.times[-1] == 1.0
        np.testing.assert_allclose(np.diff(traj.times), clock, rtol=1e-6, atol=0.0)

    # 0.5 dx = 5/2048 < DT_MAX / 2, so the snapshot interval is 8 clock units (0.039); a
    # series step spans several of them
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
        assert (traj.n_steps, traj.n_rejected) == (4, 0)
        # the series' steps are far past DT_MAX
        assert min(traj.dt_initial, traj.dt_final) > 10 * DT_MAX
        assert np.max(traj.h1_drift) < 1e-15

    def test_no_step_is_cut_for_a_snapshot(self, fine, monkeypatch):
        series, sums = _spy_sums(monkeypatch)
        traj = simulate(fine, self.T, self.STRIDE)
        steps = _by_step(sums)
        assert len(series) == len(steps) == traj.n_steps
        assert sum(trial != end for trial, end, _ in steps) == traj.n_rejected
        # every step is tried at its rule length, or at what is left to T
        t = 0.0
        for (_, h_max), (trial, end, inside) in zip(series, steps):
            assert trial == (h_max if t + h_max < self.T else self.T - t)
            # only T and the band's cuts end a step: every other snapshot is summed inside one
            assert all(0.0 < tau < end for tau in inside[:-1])
            assert 0.0 < inside[-1] < end or (t + end == self.T and inside[-1] == end)
            t += end
        assert t == pytest.approx(self.T, rel=1e-15)
        # every snapshot but u0 is a sum, the one at T included
        assert sum(len(inside) for _, _, inside in steps) == len(traj) - 1

    def test_step_count_pinned_by_fft_calls(self, fine, fft_calls):
        # rfft(u0) and estimate_dt's derivative, 2K FFTs per series and one irfft per
        # snapshot; the guard takes no FFT at a step end that is no snapshot, a sum none
        traj = simulate(fine, self.T, self.STRIDE)
        assert (traj.n_steps, len(traj) - 1) == (4, 13)
        assert len(fft_calls) == 3 + 2 * K * traj.n_steps + 13 == 144

    def test_explicit_step_count_pinned_by_fft_calls(self, fine, monkeypatch, fft_calls):
        # dt = 0.007 caps every step: 71 steps of 0.007 and a last one of what is
        # left, 0.003, which lands on T.  rfft(u0), four stages per step and the irfft
        # per snapshot, at every 8th step's end and at T
        seen = _spy_steps(monkeypatch)
        traj = simulate(fine, self.T, self.STRIDE, dt=0.007)
        assert (traj.n_steps, traj.n_rejected, len(traj) - 1) == (72, 0, 9)
        assert len(fft_calls) == 1 + 8 * 72 + 9 == 586
        h = np.array([step for _, step in seen])
        assert np.all(h[:71] == 0.007)
        np.testing.assert_allclose(h[71], 0.003, rtol=1e-12, atol=0.0)
        assert traj.times[-1] == self.T

    def test_large_data_steps_at_the_bound(self, grid4096, monkeypatch):
        # the 1.0 pulse to T = 0.125 is the 0.5 pulse to T = 0.25 scaled by 2
        # (test_scaling_symmetry): the bound on each step is the series' radius times
        # BAND_FLOOR^(1/K), and the radius shrinks as the spectrum widens
        series = _spy_series(monkeypatch)
        u0 = sample(grid4096, lambda x: 1.0 / np.cosh(x) ** 2)
        T = 0.125
        traj = simulate(u0, T, snapshot_stride=10**6)
        h = np.array([step for _, step in series])
        assert (traj.n_steps, traj.n_rejected) == (16, 4)
        assert len(series) == traj.n_steps
        assert h[0] == traj.dt_initial and h[-1] == traj.dt_final
        assert np.all(np.diff(h[:-1]) < 0.0)
        assert traj.times.tolist() == [0.0, T]
        assert np.max(traj.h1_drift) < 1e-14
        assert lp_norm(traj.final, np.inf) < 2.0 * lp_norm(u0, np.inf)


def _ticks(T, clock):
    """The rows of a run on ``clock``: u0, each tick short of ``T - max(1e-12, (T / clock)
    2^-52) T``, and T."""
    land, s, rows = T - max(1e-12, T / clock * 2.0**-52) * T, 0.0, 1
    while s < T:
        s = s + clock if s + clock < land else T
        rows += 1
    return rows


def _explicit_rows(T, dt, stride):
    """``(rows, steps)`` of an explicit run: a step that would leave less than 1e-12 T, or than
    twice T / dt roundings of 2^-53 T, lands on T; u0, every stride-th step's end and T."""
    land, t, steps = T - max(1e-12, T / dt * 2.0**-52) * T, 0.0, 0
    while t < T:
        t, steps = (t + dt if t + dt < land else T), steps + 1
    return 2 + (steps - 1) // stride, steps


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
    """The rows x n block is allocated from T / clock before the first step; the run stops on time.

    The last snapshot is T: a clock tick within ``max(1e-12, (T / clock) 2^-52) T`` of it is T
    itself, and an explicit run's rows are step ends.
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
        if explicit:
            assert (len(traj), traj.n_steps) == _explicit_rows(T, unit, stride)
        else:
            assert len(traj) == _ticks(T, stride * unit)
        assert traj.times[-1] == T
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
    """The series sets the step: what it buys against RK4 at fixed steps."""

    def test_long_pulse_steps_fewer_at_the_same_radius(self):
        # sigma(T) reads the top modes, which the series steps to BAND_FLOOR; a quarter-DT_MAX
        # RK4 run reads within 1e-8 of it (measured 2.0e-9)
        u0, T = _long_pulse()
        traj = simulate(u0, T, 32)
        fixed = simulate(u0, T, 10**6, dt=DT_MAX / 4)
        assert (traj.n_steps, traj.n_rejected) == (6, 3) and fixed.n_steps == 400
        sigma, reference = (radius_estimate(u).sigma for u in (traj.final, fixed.final))
        assert abs(sigma - reference) <= 1e-8 * reference
        assert np.max(traj.h1_drift) <= 1e-15

    def test_sigma_at_T_matches_a_thousand_rk4_steps(self):
        # the accuracy that sets the tolerance BAND_FLOOR: sigma(T) of the n = 4096, T = 1
        # pulse within 1e-7 of an explicit dt = T / 1000 run (measured 3.2e-9; the RK4
        # default read 4.8e-7 off, and a series tolerance of 1e-12 8.8e-7)
        u0 = sample(Grid(4096, 40.0), lambda x: 0.05 / np.cosh(x) ** 2)
        sigma = radius_estimate(simulate(u0, 1.0, 10**6).final).sigma
        reference = radius_estimate(simulate(u0, 1.0, 10**6, dt=1.0 / 1000).final).sigma
        assert abs(sigma - reference) <= 1e-7 * reference

    def test_large_pulse_is_conserved(self):
        # amp 0.5 to T = 0.3
        u0 = sample(Grid(4096, 40.0), lambda x: 0.5 / np.cosh(x) ** 2)
        traj = simulate(u0, 0.3, snapshot_stride=10**6)
        assert (traj.n_steps, traj.n_rejected) == (21, 4)
        assert np.max(traj.h1_drift) <= 1e-14

    def test_a_run_past_the_loss_of_analyticity_stays_cheap(self):
        # amp 0.5 to T = 1 crosses t* ~ 0.44: the series' radius follows the collapse and
        # the grid grows to n, in 177 steps where the RK4 default took 7410
        u0 = sample(Grid(4096, 40.0), lambda x: 0.5 / np.cosh(x) ** 2)
        traj = simulate(u0, 1.0, snapshot_stride=10**6)
        assert traj.n_steps <= 400
        assert traj.compute_n[-1] == 4096 and traj.times[-1] == 1.0

    def test_tighter_tolerance_takes_shorter_steps(self, sech2_small, monkeypatch):
        # the step is rho BAND_FLOOR^(1/K): a 2^K times tighter tolerance halves it exactly,
        # its root being square roots; both runs keep the full grid
        import gch.integrate as integrate_mod

        runs = []
        for tol in (BAND_FLOOR, BAND_FLOOR / 2**K):
            monkeypatch.setattr(integrate_mod, "BAND_FLOOR", tol)
            runs.append(simulate(sech2_small, 0.5, snapshot_stride=10**6))
        assert runs[1].dt_initial == 0.5 * runs[0].dt_initial
        assert (runs[0].n_steps, runs[1].n_steps) == (2, 4)
        assert runs[0].compute_n.tolist() == runs[1].compute_n.tolist() == [1024, 1024]

    def test_step_is_the_radius_times_the_tolerance_root(self, sech2_small, monkeypatch):
        # each series' step is rho BAND_FLOOR^(1/K), rho read off orders K/2 and K of the
        # coefficients a_1 .. a_K the series holds
        series = _spy_series(monkeypatch)
        simulate(sech2_small, 1.0, snapshot_stride=10**6)
        grid = sech2_small.grid
        for y, h in series:
            m = 2 * (len(y) - 1)
            ops = _compute_grid(grid, np.zeros(grid.n // 2 + 1), m)[1]
            rho, A = _build_series(y, ops)
            assert h == rho * _root(BAND_FLOOR, K)
            size = np.linalg.norm(y)
            radius = min((size / np.linalg.norm(A[j - 1])) ** (1.0 / j) for j in (K // 2, K))
            assert rho == pytest.approx(radius, rel=1e-12)

    def test_snapshot_block_is_written_once(self):
        # history's and long's configs: the rows x n block is allocated before the first step
        # and each landing row written into it, with no second copy of the block.  Beside it
        # the run holds its spectrum, the series' K sample rows and K coefficient bands on the
        # compute grid and their work arrays: measured 28.6 and 8.6 n-rows (21.6 and 7.6 with
        # K + 1 sample rows alone), where the RK4 default's stages took 26.2 and 8.0
        # (history's bound held those stages; 122 when the rows were stacked)
        for workload, rows, bound in (("history", 104, 32), ("long", 14, 9)):
            n, T, stride = DENSE_WORKLOADS[workload]
            u0 = sample(Grid(n, 40.0), lambda x: 0.05 / np.cosh(x) ** 2)
            simulate(u0, 0.05)
            tracemalloc.start()
            try:
                traj = simulate(u0, T, stride)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            count, n = traj.values.shape
            assert count == rows
            assert peak <= (count + bound) * n * 8, workload


# (n, T, snapshot_stride) of the benchmark's workloads, all on L = 40
DENSE_WORKLOADS = {"showcase": (4096, 0.25, 1), "history": (4096, 1.0, 1), "long": (16384, 1.0, 32)}
#: What a default snapshot of a DENSE_WORKLOADS run may be off by, against an RK4 run that
#: steps an eighth of the clock and ends a step on every snapshot: u against max|u|, the
#: weighted norms W and the interior radii, relative.  The largest values on those workloads
#: at seeds 0-10: u 2.0e-11, W 6.6e-11, sigma 1.5e-7, all on long, whose reference steps are
#: 0.0098 and carry that error themselves; on showcase and history (reference steps of
#: 0.0012) they read u 5.6e-15, W 1.3e-12, sigma 1.0e-8.  The snapshots of the RK4 default,
#: interpolated inside its steps, were held to 2e-10, 1e-9 and 1e-5.
DENSE_TOL = {"u": 4e-11, "W": 1.3e-10, "sigma": 3e-7}


class TestDenseOutput:
    """A default snapshot inside a step is the step's series summed at its time."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("workload", DENSE_WORKLOADS)
    def test_snapshots_match_a_run_at_an_eighth_of_the_clock(self, workload, seed):
        # the benchmark's workloads and pulses, against explicit RK4 steps of an eighth of
        # the clock that end on every snapshot
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
        # sigma is fitted on the reference's band: a coefficient within the two runs' gap of
        # SPECTRUM_FLOOR may cross it and lengthen or shorten the band by one mode (under the
        # RK4 default: history seed 5, t = 0.254), which moves that one estimate by 5.5e-4
        c, c_ref = (np.abs(run.grid.rfft(run.values)) / run.grid.n for run in (traj, fine))
        (start, length), (start_ref, length_ref) = _fit_bands(c), _fit_bands(c_ref)
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
    # float exactly: the series' coefficient a_j by eps^(j + 1), its radius by 1 / eps
    # (its roots are square roots), an RK4 step's stages by eps^2, and the clock is
    # scaled too (speed >= 1, unit below DT_MAX)
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


def test_series_is_odd_under_negation():
    # v(x, t) = -u(x, -t) solves the equation whenever u does, and the right side is even in
    # u: a_j(-u0) = (-1)^(j + 1) a_j(u0) at every order, exactly, in the samples w_j, j < K,
    # and in the coefficients a_1 .. a_K, and the radius is the same
    grid = Grid(4096, 40.0)
    uh = grid.rfft(sample(grid, lambda x: 0.05 / np.cosh(x) ** 2).values)
    m = _held(grid, uh, _compute_grid(grid, uh, 16), np.abs(uh[:9]))
    assert m == 1280
    ops = _compute_grid(grid, uh, m)[1]
    (rho, A, W), (sigma, B, V) = (
        _build_series(y, ops, samples=True) for y in (uh[: m // 2 + 1], -uh[: m // 2 + 1])
    )
    assert sigma == rho
    for j in range(K):
        assert np.array_equal(V[j], (-1) ** (j + 1) * W[j]), j
        assert np.array_equal(B[j], (-1) ** j * A[j]), j + 1


@pytest.mark.parametrize("pulse", [_showcase_pulse, _long_pulse], ids=["showcase", "long"])
def test_time_reversal_round_trip(pulse):
    # v(x, t) = -u(x, -t) solves the equation, so a run to T whose final state is flipped in
    # sign and run to T again returns -u0; the series closes the trip to its truncation
    # (measured 5.6e-16 and 1.7e-15 of max|u0|, where the RK4 default read 1.2e-12 and 5.4e-12)
    u0, T = pulse()
    there = simulate(u0, T, snapshot_stride=10**6).final
    back = simulate(-there, T, snapshot_stride=10**6).final
    assert lp_norm(back + u0, np.inf) <= 1e-13 * lp_norm(u0, np.inf)


@pytest.mark.parametrize("pulse", [_showcase_pulse, _long_pulse], ids=["showcase", "long"])
def test_coefficient_sum_matches_the_sample_sum(pulse, monkeypatch):
    # every sum of a default run, a step's end, a halving or a snapshot, against the sum over
    # the samples on the compute grid from the same coefficients, in the samples on n
    # (measured 1.9e-17 and 1.1e-17 of max|u0|)
    import gch.integrate as integrate_mod

    u0, T = pulse()
    grid, built, gaps = u0.grid, [], []
    series, summed = integrate_mod._series, integrate_mod._sum

    def spy_series(y, ops, W, A, work, spec):
        built.append(ops)
        return series(y, ops, W, A, work, spec)

    def spy_sum(out, y, A, tau):
        reference = _sample_sum(y, built[-1], A, tau)
        summed(out, y, A, tau)
        gaps.append(np.max(np.abs(grid.irfft(out - reference))))
        return out

    monkeypatch.setattr(integrate_mod, "_series", spy_series)
    monkeypatch.setattr(integrate_mod, "_sum", spy_sum)
    traj = simulate(u0, T, 1 if T < 1.0 else 32)
    assert len(gaps) >= traj.n_steps + len(traj) - 1
    assert max(gaps) <= 1e-15 * lp_norm(u0, np.inf)


def test_a_steps_end_is_its_snapshot_at_t_next(monkeypatch):
    # the end of a step and a snapshot at its t_next are the same sum at the same tau, bit
    # for bit: here the last step, which lands on T
    import gch.integrate as integrate_mod

    original, seen = integrate_mod._sum, []

    def spy(out, y, A, tau):
        original(out, y, A, tau)
        seen.append((tau, out.copy()))
        return out

    monkeypatch.setattr(integrate_mod, "_sum", spy)
    u0, T = _long_pulse()
    traj = simulate(u0, T, 10**6)
    assert traj.times.tolist() == [0.0, T]
    (h, end), (tau, snapshot) = seen[-2:]  # the last step's end, then the snapshot at T
    assert tau == h and snapshot.tobytes() == end.tobytes()


def _holds(y, m):
    """Every coefficient of the band ``y`` at or above mode 3m/10 is at most the floor."""
    a = np.abs(y)
    return bool(np.all(a[-(-3 * m // 10):] <= BAND_FLOOR * np.max(a)))


def _ladder(n):
    """The sizes 2^a, 3 2^a and 5 2^a from 16 to n, ascending, written out by hand."""
    return sorted(f * 2**a for f in (1, 3, 5) for a in range(2, 40) if 16 <= f * 2**a <= n)


def _full_read_size(uh, m, n):
    """The compute-grid rule read off every coefficient of ``uh``: the first ladder size
    from ``m`` up whose coefficients from mode 3 size / 10 on are at most the floor, or n."""
    a = np.abs(uh)
    floor = BAND_FLOOR * np.max(a)
    return next(
        (size for size in _ladder(n) if size >= m and np.all(a[-(-3 * size // 10):] <= floor)), n
    )


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
        m = int(rng.choice(_ladder(n)))
        if trial % 4 == 0 and m < n:
            uh[rng.integers(m // 2 + 1, k.size)] = 1e-10
        if trial % 10 == 9:
            uh[:] = 0.0
        compute = _compute_grid(grid, uh, m)
        above = slice(m // 2 + 1, None)
        assert compute[2] == (np.max(np.abs(uh[above])) if m < n else 0.0)
        assert compute[3] == np.sum((uh.real**2 + uh.imag**2)[above] * grid.h1_weight[above])
        held = _held(grid, uh, compute, np.abs(uh[: m // 2 + 1]))
        assert held == _full_read_size(uh, m, n), (trial, m)


class TestComputeGrid:
    """Stages run on the smallest ladder size (2^a, 3 2^a, 5 2^a) whose 2/3 band holds the
    spectrum: every coefficient from mode 3m/10 on at most the floor."""

    def test_the_ladder(self):
        assert [m for m in GRID_SIZES if m <= MAX_N] == _ladder(MAX_N)
        assert _ladder(64) == [16, 20, 24, 32, 40, 48, 64]
        # a compute grid's wavenumbers are the first m/2 + 1 of the run's, bit for bit
        k = Grid(4096, 40.0).k_rfft
        for m in _ladder(4096):
            assert Grid(m, 40.0).k_rfft.tobytes() == k[: m // 2 + 1].tobytes()

    @pytest.fixture
    def full_grid(self, monkeypatch):
        """Run ``simulate`` with its compute grid held at n."""
        import gch.integrate as integrate_mod

        def run(*args):
            with monkeypatch.context() as patch:
                patch.setattr(integrate_mod, "_held", lambda grid, uh, compute, a: grid.n)
                return simulate(*args)

        return run

    @pytest.fixture
    def bands(self, monkeypatch):
        """The band each series is built on, its start state."""
        return _spy_series(monkeypatch)

    def test_long_pulse_matches_the_full_grid(self, full_grid):
        # the series summed on n does not diverge, and its snapshots stay within 3.8e-15 of
        # max|u0| of the compute grids'.  On n the band always holds, so no step is cut; the
        # roundoff plateau of the top modes shrinks the radius, so the steps are shorter
        u0, T = _long_pulse()
        a = simulate(u0, T, 32)
        b = full_grid(u0, T, 32)
        assert a.compute_n[0] < u0.grid.n
        assert b.compute_n.tolist() == [u0.grid.n] * len(b)
        assert a.times.tobytes() == b.times.tobytes()
        assert (a.n_steps, a.n_rejected, b.n_steps, b.n_rejected) == (6, 3, 14, 0)
        gap = max(
            lp_norm(sa - sb, np.inf) for sa, sb in zip(a.snapshots, b.snapshots, strict=True)
        )
        assert gap <= 4e-15 * lp_norm(u0, np.inf)

    @pytest.mark.parametrize(
        "u0, T",
        [pytest.param(Field(Grid(4096, 40.0), pulse_for_seed(seed).sample(4096, 40.0)), T,
                      id=f"{name}_seed{seed}")
         for name, T in (("showcase", 0.25), ("history", 1.0)) for seed in range(4)]
        + [pytest.param(sample(Grid(4096, 40.0), lambda x: 0.2 / np.cosh(x) ** 2), 0.5,
                        id="sech2_0.2_to_0.5")],
    )
    def test_pulses_match_the_full_grid(self, full_grid, u0, T):
        # every snapshot of a stride-1 run, stepped on the ladder's sizes below n, against
        # the same run held on n (measured <= 1.0e-15, history seed 2)
        a = simulate(u0, T, 1)
        b = full_grid(u0, T, 1)
        assert a.compute_n[0] < u0.grid.n
        assert a.times.tobytes() == b.times.tobytes()
        assert b.n_rejected == 0
        assert np.max(np.abs(a.values - b.values)) <= 1.5e-15 * np.max(np.abs(b.values))

    def test_every_step_holds_its_spectrum(self, fft_calls, monkeypatch):
        u0, T = _long_pulse()
        n = u0.grid.n
        series = _spy_series(monkeypatch)
        traj = simulate(u0, T, 32)
        # the rule reads uh: 3 FFTs per run, 2K per series and 1 per snapshot
        assert len(series) == traj.n_steps
        assert len(fft_calls) == 3 + 2 * K * traj.n_steps + len(traj) - 1
        assert len(fft_calls) == 208  # 237 with the sums over the samples, 556 by RK4
        sizes = traj.compute_n
        assert sizes.shape == (len(traj),)
        assert np.all(np.diff(sizes) >= 0)
        ladder = _ladder(n)
        assert set(sizes.tolist()) <= set(ladder)
        steps = [2 * (len(y) - 1) for y, _ in series]
        assert steps[0] == sizes[0] and steps[-1] == sizes[-1]
        assert np.all(np.diff(steps) >= 0) and set(steps) == set(sizes.tolist())
        # the RK4 default stepped on these and on 1536, 67 times
        assert sorted(set(steps)) == [1280, 2048, 2560, 3072]
        # the grid grows after each cut step, to the size its full length needed
        assert np.count_nonzero(np.diff(steps)) == traj.n_rejected == 3
        for i, ((y, _), m) in enumerate(zip(series, steps)):
            assert _holds(y, m), (i, m)
            if i == 0:
                # m is the smallest size that holds u0: the next smaller ladder size does not
                below = ladder[ladder.index(m) - 1]
                assert not _holds(y[: below // 2 + 1], below), m
            else:
                # a step never runs past the band its series was built on: each step's end,
                # the next series' start, still holds on the step's own grid
                assert _holds(y[: steps[i - 1] // 2 + 1], steps[i - 1]), (i, m)

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


def test_h1_drift_on_showcase_pulse():
    grid = Grid(4096, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    traj = simulate(u0, 0.25, snapshot_stride=1)
    drift = traj.h1_drift
    assert drift.shape == (len(traj),)
    assert drift[0] == 0.0
    # the series conserves H^1 to its truncation at BAND_FLOOR, at a step's end and at the
    # snapshots summed inside it alike (measured max 1.8e-16)
    assert np.all(drift < 1e-15)
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
                         "n must be a power of two, or 3 or 5 times one, >= 16, got 0",
                         id="n_zero"),
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
        # GCHS header as GCH1 (t is the last time), uint32 rows, 12-byte hash,
        # rows f64 times, then the rows x n f64 samples row by row
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
