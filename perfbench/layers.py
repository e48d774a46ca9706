"""Per-layer measurements: microbenchmarks at stated sizes and traced-run spans.

Every layer is timed from outside, through the public functions of its
module.  Microbenchmarks run on a sech^2 pulse (amplitude 0.05, width 1) on
[-40, 40) at the grid size in the metric's name; the selftest-only oracles
run at the sizes ``gch.selftest`` uses.  Traced-run metrics come from the
spans of one workload run, recorded by :mod:`spans`.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

from spans import Tracer
from workloads import Pulse, h1_norm

FORMS = ("primitive", "form_a", "form_b", "momentum")
PULSE = Pulse(0.05, 1.0, 0.0)
L = 40.0


def per_call(fn, budget: float = 0.3, batches: int = 7) -> float:
    """Median over ``batches`` batches of the mean seconds per call of ``fn``."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    reps = max(1, int(budget / batches / max(once, 1e-7)))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def fft_calls(fn) -> int:
    """Exact number of numpy rfft/irfft calls made by one call of ``fn``."""
    with Tracer() as tracer:
        tracer.count_ffts(np.fft, "rfft")
        tracer.count_ffts(np.fft, "irfft")
        fn()
    return tracer.fft_calls


def microbenchmarks(gch) -> dict:
    """Layer timings and exact operation counts, independent of the workload."""
    m: dict = {}
    fields = {}
    for n in (4096, 16384):
        grid = gch.Grid(n, L)
        u = gch.Field(grid, PULSE.sample(n, L))
        fields[n] = u
        v = u.values.copy()
        m[f"grid.fft_pair_us.n{n}"] = 1e6 * per_call(lambda: np.fft.irfft(np.fft.rfft(v), n=n))
        for form in FORMS:
            m[f"dynamics.rhs_us.{form}.n{n}"] = 1e6 * per_call(lambda: gch.rhs(u, form))
        dt = gch.estimate_dt(u)
        deriv = lambda w: gch.rhs(w, "form_b")  # noqa: E731
        m[f"integrate.rk4_step_ms.n{n}"] = 1e3 * per_call(lambda: gch.rk4_step(u, dt, deriv))

    u = fields[4096]
    m["grid.derivative_us.n4096"] = 1e6 * per_call(lambda: gch.derivative(u, 1))
    m["grid.field_us.n4096"] = 1e6 * per_call(lambda: gch.Field(u.grid, u.values))
    m["helmholtz.inverse_us.n4096"] = 1e6 * per_call(lambda: gch.helmholtz_inverse(u))
    for form in FORMS:
        calls = fft_calls(lambda: gch.rhs(u, form))
        m[f"dynamics.fft_calls.{form}"] = calls
        # each rfft/irfft of n reals reads or writes 8n bytes of samples and
        # 16 (n/2 + 1) bytes of coefficients; computed, not measured
        m[f"dynamics.fft_mb_computed.{form}.n4096"] = calls * (8 * 4096 + 16 * 2049) / 1e6

    # the selftest oracles, at the sizes gch.selftest uses
    from gch.fields import compact_pair_family, smooth_field_family

    grid = gch.Grid(1024, L)
    f = gch.Field(grid, PULSE.sample(1024, L))
    m["helmholtz.green_direct_s.n1024"] = per_call(lambda: gch.green_convolve_direct(f), 0.5, 3)
    spec = gch.WeightSpec(0.0, 0.0, 1.0, 0.0)
    report = gch.admissibility_report(spec, spec, sample_count=2048, domain_bound=20.0)
    m["weights.admissibility_s"] = per_call(
        lambda: gch.admissibility_report(spec, spec, sample_count=2048, domain_bound=20.0), 0.5, 3
    )
    f1, f2 = compact_pair_family(grid, 1, seed=777)[0]
    m["weights.young_check_ms"] = 1e3 * per_call(
        lambda: gch.weighted_young_check(f1, f2, spec, spec, 2.0, report.C0)
    )
    g = smooth_field_family(grid, 1, seed=4242)[0]
    m["analyticity.operator_bounds_s"] = per_call(lambda: gch.operator_bound_report(g, 0.4, 0.2))
    return m


def _snapshots_integrated(args, kwargs, result) -> int:
    traj = args[0]
    t_index = args[1] if len(args) > 1 else kwargs["t_index"]
    return t_index % len(traj) + 1


# functions that run_experiment and selftest call through gch.runner's
# namespace; a traced run wraps them there, so each span is one such call
RUNNER_CALLS = (
    "snapshots_to_csv",
    "write_checkpoint",
    "form_residual",
    "persistence_ledger",
    "amplitude_series",
    "extract_profile",
    "radius_track",
    "majorant_norm_argmax",
    "green_convolve_direct",
    "helmholtz_inverse",
    "admissibility_report",
    "weighted_young_check",
    "operator_bound_report",
)
SIMULATE = "gch.runner.simulate"


def install(tracer: Tracer, gch) -> None:
    """Wrap the benchmark's entry points, the layer calls and the FFT counters."""
    runner = importlib.import_module("gch.runner")
    tracer.count_ffts(np.fft, "rfft")
    tracer.count_ffts(np.fft, "irfft")
    tracer.wrap(gch, "run_experiment")
    tracer.wrap(gch, "selftest")
    tracer.wrap(runner, "simulate", work=lambda a, k, traj: traj.n_steps, keep=True)
    for attr in RUNNER_CALLS:
        tracer.wrap(runner, attr)
    tracer.wrap(importlib.import_module("gch.integrate"), "rhs")
    tracer.wrap(
        importlib.import_module("gch.asymptotics"), "averaged_source", work=_snapshots_integrated
    )


def _h1_drift(traj) -> float:
    half_width = traj.grid.half_width
    h1_0 = h1_norm(traj.u0.values, half_width)
    return abs(h1_norm(traj.final.values, half_width) - h1_0) / h1_0


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced workload run."""
    root = "gch.selftest" if tracer.named("gch.selftest") else "gch.run_experiment"
    simulate_s = tracer.total(SIMULATE)
    n_steps = tracer.work(SIMULATE)
    drift = max((_h1_drift(t) for t in tracer.kept.get(SIMULATE, ())), default=0.0)
    return {
        "integrate.simulate_s": simulate_s,
        "integrate.simulate_self_s": tracer.self_total(SIMULATE),
        "integrate.n_steps": n_steps,
        "integrate.rhs_calls": tracer.calls("gch.integrate.rhs"),
        "integrate.fft_calls": tracer.ffts(SIMULATE),
        "integrate.steps_per_s": n_steps / simulate_s if simulate_s else 0.0,
        "integrate.h1_drift": drift,
        "integrate.csv_s": tracer.total("gch.runner.snapshots_to_csv"),
        "integrate.checkpoint_s": tracer.total("gch.runner.write_checkpoint"),
        "runner.form_residual_s": tracer.total("gch.runner.form_residual"),
        "runner.self_s": tracer.self_total(root),
        "persistence.ledger_s": tracer.total("gch.runner.persistence_ledger"),
        "asymptotics.amplitude_series_s": tracer.total("gch.runner.amplitude_series"),
        "asymptotics.extract_profile_s": tracer.total("gch.runner.extract_profile"),
        "asymptotics.source_evals": tracer.work("gch.asymptotics.averaged_source"),
        "analyticity.radius_track_s": tracer.total("gch.runner.radius_track"),
        "analyticity.majorant_s": tracer.total("gch.runner.majorant_norm_argmax"),
    }
