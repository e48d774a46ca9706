"""Experiment orchestration, artifact persistence, and the selftest.

``run_experiment`` wires the modules together for one configuration:
simulate, run the selected diagnostics, and write artifacts keyed by the
configuration hash: the trajectory and final state as binary dumps, the
diagnostics as CSV and JSON.  Headline numbers in the summary are always
traceable to an artifact in the output directory.  The JSON summary is
a flat key-value object and deliberately excludes wall time so that
repeated runs of the same configuration are byte-identical.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the stages read their consumers off these modules: perfbench's tracer may wrap this
# module's names of the public functions in functions that have no ``consumer``
from . import analyticity, asymptotics, persistence
from .analyticity import MajorantParams, _operator_bounds, _operator_ladders, _operator_maxima
from .asymptotics import MIN_SNAPSHOTS
from .config import ExperimentConfig, config_hash, validate_config
from .dynamics import RhsForm, form_residual, max_form_residuals, sqrt3_residual_field
from .errors import BlowUpError, ConfigError
from .fields import compact_pair_family, make_initial, smooth_field_family
from .grid import Grid, lp_norm, sample
from .helmholtz import green_convolve_direct, helmholtz_inverse
from .integrate import BOUNDARY_TOLERANCE, Trajectory, simulate
from .integrate import write_checkpoint, write_snapshots
from .rowpass import run_pass, together
from .weights import WeightSpec, _young_slacks, admissibility_report, weight_on_grid

# not called here; perfbench's tracer wraps them in gch.runner, so they stay importable
from .analyticity import majorant_norm_argmax, operator_bound_report, radius_track  # noqa: F401
from .asymptotics import amplitude_series, extract_profile  # noqa: F401
from .persistence import persistence_ledger  # noqa: F401
from .weights import weighted_young_check  # noqa: F401

__all__ = ["RunSummary", "run_experiment", "selftest", "SelftestReport", "snapshots_to_csv"]

#: Rows per chunk of CSV text.
CSV_CHUNK = 256


def _jsonable(value):
    """Strict-JSON-safe scalars: NaN -> None, infinities -> strings."""
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if np.isnan(value):
            return None
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass
class RunSummary:
    config: ExperimentConfig
    config_hash: str
    wall_time: float
    flags: dict
    headline: dict
    artifacts: dict

    @property
    def exit_code(self) -> int:
        if not (self.flags["boundary_clean"] and self.flags["no_blow_up"]):
            return 3
        if not self.flags["diagnostics_ok"]:
            return 1
        return 0

    def to_flat_dict(self) -> dict:
        head = {"config_hash": self.config_hash, "config": self.config.to_text()}
        artifacts = {f"artifact_{key}": value for key, value in self.artifacts.items()}
        return {**head, **self.flags, **self.headline, **artifacts}


@contextmanager
def _os_errors(what: str, path: Path):
    """Turn an ``OSError`` in the block into a ``ConfigError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError([f"{what} {str(path)!r}: {exc.strerror or exc}"]) from None


def _write_rows(stream, config_hash: str, header: str, blocks) -> None:
    """CSV text under a ``# config-hash`` line and ``header``: each block's rows in turn.

    A block is a tuple of equal-length columns.  Floats are written as repr and others as
    str, each column formatted once per chunk of CSV_CHUNK rows, so no whole-file text is
    held: a whole-file writer raised long's VmHWM by ~0.8 MB.  A column whose entries are
    bitwise equal (so -0.0 and NaN stay exact) is formatted once.
    """

    def text(col):
        return list(map(repr if col.dtype.kind == "f" else str, col.tolist()))

    def one_value(col):
        bits = col.view(np.int64) if col.dtype.kind in "fi" and col.itemsize == 8 else None
        return text(col[:1]) if bits is not None and np.all(bits == bits[:1]) else None

    stream.write(f"# config-hash: {config_hash}\n{header}\n")
    for columns in blocks:
        columns = [np.asarray(col) for col in columns]
        once = [one_value(col) for col in columns]
        for start in range(0, len(columns[0]), CSV_CHUNK):
            chunk = [col[start : start + CSV_CHUNK] for col in columns]
            cells = [t * len(c) if t else text(c) for t, c in zip(once, chunk)]
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def snapshots_to_csv(traj: Trajectory, stream, config_hash: str) -> None:
    """Write the trajectory in long format with columns t,x,u, under a config-hash line."""
    times, x = np.asarray(traj.times, dtype=float), traj.grid.x
    blocks = ((np.full(x.size, t), x, row) for t, row in zip(times, traj.values))
    _write_rows(stream, config_hash, "t,x,u", blocks)


def _write_csv(path: Path, chash: str, header: str, columns) -> None:
    with _os_errors("cannot write", path), open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, chash, header, [columns])


def _json_text(payload: dict) -> str:
    """The text of every JSON artifact: strict values, sorted keys, indent 2, a final newline."""
    strict = {key: _jsonable(value) for key, value in payload.items()}
    return json.dumps(strict, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    with _os_errors("cannot write", path), open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload))


def _output_dir(path) -> Path:
    """``path`` as a directory, made if missing; a ``ConfigError`` naming it when that fails."""
    out = Path(path)
    with _os_errors("output directory", out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _profile_index(traj: Trajectory, t_star) -> int:
    if t_star is None:
        return len(traj) - 1
    idx = int(np.argmin(np.abs(traj.times - t_star)))
    # stay within range; the snapshot-count precondition is checked downstream
    return min(max(idx, MIN_SNAPSHOTS - 1), len(traj) - 1)


def _persistence(traj, cfg, payload):
    consumer = persistence.persistence_ledger.consumer(traj, WeightSpec(*cfg.phi), cfg.p, cfg.N)
    ledger = yield from consumer
    payload.update(
        M=ledger.M, C_fit=ledger.C_fit, N_used=ledger.N_used, p=ledger.p,
        weight=str(ledger.weight), degenerate=ledger.degenerate,
    )
    bound = ledger.bound() if not ledger.degenerate else np.zeros_like(ledger.W)
    return "t,W,bound", (ledger.times, ledger.W, bound)


def _asymptotics(traj, cfg, payload):
    idx = _profile_index(traj, cfg.t_star)
    payload.update(t=float(traj.times[idx]), variant=cfg.variant)
    profile = yield from asymptotics.extract_profile.consumer(
        traj, idx, cfg.resolved_window(), cfg.source_variant, cfg.psi_literal
    )
    _, plus, _ = profile.series
    ratio, amp = profile.ratio_right, profile.amp_right
    payload.update(
        degenerate=False, Phi=amp, Psi=profile.amp_left,
        c1=float(np.min(plus)), c2=float(np.max(plus)),
        median_ratio=ratio.median, ratio_rel_deviation=ratio.rel_deviation,
        log_exponent=profile.log_fit.slope, log_fit_degenerate=profile.log_fit.degenerate,
    )
    amps = np.full(ratio.xs.size, amp)
    return "x,r,Phi,deviation", (ratio.xs, ratio.ratios, amps, np.abs(ratio.ratios - amps))


def _analyticity(traj, cfg, payload):
    params = MajorantParams()
    radius, majorant = analyticity.radius_track.consumer, analyticity.majorant_track.consumer
    series, (_, argmax) = yield from together(radius(traj), majorant(traj, params))
    valid = series.valid
    payload.update(
        degenerate=False, sigma0=float(series.sigma[0]),
        sigmaT=float(series.sigma[-1]) if valid[-1] else None,
        sigma_min=float(np.min(series.sigma[valid])),
        max_residual=float(np.max(series.residual[valid])),
        majorant_scale=params.s, majorant_order=params.k_max,
    )
    return "t,sigma,residual,argmax_k", (series.times, series.sigma, series.residual, argmax)


# stage -> (consumer, CSV file, headline keys).  consumer(traj, cfg, payload) is a row-pass
# consumer that only computes: it fills the stage's JSON payload as values become known
# and returns the CSV header and columns
_STAGES = {
    "persistence": (_persistence, "persistence.csv", ("M", "C_fit")),
    "asymptotics": (_asymptotics, "tail_ratio.csv", ("Phi", "Psi")),
    "analyticity": (_analyticity, "analyticity.csv", ("sigma0", "sigmaT")),
}


def _run_stages(names, traj, cfg, out, chash, headline, flags) -> dict:
    """Run the stages ``names`` in one row pass, write their CSV and JSON, return the artifacts.

    A stage that raises leaves the pass to the others.  A ``ValueError`` means its
    measurement does not exist: the JSON says why (``degenerate``, ``reason``), no CSV is
    written and the headline keys are None.  Any other exception is the stage's
    ``<name>_error``, with no artifact, and clears ``diagnostics_ok``.
    """
    payloads = [{} for _ in names]
    stages = (_STAGES[name][0](traj, cfg, payload) for name, payload in zip(names, payloads))
    outcomes = run_pass(traj, together(*stages, isolate=True))
    artifacts: dict = {}
    for name, payload, outcome in zip(names, payloads, outcomes):
        _, csv_name, keys = _STAGES[name]
        if isinstance(outcome, Exception) and not isinstance(outcome, ValueError):
            flags["diagnostics_ok"] = False
            headline[f"{name}_error"] = f"stage '{name}' failed: {outcome}"
            continue
        artifacts[f"{name}_json"] = f"{name}.json"
        if isinstance(outcome, ValueError):
            payload.update(degenerate=True, reason=str(outcome))
            headline.update(dict.fromkeys(keys))
        else:
            _write_csv(out / csv_name, chash, *outcome)
            artifacts[csv_name.replace(".", "_")] = csv_name
            headline.update({key: payload[key] for key in keys})
        _write_json(out / f"{name}.json", payload)
    return artifacts


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunSummary:
    """Simulate and run the selected diagnostics, writing artifacts to disk."""
    start = time.perf_counter()
    validate_config(cfg)
    out = _output_dir(out_dir if out_dir is not None else cfg.out_dir)
    chash = config_hash(cfg)

    grid = Grid(cfg.n, cfg.L)
    try:
        u0 = make_initial(
            grid, cfg.kind, amplitude=cfg.amplitude, width=cfg.width,
            center=cfg.center, path=cfg.path,
        )
    except (OSError, ValueError) as exc:
        raise ConfigError([f"initial condition: {exc}"]) from None

    flags = {"boundary_clean": True, "no_blow_up": True, "diagnostics_ok": True}
    headline: dict = {}
    artifacts: dict = {}

    try:
        traj = simulate(u0, cfg.T, snapshot_stride=cfg.snapshot_stride, dt=cfg.dt)
    except (BlowUpError, FloatingPointError) as exc:  # blow-up, non-finite stage, step floor
        flags["no_blow_up"] = False
        flags["diagnostics_ok"] = False
        headline["abort"] = str(exc)
    else:
        with _os_errors("cannot write", out / "snapshots.bin"):
            write_snapshots(out / "snapshots.bin", traj, chash)
        with _os_errors("cannot write", out / "state_final.bin"):
            write_checkpoint(out / "state_final.bin", traj.final, float(traj.times[-1]))
        artifacts["snapshots_bin"] = "snapshots.bin"
        artifacts["final_checkpoint"] = "state_final.bin"

        boundary_max = float(np.max(traj.boundary_magnitudes))
        headline["boundary_max"] = boundary_max
        flags["boundary_clean"] = traj.valid
        if not traj.valid:
            flags["diagnostics_ok"] = False
            headline["abort"] = (
                f"boundary magnitude {boundary_max:.3e} exceeds {BOUNDARY_TOLERANCE:g}"
            )
        else:
            # the final state on the grid it was stepped on: every (n/m)-th sample, no FFT
            m = int(traj.compute_n[-1])
            headline["max_form_residual"] = float(
                max_form_residuals(Grid(m, cfg.L), traj.values[-1][:: cfg.n // m])
            )
            artifacts.update(_run_stages(cfg.run, traj, cfg, out, chash, headline, flags))

    summary = RunSummary(cfg, chash, time.perf_counter() - start, flags, headline, artifacts)
    _write_json(out / "summary.json", summary.to_flat_dict())
    return summary


@dataclass
class SelftestReport:
    entries: list

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def table(self) -> str:
        width = max(len(name) for name, _, _ in self.entries)
        lines = [
            f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}"
            for name, ok, detail in self.entries
        ]
        verdict = "all checks passed" if self.passed else "SELFTEST FAILED"
        return "\n".join(lines + [verdict])


def _selftest_convolution(entries):
    grid = Grid(1024, 40.0)
    f = sample(grid, lambda x: 1.0 / np.cosh(x) ** 2)
    diff = lp_norm(green_convolve_direct(f) - helmholtz_inverse(f), np.inf)
    entries.append(
        ("convolution oracle vs spectral", diff <= 1e-6, f"max diff {diff:.3e} (tol 1e-06)")
    )


def _selftest_forms(entries):
    grid = Grid(1024, 40.0)
    fields = smooth_field_family(grid, 5, seed=20250)
    worst = float(np.max(max_form_residuals(grid, np.array([u.values for u in fields]))))
    entries.append(
        ("equivalent-form residual matrix", worst <= 1e-8, f"max residual {worst:.3e} (tol 1e-08)")
    )
    u = fields[0]
    measured = form_residual(u, RhsForm.FORM_B, RhsForm.SQRT3)
    predicted = lp_norm(sqrt3_residual_field(u, convolve=green_convolve_direct), np.inf)
    gap = abs(measured - predicted)
    entries.append(
        (
            "sqrt3 residual vs quadrature formula",
            gap <= 1e-8 and predicted > 1e-6,
            f"|measured-predicted| {gap:.3e}, residual {predicted:.3e}",
        )
    )


def _selftest_rk4(entries):
    grid = Grid(1024, 40.0)
    u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
    T, dt = 0.8, 0.1
    finals = [simulate(u0, T, snapshot_stride=10**6, dt=dt / 2**i).final for i in range(3)]
    e1 = lp_norm(finals[0] - finals[1], np.inf)
    e2 = lp_norm(finals[1] - finals[2], np.inf)
    order = np.log2(e1 / e2)
    entries.append(
        ("rk4 convergence order", 3.8 <= order <= 4.2, f"measured order {order:.3f}")
    )


def _selftest_young(entries):
    grid = Grid(1024, 40.0)
    spec = WeightSpec(0.0, 0.0, 1.0, 0.0)
    report = admissibility_report(spec, spec, sample_count=2048, domain_bound=20.0)
    pairs = compact_pair_family(grid, 50, seed=777)
    f1, f2 = (np.array([pair[i].values for pair in pairs]) for i in (0, 1))
    w = weight_on_grid(spec, grid)
    # np.min, not min: a NaN slack must fail the check
    slack = float(np.min(_young_slacks(grid, f1, f2, w, w, (1.0, 2.0, np.inf), report.C0)))
    entries.append(
        ("weighted convolution inequality sweep", slack >= -1e-10, f"min slack {slack:.3e}")
    )


def _selftest_operator_bounds(entries):
    grid = Grid(1024, 40.0)
    fields = smooth_field_family(grid, 8, seed=4242)
    # every (s, s') of 0.2, 0.4, 0.6 and 0.8 with s' < s
    pairs = [(0.4, 0.2), (0.6, 0.2), (0.8, 0.2), (0.6, 0.4), (0.8, 0.4), (0.8, 0.6)]
    ladders = _operator_ladders(grid, np.array([f.values for f in fields]))
    slacks, drifts = [], []
    for maxima in _operator_maxima(ladders, pairs):
        for six, (s, sp) in zip(maxima, pairs):
            rep = _operator_bounds(six, s, sp)
            slacks += [rep.shift_slack, rep.smooth_slack]
            drifts.append(rep.c_algebra_drift)
    # np.min/np.max, not min/max: a NaN must fail the check
    min_slack, max_drift = float(np.min(slacks)), float(np.max(drifts))
    ok = min_slack >= 0.0 and max_drift < 0.10
    entries.append(
        (
            "scale-of-spaces operator bounds",
            ok,
            f"min slack {min_slack:.3e}, algebra-constant drift {max_drift:.2%}",
        )
    )


def selftest() -> SelftestReport:
    """Deterministic end-to-end checks of the numerical core.

    Covers the convolution oracle, the residual matrix of the equivalent
    formulations (plus the quadrature-confirmed sqrt3 discrepancy), the
    integrator order, the weighted convolution inequality, and the
    scale-of-spaces operator bounds; the residual matrix and the operator
    bounds each take their field family as one block, bit for bit.
    """
    entries: list = []
    for check in (
        _selftest_convolution,
        _selftest_forms,
        _selftest_rk4,
        _selftest_young,
        _selftest_operator_bounds,
    ):
        check(entries)
    return SelftestReport(entries)
