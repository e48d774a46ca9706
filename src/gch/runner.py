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

from .analyticity import (
    MajorantParams,
    _operator_bounds,
    _operator_ladders,
    majorant_track,
    radius_track,
)
from .asymptotics import MIN_SNAPSHOTS, amplitude_series, extract_profile, source_integral
from .config import ExperimentConfig, config_hash, validate_config
from .dynamics import RhsForm, form_residual, max_form_residual, sqrt3_residual_field
from .errors import BlowUpError, ConfigError
from .fields import compact_pair_family, make_initial, smooth_field_family
from .grid import Field, Grid, lp_norm, sample
from .helmholtz import green_convolve_direct, helmholtz_inverse
from .integrate import BOUNDARY_TOLERANCE, Trajectory, _write_rows, simulate
from .integrate import write_checkpoint, write_snapshots

# not called here; perfbench's tracer wraps them in gch.runner, so they stay importable
from .analyticity import majorant_norm_argmax, operator_bound_report  # noqa: F401
from .integrate import snapshots_to_csv  # noqa: F401
from .persistence import persistence_ledger
from .weights import WeightSpec, _young_slacks, admissibility_report, weight_on_grid
from .weights import weighted_young_check  # noqa: F401

__all__ = ["RunSummary", "run_experiment", "selftest", "SelftestReport"]


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
        out = {"config_hash": self.config_hash, "config": self.config.to_text()}
        for key, value in self.flags.items():
            out[key] = _jsonable(value)
        for key, value in self.headline.items():
            out[key] = _jsonable(value)
        for key, value in self.artifacts.items():
            out[f"artifact_{key}"] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_flat_dict(), sort_keys=True, indent=2) + "\n"


@contextmanager
def _os_errors(what: str, path: Path):
    """Turn an ``OSError`` in the block into a ``ConfigError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError([f"{what} {str(path)!r}: {exc.strerror or exc}"]) from None


def _write_csv(path: Path, chash: str, header: str, rows) -> None:
    with _os_errors("cannot write", path), open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, chash, header, rows)


def _write_json(path: Path, payload: dict) -> None:
    with _os_errors("cannot write", path), open(path, "w", encoding="utf-8") as fh:
        json.dump({k: _jsonable(v) for k, v in payload.items()}, fh, sort_keys=True, indent=2)
        fh.write("\n")


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


def _degenerate(out: Path, stage: str, payload: dict, exc, headline: dict, keys) -> dict:
    """Record a stage whose measurement does not exist: its JSON says why, its headline is None."""
    payload.update({"degenerate": True, "reason": str(exc)})
    _write_json(out / f"{stage}.json", payload)
    headline.update(dict.fromkeys(keys))
    return {f"{stage}_json": f"{stage}.json"}


def _run_persistence(traj, cfg, out, chash, headline):
    phi = WeightSpec(*cfg.phi)
    ledger = persistence_ledger(traj, phi, cfg.p, N=cfg.N)
    bound = ledger.bound() if not ledger.degenerate else np.zeros_like(ledger.W)
    _write_csv(out / "persistence.csv", chash, "t,W,bound", zip(ledger.times, ledger.W, bound))
    payload = {
        "M": ledger.M,
        "C_fit": ledger.C_fit,
        "N_used": ledger.N_used,
        "p": ledger.p,
        "weight": str(ledger.weight),
        "degenerate": ledger.degenerate,
    }
    _write_json(out / "persistence.json", payload)
    headline["M"] = ledger.M
    headline["C_fit"] = ledger.C_fit
    return {"persistence_csv": "persistence.csv", "persistence_json": "persistence.json"}


def _run_asymptotics(traj, cfg, out, chash, headline):
    window = cfg.resolved_window()
    idx = _profile_index(traj, cfg.t_star)
    payload: dict = {"t": float(traj.times[idx]), "variant": cfg.variant, "d": cfg.d}
    integral = source_integral(traj, cfg.source_variant)
    try:
        profile = extract_profile(
            traj, idx, window, d=cfg.d, variant=cfg.source_variant,
            psi_literal=cfg.psi_literal, integral=integral,
        )
    except ValueError as exc:
        return _degenerate(out, "asymptotics", payload, exc, headline, ("Phi", "Psi"))

    ratio, amp = profile.ratio_right, profile.amp_right
    rows = ((x, r, amp, abs(r - amp)) for x, r in zip(ratio.xs, ratio.ratios))
    _write_csv(out / "tail_ratio.csv", chash, "x,r,Phi,deviation", rows)

    times, plus, minus = amplitude_series(traj, cfg.source_variant, cfg.psi_literal, integral)
    payload.update(
        {
            "degenerate": False,
            "Phi": profile.amp_right,
            "Psi": profile.amp_left,
            "c1": float(np.min(plus)) if plus.size else None,
            "c2": float(np.max(plus)) if plus.size else None,
            "median_ratio": ratio.median,
            "ratio_rel_deviation": ratio.rel_deviation,
            "log_exponent": profile.log_fit.slope,
            "log_fit_degenerate": profile.log_fit.degenerate,
        }
    )
    _write_json(out / "asymptotics.json", payload)
    headline["Phi"] = profile.amp_right
    headline["Psi"] = profile.amp_left
    return {"tail_ratio_csv": "tail_ratio.csv", "asymptotics_json": "asymptotics.json"}


def _run_analyticity(traj, cfg, out, chash, headline):
    try:
        series = radius_track(traj)
    except ValueError as exc:
        return _degenerate(out, "analyticity", {}, exc, headline, ("sigma0", "sigmaT"))

    params = MajorantParams()
    _, argmax = majorant_track(traj, params)
    rows = zip(series.times, series.sigma, series.residual, argmax)
    _write_csv(out / "analyticity.csv", chash, "t,sigma,residual,argmax_k", rows)
    sigma_valid = series.sigma[series.valid]
    payload = {
        "degenerate": False,
        "sigma0": float(series.sigma[0]),
        "sigmaT": float(series.sigma[-1]) if series.valid[-1] else None,
        "sigma_min": float(np.min(sigma_valid)),
        "max_residual": float(np.max(series.residual[series.valid])),
        "majorant_scale": params.s,
        "majorant_order": params.k_max,
    }
    _write_json(out / "analyticity.json", payload)
    headline["sigma0"] = payload["sigma0"]
    headline["sigmaT"] = payload["sigmaT"]
    return {"analyticity_csv": "analyticity.csv", "analyticity_json": "analyticity.json"}


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
    except BlowUpError as exc:
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
            headline["max_form_residual"] = max_form_residual(
                Field(Grid(m, cfg.L), traj.values[-1][:: cfg.n // m])
            )
            stages = {
                "persistence": _run_persistence,
                "asymptotics": _run_asymptotics,
                "analyticity": _run_analyticity,
            }
            for name in cfg.run:
                try:
                    artifacts.update(stages[name](traj, cfg, out, chash, headline))
                except ConfigError:  # an artifact that cannot be written
                    raise
                except Exception as exc:
                    flags["diagnostics_ok"] = False
                    headline[f"{name}_error"] = f"stage '{name}' failed: {exc}"

    summary = RunSummary(cfg, chash, time.perf_counter() - start, flags, headline, artifacts)
    with _os_errors("cannot write", out / "summary.json"):
        (out / "summary.json").write_text(summary.to_json(), encoding="utf-8")
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
    worst = max(max_form_residual(u) for u in fields)
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
    scales = (0.2, 0.4, 0.6, 0.8)
    slacks, drifts = [], []
    for f in fields:
        ladders = _operator_ladders(f)
        for s in scales:
            for sp in scales:
                if sp >= s:
                    continue
                rep = _operator_bounds(ladders, s, sp)
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
    scale-of-spaces operator bounds.
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
