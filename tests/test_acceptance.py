"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime.
"""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from gch import (
    Grid,
    Trajectory,
    WeightSpec,
    admissibility_report,
    amplitude_series,
    averaged_source,
    derivative,
    dominated_convergence_series,
    fit_log_slope,
    form_residual,
    green_convolve_direct,
    helmholtz_forward,
    helmholtz_inverse,
    lp_norm,
    p2_apply,
    parse_config,
    persistence_ledger,
    radius_estimate,
    radius_track,
    run_experiment,
    sample,
    simulate,
    sqrt3_residual_field,
    tail_amplitudes,
    tail_ratio,
    two_tier_persistence_check,
    weighted_young_check,
)
from gch.analyticity import operator_bound_report
from gch.dynamics import SIMULATION_FORMS, RhsForm
from gch.fields import compact_pair_family, smooth_field_family
from gch.runner import selftest

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def field_set(grid1024):
    return smooth_field_family(grid1024, 20, seed=2025)


@pytest.fixture(scope="module")
def showcase_run():
    g = Grid(4096, 40.0)
    u0 = sample(g, lambda x: 0.05 / np.cosh(x) ** 2)
    return simulate(u0, 0.25, snapshot_stride=1)


def test_c01_formulation_equivalence(field_set):
    worst = max(
        form_residual(u, f1, f2)
        for u in field_set
        for i, f1 in enumerate(SIMULATION_FORMS)
        for f2 in SIMULATION_FORMS[i + 1 :]
    )
    report(
        1,
        "formulation equivalence",
        worst <= 1e-8,
        f"max residual over 20 fields x 6 pairs = {worst:.3e} (tol 1e-08)",
    )


def test_c02_sqrt3_discrepancy(grid1024, field_set):
    fields = [sample(grid1024, lambda x: 1 / np.cosh(x))] + field_set[:3]
    worst_gap, smallest_residual = 0.0, np.inf
    for u in fields:
        measured = form_residual(u, RhsForm.FORM_B, RhsForm.SQRT3)
        predicted = lp_norm(
            sqrt3_residual_field(u, convolve=green_convolve_direct), np.inf
        )
        worst_gap = max(worst_gap, abs(measured - predicted))
        smallest_residual = min(smallest_residual, predicted)
    report(
        2,
        "sqrt3 discrepancy ledger",
        worst_gap <= 1e-8 and smallest_residual > 0,
        f"max |measured - quadrature| = {worst_gap:.3e} (tol 1e-08); "
        f"residual itself >= {smallest_residual:.3e}",
    )


def test_c03_operator_identities(grid1024, field_set):
    round_trip = max(
        lp_norm(helmholtz_forward(helmholtz_inverse(f)) - f, np.inf)
        / lp_norm(f, np.inf)
        for f in field_set[:5]
    )
    f = sample(grid1024, lambda x: 1 / np.cosh(x) ** 2)
    direct = lp_norm(green_convolve_direct(f) - helmholtz_inverse(f), np.inf)
    identity = max(
        lp_norm(p2_apply(derivative(g, 1)) - (helmholtz_inverse(g) - g), np.inf)
        for g in field_set[:5]
    )
    ok = round_trip <= 1e-10 and direct <= 1e-6 and identity <= 1e-9
    report(
        3,
        "operator identities",
        ok,
        f"round trip {round_trip:.2e} (1e-10); direct-vs-spectral {direct:.2e} "
        f"(1e-06); kernel identity {identity:.2e} (1e-09)",
    )


def test_c04_integrator_order(grid1024):
    u0 = sample(grid1024, lambda x: 0.05 / np.cosh(x) ** 2)
    finals = [
        simulate(u0, 0.8, snapshot_stride=10**6, dt=0.1 / 2**i).final
        for i in range(3)
    ]
    e1 = lp_norm(finals[0] - finals[1], np.inf)
    e2 = lp_norm(finals[1] - finals[2], np.inf)
    order = float(np.log2(e1 / e2))
    report(4, "integrator order", 3.8 <= order <= 4.2, f"measured order {order:.3f}")


def test_c05_persistence_growth():
    # box wide enough that the boundary stays ~1e-19 over T=1 and fine
    # enough to resolve the contracted analyticity radius
    ledgers = {}
    for n in (4096, 8192):
        g = Grid(n, 48.0)
        u0 = sample(g, lambda x: 0.05 / np.cosh(x) ** 2)
        traj = simulate(u0, 1.0, snapshot_stride=5)
        for spec in (WeightSpec(0, 0, 2, 0), WeightSpec(0.5, 1, 0.5, 1)):
            ledgers[(n, spec)] = persistence_ledger(traj, spec, np.inf)

    details, ok = [], True
    for spec in (WeightSpec(0, 0, 2, 0), WeightSpec(0.5, 1, 0.5, 1)):
        base, fine = ledgers[(4096, spec)], ledgers[(8192, spec)]
        finite = np.all(np.isfinite(base.W)) and np.all(np.isfinite(fine.W))
        bound = base.bound()
        holds = np.all(base.W <= bound * (1 + 1e-12))
        binding = base.binding_index is not None and base.W[
            base.binding_index
        ] == pytest.approx(bound[base.binding_index], rel=1e-12)
        drift = abs(fine.C_fit - base.C_fit) / base.C_fit
        ok = ok and finite and base.C_fit < 50 and holds and binding and drift < 0.05
        details.append(f"phi={spec}: C_fit={base.C_fit:.3f}, drift={drift:.2%}")
    report(5, "persistence growth bound", ok, "; ".join(details))


def test_c06_two_tier_fast_weights():
    phi = WeightSpec(1, 1, 0, 0)
    adm = admissibility_report(phi, phi, p=np.inf)
    condition_split = (not adm.passes["kernel_l1"]) and adm.passes["kernel_lp"]

    g = Grid(2048, 30.0)
    u0 = sample(g, lambda x: 0.05 / np.cosh(x) ** 2)
    traj = simulate(u0, 0.5, snapshot_stride=5)
    rep = two_tier_persistence_check(traj, phi, np.inf)
    finite = rep.bounded
    report(
        6,
        "two-tier boundedness for e^{|x|}",
        condition_split and rep.condition_ok and finite,
        f"kernel L1 fails / L-inf holds: {condition_split}; both ledgers finite: "
        f"{finite} (W_max {rep.ledger_primary.W.max():.3f} / "
        f"{rep.ledger_root.W.max():.3f})",
    )


def test_c07_weighted_young(grid1024):
    spec = WeightSpec(0, 0, 1, 0)
    C0 = admissibility_report(spec, spec).C0
    slack = min(
        weighted_young_check(f1, f2, spec, spec, p, C0)
        for f1, f2 in compact_pair_family(grid1024, 50, seed=777)
        for p in (1.0, 2.0, np.inf)
    )
    report(
        7,
        "weighted convolution inequality",
        slack >= -1e-10,
        f"min slack over 50 pairs x 3 exponents = {slack:.3e} (tol -1e-10)",
    )


def test_c08_kernel_integral_closed_forms():
    r1 = admissibility_report(WeightSpec(0, 0, 0, 0), WeightSpec(0, 0, 0, 0))
    r2 = admissibility_report(WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0))
    e1 = abs(r1.kernel_integral - 2.0)
    e2 = abs(r2.kernel_integral - 4.0)
    report(
        8,
        "kernel integral closed forms",
        e1 <= 1e-6 and e2 <= 1e-6,
        f"|I(1)-2|={e1:.2e}, |I(1+|x|)-4|={e2:.2e} (tol 1e-06)",
    )


def test_c09_asymptotic_profile(showcase_run):
    traj = showcase_run
    idx = len(traj) - 1
    ratio = tail_ratio(traj, idx, (10.0, 20.0), "right")
    within = ratio.rel_deviation <= 0.25

    h_fine = averaged_source(traj, idx)
    amp_fine, _ = tail_amplitudes(h_fine)
    coarse = Trajectory.from_snapshots(traj.times[::2], traj.snapshots[::2])
    amp_coarse, _ = tail_amplitudes(averaged_source(coarse, len(coarse) - 1))
    sampling_stable = abs(amp_fine - amp_coarse) <= 0.05 * amp_fine

    _, plus, _ = amplitude_series(traj)
    c1, c2 = float(np.min(plus)), float(np.max(plus))

    xs = traj.grid.x[(traj.grid.x >= 10.0) & (traj.grid.x <= 20.0)][::16]
    lhs, rhs_ = dominated_convergence_series(h_fine, xs)
    bracket = np.all(lhs >= -1e-15) and np.all(lhs <= rhs_ + 1e-15)

    ok = within and sampling_stable and c1 > 0 and bracket
    report(
        9,
        "asymptotic tail profile",
        ok,
        f"|median|-vs-amplitude deviation {ratio.rel_deviation:.1%} (tol 25%); "
        f"time-sampling shift {abs(amp_fine - amp_coarse) / amp_fine:.2e} (tol 5%); "
        f"amplitude band [{c1:.4g}, {c2:.4g}]; bracketing holds: {bracket}",
    )


def test_c10_log_remainder_rate():
    d = 1.0
    xs = np.linspace(10.0, 20.0, 41)
    tails = np.array(
        [
            quad(
                lambda u: 1.0 / np.log(np.e + np.expm1(u)) ** (2 * d),
                np.log1p(x),
                np.inf,
                limit=200,
            )[0]
            for x in xs
        ]
    )
    fit = fit_log_slope(xs, tails, d)
    err = abs(fit.slope - (1 - 2 * d))
    report(
        10,
        "log remainder rate",
        (not fit.degenerate) and err <= 0.15,
        f"fitted exponent {fit.slope:.3f} vs {1 - 2 * d}, error {err:.3f} (tol 0.15)",
    )


def test_c11_analyticity(grid1024):
    sech = sample(grid1024, lambda x: 1 / np.cosh(x))
    sigma_sech = radius_estimate(sech).sigma
    sech_ok = abs(sigma_sech - np.pi / 2) <= 0.05 * np.pi / 2

    u0 = sample(grid1024, lambda x: 0.05 / np.cosh(x) ** 2)
    traj = simulate(u0, 0.25, snapshot_stride=2)
    series = radius_track(traj)
    track_ok = bool(
        np.all(series.valid) and np.nanmin(series.sigma) >= 0.5 * series.sigma[0]
    )

    min_slack, max_drift = np.inf, 0.0
    scales = (0.2, 0.4, 0.6, 0.8)
    for f in smooth_field_family(grid1024, 8, seed=4242):
        for s in scales:
            for sp in scales:
                if sp >= s:
                    continue
                rep = operator_bound_report(f, s, sp)
                min_slack = min(min_slack, rep.shift_slack, rep.smooth_slack)
                max_drift = max(max_drift, rep.c_algebra_drift)
    bounds_ok = min_slack >= 0.0 and max_drift < 0.10

    report(
        11,
        "analyticity indicators",
        sech_ok and track_ok and bounds_ok,
        f"sigma(sech)={sigma_sech:.4f} vs pi/2 ({abs(sigma_sech - np.pi / 2) / (np.pi / 2):.1%}); "
        f"min sigma(t)/sigma(0)={np.nanmin(series.sigma) / series.sigma[0]:.2f}; "
        f"min operator slack {min_slack:.3f}; algebra drift {max_drift:.2%}",
    )


GOLDEN_CONFIG = """
[grid]
n = 1024
L = 30
[time]
T = 0.12
snapshot_stride = 1
[initial]
kind = sech2
amplitude = 0.05
[diagnostics]
run = persistence,asymptotics,analyticity
[output]
seed = 3
"""


def test_c12_reproducibility(tmp_path):
    rep1 = selftest()
    rep2 = selftest()
    selftest_ok = rep1.passed and rep1.table() == rep2.table()

    cfg = parse_config(GOLDEN_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=a)
    run_experiment(cfg, out_dir=b)
    stable = (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    golden = GOLDEN_DIR / "summary.json"
    if os.environ.get("GCH_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_bytes((a / "summary.json").read_bytes())
    golden_ok = golden.exists() and golden.read_bytes() == (a / "summary.json").read_bytes()

    report(
        12,
        "reproducibility",
        selftest_ok and stable and golden_ok,
        f"selftest deterministic pass: {selftest_ok}; summaries byte-stable: "
        f"{stable}; frozen golden matches: {golden_ok}",
    )


def test_golden_artifact_hashes(tmp_path):
    """Every file ``run_experiment`` writes for the golden config, by sha256.

    ``GCH_REGEN_GOLDEN=1`` rewrites ``golden/artifacts.sha256``, as it does
    the golden summary.
    """
    run_experiment(parse_config(GOLDEN_CONFIG), out_dir=tmp_path)
    lines = [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(tmp_path.iterdir())
    ]
    golden = GOLDEN_DIR / "artifacts.sha256"
    if os.environ.get("GCH_REGEN_GOLDEN"):
        golden.write_text("".join(lines), encoding="utf-8")
    expected = golden.read_text(encoding="utf-8").splitlines(keepends=True)
    changed = sorted(set(lines) ^ set(expected))
    assert not changed, f"artifacts differ from the golden hashes: {changed}"
