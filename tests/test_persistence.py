import numpy as np
import pytest

from gch import (
    Field,
    Grid,
    Trajectory,
    WeightSpec,
    derivative,
    eval_weight,
    lp_norm,
    persistence_ledger,
    sample,
    simulate,
    truncate_weight,
    two_tier_persistence_check,
    weighted_lp_norm,
)
from gch.weights import weight_on_grid


@pytest.fixture(scope="module")
def run_T1(grid1024):
    u0 = sample(grid1024, lambda x: 0.05 / np.cosh(x) ** 2)
    return simulate(u0, 1.0, snapshot_stride=5)


def ledger_sup(traj):
    """Max over snapshots of ||u||_inf + ||u_x||_inf + ||u_xx||_inf, as the ledger's M."""
    return persistence_ledger(traj, WeightSpec(0, 0, 0, 0), np.inf).M


class TestSupNormTotal:
    def test_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = Trajectory.from_snapshots([0.0], [z])
        assert ledger_sup(traj) == 0.0

    def test_sech_triple(self, sech):
        # 1 + max|sech'| + max|sech''| = 1 + 1/2 + 1; confirmed against a
        # dense-grid oracle before freezing
        xs = np.linspace(-6, 6, 400001)
        s = 1 / np.cosh(xs)
        d1 = np.gradient(s, xs)
        d2 = np.gradient(d1, xs)
        oracle = np.max(np.abs(s)) + np.max(np.abs(d1)) + np.max(np.abs(d2))
        assert oracle == pytest.approx(2.5, abs=1e-4)
        traj = Trajectory.from_snapshots([0.0], [sech])
        assert ledger_sup(traj) == pytest.approx(2.5, abs=1e-3)

    def test_order_invariant(self, run_T1):
        shuffled = Trajectory.from_snapshots(
            run_T1.times, run_T1.snapshots[::-1][::-1]
        )
        assert ledger_sup(shuffled) == ledger_sup(run_T1)


class TestPersistenceLedger:
    def test_constant_trajectory(self, sech2_small):
        traj = Trajectory.from_snapshots([0.0, 0.5, 1.0], [sech2_small] * 3)
        led = persistence_ledger(traj, WeightSpec(0, 0, 2, 0), np.inf)
        assert led.C_fit == 0.0
        assert not led.degenerate

    def test_single_snapshot(self, sech2_small):
        traj = Trajectory.from_snapshots([0.0], [sech2_small])
        led = persistence_ledger(traj, WeightSpec(0, 0, 2, 0), np.inf)
        assert led.C_fit == 0.0
        assert led.binding_index is None
        assert not led.degenerate
        assert led.W.shape == (1,)
        assert np.array_equal(led.bound(), led.W)

    def test_zero_trajectory_degenerate(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = Trajectory.from_snapshots([0.0, 0.1], [z, z])
        led = persistence_ledger(traj, WeightSpec(0, 0, 2, 0), np.inf)
        assert led.degenerate
        assert np.isnan(led.C_fit)

    def test_showcase_power_weight(self, run_T1):
        led = persistence_ledger(run_T1, WeightSpec(0, 0, 2, 0), np.inf)
        assert np.all(np.isfinite(led.W))
        assert led.C_fit < 50
        # the bound holds everywhere with equality at the binding sample
        bound = led.bound()
        assert np.all(led.W <= bound * (1 + 1e-12))
        assert led.binding_index is not None
        assert led.W[led.binding_index] == pytest.approx(
            bound[led.binding_index], rel=1e-12
        )

    def test_zero_a_drops_the_power_term(self, run_T1):
        # a = 0 makes (0, -1, 2, 0) the weight (1+|x|)^2; 0 |x|^{-1} was NaN at x = 0
        same = persistence_ledger(run_T1, WeightSpec(0, -1, 2, 0), np.inf)
        led = persistence_ledger(run_T1, WeightSpec(0, 0, 2, 0), np.inf)
        assert not same.degenerate
        assert same.W.tobytes() == led.W.tobytes()
        assert (same.M, same.C_fit, same.N_used) == (led.M, led.C_fit, led.N_used)

    def test_default_truncation_level(self, run_T1):
        spec = WeightSpec(0, 0, 2, 0)
        led = persistence_ledger(run_T1, spec, np.inf)
        assert led.N_used == pytest.approx(eval_weight(spec, 36.0), rel=1e-14)

    def test_truncation_monotone_in_N(self, run_T1):
        spec = WeightSpec(0, 0, 2, 0)
        levels = [10.0, 100.0, 1000.0, 2000.0]
        W_final = [
            persistence_ledger(run_T1, spec, np.inf, N=N).W[-1] for N in levels
        ]
        assert np.all(np.diff(W_final) >= -1e-14)
        # converged once N exceeds the weight's grid maximum
        cap = eval_weight(spec, 41.0) * 2
        a = persistence_ledger(run_T1, spec, np.inf, N=cap).W
        b = persistence_ledger(run_T1, spec, np.inf, N=cap * 10).W
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_rejects_invalid_trajectory(self, grid1024):
        bumpy = sample(grid1024, lambda x: np.cosh(x / 40.0) - 1.0)  # big at seam
        traj = Trajectory.from_snapshots([0.0], [bumpy])
        with pytest.raises(ValueError, match="boundary"):
            persistence_ledger(traj, WeightSpec(0, 0, 2, 0), np.inf)

    def test_algebraic_decay_conserved(self, run_T1):
        # data bounded by (1+|x|)^{-c} keeps an algebraic bound: the
        # weighted sup norm with the matching power weight stays finite
        led = persistence_ledger(run_T1, WeightSpec(0, 0, 3, 0), np.inf)
        assert np.all(np.isfinite(led.W))


@pytest.fixture(scope="module")
def run_exp():
    g = Grid(2048, 30.0)
    u0 = sample(g, lambda x: 0.05 / np.cosh(x) ** 2)
    return simulate(u0, 0.5, snapshot_stride=5)


class TestTwoTier:
    def test_exponential_weight_bounded(self, run_exp):
        rep = two_tier_persistence_check(run_exp, WeightSpec(1, 1, 0, 0), np.inf)
        assert rep.condition_ok
        assert rep.bounded
        assert np.all(np.isfinite(rep.ledger_primary.W))
        assert np.all(np.isfinite(rep.ledger_root.W))
        assert rep.ledger_root.p == 2.0
        assert rep.ledger_root.weight == WeightSpec(0.5, 1, 0, 0)

    def test_source_envelopes(self, run_exp):
        rep = two_tier_persistence_check(run_exp, WeightSpec(1, 1, 0, 0), np.inf)
        growth = np.exp(rep.envelope_rate * rep.times)
        assert np.all(rep.source_plain <= rep.envelope_plain * growth * (1 + 1e-12))
        assert np.all(
            rep.source_differentiated
            <= rep.envelope_differentiated * growth * (1 + 1e-12)
        )

    def test_power_weight_also_passes(self, run_T1):
        rep = two_tier_persistence_check(run_T1, WeightSpec(0, 0, 1, 0), np.inf)
        assert rep.condition_ok and rep.bounded

    def test_hypothesis_violation_reported(self, run_exp):
        # v = phi = e^{2|x|} leaves v e^{-|x|} = e^{|x|}, which is not in L^2
        rep = two_tier_persistence_check(run_exp, WeightSpec(2, 1, 0, 0), 2.0)
        assert not rep.condition_ok
        assert "not satisfied" in rep.reason
        assert rep.ledger_primary is None

    def test_zero_trajectory_all_series_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = Trajectory.from_snapshots([0.0, 0.1, 0.2], [z] * 3)
        rep = two_tier_persistence_check(traj, WeightSpec(1, 1, 0, 0), np.inf)
        assert rep.condition_ok
        assert rep.ledger_primary.degenerate and rep.ledger_root.degenerate
        assert np.all(rep.source_plain == 0.0)
        assert np.all(rep.source_differentiated == 0.0)


class TestOnePass:
    """Each snapshot is differentiated once, for both W and M."""

    def test_matches_separate_derivatives(self, run_T1):
        phi = WeightSpec(0, 0, 2, 0)
        led = persistence_ledger(run_T1, phi, 2.0)
        w = weight_on_grid(truncate_weight(phi, led.N_used), run_T1.grid)
        triples = [(u, derivative(u, 1), derivative(u, 2)) for u in run_T1.snapshots]
        W = [
            weighted_lp_norm(u, w, 2.0)
            + weighted_lp_norm(ux, w, 2.0)
            + weighted_lp_norm(uxx, w, 2.0)
            for u, ux, uxx in triples
        ]
        M = max(
            lp_norm(u, np.inf) + lp_norm(ux, np.inf) + lp_norm(uxx, np.inf)
            for u, ux, uxx in triples
        )
        assert np.array_equal(led.W, W)
        assert led.M == M

    def test_fft_calls_per_snapshot(self, run_T1, fft_calls):
        persistence_ledger(run_T1, WeightSpec(0, 0, 2, 0), np.inf)
        assert len(fft_calls) <= 4 * len(run_T1)
