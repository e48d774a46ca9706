import numpy as np
import pytest

from gch import (
    Field,
    Grid,
    WeightSpec,
    admissibility_report,
    eval_weight,
    lp_norm,
    sample,
    truncate_weight,
    weighted_lp_norm,
    weighted_young_check,
)
from gch.fields import compact_pair_family
from gch.weights import HUGE, MAX_BOUND, MAX_SAMPLES, _halton_pairs, _kernel_lp, _young_slacks, weight_on_grid


class TestEvalWeight:
    def test_polynomial(self):
        assert eval_weight(WeightSpec(0, 0, 2, 0), 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_identity_weight(self):
        for x in (-7.0, 0.0, 3.3):
            assert eval_weight(WeightSpec(0, 0, 0, 0), x) == 1.0

    def test_exponential(self):
        assert eval_weight(WeightSpec(1, 1, 0, 0), -3.0) == pytest.approx(
            np.exp(3.0), rel=1e-14
        )

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(
            eval_weight(WeightSpec(0, 0, 1, 0), xs), [2.0, 1.0, 3.0], rtol=1e-14
        )

    def test_overflow_clamped_and_reported(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            val = eval_weight(WeightSpec(10, 1, 0, 0), 1000.0)
        assert val >= 1e300
        assert np.isfinite(val)


class TestTruncateWeight:
    def test_cap_below_min(self):
        w = truncate_weight(WeightSpec(0, 0, 2, 0), 1.0)
        xs = np.linspace(-10, 10, 101)
        assert np.all(w(xs) == 1.0)  # (1+|x|)^2 >= 1 everywhere

    def test_cap_above_max_is_identity(self, grid1024):
        spec = WeightSpec(0, 0, 2, 0)
        big = eval_weight(spec, 41.0) * 10
        w = truncate_weight(spec, big)
        np.testing.assert_array_equal(w(grid1024.x), eval_weight(spec, grid1024.x))

    def test_piecewise_exponential(self):
        w = truncate_weight(WeightSpec(1, 1, 0, 0), np.exp(2.0))
        assert w(1.5) == pytest.approx(np.exp(1.5), rel=1e-14)
        assert w(-3.0) == pytest.approx(np.exp(2.0), rel=1e-14)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            truncate_weight(WeightSpec(0, 0, 1, 0), 0.0)


class TestHaltonPairs:
    @pytest.mark.parametrize("count", [1000, 2048, 4097, 10000])
    def test_matches_scipy_halton_bit_for_bit(self, count):
        # scipy is only the oracle here: gch itself never imports it for sampling
        from scipy.stats import qmc

        bound = 20.0
        expected = (2.0 * qmc.Halton(d=2, scramble=False).random(count) - 1.0) * bound
        np.testing.assert_array_equal(_halton_pairs(count, bound), expected)


class TestAdmissibilityReport:
    def test_power_weight(self):
        spec = WeightSpec(0, 0, 1, 0)
        rep = admissibility_report(spec, spec)
        assert rep.submult_max_violation == 0.0
        assert rep.A <= 1.0 + 1e-6
        assert rep.kernel_integral == pytest.approx(4.0, abs=1e-6)
        assert rep.passes["kernel_l1"]
        assert rep.admissible

    def test_identity_weight(self):
        spec = WeightSpec(0, 0, 0, 0)
        rep = admissibility_report(spec, spec)
        assert rep.C0 == pytest.approx(1.0, abs=1e-12)
        assert rep.A == pytest.approx(0.0, abs=1e-12)
        assert rep.kernel_integral == pytest.approx(2.0, abs=1e-6)

    def test_exponential_limit_case(self):
        # e^{|x|}: the kernel L^1 integral grows with the domain, while the
        # sup of v e^{-|x|} == 1 stays bounded
        spec = WeightSpec(1, 1, 0, 0)
        rep = admissibility_report(spec, spec, p=np.inf)
        assert not rep.passes["kernel_l1"]
        assert rep.kernel_integral_doubled == pytest.approx(
            2 * rep.kernel_integral, rel=1e-9
        )
        assert rep.passes["kernel_lp"]
        assert rep.kernel_lp_norm == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize(
        "phi,v",
        [
            (WeightSpec(0.3, 1, -1, 0.5), WeightSpec(0.5, 1, 1, 1)),
            (WeightSpec(0, 0, -2, 0), WeightSpec(0, 0, 2, 0)),
        ],
    )
    def test_moderate_pairs_stable_c0(self, phi, v):
        # |a|<=alpha, b<=beta, |c|<=gamma, |d|<=delta makes phi v-moderate:
        # sampled C0 is finite and stable under sample doubling
        r1 = admissibility_report(phi, v, sample_count=2048)
        r2 = admissibility_report(phi, v, sample_count=4096)
        assert np.isfinite(r1.C0) and np.isfinite(r2.C0)
        assert r2.C0 >= r1.C0 - 1e-12  # Halton prefixes nest
        assert r2.C0 <= r1.C0 * 1.25

    def test_truncation_properties(self, grid1024):
        # ||phi_N||_inf <= N and |phi_N'| <= A |phi_N| a.e., sampled
        spec = WeightSpec(1, 1, 0, 0)
        rep = admissibility_report(spec, spec)
        N = np.exp(10.0)
        w = truncate_weight(spec, N)
        xs = np.linspace(-20, 20, 4001)
        vals = w(xs)
        assert np.max(vals) <= N
        h = 1e-7
        deriv = (w(xs + h) - w(xs - h)) / (2 * h)
        assert np.all(np.abs(deriv) <= (rep.A + 1e-3) * vals + 1e-12)

    def test_sqrt_weight_halves_derivative_constant(self):
        spec = WeightSpec(1, 1, 0, 0)
        rep = admissibility_report(spec, spec)
        rep_sqrt = admissibility_report(spec.sqrt(), spec.sqrt())
        assert rep_sqrt.A == pytest.approx(rep.A / 2, abs=1e-5)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError, match="sample_count"):
            admissibility_report(WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0), sample_count=10)

    def test_rejects_large_sample(self, monkeypatch):
        import gch.weights as weights_mod

        monkeypatch.setattr(weights_mod, "_halton_pairs", None)  # refused before sampling
        with pytest.raises(ValueError, match=f"not in \\[1000, MAX_SAMPLES = {MAX_SAMPLES}\\]"):
            admissibility_report(
                WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0), sample_count=MAX_SAMPLES + 1
            )

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="domain_bound"):
            admissibility_report(
                WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0), domain_bound=-1.0
            )

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bound(self, bound):
        with pytest.raises(ValueError, match="domain_bound must be positive and finite"):
            admissibility_report(
                WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0), domain_bound=bound
            )


    @pytest.mark.parametrize("bound", [1e28, 1e40])
    def test_rejects_a_bound_the_kernel_rule_cannot_resolve(self, bound):
        # the tanh-sinh rule read 3.845 (not admissible) at 1e28 and 0.0 (admissible) at 1e40
        with pytest.raises(ValueError, match="exceeds MAX_BOUND = 1e\\+17"):
            admissibility_report(WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0), domain_bound=bound)

    def test_max_bound_keeps_the_kernel_integral(self):
        # v = (0, 0, 1, 0): the kernel integral 2 (2 - (B + 2) e^{-B}) is 4 to 1e-12
        rep = admissibility_report(WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0),
                                   domain_bound=MAX_BOUND, p=1.0)
        assert rep.kernel_integral == pytest.approx(4.0, rel=1e-12, abs=0.0)
        assert rep.kernel_integral_doubled == pytest.approx(4.0, rel=1e-12, abs=0.0)
        assert rep.passes["kernel_l1"]


class TestKernelQuadrature:
    @pytest.mark.parametrize(
        "spec",
        [(0, 0, 0, 0), (0, 0, 1, 0), (0.5, 1, 0.5, 1), (0.5, 0.5, 0, 0), (0.3, 0.3, 2, 1),
         (-1, 2, 0, 0)],
    )
    @pytest.mark.parametrize("bound", [20.0, 40.0])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_tight_scipy_quad(self, spec, bound, p):
        # scipy is only the oracle here: gch integrates the kernel with numpy
        from scipy.integrate import quad

        w = WeightSpec(*spec)
        half, _ = quad(
            lambda t: (eval_weight(w, t) * np.exp(-t)) ** p, 0.0, bound,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert _kernel_lp(w, bound, p) == pytest.approx((2.0 * half) ** (1.0 / p), rel=1e-12)

    @pytest.mark.parametrize("bound", [20.0, 40.0])
    def test_closed_forms(self, bound):
        # int e^{-|x|} and int (1+|x|) e^{-|x|} over [-B, B]
        assert _kernel_lp(WeightSpec(0, 0, 0, 0), bound, 1.0) == pytest.approx(
            2.0 * (1.0 - np.exp(-bound)), abs=1e-14
        )
        assert _kernel_lp(WeightSpec(0, 0, 1, 0), bound, 1.0) == pytest.approx(
            2.0 * (2.0 - (bound + 2.0) * np.exp(-bound)), abs=1e-14
        )

    @pytest.mark.parametrize("bound", [20.0, 1e6, 1e17])
    def test_sup_between_the_nodes(self, bound):
        # (1 + |x|)^c e^{-|x|} peaks at |x| = c - 1, between the even nodes for c = sqrt 2
        c = np.sqrt(2.0)
        assert _kernel_lp(WeightSpec(0, 0, c, 0), bound, np.inf) == pytest.approx(
            c**c * np.exp(1.0 - c), rel=1e-12
        )

    def test_overflowing_weight_clamps_and_fails_kernel_l1(self):
        # e^{x^2} passes HUGE beyond |x| ~ 26.3, inside the doubled domain
        spec = WeightSpec(1, 2, 0, 0)
        with pytest.warns(RuntimeWarning, match="clamped"):
            rep = admissibility_report(spec, spec, domain_bound=20.0, p=2.0)
        assert not rep.passes["kernel_l1"]


    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_clamped_weight_integrates_to_inf(self, p):
        # e^{x^2} passes HUGE at |x| = sqrt(log HUGE) ~ 26.28: inside [-40, 40]
        spec = WeightSpec(1, 2, 0, 0)
        with pytest.warns(RuntimeWarning, match="clamped"):
            assert _kernel_lp(spec, 40.0, p) == np.inf
        # clamped only in the last ulp of the domain, where the rule puts no node
        edge = np.sqrt(np.log(HUGE)) * (1.0 + 2e-16)
        with pytest.warns(RuntimeWarning, match="clamped"):
            assert _kernel_lp(spec, edge, p) == np.inf

    def test_clamped_weight_reports_inf(self):
        spec = WeightSpec(1, 2, 0, 0)
        with pytest.warns(RuntimeWarning, match="clamped"):
            rep = admissibility_report(spec, spec, domain_bound=40.0, p=2.0)
        assert rep.kernel_integral == rep.kernel_integral_doubled == np.inf
        assert rep.kernel_lp_norm == rep.kernel_lp_norm_doubled == np.inf
        assert not rep.passes["kernel_l1"] and not rep.passes["kernel_lp"]
        assert not rep.admissible


class TestSubmultiplicativity:
    @pytest.mark.parametrize(
        "spec",
        [
            WeightSpec(0, 0, 1, 0),
            WeightSpec(0.5, 1, 0, 0),
            WeightSpec(1, 0.5, 2, 1),
        ],
    )
    def test_family_regime(self, spec):
        rep = admissibility_report(spec, spec)
        assert rep.submult_max_violation <= 1e-12

    def test_unmeasurable_ratio_fails(self):
        # e^{-x^2} underflows to 0 on [-40, 40]: 0/0 ratios measure nothing,
        # and v(x+y)/(v(x)v(y)) = e^{-2xy} is unbounded anyway
        spec = WeightSpec(-1, 2, 0, 0)
        rep = admissibility_report(spec, spec, domain_bound=40.0)
        assert rep.submult_max_violation == np.inf
        assert not rep.passes["submultiplicative"]


class TestWeightedNorm:
    @pytest.mark.parametrize(
        "table, match",
        [
            (np.ones(5), r"weight table must have shape \(1024,\), got \(5,\)"),
            (np.full(1024, np.inf), "weight is not finite on the grid"),
        ],
        ids=["wrong_shape", "non_finite"],
    )
    def test_rejects_bad_table(self, grid1024, table, match):
        with pytest.raises(ValueError, match=match):
            weight_on_grid(table, grid1024)

    def test_zero_field(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert weighted_lp_norm(z, WeightSpec(0, 0, 2, 0), 2.0) == 0.0

    def test_identity_weight_matches_plain(self, sech):
        for p in (1.0, 2.0, np.inf):
            assert weighted_lp_norm(sech, WeightSpec(0, 0, 0, 0), p) == pytest.approx(
                lp_norm(sech, p), rel=1e-14
            )

    def test_exponential_weighted_sech_sup(self, grid4096):
        # e^{|x|} sech(x) climbs monotonically to 2; the cap at e^{10}
        # freezes the product just below the limit
        f = sample(grid4096, lambda x: 1 / np.cosh(x))
        w = truncate_weight(WeightSpec(1, 1, 0, 0), np.exp(10.0))
        assert weighted_lp_norm(f, w, np.inf) == pytest.approx(2.0, abs=1e-3)


class TestWeightedYoung:
    def test_rejects_two_grids(self, grid1024):
        one = WeightSpec(0, 0, 0, 0)
        f = sample(grid1024, lambda x: np.exp(-(x**2)))
        g = sample(Grid(1024, 20.0), lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError, match="fields must live on the same grid"):
            weighted_young_check(f, g, one, one, 2.0, 1.0)

    def test_zero_factor(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        f = sample(grid1024, lambda x: np.exp(-(x**2)))
        assert weighted_young_check(z, f, WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0), 2.0, 1.0) == 0.0

    def test_classical_young_gaussians(self, grid1024):
        one = WeightSpec(0, 0, 0, 0)
        f = sample(grid1024, lambda x: np.exp(-(x**2)) / np.sqrt(np.pi))
        slack = weighted_young_check(f, f, one, one, 2.0, 1.0)
        assert slack >= 0.0

    def test_seeded_sweep_power_weight(self, grid1024):
        spec = WeightSpec(0, 0, 1, 0)
        C0 = admissibility_report(spec, spec).C0
        for f1, f2 in compact_pair_family(grid1024, 50, seed=777):
            for p in (1.0, 2.0, np.inf):
                assert weighted_young_check(f1, f2, spec, spec, p, C0) >= -1e-10


def _per_call_young(f1, f2, phi, v, p, C0):
    """The slack from one FFT pass and fresh weight tables per call, as before the block core."""
    grid = f1.grid
    conv = grid.irfft(grid.rfft(f1.values) * grid.rfft(f2.values)) * grid.dx
    conv = np.roll(conv, -(grid.n // 2))
    lhs = weighted_lp_norm(Field(grid, conv), phi, p)
    rhs = C0 * weighted_lp_norm(f1, v, 1.0) * weighted_lp_norm(f2, phi, p)
    return float(rhs - lhs)


class TestYoungBlock:
    PS = (1.0, 2.0, np.inf)
    PHI, V = WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 0.5, 1)
    C0 = 1.75

    def test_check_and_block_equal_the_per_call_formula(self, grid1024):
        pairs = compact_pair_family(grid1024, 50, seed=777)
        expected = np.array([
            [_per_call_young(f1, f2, self.PHI, self.V, p, self.C0) for f1, f2 in pairs]
            for p in self.PS
        ])
        checks = [
            [weighted_young_check(f1, f2, self.PHI, self.V, p, self.C0) for f1, f2 in pairs]
            for p in self.PS
        ]
        np.testing.assert_array_equal(np.array(checks), expected)
        f1, f2 = (np.array([pair[i].values for pair in pairs]) for i in (0, 1))
        phi, v = weight_on_grid(self.PHI, grid1024), weight_on_grid(self.V, grid1024)
        block = _young_slacks(grid1024, f1, f2, phi, v, self.PS, self.C0)
        assert block.shape == (3, 50)
        np.testing.assert_array_equal(block, expected)

    def test_one_fft_pass_for_the_block(self, grid1024, fft_calls):
        pairs = compact_pair_family(grid1024, 50, seed=777)
        f1, f2 = (np.array([pair[i].values for pair in pairs]) for i in (0, 1))
        phi = weight_on_grid(self.PHI, grid1024)
        _young_slacks(grid1024, f1, f2, phi, phi, self.PS, self.C0)
        assert sorted(fft_calls) == ["irfft", "rfft", "rfft"]
