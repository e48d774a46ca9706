import numpy as np
import pytest

from gch import (
    Field,
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
from gch.weights import _halton_pairs


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

    def test_submultiplicative_family_flag(self):
        assert WeightSpec(1, 0.5, 2, 1).submultiplicative_family
        assert not WeightSpec(-1, 0.5, 2, 1).submultiplicative_family
        assert not WeightSpec(1, 1.5, 2, 1).submultiplicative_family

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

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="domain_bound"):
            admissibility_report(
                WeightSpec(0, 0, 1, 0), WeightSpec(0, 0, 1, 0), domain_bound=-1.0
            )


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


class TestWeightedNorm:
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
