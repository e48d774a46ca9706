import numpy as np
import pytest

from gch import (
    Field,
    Grid,
    form_residual,
    green_convolve_direct,
    helmholtz_forward,
    helmholtz_inverse,
    lp_norm,
    momentum_rhs,
    rhs,
    rk4_step,
    sample,
    sqrt3_residual_field,
)
from gch.dynamics import SIMULATION_FORMS, RhsForm
from gch.fields import smooth_field_family

ALL_PAIRS = [
    (f1, f2)
    for i, f1 in enumerate(SIMULATION_FORMS)
    for f2 in SIMULATION_FORMS[i + 1 :]
]


class TestRhsBasics:
    @pytest.mark.parametrize("form", list(RhsForm))
    def test_zero_field(self, grid1024, form):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert lp_norm(rhs(z, form), np.inf) == 0.0

    @pytest.mark.parametrize("form", list(RhsForm))
    def test_quadratic_homogeneity(self, grid1024, form):
        u = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        r1 = rhs(u, form)
        r2 = rhs(2.0 * u, form)
        assert lp_norm(r2 - 4.0 * r1, np.inf) <= 1e-12 * lp_norm(r1, np.inf) * 4

    def test_nonfinite_named(self, grid1024):
        vals = np.zeros(grid1024.n)
        vals[0] = 1e200  # u^2 overflows to inf inside the product
        u = Field(grid1024, vals)
        with pytest.raises(FloatingPointError, match="term"):
            rhs(u, RhsForm.FORM_B)


class TestFormEquivalence:
    def test_sech2_pairs(self, grid1024):
        u = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        assert form_residual(u, RhsForm.FORM_A, RhsForm.FORM_B) <= 1e-9
        assert form_residual(u, RhsForm.FORM_A, RhsForm.PRIMITIVE) <= 1e-9

    def test_family_residual_matrix(self, grid1024):
        for u in smooth_field_family(grid1024, 5, seed=101):
            for f1, f2 in ALL_PAIRS:
                tol = 1e-8 if RhsForm.MOMENTUM in (f1, f2) else 1e-9
                assert form_residual(u, f1, f2) <= tol

    def test_zero_residual(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        for f1, f2 in ALL_PAIRS:
            assert form_residual(z, f1, f2) == 0.0


class TestSqrt3Discrepancy:
    def test_residual_formula_spectral(self, sech):
        measured = form_residual(sech, RhsForm.FORM_B, RhsForm.SQRT3)
        predicted = lp_norm(sqrt3_residual_field(sech), np.inf)
        assert measured == pytest.approx(predicted, abs=1e-9)

    def test_residual_formula_quadrature(self, sech):
        # independent confirmation against the O(n^2) kernel quadrature;
        # its own dx^6 remainder is ~6e-9 at n=1024 for order-one fields
        measured = form_residual(sech, RhsForm.FORM_B, RhsForm.SQRT3)
        predicted = lp_norm(
            sqrt3_residual_field(sech, convolve=green_convolve_direct), np.inf
        )
        assert measured == pytest.approx(predicted, abs=1e-8)
        assert predicted > 1e-3  # strictly positive: the forms genuinely differ

    def test_residual_formula_quadrature_refined(self):
        g = Grid(2048, 40.0)
        u = sample(g, lambda x: 1 / np.cosh(x))
        measured = form_residual(u, RhsForm.FORM_B, RhsForm.SQRT3)
        predicted = lp_norm(
            sqrt3_residual_field(u, convolve=green_convolve_direct), np.inf
        )
        assert measured == pytest.approx(predicted, abs=1e-9)

    def test_residual_positive_small_field(self, grid1024):
        u = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        assert form_residual(u, RhsForm.FORM_B, RhsForm.SQRT3) > 1e-6


class TestMomentumMaps:
    def test_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert lp_norm(helmholtz_forward(z), np.inf) == 0.0

    def test_round_trip(self, grid1024):
        for u in smooth_field_family(grid1024, 4, seed=102):
            back = helmholtz_inverse(helmholtz_forward(u))
            assert lp_norm(back - u, np.inf) <= 1e-10 * lp_norm(u, np.inf)

    def test_mode_multiplier(self, grid1024):
        k = np.pi * 4 / grid1024.half_width
        u = sample(grid1024, lambda x: np.cos(k * x))
        m = helmholtz_forward(u)
        np.testing.assert_allclose(
            m.values, (1 + k**2) * np.cos(k * grid1024.x), atol=1e-12
        )


class TestCoupledEvolutionConsistency:
    def test_velocity_and_momentum_runs_stay_consistent(self, grid1024):
        # evolve u with FORM_B and m with the momentum right-hand side from
        # consistent data; m must track 1 - d_xx applied to u
        u = sample(grid1024, lambda x: 0.05 / np.cosh(x) ** 2)
        m = helmholtz_forward(u)
        dt, steps = 0.01, 30
        for _ in range(steps):
            u = rk4_step(u, dt, lambda v: rhs(v, RhsForm.FORM_B))
            m = rk4_step(m, dt, momentum_rhs)
        drift = lp_norm(m - helmholtz_forward(u), np.inf)
        assert drift <= 1e-6
