import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gch import (
    Field,
    Grid,
    form_residual,
    green_convolve_direct,
    helmholtz_forward,
    helmholtz_inverse,
    lp_norm,
    max_form_residual,
    momentum_rhs,
    rhs,
    rk4_step,
    sample,
    sqrt3_residual_field,
)
from gch.dynamics import SIMULATION_FORMS, RhsForm, max_form_residuals
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

    def test_max_form_residual_is_the_pairwise_max(self, grid1024):
        for u in smooth_field_family(grid1024, 3, seed=101):
            pairwise = max(form_residual(u, f1, f2) for f1, f2 in ALL_PAIRS)
            assert max_form_residual(u) == pairwise

    def test_max_form_residual_evaluates_each_form_once(self, grid1024, monkeypatch):
        import gch.dynamics as dynamics_mod

        calls = []
        true_rows = dynamics_mod._rhs_rows

        def counted(grid, v, form):
            calls.append((RhsForm(form), v.shape))
            return true_rows(grid, v, form)

        monkeypatch.setattr(dynamics_mod, "_rhs_rows", counted)
        u = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        max_form_residual(u)
        assert calls == [(form, (1024,)) for form in SIMULATION_FORMS]
        calls.clear()
        max_form_residuals(grid1024, np.array([u.values, 2.0 * u.values, -u.values]))
        assert calls == [(form, (3, 1024)) for form in SIMULATION_FORMS]

    def test_zero_residual(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        for f1, f2 in ALL_PAIRS:
            assert form_residual(z, f1, f2) == 0.0


BLOCK_GRID = Grid(1024, 40.0)


@settings(max_examples=20, deadline=None)
@given(count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), zero_at=st.integers(0, 6))
def test_block_residual_is_each_rows_residual(count, seed, zero_at):
    # zero_at < count puts the zero field in that row
    rows = np.array([u.values for u in smooth_field_family(BLOCK_GRID, count, seed)])
    rows[zero_at : zero_at + 1] = 0.0
    block = max_form_residuals(BLOCK_GRID, rows)
    assert block.shape == (count,)
    assert block.tolist() == [max_form_residual(Field(BLOCK_GRID, row)) for row in rows]


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
