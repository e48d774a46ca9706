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
from gch.dynamics import SIMULATION_FORMS, RhsForm, _Operands, _rhs_rows, max_form_residuals
from gch.dynamics import _SQRT2, _SQRT3, _SQRT6, _prod, _trunc
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

        calls, memos = [], []
        true_rows = dynamics_mod._rhs_rows

        def counted(w, form):
            calls.append((RhsForm(form), w.v.shape))
            memos.append(w)
            return true_rows(w, form)

        monkeypatch.setattr(dynamics_mod, "_rhs_rows", counted)
        u = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        max_form_residual(u)
        assert calls == [(form, (1024,)) for form in SIMULATION_FORMS]
        assert all(w is memos[0] for w in memos)  # one memo for all four forms
        calls.clear()
        memos.clear()
        max_form_residuals(grid1024, np.array([u.values, 2.0 * u.values, -u.values]))
        assert calls == [(form, (3, 1024)) for form in SIMULATION_FORMS]
        assert all(w is memos[0] for w in memos)

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


MEMO_GRIDS = [Grid(n, 40.0) for n in (64, 1024, 2048, 3072)]


def _bits(a):
    return np.asarray(a).tobytes()


def _memo_samples(grid, shape):
    """One field, a 5-row block, or that block with its middle row zeroed."""
    rows = np.array([u.values for u in smooth_field_family(grid, 5, seed=grid.n)])
    if shape == "field":
        return rows[0]
    if shape == "zero_row":
        rows[2] = 0.0
    return rows


def _reference_rows(grid, v, form):
    """Each form on its own operands, in the order of operations the memo must keep."""
    v_hat = grid.rfft(v)
    ux = grid.irfft(grid.diff_hat(v_hat))
    vt, uxt = _trunc(grid, v, v_hat), _trunc(grid, ux)
    if form is RhsForm.PRIMITIVE:
        a = _trunc(grid, 2.0 * v - ux)
        sq_hat = grid.rfft(_prod(grid, a, a, ""))
        return grid.g_star(
            2.0 * grid.irfft(grid.diff_hat(sq_hat)) + grid.irfft(grid.diff_hat(sq_hat, 2))
        )
    if form is RhsForm.MOMENTUM:
        m = grid.irfft(v_hat * grid.helm)
        m_hat = grid.rfft(m)
        mt, mxt = _trunc(grid, m, m_hat), _trunc(grid, grid.irfft(grid.diff_hat(m_hat)))
        s = _trunc(grid, v + ux)
        m_t = (
            2.0 * _prod(grid, mt, mt, "") + 8.0 * _prod(grid, uxt, mt, "")
            - 4.0 * _prod(grid, vt, mt, "") + 4.0 * _prod(grid, vt, mxt, "")
            - 2.0 * _prod(grid, uxt, mxt, "") + 2.0 * _prod(grid, s, s, "")
        )
        return grid.g_star(m_t)
    uux, ux2, u2 = _prod(grid, vt, uxt, ""), _prod(grid, uxt, uxt, ""), _prod(grid, vt, vt, "")
    flux = grid.diff(2.0 * ux2 + 6.0 * u2)
    if form is RhsForm.FORM_A:
        return 4.0 * uux + grid.g_star(flux + grid.diff(ux2, 2))
    if form is RhsForm.FORM_B:
        return 4.0 * uux - ux2 + grid.g_star(flux + ux2)
    q = _trunc(grid, _SQRT2 * ux + _SQRT6 * v)
    q2 = _prod(grid, q, q, "")
    return 4.0 * uux - ux2 + _SQRT3 * u2 - grid.g_star(ux2 - _SQRT3 * u2) + grid.p2(q2)


def _term(fn):
    """The term a non-finite evaluation names, or "ok"."""
    try:
        fn()
    except FloatingPointError as exc:
        return str(exc).removeprefix("non-finite value in term ").strip("'")
    return "ok"


class TestOperandMemo:
    @pytest.mark.parametrize("shape", ["field", "block", "zero_row"])
    @pytest.mark.parametrize("grid", MEMO_GRIDS, ids=lambda g: f"n{g.n}")
    def test_shared_forms_are_fresh_forms(self, grid, shape):
        v = _memo_samples(grid, shape)
        fresh = [_rhs_rows(_Operands(grid, v), form) for form in RhsForm]
        assert [_bits(a) for a in fresh] == [_bits(_reference_rows(grid, v, f)) for f in RhsForm]
        # whichever form reads an operand first, it is formed the same way
        for order in (list(RhsForm), list(RhsForm)[::-1]):
            w = _Operands(grid, v)
            shared = {form: _rhs_rows(w, form) for form in order}
            assert [_bits(shared[form]) for form in RhsForm] == [_bits(a) for a in fresh]
        sim = fresh[: len(SIMULATION_FORMS)]
        pairs = [np.max(np.abs(a - b), axis=-1) for i, a in enumerate(sim) for b in sim[i + 1 :]]
        assert _bits(max_form_residuals(grid, v)) == _bits(np.max(pairs, axis=0))

    @pytest.mark.parametrize("grid", MEMO_GRIDS, ids=lambda g: f"n{g.n}")
    def test_form_residual_is_the_fresh_forms_distance(self, grid):
        u = Field(grid, _memo_samples(grid, "field"))
        for f1 in RhsForm:
            for f2 in RhsForm:
                expected = lp_norm(rhs(u, f1) - rhs(u, f2), np.inf)
                assert repr(form_residual(u, f1, f2)) == repr(expected)

    def test_fft_counts(self, grid1024, fft_calls):
        u = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        counts = {}
        for form in RhsForm:
            fft_calls.clear()
            rhs(u, form)
            counts[form] = len(fft_calls)
        # a single form forms its own operands
        assert counts == {
            RhsForm.PRIMITIVE: 11, RhsForm.FORM_A: 17, RhsForm.FORM_B: 15,
            RhsForm.MOMENTUM: 27, RhsForm.SQRT3: 19,
        }
        fft_calls.clear()
        max_form_residuals(grid1024, np.array([u.values] * 3))
        assert len(fft_calls) == 50  # 70 less v_hat, u_x, the truncations, products and flux
        fft_calls.clear()
        form_residual(u, RhsForm.FORM_B, RhsForm.SQRT3)
        assert len(fft_calls) == 23  # 15 + 19 less the 11 they share

    # (samples, the term each of rhs(PRIMITIVE, FORM_A, FORM_B, MOMENTUM, SQRT3) names)
    NON_FINITE = {
        "spike": (
            lambda x: np.where(np.arange(x.size) == 0, 1e300, 0.0),
            ["(2u-u_x)^2", "u*u_x", "u*u_x", "m^2", "u*u_x"],
        ),
        "wide": (
            lambda x: 1e153 / np.cosh(x / 10.0),
            ["(2u-u_x)^2", "u^2", "u^2", "m^2", "u^2"],
        ),
        "wavy": (
            lambda x: 1e152 * np.cos(np.pi / 40.0 * 300 * x) / np.cosh(x / 4.0),
            ["(2u-u_x)^2", "u_x^2", "u_x^2", "m^2", "u_x^2"],
        ),
        "wavy_momentum_only": (
            lambda x: 10.0**150.5 * np.cos(np.pi / 40.0 * 300 * x) / np.cosh(x / 4.0),
            ["ok", "ok", "ok", "m^2", "ok"],
        ),
        "u_x_overflows": (
            lambda x: np.where(np.arange(x.size) == 0, 1.7e308, 0.0),
            ["u_x"] * 5,
        ),
        "primitive_irfft_overflows": (
            lambda x: 10.0**152.25 / np.cosh(x),
            ["rhs[primitive]", "ok", "ok", "ok", "(sqrt2*u_x+sqrt6*u)^2"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_a_non_finite_input_names_the_same_term(self, grid1024, case):
        # each name follows from the order in which the form forms its terms; no errstate
        # here, as pyproject.toml makes a RuntimeWarning an error: every overflow is named
        values, names = self.NON_FINITE[case]
        u = Field(grid1024, values(grid1024.x))
        single = [_term(lambda: rhs(u, form)) for form in RhsForm]
        assert single == names
        # a shared memo names the first failing form's term, forms taken in order
        first = next((name for name in single[:4] if name != "ok"), "ok")
        assert _term(lambda: max_form_residuals(grid1024, u.values)) == first
        for f1, f2 in [(RhsForm.FORM_B, RhsForm.SQRT3), (RhsForm.SQRT3, RhsForm.FORM_A)]:
            pair = [single[list(RhsForm).index(f)] for f in (f1, f2)]
            expected = next((name for name in pair if name != "ok"), "ok")
            assert _term(lambda: form_residual(u, f1, f2)) == expected


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
