"""Right-hand-side formulations of the evolution and their residuals.

The equation u_t - u_txx = d_x(2 + d_x)[(2 - d_x)u]^2 admits several
algebraically equivalent nonlocal rewritings once (1 - d_xx)^{-1} is
expressed through the kernel G.  With G* denoting that inverse and
G_x* = d_x G* the available forms are

    PRIMITIVE  u_t = G*[(2 d_x + d_xx)(2u - u_x)^2]
    FORM_A     u_t = 4 u u_x + G*[d_x(2 u_x^2 + 6 u^2) + d_xx(u_x^2)]
    FORM_B     u_t = 4 u u_x - u_x^2 + G*[d_x(2 u_x^2 + 6 u^2) + u_x^2]
    MOMENTUM   m = u - u_xx evolved via
               m_t = 2m^2 + (8u_x - 4u)m + (4u - 2u_x)m_x + 2(u + u_x)^2,
               then u_t = G* m_t
    SQRT3      u_t = 4 u u_x - u_x^2 + sqrt3 u^2 - G*[u_x^2 - sqrt3 u^2]
                     + G_x*[(sqrt2 u_x + sqrt6 u)^2]

The first four agree to roundoff (FORM_A <-> FORM_B via the identity
G*d_xx f = G*f - f).  SQRT3 does not reduce to the others: expanding the
square and applying the same identity leaves the field

    -sqrt3 u^2 + 3 sqrt3 G*u^2 - 2 G*u_x^2,

so it is kept as a diagnostic only and never offered for simulation.

All quadratic products are dealiased with the 2/3 rule, using the keep-mask
|mode| < n/3 and the d_x, G* and G_x* multipliers of the ``Grid`` operator
table.  Each product operand is truncated once and each product's output
once; with truncated operands that single output truncation is the exact
2/3 rule (Orszag 1971), so products of truncated fields are exact
truncations of the true products and the algebraic equivalences hold on
the grid.  :func:`gch.integrate.simulate` steps that one semi-discretisation
in Fourier space; the forms here are its physical-space references and a
run's residual check.  A form evaluates rows: one field, or a ``(rows, n)``
block with each row's values bit for bit.

The forms read their shared operands from one :class:`_Operands` memo per
block: u's rfft and u_x on construction, and on first read the truncated u
and u_x, the products u u_x, u_x^2 and u^2, and d_x(2 u_x^2 + 6 u^2).
:func:`rhs` builds a memo for its one form, which forms only what that form
reads (11, 17, 15 and 27 FFTs for PRIMITIVE, FORM_A, FORM_B and MOMENTUM);
:func:`max_form_residuals` and :func:`form_residual` pass one memo to every
form they evaluate, so the four simulation forms take 50 FFTs where they
take 70 alone.  Each operand is formed by the same operations whichever
form reads it first, so every form's values are bit for bit those of a
fresh memo.
"""

from __future__ import annotations

import enum
from functools import cached_property

import numpy as np

from .grid import Field, Grid, derivative, lp_norm
from .helmholtz import helmholtz_inverse

__all__ = [
    "RhsForm",
    "SIMULATION_FORMS",
    "rhs",
    "form_residual",
    "max_form_residual",
    "max_form_residuals",
    "momentum_rhs",
    "sqrt3_residual_field",
]

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)


class RhsForm(enum.Enum):
    PRIMITIVE = "primitive"
    FORM_A = "form_a"
    FORM_B = "form_b"
    MOMENTUM = "momentum"
    SQRT3 = "sqrt3"


#: Forms accepted by the time integrator; SQRT3 is diagnostic-only.
SIMULATION_FORMS = (RhsForm.PRIMITIVE, RhsForm.FORM_A, RhsForm.FORM_B, RhsForm.MOMENTUM)


#: Each public evaluation runs under this one context, so an overflow anywhere in it surfaces
#: as the named non-finite term (:func:`_check`), not as a warning.
_named_overflow = np.errstate(over="ignore", invalid="ignore")


def _trunc(grid: Grid, vals, spec=None):
    """2/3-rule truncation of ``vals``; ``spec`` is its rfft when already known.

    Each product operand goes through here once per :class:`_Operands` memo
    or form, and :func:`_prod` truncates only the product.
    """
    if spec is None:
        spec = grid.rfft(vals)
    return grid.irfft(grid.truncate_hat(spec))


def _prod(grid: Grid, a, b, name):
    """Product of two operands already passed through :func:`_trunc`."""
    return _check(_trunc(grid, a * b), name)


def _check(vals, name):
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError(f"non-finite value in term '{name}'")
    return vals


class _Operands:
    """The operands the forms share on the samples ``v`` of one block, each formed once.

    ``v`` is checked, and its rfft ``v_hat`` and derivative ``ux`` taken, on
    construction, as every form reads them; the rest are formed on first
    read.  A non-finite operand raises as it is formed, naming its term.
    """

    def __init__(self, grid: Grid, v):
        self.grid = grid
        self.v = _check(v, "u")
        self.v_hat = grid.rfft(self.v)
        self.ux = _check(grid.irfft(grid.diff_hat(self.v_hat)), "u_x")

    @cached_property
    def vt(self):
        """u, truncated."""
        return _trunc(self.grid, self.v, self.v_hat)

    @cached_property
    def uxt(self):
        """u_x, truncated."""
        return _trunc(self.grid, self.ux)

    @cached_property
    def uux(self):
        return _prod(self.grid, self.vt, self.uxt, "u*u_x")

    @cached_property
    def ux2(self):
        return _prod(self.grid, self.uxt, self.uxt, "u_x^2")

    @cached_property
    def u2(self):
        return _prod(self.grid, self.vt, self.vt, "u^2")

    @cached_property
    def flux(self):
        """d_x(2 u_x^2 + 6 u^2)."""
        return self.grid.diff(2.0 * self.ux2 + 6.0 * self.u2)


def _momentum_tendency(w: _Operands, m, m_hat):
    """m_t from the operands of u and from m, given the rfft of m."""
    grid = w.grid
    mx = _check(grid.irfft(grid.diff_hat(m_hat)), "m_x")
    vt, mt = w.vt, _trunc(grid, m, m_hat)
    uxt, mxt = w.uxt, _trunc(grid, mx)
    s = _trunc(grid, w.v + w.ux)
    m_t = (
        2.0 * _prod(grid, mt, mt, "m^2")
        + 8.0 * _prod(grid, uxt, mt, "u_x*m")
        - 4.0 * _prod(grid, vt, mt, "u*m")
        + 4.0 * _prod(grid, vt, mxt, "u*m_x")
        - 2.0 * _prod(grid, uxt, mxt, "u_x*m_x")
        + 2.0 * _prod(grid, s, s, "(u+u_x)^2")
    )
    return _check(m_t, "m_t")


def _rhs_rows(w: _Operands, form: RhsForm):
    """Time derivative of each row of the memo's samples, one field or a ``(rows, n)`` block."""
    form = RhsForm(form)
    grid = w.grid

    if form is RhsForm.PRIMITIVE:
        a = _trunc(grid, 2.0 * w.v - w.ux)
        sq_hat = grid.rfft(_prod(grid, a, a, "(2u-u_x)^2"))
        out = grid.g_star(
            2.0 * grid.irfft(grid.diff_hat(sq_hat)) + grid.irfft(grid.diff_hat(sq_hat, 2))
        )
    elif form is RhsForm.MOMENTUM:
        m = _check(grid.irfft(w.v_hat * grid.helm), "m")
        out = grid.g_star(_momentum_tendency(w, m, grid.rfft(m)))
    elif form is RhsForm.FORM_A:
        out = 4.0 * w.uux + grid.g_star(w.flux + grid.diff(w.ux2, 2))
    elif form is RhsForm.FORM_B:
        out = 4.0 * w.uux - w.ux2 + grid.g_star(w.flux + w.ux2)
    else:  # SQRT3
        # the shared products are formed before q^2, so an overflow in them is named first
        uux, ux2, u2 = w.uux, w.ux2, w.u2
        q = _trunc(grid, _SQRT2 * w.ux + _SQRT6 * w.v)
        q2 = _prod(grid, q, q, "(sqrt2*u_x+sqrt6*u)^2")
        out = 4.0 * uux - ux2 + _SQRT3 * u2 - grid.g_star(ux2 - _SQRT3 * u2) + grid.p2(q2)

    return _check(out, f"rhs[{form.value}]")


@_named_overflow
def rhs(u: Field, form: RhsForm) -> Field:
    """Evaluate the time derivative of u for the selected formulation."""
    return Field(u.grid, _rhs_rows(_Operands(u.grid, u.values), form))


@_named_overflow
def form_residual(u: Field, f1: RhsForm, f2: RhsForm) -> float:
    """Sup-norm distance between two formulations evaluated on the same field."""
    w = _Operands(u.grid, u.values)
    return lp_norm(Field(u.grid, _rhs_rows(w, f1) - _rhs_rows(w, f2)), np.inf)


@_named_overflow
def max_form_residuals(grid: Grid, v):
    """:func:`max_form_residual` of each row of ``v``, each form evaluated once on the block."""
    w = _Operands(grid, v)
    outs = [_rhs_rows(w, form) for form in SIMULATION_FORMS]
    pairs = [np.max(np.abs(a - b), axis=-1) for i, a in enumerate(outs) for b in outs[i + 1 :]]
    return np.max(pairs, axis=0)


def max_form_residual(u: Field) -> float:
    """Largest :func:`form_residual` over all pairs of simulation forms, evaluating each once."""
    return float(max_form_residuals(u.grid, u.values))


@_named_overflow
def momentum_rhs(m: Field) -> Field:
    """Time derivative of the momentum density m = u - u_xx.

    Self-contained in m: the velocity is recovered as u = G*m and m_x is
    differentiated spectrally from m itself.
    """
    grid = m.grid
    mv = _check(m.values, "m")
    m_hat = grid.rfft(mv)
    w = _Operands(grid, grid.irfft(grid.g_star_hat(m_hat)))
    return Field(grid, _momentum_tendency(w, mv, m_hat))


def sqrt3_residual_field(u: Field, convolve=None) -> Field:
    """The field by which the SQRT3 rewriting misses FORM_B.

    Expanding (sqrt2 u_x + sqrt6 u)^2 and applying G*d_xx f = G*f - f gives

        rhs(SQRT3) - rhs(FORM_B) = -sqrt3 u^2 + 3 sqrt3 G*u^2 - 2 G*u_x^2.

    ``convolve`` selects the realization of G* (defaults to the spectral
    multiplier; pass ``green_convolve_direct`` for the quadrature oracle).
    Products here are plain, untruncated pointwise squares.
    """
    if convolve is None:
        convolve = helmholtz_inverse
    u2 = Field(u.grid, u.values**2)
    ux = derivative(u, 1)
    ux2 = Field(u.grid, ux.values**2)
    return _SQRT3 * (3.0 * convolve(u2) - u2) - 2.0 * convolve(ux2)
