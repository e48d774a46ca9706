"""Uniform periodic grid, sampled fields, spectral derivatives, and norms.

Everything downstream operates on ``Field`` values living on a ``Grid``:
right-hand sides, convolution operators, weighted norms and diagnostics all
reduce to array work on these two types.  The ``Grid`` also owns the
Fourier operator table, so every FFT and every spectral multiplier of the
package is taken here.  The domain is the periodic box
[-L, L); decaying data is assumed small at the seam, and callers that care
record the boundary magnitude explicitly.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "sample",
    "derivative",
    "lp_norm",
    "lp_norms",
    "h1_norm",
    "interpolate_onto",
    "read_initial_condition",
]


class Grid:
    """Uniform periodic mesh on [-L, L) with its Fourier operator table.

    Nodes are x_j = -L + j*dx with dx = 2L/n and n a power of two.
    ``k_rfft`` holds the one-sided wavenumbers k = (pi/L)*m, m = 0..n/2,
    used with real FFTs; the Nyquist mode m = n/2 is its own negative.

    The operator table is the package's one spectral core, built once per
    grid from ``k_rfft``: ``k2`` = k^2, ``helm`` = 1 + k^2 (the symbol of
    1 - d_xx), ``ik_pow[order - 1]`` = (ik)^order for orders 1-3, the
    2/3-rule ``keep`` mask |m| < n/3, and ``h1_weight``, the one-sided
    Parseval weights of ||f||_{H^1}^2: 2 (1 + k^2) for interior modes, which
    stand for +-m, 1 for the mean and 1 for the Nyquist mode, which has no
    derivative part.  The ``*_hat`` helpers apply d_x^order,
    G* = (1 - d_xx)^{-1} and the truncation to a one-sided spectrum;
    ``diff``, ``g_star`` and ``p2`` apply d_x^order, G* and P2 = d_x G* to
    samples.  Odd orders of d_x, and P2, zero the Nyquist mode
    (:meth:`drop_nyquist`), which has no well-defined odd derivative on the
    grid.
    """

    __slots__ = (
        "n", "half_width", "dx", "x", "k_rfft", "k2", "helm", "ik_pow", "keep", "h1_weight",
    )

    def __init__(self, n: int, half_width: float):
        if int(n) != n:
            raise ValueError(f"n must be an integer, got {n!r}")
        n = int(n)
        if n < 16 or n & (n - 1):  # not a power of two
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        half_width = float(half_width)
        if not np.isfinite(half_width) or half_width <= 0.0:
            raise ValueError(f"half_width must be positive and finite, got {half_width}")
        self.n, self.half_width = n, half_width
        self.dx = 2.0 * half_width / n
        self.x = -half_width + self.dx * np.arange(n)
        self.k_rfft = (np.pi / half_width) * np.arange(n // 2 + 1)
        self.k2 = self.k_rfft**2
        self.helm = 1.0 + self.k2
        ik = 1j * self.k_rfft
        self.ik_pow = ik_pow = (ik, ik**2, ik**3)
        self.keep = np.arange(n // 2 + 1) < n / 3.0
        self.h1_weight = 2.0 * self.helm
        self.h1_weight[[0, -1]] = 1.0
        for arr in (self.x, self.k_rfft, self.k2, self.helm, self.keep, self.h1_weight, *ik_pow):
            arr.setflags(write=False)

    def rfft(self, values):
        """One-sided FFT of real samples, row by row; with :meth:`irfft`, the only FFT calls."""
        return np.fft.rfft(values)

    def irfft(self, spec):
        return np.fft.irfft(spec, n=self.n)

    @staticmethod
    def drop_nyquist(spec):
        """Zero the Nyquist entry of a one-sided array, or of each row of a block, in place."""
        spec[..., -1] = 0.0
        return spec

    def diff_hat(self, spec, order: int = 1):
        """Multiply by (ik)^order; odd orders drop the Nyquist mode."""
        out = spec * self.ik_pow[order - 1]
        return self.drop_nyquist(out) if order % 2 == 1 else out

    def g_star_hat(self, spec):
        """Divide by 1 + k^2."""
        return spec / self.helm

    def truncate_hat(self, spec):
        """The 2/3 rule: a copy with every mode |m| >= n/3 set to zero."""
        return np.where(self.keep, spec, 0.0)

    def diff(self, values, order: int = 1):
        return self.irfft(self.diff_hat(self.rfft(values), order))

    def g_star(self, values):
        return self.irfft(self.g_star_hat(self.rfft(values)))

    def p2(self, values):
        """P2 = d_x G*: multiply by ik, then divide by 1 + k^2; drops the Nyquist mode."""
        return self.irfft(self.drop_nyquist(self.rfft(values) * self.ik_pow[0] / self.helm))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.half_width == other.half_width
        )

    def __hash__(self) -> int:
        return hash((self.n, self.half_width))

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, half_width={self.half_width})"


class Field:
    """Real-valued samples of a function on a :class:`Grid`.

    Fields are immutable; arithmetic requires both operands to live on the
    same grid.  Non-finite samples are rejected.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"values must have shape ({grid.n},), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite samples")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def _apply(self, op, other):
        """``op(self.values, other)`` as a field; a field operand must share the grid."""
        if isinstance(other, Field):
            if self.grid != other.grid:
                raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")
            other = other.values
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._apply(operator.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(operator.sub, other)

    def __rsub__(self, other):
        return Field(self.grid, other - self.values)

    def __mul__(self, other):
        return self._apply(operator.mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(operator.truediv, other)

    def __neg__(self):
        return Field(self.grid, -self.values)

    def __repr__(self) -> str:
        return f"Field({self.grid!r}, max|.|={np.max(np.abs(self.values)):.3e})"


def sample(grid: Grid, f) -> Field:
    """Sample a scalar function at the grid nodes.

    ``f`` may be vectorized or scalar-only; non-finite samples raise.
    """
    with np.errstate(all="ignore"):
        try:
            values = np.asarray(f(grid.x), dtype=float)
            if values.shape != grid.x.shape:
                raise TypeError
        except Exception:
            values = np.array([float(f(xj)) for xj in grid.x])
    if not np.all(np.isfinite(values)):
        bad = grid.x[~np.isfinite(values)][0]
        raise ValueError(f"non-finite sample at x={bad}")
    return Field(grid, values)


def derivative(field: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order (1, 2 or 3).

    Fourier coefficients are multiplied by (ik)^order; odd orders zero the
    Nyquist mode, which has no well-defined odd derivative on the grid.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    return Field(field.grid, field.grid.diff(field.values, order))


def lp_norm(field: Field, p: float) -> float:
    """L^p norm on the periodic box; rectangle rule for finite p, grid max for p=inf."""
    return float(lp_norms(field.values, field.grid.dx, p))


def lp_norms(values, dx: float, p: float):
    """:func:`lp_norm` of each row of ``values``, samples ``dx`` apart."""
    if not (np.isinf(p) or p >= 1.0):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    a = np.abs(values)
    if np.isinf(p):
        return np.max(a, axis=-1)
    return (np.sum(a**p, axis=-1) * dx) ** (1.0 / p)


def h1_norm(field: Field) -> float:
    """Sobolev H^1 norm: sqrt(||f||_2^2 + ||f'||_2^2) with the spectral derivative."""
    return float(np.hypot(lp_norm(field, 2), lp_norm(derivative(field, 1), 2)))


def _not_a_knot_slopes(x, h, m):
    """Knot slopes of the not-a-knot cubic spline on knots ``x``, steps ``h``, chord slopes ``m``.

    Interior rows match the second derivative at each knot; each end row
    makes the third derivative continuous at the second (or second-to-last)
    knot, with the next row eliminated.  The tridiagonal system needs no
    pivoting, so one Thomas sweep solves it.
    """
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.concatenate((h[1:], [d1])).tolist()
    diag = np.concatenate(([h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]])).tolist()
    upper = np.concatenate(([d0], h[:-1])).tolist()
    s = [float(((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0)]
    s += (3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])).tolist()
    s.append(float((h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1))
    for i in range(1, len(s)):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        s[i] -= w * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(len(s) - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    return np.array(s)


def interpolate_onto(points, values, grid: Grid) -> Field:
    """Cubic interpolation of tabulated data onto the grid nodes.

    The interpolant is the not-a-knot cubic spline (de Boor, A Practical
    Guide to Splines, ch. IV), the usual library default, summed on each
    interval in powers of ``t = x - x_i`` in the reference order: on uniform
    knots it matches the library spline bit for bit.  The abscissae must be
    strictly increasing and cover every node of the grid; gaps in coverage
    are rejected rather than extrapolated.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 1 or points.shape != values.shape:
        raise ValueError("points and values must be 1-d arrays of equal length")
    if points.size < 4:
        raise ValueError("need at least 4 points for cubic interpolation")
    if not np.all(np.diff(points) > 0):
        raise ValueError("points must be strictly increasing")
    if points[0] > grid.x[0] or points[-1] < grid.x[-1]:
        raise ValueError(
            f"points cover [{points[0]}, {points[-1]}] but the grid needs "
            f"[{grid.x[0]}, {grid.x[-1]}]"
        )
    with np.errstate(all="ignore"):
        h = np.diff(points)
        m = np.diff(values) / h
        s = _not_a_knot_slopes(points, h, m)
        a = (s[:-1] + s[1:] - 2.0 * m) / h
        c2, c3 = (m - s[:-1]) / h - a, a / h
        i = np.clip(np.searchsorted(points, grid.x, side="right") - 1, 0, points.size - 2)
        t = grid.x - points[i]
        out = values[i] + s[i] * t + c2[i] * (t * t) + c3[i] * (t * t * t)
    if not np.all(np.isfinite(out)):
        raise ValueError("interpolation produced non-finite values")
    return Field(grid, out)


def read_initial_condition(path):
    """Read a two-column "x value" text file (comments start with '#')."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two whitespace-separated columns 'x value'")
    return data[:, 0], data[:, 1]
