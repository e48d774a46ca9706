"""The inverse Helmholtz operator and its exponential-kernel realization.

On the line, (1 - d_xx)^{-1} f equals convolution with G(x) = exp(-|x|)/2.
On the periodic box the operator is the Fourier multiplier 1/(1+k^2) and
the kernel becomes the image sum G_per(x) = sum_m G(x + 2Lm), which has the
closed form cosh(L-|x|)/(2 sinh L).  ``green_convolve_direct`` evaluates the
convolution by O(n^2) quadrature against G_per and exists purely as an
independent cross-check of the multiplier path.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid

__all__ = [
    "helmholtz_inverse",
    "helmholtz_forward",
    "p2_apply",
    "periodized_green",
    "kernel_mass",
    "green_convolve_direct",
]


def helmholtz_inverse(f: Field) -> Field:
    """Apply (1 - d_xx)^{-1} as the Fourier multiplier 1/(1+k^2)."""
    return Field(f.grid, f.grid.g_star(f.values))


def helmholtz_forward(f: Field) -> Field:
    """Apply (1 - d_xx) as the Fourier multiplier 1+k^2."""
    grid = f.grid
    return Field(grid, grid.irfft(grid.rfft(f.values) * grid.helm))


def p2_apply(f: Field) -> Field:
    """Apply d_x (1 - d_xx)^{-1}, the multiplier ik/(1+k^2).

    The Nyquist mode is zeroed, consistent with the odd-order spectral
    derivative, so that p2_apply == derivative(helmholtz_inverse(.), 1).
    """
    return Field(f.grid, f.grid.p2(f.values))


def periodized_green(offsets, half_width: float):
    """Periodized kernel G_per(x) = sum_m exp(-|x+2Lm|)/2 on [-L, L).

    The image sum is a geometric series with the overflow-safe closed form
    (exp(-|x|) + exp(|x|-2L)) / (2 (1 - exp(-2L))); offsets are wrapped into
    the fundamental domain first.
    """
    L = float(half_width)
    d = np.mod(np.asarray(offsets, dtype=float) + L, 2.0 * L) - L
    a = np.abs(d)
    return (np.exp(-a) + np.exp(a - 2.0 * L)) / (2.0 * (1.0 - np.exp(-2.0 * L)))


def kernel_mass(grid: Grid) -> float:
    """Integral of G_per over one period, by corrected node quadrature.

    The kernel has a kink at 0 (a grid node), so the plain rectangle sum
    carries an O(dx^2) Euler-Maclaurin defect; the first two kink
    corrections bring the result to ~dx^6 of the exact value 1.
    """
    g = periodized_green(grid.x, grid.half_width)
    dx = grid.dx
    # kink jumps of G_per at 0: [G'] = -1, [G'''] = -1
    return float(np.sum(g) * dx - dx**2 / 12.0 + dx**4 / 720.0)


def green_convolve_direct(f: Field) -> Field:
    """Convolve with G_per by direct O(n^2) quadrature.

    Trapezoid (= rectangle, by periodicity) summation against the
    periodized kernel, plus the Euler-Maclaurin corrections for the kernel
    kink at zero offset: the integrand g(y) = G_per(x-y) f(y) jumps by
    [g'] = -f(x) and [g'''] = -(f(x) + 3 f''(x)) across y = x, so

        I = T - dx^2/12 * f + dx^4/720 * (f + 3 f'')

    with f'' taken by centered finite differences to keep this path fully
    independent of the FFT machinery.  Serves as the mutual-validation
    oracle for ``helmholtz_inverse``; production code uses the multiplier.
    """
    grid = f.grid
    n, dx = grid.n, grid.dx
    v = f.values

    out = np.empty(n)
    cols = np.arange(n)
    block = 512  # bounds the kernel-matrix slab to block*n entries
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        out[rows] = periodized_green(
            (rows[:, None] - cols[None, :]) * dx, grid.half_width
        ) @ v

    fpp = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / dx**2
    out = out * dx - dx**2 / 12.0 * v + dx**4 / 720.0 * (v + 3.0 * fpp)
    return Field(grid, out)
