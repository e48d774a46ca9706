import numpy as np
import pytest
from scipy.stats import norm

from gch import (
    Field,
    Grid,
    derivative,
    green_convolve_direct,
    helmholtz_forward,
    helmholtz_inverse,
    lp_norm,
    p2_apply,
    periodized_green,
    sample,
)
from gch.fields import smooth_field_family


class TestKernel:
    def test_nonnegative_even(self, grid1024):
        g = periodized_green(grid1024.x, grid1024.half_width)
        assert np.all(g > 0)
        # even under x -> -x (node 0 is its own mirror)
        np.testing.assert_allclose(g[1:], g[1:][::-1], rtol=1e-14)

    def test_matches_line_kernel_inside(self):
        # for L = 40 the image corrections are ~e^{-80}
        g = Grid(1024, 40.0)
        vals = periodized_green(np.array([0.0, 1.0, -3.0]), g.half_width)
        np.testing.assert_allclose(
            vals, 0.5 * np.exp(-np.abs([0.0, 1.0, -3.0])), rtol=1e-12
        )


class TestHelmholtzInverse:
    def test_constant(self, grid1024):
        one = Field(grid1024, np.ones(grid1024.n))
        np.testing.assert_allclose(helmholtz_inverse(one).values, 1.0, rtol=1e-13)

    def test_single_mode(self, grid1024):
        k = np.pi * 16 / grid1024.half_width
        f = sample(grid1024, lambda x: np.cos(k * x))
        out = helmholtz_inverse(f)
        np.testing.assert_allclose(
            out.values, np.cos(k * grid1024.x) / (1 + k**2), atol=1e-14
        )

    def test_narrow_gaussian_approximates_kernel(self, grid4096):
        # unit-mass Gaussian of width sigma: the exact convolution value at 0
        # is e^{sigma^2/2} Phi(-sigma), twice that times 1/2; the width-0
        # limit 0.5 is approached only at first order in sigma
        sigma = 0.05
        f = sample(
            grid4096,
            lambda x: np.exp(-(x**2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi)),
        )
        out = helmholtz_inverse(f)
        at_zero = out.values[grid4096.n // 2]
        exact = np.exp(sigma**2 / 2) * norm.cdf(-sigma)  # = 0.5 * E[e^{-|Y|}]
        assert at_zero == pytest.approx(exact, abs=2e-3)
        assert at_zero == pytest.approx(0.5, abs=2.5e-2)  # kernel peak, to O(sigma)


class TestForwardInverse:
    def test_forward_constant(self, grid1024):
        one = Field(grid1024, np.ones(grid1024.n))
        np.testing.assert_allclose(helmholtz_forward(one).values, 1.0, rtol=1e-13)

    def test_forward_mode(self, grid1024):
        k = np.pi * 8 / grid1024.half_width
        f = sample(grid1024, lambda x: np.cos(k * x))
        np.testing.assert_allclose(
            helmholtz_forward(f).values, (1 + k**2) * np.cos(k * grid1024.x), atol=1e-11
        )

    def test_round_trip(self, grid1024):
        for f in smooth_field_family(grid1024, 5, seed=31):
            back = helmholtz_forward(helmholtz_inverse(f))
            assert lp_norm(back - f, np.inf) <= 1e-10 * lp_norm(f, np.inf)


class TestP2:
    def test_constant_and_zero(self, grid1024):
        one = Field(grid1024, np.ones(grid1024.n))
        zero = Field(grid1024, np.zeros(grid1024.n))
        assert lp_norm(p2_apply(one), np.inf) <= 1e-15
        assert lp_norm(p2_apply(zero), np.inf) == 0.0

    def test_equals_derivative_of_inverse(self, grid1024):
        for f in smooth_field_family(grid1024, 5, seed=32):
            a = p2_apply(f)
            b = derivative(helmholtz_inverse(f), 1)
            assert lp_norm(a - b, np.inf) <= 1e-12

    def test_against_direct_convolution(self, grid1024):
        f = sample(grid1024, lambda x: 1 / np.cosh(x) ** 2)
        df = derivative(f, 1)
        assert lp_norm(p2_apply(f) - green_convolve_direct(df), np.inf) <= 1e-6


class TestDirectConvolution:
    def test_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert lp_norm(green_convolve_direct(z), np.inf) == 0.0

    def test_constant_preserved(self, grid1024):
        c = Field(grid1024, np.full(grid1024.n, 2.5))
        np.testing.assert_allclose(green_convolve_direct(c).values, 2.5, rtol=1e-9)

    def test_agrees_with_spectral(self, grid1024):
        f = sample(grid1024, lambda x: 1 / np.cosh(x) ** 2)
        diff = green_convolve_direct(f) - helmholtz_inverse(f)
        assert lp_norm(diff, np.inf) <= 1e-6

    def test_agrees_on_smooth_family(self, grid1024):
        for f in smooth_field_family(grid1024, 3, seed=33):
            diff = green_convolve_direct(f) - helmholtz_inverse(f)
            assert lp_norm(diff, np.inf) <= 1e-6


class TestOperatorIdentities:
    def test_second_derivative_identity(self, grid1024):
        # G * d_xx f = G * f - f, the bridge between the two nonlocal forms
        for f in smooth_field_family(grid1024, 5, seed=34):
            lhs = p2_apply(derivative(f, 1))
            rhs = helmholtz_inverse(f) - f
            assert lp_norm(lhs - rhs, np.inf) <= 1e-9

    def test_smoothing_bounds(self, grid1024):
        for f in smooth_field_family(grid1024, 5, seed=35):
            assert lp_norm(helmholtz_inverse(f), 2) <= lp_norm(f, 2) * (1 + 1e-12)
            assert lp_norm(p2_apply(f), 2) <= 0.5 * lp_norm(f, 2) * (1 + 1e-12)


def _dense_slab_convolution(f):
    """The quadrature of ``green_convolve_direct`` on explicit n x n kernel slabs."""
    grid = f.grid
    n, dx = grid.n, grid.dx
    v = f.values
    out = np.empty(n)
    cols = np.arange(n)
    for start in range(0, n, 512):
        rows = np.arange(start, min(start + 512, n))
        out[rows] = periodized_green(
            (rows[:, None] - cols[None, :]) * dx, grid.half_width
        ) @ v
    fpp = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / dx**2
    return out * dx - dx**2 / 12.0 * v + dx**4 / 720.0 * (v + 3.0 * fpp)


def _lopsided(grid):
    # neither even nor odd about any node, so a shifted Toeplitz index shows
    return sample(
        grid, lambda x: 1 / np.cosh(x - 0.7) ** 2 + 0.4 * x * np.exp(-((x + 1.3) ** 2))
    )


class TestToeplitzOracle:
    def test_makes_no_fft(self, grid1024, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the direct convolution took an FFT")

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(Grid, name, forbidden)
        out = green_convolve_direct(_lopsided(grid1024))
        assert np.max(np.abs(out.values)) > 0.1

    @pytest.mark.parametrize("n", [16, 64, 1024, 2048])
    def test_equals_dense_slab(self, n):
        f = _lopsided(Grid(n, 40.0))
        expected = _dense_slab_convolution(f)
        got = green_convolve_direct(f).values
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))
