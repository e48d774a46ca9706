import operator

import numpy as np
import pytest

from gch import (
    Field,
    Grid,
    derivative,
    h1_norm,
    interpolate_onto,
    lp_norm,
    make_initial,
    read_initial_condition,
    sample,
)


class TestMakeGrid:
    def test_spacing(self):
        g = Grid(16, 8.0)
        assert g.dx == 1.0
        assert g.x[0] == -8.0

    def test_spacing_large(self):
        g = Grid(1024, 40.0)
        assert g.dx == pytest.approx(0.078125, abs=0)

    @pytest.mark.parametrize("n", [17, 1000, 12, 0, -16])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(n, 8.0)

    @pytest.mark.parametrize("L", [0.0, -1.0, np.nan])
    def test_rejects_bad_half_width(self, L):
        with pytest.raises(ValueError):
            Grid(64, L)

    def test_nodes_equispaced_increasing(self, grid1024):
        dx = np.diff(grid1024.x)
        assert np.all(dx > 0)
        np.testing.assert_allclose(dx, grid1024.dx, rtol=1e-14)


class TestField:
    def test_rejects_nonfinite(self, grid1024):
        vals = np.zeros(grid1024.n)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Field(grid1024, vals)

    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.mul, operator.truediv],
        ids=lambda op: op.__name__,
    )
    def test_grid_mismatch(self, grid1024, op):
        other = Grid(1024, 20.0)
        with pytest.raises(ValueError, match="grid mismatch"):
            op(Field(grid1024, np.ones(1024)), Field(other, np.ones(1024)))

    def test_scalar_operands_match_numpy(self, sech):
        v = sech.values
        for got, want in [(2.0 - sech, 2.0 - v), (2.0 * sech, 2.0 * v), (sech / 2.0, v / 2.0)]:
            assert isinstance(got, Field) and got.grid == sech.grid
            np.testing.assert_array_equal(got.values, want)

    def test_values_immutable(self, sech):
        with pytest.raises(ValueError):
            sech.values[0] = 1.0


class TestBlocks:
    """FFTs and spectral derivatives act row by row on a K x n block, bit for bit."""

    def test_block_equals_its_rows(self, grid1024):
        grid = grid1024
        block = np.random.default_rng(7).standard_normal((5, grid.n))
        spec = grid.rfft(block)
        assert np.array_equal(spec, np.stack([grid.rfft(row) for row in block]))
        assert np.array_equal(grid.irfft(spec), np.stack([grid.irfft(row) for row in spec]))
        for order in (1, 2, 3):
            rows = np.stack([grid.diff_hat(row, order) for row in spec])
            assert np.array_equal(grid.diff_hat(spec, order), rows), order
        assert np.array_equal(grid.p2(block), np.stack([grid.p2(row) for row in block]))

    def test_drop_nyquist_keeps_the_last_row(self, grid1024):
        spec = np.ones((3, grid1024.n // 2 + 1), dtype=complex)
        grid1024.drop_nyquist(spec)
        assert np.all(spec[:, -1] == 0.0)
        assert np.all(spec[:, :-1] == 1.0)


class TestSample:
    def test_zero(self, grid1024):
        f = sample(grid1024, lambda x: 0.0 * x)
        assert np.all(f.values == 0.0)

    def test_sech2_center(self, grid1024):
        f = sample(grid1024, lambda x: 1.0 / np.cosh(x) ** 2)
        assert f.values[grid1024.n // 2] == 1.0  # x = 0 node

    def test_singular_function_rejected(self, grid1024):
        with pytest.raises(ValueError, match="non-finite sample"):
            sample(grid1024, lambda x: 1.0 / x)

    def test_scalar_only_function(self, grid1024):
        import math

        f = sample(grid1024, lambda x: math.exp(-x * x))
        np.testing.assert_allclose(f.values, np.exp(-grid1024.x**2), rtol=1e-15)


class TestDerivative:
    def test_resolved_mode_exact(self, grid1024):
        L = grid1024.half_width
        f = sample(grid1024, lambda x: np.sin(np.pi * x / L))
        df = derivative(f, 1)
        expected = (np.pi / L) * np.cos(np.pi * grid1024.x / L)
        np.testing.assert_allclose(df.values, expected, atol=1e-13)

    def test_constant(self, grid1024):
        f = Field(grid1024, np.ones(grid1024.n))
        assert lp_norm(derivative(f, 1), np.inf) == 0.0

    @pytest.mark.parametrize(
        "n,tol",
        # the stencil's own truncation error dx^4 |f^(5)|/30 sets the floor:
        # ~6e-5 at n=1024 and ~2e-7 at n=4096 for sech^2 on L=40
        [(1024, 1e-4), (4096, 1e-6)],
    )
    def test_against_finite_differences(self, n, tol):
        # 4th-order centered stencil as the independent oracle
        g = Grid(n, 40.0)
        f = sample(g, lambda x: 1.0 / np.cosh(x) ** 2)
        v, dx = f.values, g.dx
        fd = (
            -np.roll(v, -2) + 8 * np.roll(v, -1) - 8 * np.roll(v, 1) + np.roll(v, 2)
        ) / (12 * dx)
        assert np.max(np.abs(derivative(f, 1).values - fd)) <= tol

    def test_order_composition(self, grid1024):
        f = sample(grid1024, lambda x: np.exp(-((x / 3.0) ** 2)))
        d2 = derivative(derivative(f, 1), 1)
        ref = derivative(f, 2)
        num = lp_norm(d2 - ref, np.inf)
        assert num <= 1e-10 * max(lp_norm(ref, np.inf), 1.0)

    @pytest.mark.parametrize("order", [0, 4, -1])
    def test_rejects_order(self, sech, order):
        with pytest.raises(ValueError, match="order"):
            derivative(sech, order)


class TestNorms:
    def test_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        for p in (1.0, 2.0, np.inf):
            assert lp_norm(z, p) == 0.0
        assert h1_norm(z) == 0.0

    def test_sech_l2(self, sech):
        # integral of sech^2 is 2 (tanh antiderivative)
        assert lp_norm(sech, 2) == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_sech_sup(self, sech):
        assert lp_norm(sech, np.inf) == 1.0

    def test_rejects_bad_p(self, sech):
        with pytest.raises(ValueError, match="p must"):
            lp_norm(sech, 0.5)

    def test_h1_single_mode(self, grid1024):
        # closed form: ||sin||_2^2 = L, ||(pi/L)cos||_2^2 = L (pi/L)^2
        L = grid1024.half_width
        f = sample(grid1024, lambda x: np.sin(np.pi * x / L))
        expected = np.sqrt(L + L * (np.pi / L) ** 2)
        assert h1_norm(f) == pytest.approx(expected, abs=1e-3)

    def test_h1_constant(self, grid1024):
        c = 0.7
        f = Field(grid1024, np.full(grid1024.n, c))
        assert h1_norm(f) == pytest.approx(c * np.sqrt(2 * grid1024.half_width), rel=1e-12)

    def test_homogeneity(self, sech):
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(17.0 * sech, p) == pytest.approx(17.0 * lp_norm(sech, p), rel=1e-12)
        assert lp_norm(-4.0 * sech, np.inf) == 4.0 * lp_norm(sech, np.inf)

    def test_parseval(self, grid1024):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = Field(grid1024, rng.standard_normal(grid1024.n))
            c = np.abs(np.fft.fft(f.values)) / grid1024.n
            spectral = np.sqrt(np.sum(c**2) * 2 * grid1024.half_width)
            assert lp_norm(f, 2) == pytest.approx(spectral, rel=1e-10)

    def test_triangle_inequality(self, grid1024):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = Field(grid1024, rng.standard_normal(grid1024.n))
            g = Field(grid1024, rng.standard_normal(grid1024.n))
            for p in (1.0, 2.0, 4.0, np.inf):
                assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12


class TestInterpolation:
    def test_identity_on_nodes(self, grid1024):
        vals = 1.0 / np.cosh(grid1024.x)
        f = interpolate_onto(grid1024.x, vals, grid1024)
        np.testing.assert_allclose(f.values, vals, atol=1e-12)

    def test_linear_exact(self, grid1024):
        pts = np.linspace(-41, 41, 57)
        f = interpolate_onto(pts, pts, grid1024)
        np.testing.assert_allclose(f.values, grid1024.x, atol=1e-12)

    def test_fine_mesh_sech2(self, grid1024):
        fine = Grid(4096, 40.0)
        vals = 1.0 / np.cosh(fine.x) ** 2
        # direct sampling is the oracle
        f = interpolate_onto(fine.x, vals, grid1024)
        direct = sample(grid1024, lambda x: 1.0 / np.cosh(x) ** 2)
        assert lp_norm(f - direct, np.inf) <= 1e-6

    @pytest.mark.parametrize(
        "size, spacing",
        [(4, "uniform"), (4, "random"), (57, "uniform"), (57, "random"), (2001, "uniform"),
         (2001, "random")],
    )
    def test_matches_scipy_not_a_knot_spline(self, grid1024, size, spacing):
        # scipy is only the oracle here: gch solves the spline system with numpy
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(size)
        if spacing == "uniform":
            pts = np.linspace(-41.0, 41.0, size)
        else:
            pts = np.sort(np.concatenate(([-41.0, 41.0], rng.uniform(-41.0, 41.0, size - 2))))
        for vals in (np.exp(-(pts**2) / 50.0), rng.standard_normal(size)):
            ours = interpolate_onto(pts, vals, grid1024).values
            ref = CubicSpline(pts, vals)(grid1024.x)
            assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_rejects_nonmonotone(self, grid1024):
        pts = np.linspace(-41, 41, 57)
        pts[5] = pts[3]
        with pytest.raises(ValueError, match="strictly increasing"):
            interpolate_onto(pts, np.zeros_like(pts), grid1024)

    def test_rejects_coverage_gap(self, grid1024):
        pts = np.linspace(-30, 41, 57)  # misses the left end
        with pytest.raises(ValueError, match="cover"):
            interpolate_onto(pts, np.zeros_like(pts), grid1024)


class TestInitialConditionFile:
    def test_round_trip(self, tmp_path, grid1024):
        pts = np.linspace(-41, 41, 401)
        path = tmp_path / "ic.txt"
        with open(path, "w") as fh:
            fh.write("# initial condition: x value\n")
            for x, v in zip(pts, np.exp(-(pts**2))):
                fh.write(f"{float(x)!r} {float(v)!r}\n")
        xs, vals = read_initial_condition(path)
        np.testing.assert_allclose(xs, pts)
        f = make_initial(grid1024, "file", path=path)
        direct = sample(grid1024, lambda x: np.exp(-(x**2)))
        assert lp_norm(f - direct, np.inf) <= 1e-4
