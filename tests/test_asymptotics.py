import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from gch import (
    AsymptoticProfile,
    Field,
    Grid,
    SourceVariant,
    Trajectory,
    amplitude_series,
    averaged_source,
    derivative,
    dominated_convergence_series,
    emitted_tail_amplitudes,
    extract_profile,
    fit_log_slope,
    initial_tail_amplitudes,
    log_remainder_rate,
    lp_norm,
    sample,
    simulate,
    source_integral,
    tail_amplitudes,
    tail_ratio,
)
from gch.asymptotics import MIN_SNAPSHOTS


@pytest.fixture(scope="module")
def showcase():
    g = Grid(4096, 40.0)
    u0 = sample(g, lambda x: 0.05 / np.cosh(x) ** 2)
    return simulate(u0, 0.25, snapshot_stride=1)


class TestAveragedSource:
    def test_zero_trajectory(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = Trajectory.from_snapshots(np.linspace(0, 1, 9), [z] * 9)
        h = averaged_source(traj, 8)
        assert lp_norm(h, np.inf) == 0.0

    def test_frozen_field_gives_instantaneous_source(self, sech2_small):
        traj = Trajectory.from_snapshots(
            np.linspace(0, 1, 9), [sech2_small] * 9
        )
        h = averaged_source(traj, 8)
        ux = derivative(sech2_small, 1)
        expected = 6 * sech2_small.values**2 + 2 * ux.values**2
        np.testing.assert_allclose(h.values, expected, atol=1e-14)

    def test_rms_variant_frozen(self, sech2_small):
        traj = Trajectory.from_snapshots(np.linspace(0, 1, 9), [sech2_small] * 9)
        h = averaged_source(traj, 8, SourceVariant.RMS)
        ux = derivative(sech2_small, 1)
        expected = np.abs(np.sqrt(2) * ux.values + np.sqrt(6) * sech2_small.values)
        np.testing.assert_allclose(h.values, expected, atol=1e-12)

    def test_rejects_t_zero(self, showcase):
        with pytest.raises(ValueError, match="t=0"):
            averaged_source(showcase, 0)

    def test_rejects_sparse_snapshots(self, sech2_small):
        traj = Trajectory.from_snapshots([0.0, 0.1, 0.2], [sech2_small] * 3)
        with pytest.raises(ValueError, match="snapshots"):
            averaged_source(traj, 2)

    def test_time_refinement(self, showcase):
        # coarser snapshot sampling up to the same end time moves h by
        # less than 1e-4 (trapezoid-in-time refinement oracle)
        end = 24  # divisible stride ending below the final index
        coarse = Trajectory.from_snapshots(
            showcase.times[: end + 1 : 3], showcase.snapshots[: end + 1 : 3]
        )
        h_fine = averaged_source(showcase, end)
        h_coarse = averaged_source(coarse, len(coarse) - 1)
        assert lp_norm(h_fine - h_coarse, np.inf) <= 1e-4


class TestTailAmplitudes:
    def test_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert tail_amplitudes(z) == (0.0, 0.0)

    def test_double_exponential_closed_form(self):
        # moments of e^{-2|y|}: 0.5 (1/3 + 1) = 2/3 on each side; the node
        # quadrature has an O(dx^2) defect from the kink at 0, so a fine
        # grid realizes the closed form at 1e-6
        g = Grid(65536, 40.0)
        h = sample(g, lambda x: np.exp(-2 * np.abs(x)))
        plus, minus = tail_amplitudes(h)
        assert plus == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert minus == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_even_source_symmetric(self, grid4096):
        h = sample(grid4096, lambda x: np.exp(-(x**2)))
        plus, minus = tail_amplitudes(h)
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_psi_literal_duplicates_right_moment(self, grid4096):
        h = sample(grid4096, lambda x: np.exp(-((x - 1.0) ** 2)))
        plus, minus = tail_amplitudes(h, psi_literal=True)
        assert plus == minus

    def test_insufficient_decay_rejected(self, grid1024):
        h = sample(grid1024, lambda x: np.exp(-np.abs(x) / 2))  # e^y h grows
        with pytest.raises(ValueError, match="insufficient decay"):
            tail_amplitudes(h)

    def test_gaussian_closed_form(self, grid4096):
        # 0.5 int e^y e^{-y^2} dy = (sqrt(pi)/2) e^{1/4}
        h = sample(grid4096, lambda x: np.exp(-(x**2)))
        plus, _ = tail_amplitudes(h)
        assert plus == pytest.approx(np.sqrt(np.pi) / 2 * np.exp(0.25), rel=1e-10)


class TestInitialAmplitudes:
    def test_continuity_at_zero(self, showcase):
        phi0, _ = initial_tail_amplitudes(showcase.u0)
        times, plus, _ = amplitude_series(showcase)
        assert abs(plus[0] - phi0) <= 0.05 * phi0

    def test_rms_initial_formula(self, grid4096):
        u0 = sample(grid4096, lambda x: 0.05 / np.cosh(x) ** 2)
        phi0, _ = initial_tail_amplitudes(u0, SourceVariant.RMS)
        ux = derivative(u0, 1)
        q2 = (np.sqrt(2) * ux.values + np.sqrt(6) * u0.values) ** 2
        oracle = 0.5 * np.sqrt(np.sum(np.exp(grid4096.x) * q2) * grid4096.dx)
        assert phi0 == pytest.approx(oracle, rel=1e-12)


class TestTailRatio:
    def test_zero_trajectory_below_floor(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = Trajectory.from_snapshots(np.linspace(0, 1, 9), [z] * 9)
        with pytest.raises(ValueError, match="below floor"):
            tail_ratio(traj, 8, (10, 20))

    def test_showcase_median_within_tolerance(self, showcase):
        tr = tail_ratio(showcase, len(showcase) - 1, (10, 20))
        assert tr.rel_deviation <= 0.25

    def test_orientation_and_exact_amplitude(self, showcase):
        # the emitted coefficients from the kernel expansion reproduce the
        # measured medians to quadrature accuracy on both sides
        idx = len(showcase) - 1
        right_coeff, left_coeff = emitted_tail_amplitudes(showcase, idx)
        tr = tail_ratio(showcase, idx, (10, 20), "right")
        tl = tail_ratio(showcase, idx, (10, 20), "left")
        assert tr.median == pytest.approx(right_coeff, rel=1e-4)
        assert tr.orientation == -1
        # left ratio is defined as -e^{-x}(u-u0)/t, i.e. minus the e^{x}t
        # coefficient
        assert tl.median == pytest.approx(-left_coeff, rel=1e-4)

    def test_linear_in_time(self, grid4096):
        u0 = sample(grid4096, lambda x: 0.05 / np.cosh(x) ** 2)
        t1 = simulate(u0, 0.25, snapshot_stride=1)
        t2 = simulate(u0, 0.5, snapshot_stride=1)
        r1 = tail_ratio(t1, len(t1) - 1, (10, 20)).median
        r2 = tail_ratio(t2, len(t2) - 1, (10, 20)).median
        assert abs(r2 - r1) / abs(r1) < 0.10

    def test_window_constraint(self, showcase):
        with pytest.raises(ValueError, match="window"):
            tail_ratio(showcase, len(showcase) - 1, (2, 20))
        with pytest.raises(ValueError, match="window"):
            tail_ratio(showcase, len(showcase) - 1, (10, 39))


class TestAmplitudeBounds:
    def test_positive_band(self, showcase):
        times, plus, minus = amplitude_series(showcase)
        assert np.min(plus) > 0
        assert np.max(plus) < np.inf
        assert np.min(minus) > 0


class TestDominatedConvergence:
    def test_bracketing_and_decay(self, showcase):
        h = averaged_source(showcase, len(showcase) - 1)
        xs = np.linspace(10, 20, 21)
        lhs, rhs_ = dominated_convergence_series(h, xs)
        assert np.all(lhs >= 0)
        assert np.all(lhs <= rhs_ + 1e-15)
        assert np.all(np.diff(lhs) < 0)
        assert lhs[-1] < 1e-3 * lhs[0]


def synthetic_tails(xs, d):
    # int_x^inf dy / ((1+y) log(e+y)^{2d}): substitute u = log1p(y) so the
    # integrand decays like u^{-2d}
    return np.array(
        [
            quad(
                lambda u: 1.0 / np.log(np.e + np.expm1(u)) ** (2 * d),
                np.log1p(x),
                np.inf,
                limit=200,
            )[0]
            for x in xs
        ]
    )


class TestLogRateFit:
    def test_synthetic_saturating_tail(self):
        d = 1.0
        xs = np.linspace(10, 20, 41)
        fit = fit_log_slope(xs, synthetic_tails(xs, d), d)
        assert not fit.degenerate
        assert abs(fit.slope - (1 - 2 * d)) <= 0.15

    def test_window_stability(self):
        d = 1.0
        xs = np.linspace(10, 20, 41)
        tails = synthetic_tails(xs, d)
        full = fit_log_slope(xs, tails, d)
        half = fit_log_slope(xs[xs <= 15], tails[xs <= 15], d)
        assert abs(full.slope - half.slope) < 0.1

    def test_zero_tail_degenerate(self):
        fit = fit_log_slope(np.linspace(10, 20, 11), np.zeros(11), 1.0)
        assert fit.degenerate
        assert "zero tail" in fit.reason

    def test_underflow_shrinks_window(self):
        xs = np.linspace(10, 20, 11)
        tails = np.concatenate([np.exp(-xs[:6]), np.zeros(5)])
        fit = fit_log_slope(xs, tails, 1.0)
        assert not fit.degenerate
        assert fit.window_used[1] == pytest.approx(xs[5])
        assert fit.n_points == 6

    def test_rejects_small_d(self):
        with pytest.raises(ValueError, match="d must exceed"):
            fit_log_slope(np.linspace(10, 20, 11), np.ones(11), 0.4)

    def test_trajectory_rate_runs(self, showcase):
        fit = log_remainder_rate(showcase, len(showcase) - 1, 1.0, (10, 20))
        # real solutions decay exponentially, far steeper than the
        # borderline class: the fitted exponent is strongly negative
        assert not fit.degenerate
        assert fit.slope < 1 - 2 * 1.0


class TestExtractProfile:
    def test_bundle(self, showcase):
        prof = extract_profile(showcase, len(showcase) - 1, (10, 20), d=1.0)
        assert prof.t == pytest.approx(0.25, rel=1e-12)
        assert prof.amp_right > 0
        assert prof.ratio_right.rel_deviation <= 0.25
        assert prof.ratio_left.rel_deviation <= 0.25
        assert prof.variant is SourceVariant.MEAN


def _same(a, b) -> bool:
    """Field-for-field equality, exact to the bit; nan equals nan."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, Field):
        return a.grid == b.grid and np.array_equal(a.values, b.values)
    if isinstance(a, (np.ndarray, float, tuple)):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.fixture(scope="module")
def growing_gaussian():
    # decays fast enough for the RMS moments, which a simulated run never
    # does: its emitted e^{-|x|} tails make sqrt(u^2) e^{|x|} flat
    g = Grid(1024, 10.0)
    u0 = 0.05 * np.exp(-(g.x**2) / 2)
    ts = np.linspace(0.0, 0.5, 11)
    return Trajectory.from_snapshots(ts, [Field(g, (1 + t) * u0) for t in ts])


# (trajectory fixture, window, variant, psi_literal)
CASES = [
    pytest.param(name, window, variant, psi, id=f"{name}-{variant.value}{'-psi' * psi}")
    for name, window, variant, psi in [
        ("showcase", (10, 20), SourceVariant.MEAN, False),
        ("showcase", (10, 20), SourceVariant.MEAN, True),
        ("growing_gaussian", (3, 6), SourceVariant.MEAN, False),
        ("growing_gaussian", (3, 6), SourceVariant.RMS, False),
        ("growing_gaussian", (3, 6), SourceVariant.RMS, True),
    ]
]


class TestOnePass:
    """The running trapezoid and the shared sources change no number."""

    @pytest.mark.parametrize("variant", list(SourceVariant))
    def test_averaged_source_is_the_trapezoid(self, showcase, variant):
        u = [s.values for s in showcase.snapshots]
        ux = [derivative(s, 1).values for s in showcase.snapshots]
        if variant is SourceVariant.MEAN:
            src = np.stack([6.0 * a**2 + 2.0 * b**2 for a, b in zip(u, ux)])
        else:
            src = np.stack([(np.sqrt(2.0) * b + np.sqrt(6.0) * a) ** 2 for a, b in zip(u, ux)])
        for i in range(MIN_SNAPSHOTS - 1, len(showcase)):
            t = showcase.times[i]
            mean = np.trapezoid(src[: i + 1], x=showcase.times[: i + 1], axis=0) / t
            expected = mean if variant is SourceVariant.MEAN else np.sqrt(mean)
            assert np.array_equal(averaged_source(showcase, i, variant).values, expected), i

    @pytest.mark.parametrize("name, window, variant, psi_literal", CASES)
    def test_amplitude_series_is_the_per_index_loop(
        self, request, name, window, variant, psi_literal
    ):
        traj = request.getfixturevalue(name)
        times, plus, minus = amplitude_series(traj, variant, psi_literal)
        shared = amplitude_series(traj, variant, psi_literal, source_integral(traj, variant))
        assert all(np.array_equal(a, b) for a, b in zip(shared, (times, plus, minus)))
        indices = range(MIN_SNAPSHOTS - 1, len(traj))
        amps = [
            tail_amplitudes(averaged_source(traj, i, variant), variant, psi_literal)
            for i in indices
        ]
        assert len(amps) > 1
        assert np.array_equal(times, traj.times[MIN_SNAPSHOTS - 1 :])
        assert np.array_equal(plus, [a for a, _ in amps])
        assert np.array_equal(minus, [b for _, b in amps])

    def test_amplitude_series_too_few_snapshots(self, sech2_small):
        traj = Trajectory.from_snapshots(np.linspace(0, 1, MIN_SNAPSHOTS - 1), [sech2_small] * 7)
        for arr in amplitude_series(traj):
            assert arr.shape == (0,) and arr.dtype == float

    @pytest.mark.parametrize("name, window, variant, psi_literal", CASES)
    def test_extract_profile_is_the_public_composition(
        self, request, name, window, variant, psi_literal
    ):
        traj = request.getfixturevalue(name)
        idx = len(traj) - 2
        h = averaged_source(traj, idx, variant)
        amp_right, amp_left = tail_amplitudes(h, variant, psi_literal)
        expected = AsymptoticProfile(
            t=float(traj.times[idx]),
            h=h,
            amp_right=amp_right,
            amp_left=amp_left,
            window=tuple(map(float, window)),
            ratio_right=tail_ratio(traj, idx, window, "right", variant),
            ratio_left=tail_ratio(traj, idx, window, "left", variant),
            d=1.5,
            variant=variant,
            log_fit=log_remainder_rate(traj, idx, 1.5, window),
        )
        profile = extract_profile(traj, idx - len(traj), window, 1.5, variant, psi_literal)
        assert _same(profile, expected)
        integral = source_integral(traj, variant)
        shared = extract_profile(traj, idx, window, 1.5, variant, psi_literal, integral)
        assert _same(shared, expected)

    @pytest.mark.parametrize("variant", list(SourceVariant))
    def test_amplitude_series_fft_calls(self, growing_gaussian, fft_calls, variant):
        amplitude_series(growing_gaussian, variant)
        assert len(fft_calls) <= 2 * len(growing_gaussian)

    @pytest.mark.parametrize("variant, sources", [(SourceVariant.MEAN, 1), (SourceVariant.RMS, 2)])
    def test_extract_profile_fft_calls(self, growing_gaussian, fft_calls, variant, sources):
        extract_profile(growing_gaussian, len(growing_gaussian) - 1, (3, 6), variant=variant)
        assert len(fft_calls) <= 2 * sources * len(growing_gaussian)
