import numpy as np
import pytest

from gch import (
    Field,
    Grid,
    MajorantParams,
    Trajectory,
    h1_norm,
    majorant_norm,
    majorant_norm_argmax,
    operator_bound_report,
    radius_estimate,
    radius_track,
    sample,
    simulate,
)
from gch.analyticity import _h1_ladder, _longest_run, majorant_track
from gch.fields import smooth_field_family

SCALES = (0.2, 0.4, 0.6, 0.8)


class TestMajorantParams:
    @pytest.mark.parametrize("s", [0.0, -0.5, 1.5])
    def test_rejects_bad_scale(self, s):
        with pytest.raises(ValueError):
            MajorantParams(s, 12)

    @pytest.mark.parametrize("k", [0, 31])
    def test_rejects_bad_order(self, k):
        with pytest.raises(ValueError):
            MajorantParams(0.5, k)


class TestMajorantNorm:
    def test_zero(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert majorant_norm(z) == 0.0

    def test_k0_term_is_h1(self, grid1024):
        f = sample(grid1024, lambda x: np.sin(np.pi * x / 40))
        assert majorant_norm(f, MajorantParams(0.5, 1)) == pytest.approx(
            h1_norm(f), rel=1e-12
        )

    def test_k0_term_is_h1_with_nyquist_content(self):
        # the Nyquist mode has no derivative part in h1_norm, so none in the ladder
        grid = Grid(64, 10.0)
        wave = 0.01 * (-1.0) ** np.arange(grid.n)
        f = Field(grid, sample(grid, lambda x: 1.0 / np.cosh(x) ** 2).values + wave)
        assert _h1_ladder(f, 0)[0] == pytest.approx(h1_norm(f), rel=1e-13)

    def test_single_mode_sup_at_zero(self, grid1024):
        # each derivative multiplies the H^1 norm by pi/L < 1, so the term
        # ratio s (pi/L) (k+2)^2/(k+1)^3 < 1 and the sup sits at k = 0
        f = sample(grid1024, lambda x: np.sin(np.pi * x / 40))
        val, k = majorant_norm_argmax(f, MajorantParams(0.5, 12))
        assert k == 0
        assert val == pytest.approx(h1_norm(f), rel=1e-12)

    def test_monotone_in_scale(self, grid1024):
        f = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        vals = [majorant_norm(f, MajorantParams(s, 12)) for s in SCALES + (1.0,)]
        assert np.all(np.diff(vals) >= 0)

    def test_monotone_in_scale_family(self, grid1024):
        for f in smooth_field_family(grid1024, 6, seed=55):
            vals = [majorant_norm(f, MajorantParams(s, 12)) for s in SCALES]
            assert np.all(np.diff(vals) >= -1e-15)


class TestOperatorBounds:
    def test_zero_field(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        rep = operator_bound_report(z, 0.8, 0.4)
        assert rep.shift_lhs == rep.shift_rhs == 0.0
        assert rep.smooth_lhs == rep.smooth_rhs == 0.0

    def test_sech2_slacks_positive(self, grid1024):
        f = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        rep = operator_bound_report(f, 0.8, 0.4)
        assert rep.shift_slack > 0
        assert rep.smooth_slack > 0

    def test_algebra_constant_scale_invariant(self, grid1024):
        f = sample(grid1024, lambda x: 0.1 / np.cosh(x) ** 2)
        r1 = operator_bound_report(f, 0.8, 0.4)
        r2 = operator_bound_report(Field(grid1024, 2 * f.values), 0.8, 0.4)
        assert r1.c_algebra == pytest.approx(r2.c_algebra, rel=1e-12)

    def test_seeded_sweep(self, grid1024):
        c_values = []
        for f in smooth_field_family(grid1024, 8, seed=4242):
            for s in SCALES:
                for sp in SCALES:
                    if sp >= s:
                        continue
                    rep = operator_bound_report(f, s, sp)
                    assert rep.shift_slack >= 0.0
                    assert rep.smooth_slack >= 0.0
                    assert rep.c_algebra_drift < 0.10
                    c_values.append(rep.c_algebra)
        assert max(c_values) < 10.0  # bounded algebra constant across the family

    def test_rejects_bad_scales(self, sech):
        with pytest.raises(ValueError):
            operator_bound_report(sech, 0.4, 0.8)


class TestRadiusEstimate:
    def test_synthetic_log_linear(self, grid1024):
        spec = np.exp(-0.5 * grid1024.k_rfft) * grid1024.n
        f = Field(grid1024, np.fft.irfft(spec.astype(complex), n=grid1024.n))
        fit = radius_estimate(f)
        assert fit.sigma == pytest.approx(0.5, abs=1e-10)
        assert not fit.super_exponential

    def test_sech_pole_rate(self, sech):
        fit = radius_estimate(sech)
        assert fit.sigma == pytest.approx(np.pi / 2, rel=0.05)
        assert not fit.super_exponential

    def test_gaussian_flagged(self, grid1024):
        f = sample(grid1024, lambda x: np.exp(-(x**2)))
        fit = radius_estimate(f)
        assert fit.super_exponential
        assert "lower bound" in fit.note

    def test_narrow_spectrum_rejected(self, grid1024):
        f = sample(grid1024, lambda x: np.sin(np.pi * x / 40))
        with pytest.raises(ValueError, match="too narrow"):
            radius_estimate(f)


def _longest_run_loop(mask):
    """Reference: a scan over every mode in which the first longest run wins."""
    best_start, best_len = 0, 0
    run_start = None
    for i, ok in enumerate(np.append(mask, False)):
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            if i - run_start > best_len:
                best_start, best_len = run_start, i - run_start
            run_start = None
    return best_start, best_len


_MASKS = {
    "none_usable": [0] * 12,
    "all_usable": [1] * 12,
    "tie_first_wins": [1, 1, 0, 1, 1, 0, 0, 1, 1],
    "tie_after_short": [0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0],
    "run_touches_the_end": [0, 1, 1, 0, 1, 1, 1],
    "run_touches_the_start": [1, 1, 1, 0, 1, 0],
    "single_mode": [0, 0, 1, 0],
    "empty": [],
}
_MASKS.update(
    (f"random_{seed}", list(np.random.default_rng(seed).random(64) < 0.7)) for seed in range(4)
)


@pytest.mark.parametrize("mask", list(_MASKS.values()), ids=list(_MASKS))
def test_longest_run_matches_the_loop(mask):
    mask = np.asarray(mask, dtype=bool)
    assert _longest_run(mask) == _longest_run_loop(mask)


@pytest.fixture(scope="module")
def run(grid1024):
    u0 = sample(grid1024, lambda x: 0.05 / np.cosh(x) ** 2)
    return simulate(u0, 0.25, snapshot_stride=2)


class TestRadiusTrack:
    def test_frozen_field_constant_series(self, sech):
        traj = Trajectory.from_snapshots([0.0, 0.5, 1.0], [sech] * 3)
        series = radius_track(traj)
        assert np.all(series.valid)
        assert np.ptp(series.sigma) == 0.0

    def test_radius_stays_positive(self, run):
        series = radius_track(run)
        assert np.all(series.valid)
        assert np.nanmin(series.sigma) >= 0.5 * series.sigma[0]

    def test_continuity_along_trajectory(self, run):
        series = radius_track(run)
        jumps = np.abs(np.diff(series.sigma)) / series.sigma[:-1]
        assert np.max(jumps) < 0.20

    def test_grid_refinement_stable(self, run):
        g2 = Grid(2048, 40.0)
        u0 = sample(g2, lambda x: 0.05 / np.cosh(x) ** 2)
        run2 = simulate(u0, 0.25, snapshot_stride=2)
        s1 = radius_track(run).sigma[-1]
        s2 = radius_track(run2).sigma[-1]
        assert abs(s2 - s1) / s1 < 0.02

    def test_requires_analytic_initial_data(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        traj = Trajectory.from_snapshots([0.0], [z])
        with pytest.raises(ValueError, match="too narrow"):
            radius_track(traj)

    def test_one_estimate_per_snapshot(self, run, monkeypatch):
        import gch.analyticity as analyticity_mod

        calls = []
        true_fit = analyticity_mod._radius_fit

        def counted(grid, spec):
            calls.append(spec)
            return true_fit(grid, spec)

        monkeypatch.setattr(analyticity_mod, "_radius_fit", counted)
        radius_track(run)
        assert len(calls) == len(run)

    def test_track_is_the_per_snapshot_estimate(self, run):
        series = radius_track(run)
        fits = [radius_estimate(u) for u in run.snapshots]
        assert np.array_equal(series.sigma, [f.sigma for f in fits])
        assert np.array_equal(series.residual, [f.residual for f in fits])


class TestMajorantTrack:
    @pytest.mark.parametrize("params", [MajorantParams(), MajorantParams(0.3, 20)])
    def test_track_is_the_per_snapshot_norm(self, run, params):
        norm, argmax = majorant_track(run, params)
        pairs = [majorant_norm_argmax(u, params) for u in run.snapshots]
        assert np.array_equal(norm, [v for v, _ in pairs])
        assert np.array_equal(argmax, [k for _, k in pairs])

    def test_ladders_of_a_block_are_the_ladders_of_its_rows(self, run):
        from gch.analyticity import _spectral_h1_ladder

        # a zero row keeps its zeros: its floor masks nothing
        spec = np.vstack([run.spectrum, np.zeros_like(run.spectrum[:1])])
        block = _spectral_h1_ladder(run.grid, spec, 14)
        rows = np.stack([_spectral_h1_ladder(run.grid, row, 14) for row in spec])
        assert np.array_equal(block, rows)
        assert np.all(block[-1] == 0.0)
