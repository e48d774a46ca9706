import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gch.analyticity import (
    SKIP_MODES,
    SPECTRUM_FLOOR,
    OperatorBoundReport,
    RadiusFit,
    _fit_bands,
    _h1_ladder,
    _longest_run,
    _magnitudes,
    _majorant_terms,
    _operator_bounds,
    _operator_ladders,
    _operator_maxima,
    _radius_fits,
    analyticity_track,
    majorant_track,
)
from gch.helmholtz import p2_apply
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


def _per_call_operator_bounds(f, s, s_prime):
    """The report built from one FFT pass per majorant norm, as before the shared ladders."""
    k_top = MajorantParams().k_max
    ladder = _h1_ladder(f, k_top + 1)
    shift_lhs = float(np.max(_majorant_terms(ladder[1:], s_prime)))
    norm_s = float(np.max(_majorant_terms(ladder[:-1], s)))
    smooth_lhs = majorant_norm(p2_apply(f), MajorantParams(s, k_top))
    f2 = Field(f.grid, f.values**2)
    c_alg = majorant_norm(f2, MajorantParams(s, k_top)) / norm_s**2 if norm_s else 0.0
    k_double = min(2 * k_top, 30)
    norm_s_dbl = majorant_norm(f, MajorantParams(s, k_double))
    c_alg_dbl = (
        majorant_norm(f2, MajorantParams(s, k_double)) / norm_s_dbl**2 if norm_s_dbl else 0.0
    )
    return OperatorBoundReport(
        shift_lhs, norm_s / (s - s_prime), smooth_lhs, norm_s, c_alg, c_alg_dbl
    )


def _per_report_maxima(ladders, s, s_prime):
    """The six maxima of an (s, s') report, one ``_majorant_terms`` call each (the reference)."""
    k_top = MajorantParams().k_max
    k_double = min(2 * k_top, 30)
    ladder, ladder_p2, ladder_sq = ladders

    def norm(lad, scale, k_max):
        return float(np.max(_majorant_terms(lad[: k_max + 1], scale)))

    return [
        norm(ladder[1:], s_prime, k_top),
        norm(ladder, s, k_top),
        norm(ladder_p2, s, k_top),
        norm(ladder_sq, s, k_top),
        norm(ladder, s, k_double),
        norm(ladder_sq, s, k_double),
    ]


def _overflows(fn, *args):
    try:
        with np.errstate(over="ignore"):
            fn(*args)
    except OverflowError:
        return True
    return False


class TestSharedOperatorLadders:
    PAIRS = [(s, sp) for s in SCALES for sp in SCALES if sp < s]

    def test_report_equals_the_per_call_formulas(self, grid1024):
        assert len(self.PAIRS) == 6
        fields = smooth_field_family(grid1024, 8, seed=4242)
        fields.append(Field(grid1024, np.zeros(grid1024.n)))
        ladders = _operator_ladders(grid1024, np.array([f.values for f in fields]))
        table = _operator_maxima(ladders, self.PAIRS)
        assert table.shape == (9, 6, 6)
        for f, maxima in zip(fields, table):
            for six, (s, sp) in zip(maxima, self.PAIRS):
                expected = dataclasses.astuple(_per_call_operator_bounds(f, s, sp))
                assert dataclasses.astuple(operator_bound_report(f, s, sp)) == expected
                assert dataclasses.astuple(_operator_bounds(six, s, sp)) == expected

    def test_zero_field_equals_the_per_call_formulas(self, grid1024):
        z = Field(grid1024, np.zeros(grid1024.n))
        assert operator_bound_report(z, 0.8, 0.4) == _per_call_operator_bounds(z, 0.8, 0.4)

    def test_ladder_prefix_is_the_shorter_ladder(self, sech):
        ladders = _operator_ladders(sech.grid, sech.values)
        assert ladders.shape == (3, 25)
        np.testing.assert_array_equal(ladders[0, :14], _h1_ladder(sech, 13))
        np.testing.assert_array_equal(ladders[1, :13], _h1_ladder(p2_apply(sech), 12))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
    def test_overflow_fires_on_the_ladders_it_did_per_report(self, sech, bad):
        # each entry of each ladder in turn: the table overflows exactly when some
        # report read an overflowing term, and otherwise reads what the reports read
        clean = _operator_ladders(sech.grid, sech.values)
        fired = []
        for index in np.ndindex(clean.shape):
            ladders = clean.copy()
            ladders[index] = bad
            per_report = [_overflows(_per_report_maxima, ladders, s, sp) for s, sp in self.PAIRS]
            assert _overflows(_operator_maxima, ladders, self.PAIRS) == any(per_report)
            assert _overflows(_operator_maxima, np.stack((clean, ladders)), self.PAIRS) == any(
                per_report
            )
            if any(per_report):
                fired.append(index)
            else:
                expected = [_per_report_maxima(ladders, s, sp) for s, sp in self.PAIRS]
                assert _operator_maxima(ladders, self.PAIRS).tolist() == expected
        # every entry is read but those of P2 f past K
        unread = [(1, k) for k in range(13, 25)]
        if np.isfinite(bad):  # overflows only where a term's factor exceeds max / bad
            assert fired and not set(fired) & set(unread)
        else:
            assert [i for i in np.ndindex(clean.shape) if i not in fired] == unread

    def test_one_fft_pass_per_field(self, sech, fft_calls):
        _operator_maxima(_operator_ladders(sech.grid, sech.values), self.PAIRS)
        assert fft_calls == ["rfft", "irfft", "rfft"]

    def test_one_fft_pass_per_block(self, grid1024, fft_calls):
        fields = smooth_field_family(grid1024, 8, seed=4242)
        _operator_maxima(
            _operator_ladders(grid1024, np.array([f.values for f in fields])), self.PAIRS
        )
        assert fft_calls == ["rfft", "irfft", "rfft"]


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


def test_longest_runs_of_a_block_are_those_of_its_rows():
    masks = np.array([mask for name, mask in _MASKS.items() if name.startswith("random_")])
    starts, lengths = _longest_run(masks)
    assert list(zip(starts, lengths)) == [_longest_run_loop(mask) for mask in masks]


def _full_width_bands(grid, spec):
    """The band search of ``_fit_bands`` over every mode of every row."""
    usable = np.abs(spec) / grid.n > SPECTRUM_FLOOR
    usable[..., :SKIP_MODES] = False
    return _longest_run(usable)


def test_bounded_band_search_is_the_full_width_search(grid1024):
    n = grid1024.n
    k = np.arange(n // 2 + 1)
    # bands that end at modes 299, 149 and 427 of 512, so the bounded search stops short
    spec = n * np.exp(-np.outer([0.1, 0.2, 0.07], k)).astype(complex)
    spec[2, 150:170] = 0.0  # a dip: the second run, to the block's last usable mode, is longer
    # rows with no usable mode: zero, and content only below SKIP_MODES
    spec = np.vstack((spec, np.zeros(k.size), np.where(k < SKIP_MODES, n, 0.0)))
    c, width = _magnitudes(grid1024, spec)
    start, length = _fit_bands(c)
    full_start, full_length = _full_width_bands(grid1024, spec)
    assert start.tolist() == full_start.tolist() == [SKIP_MODES, SKIP_MODES, 170, 0, 0]
    assert length.tolist() == full_length.tolist() == [296, 146, 258, 0, 0]
    # the magnitudes stop at mode 427, and the node of numpy's pairwise sum after it is 513
    assert c.tobytes() == (np.abs(spec) / n)[:, :428].tobytes() and width == 513
    # a block in which no row has a usable mode
    none = _fit_bands(_magnitudes(grid1024, spec[3:])[0])
    assert [a.tolist() for a in none] == [[0, 0], [0, 0]]


@pytest.fixture(scope="module")
def run(grid1024):
    u0 = sample(grid1024, lambda x: 0.05 / np.cosh(x) ** 2)
    return simulate(u0, 0.25, snapshot_stride=2)


@pytest.fixture(scope="module")
def fine_run():
    """``run`` on n = 2048: its magnitudes stop at the node 512 of 1025 modes."""
    u0 = sample(Grid(2048, 40.0), lambda x: 0.05 / np.cosh(x) ** 2)
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

    def test_one_estimate_per_snapshot(self, fine_run, monkeypatch):
        import gch.analyticity as analyticity_mod
        import gch.integrate as integrate_mod

        # three rows per block, and the magnitudes stop at 512 of 1025 modes, so a chunk
        # holds two blocks: 6 rows of 512 columns fill half of 3 full-width rows' spectrum
        monkeypatch.setattr(integrate_mod, "ROW_BLOCK_BYTES", 3 * 16 * 1025)
        polyfits, fits = [], []
        true_polyfit, true_fits = np.polyfit, analyticity_mod._radius_fits

        def counted_polyfit(*args, **kwargs):
            polyfits.append(args)
            return true_polyfit(*args, **kwargs)

        def counted_fits(k, c, *args):
            fits.append(len(c))
            return true_fits(k, c, *args)

        monkeypatch.setattr(np, "polyfit", counted_polyfit)
        monkeypatch.setattr(analyticity_mod, "_radius_fits", counted_fits)
        series = radius_track(fine_run)
        assert polyfits == []
        assert [r.stop - r.start for r in fine_run.row_blocks()] == [3, 3, 3, 3, 2]
        assert fits == [6, 6, 2] and len(series) == len(fine_run) == 14

    def test_track_is_the_per_snapshot_estimate(self, run):
        series = radius_track(run)
        fits = [radius_estimate(u) for u in run.snapshots]
        assert np.array_equal(series.sigma, [f.sigma for f in fits])
        assert np.array_equal(series.residual, [f.residual for f in fits])


def _polyfit_oracle(k, c, start, length):
    """sigma and 1 - R^2 of one band by ``np.polyfit``, as the fit was once taken per row."""
    ks, y = k[start : start + length], -np.log(c[start : start + length])
    slope, intercept = np.polyfit(ks, y, 1)
    ss_res = np.sum((y - (slope * ks + intercept)) ** 2)
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    return slope, ss_res / ss_tot if ss_tot > 0.0 else 0.0


@st.composite
def fit_blocks(draw, min_length=10):
    """``(k, c, start, length)``: rows of exponentially decaying noisy spectra and their bands."""
    n = draw(st.sampled_from([64, 256, 1024, 4096]))
    k = Grid(n, draw(st.sampled_from([10.0, 40.0]))).k_rfft
    rows, width = draw(st.integers(1, 6)), n // 2 + 1
    start = np.array(draw(st.lists(
        st.integers(SKIP_MODES, width - min_length), min_size=rows, max_size=rows)))
    length = np.array([draw(st.integers(min_length, width - s)) for s in start])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # -log c climbs by 1-600 over the spectrum, with noise of up to one mode's climb
    slope = draw(st.floats(1.0, 600.0)) / k[-1]
    noise = draw(st.floats(0.0, 1.0)) * slope * k[1] * rng.standard_normal((rows, width))
    c = np.exp(-(slope * k + draw(st.floats(-5.0, 5.0)) + noise))
    return k, c, start, length


def _exact_band_field(grid, length):
    """A field whose spectrum is above the floor on exactly ``length`` modes past SKIP_MODES."""
    spec = np.zeros(grid.n // 2 + 1, dtype=complex)
    band = np.arange(SKIP_MODES, SKIP_MODES + length)
    spec[band] = grid.n * np.exp(-0.5 * grid.k_rfft[band])
    return Field(grid, grid.irfft(spec))


class TestBatchedRadiusFit:
    @settings(max_examples=200, deadline=None, database=None)
    @given(fit_blocks())
    def test_agrees_with_polyfit_on_random_bands(self, block):
        k, c, start, length = block
        sigma, residual = _radius_fits(k, c, start, length)
        for i, row in enumerate(c):
            slope, res = _polyfit_oracle(k, row, start[i], length[i])
            assert abs(sigma[i] - slope) <= 1e-12 * abs(slope)
            assert abs(residual[i] - res) <= 1e-12

    def test_agrees_with_polyfit_on_showcase_snapshots(self):
        g = Grid(4096, 40.0)
        run = simulate(sample(g, lambda x: 0.05 / np.cosh(x) ** 2), 0.25, snapshot_stride=1)
        c, _ = _magnitudes(g, g.rfft(run.values))
        start, length = _fit_bands(c)
        sigma, residual = _radius_fits(g.k_rfft, c, start, length)
        oracle = np.array([_polyfit_oracle(g.k_rfft, *band) for band in zip(c, start, length)])
        np.testing.assert_allclose(sigma, oracle[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(residual, oracle[:, 1], rtol=0.0, atol=1e-12)

    @settings(max_examples=200, deadline=None, database=None)
    @given(fit_blocks(min_length=0))
    def test_a_blocks_fits_are_its_rows_fits(self, block):
        k, c, start, length = block
        together = _radius_fits(k, c, start, length)
        alone = [_radius_fits(k, c[i : i + 1], start[i : i + 1], length[i : i + 1])
                 for i in range(len(c))]
        for out, rows in zip(together, zip(*alone)):
            assert out.tobytes() == np.concatenate(rows).tobytes()
        assert np.array_equal(np.isnan(together[0]), length < 10)

    @settings(max_examples=50, deadline=None, database=None)
    @given(fit_blocks(), st.sampled_from([9, 10]))
    def test_nine_modes_are_no_fit_and_ten_are_one(self, block, size):
        k, c, start, _ = block
        length = np.full(len(c), size)
        sigma, residual = _radius_fits(k, c, start, length)
        assert np.all(np.isnan(sigma) == (size == 9))
        assert np.all(np.isnan(residual) == (size == 9))
        if size == 9:
            with pytest.raises(ValueError, match="only 9 usable modes"):
                _radius_fits(k, c, start, length, strict=True)

    def test_narrow_later_snapshots_are_invalid(self, sech, grid1024):
        fields = [sech] + [_exact_band_field(grid1024, size) for size in (9, 10)]
        series = radius_track(Trajectory.from_snapshots([0.0, 0.5, 1.0], fields))
        assert list(series.valid) == [True, False, True]
        assert np.isnan(series.sigma[1]) and np.isnan(series.residual[1])
        assert series.sigma[2] == pytest.approx(0.5, rel=1e-9)
        with pytest.raises(ValueError, match="only 9 usable modes"):
            radius_estimate(fields[1])


def _full_width_ladder(grid, spec, k_top):
    """The oracle of ``_spectral_h1_ladder``: its H^1 ladders with every column swept."""
    power = np.abs(spec / grid.n)
    power[power <= SPECTRUM_FLOOR * np.max(power, axis=-1, keepdims=True)] = 0.0
    power = power**2 * grid.h1_weight * (2.0 * grid.half_width)
    out = np.empty(spec.shape[:-1] + (k_top + 1,))
    out[..., 0] = np.sqrt(np.sum(power, axis=-1))
    grid.drop_nyquist(power)
    for k in range(1, k_top + 1):
        power *= grid.k2
        out[..., k] = np.sqrt(np.sum(power, axis=-1))
    return out


def _pad(c, width):
    """``c`` padded with zero columns to ``width``."""
    return np.pad(c, [(0, 0)] * (c.ndim - 1) + [(0, width - c.shape[-1])])


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_ladder_is_the_full_width_ladder_bit_for_bit(n):
    # numpy sums a row of c > 128 columns as its first c//2 - (c//2) % 8 and the rest, so
    # columns past the node after a block's last mode above the floor add exact zeros and
    # the magnitudes stop there; padded with zeros to any later node, as a chunk pads them,
    # they give the same ladder and bands.  Random blocks of 1-25 rows, zero rows among them,
    # whose band ends anywhere, at every node of the sum and at the Nyquist mode, and whose
    # scale puts either floor above the other: a numpy whose pairwise summation splits a row
    # elsewhere fails here
    from gch.analyticity import _spectral_h1_ladder

    grid, width = Grid(n, 40.0), n // 2 + 1
    nodes, c = [width], width
    while c > 128:
        c = c // 2 - (c // 2) % 8
        nodes.append(c)
    edges = [width, width - 1] + [node + d for node in nodes[1:] for d in (-1, 0, 1, 2)]
    rng = np.random.default_rng(n)
    modes = np.arange(width)
    widths = set()
    for trial in range(120):
        rows = int(rng.integers(1, 26))
        ends = rng.integers(1, width + 1, rows) if trial % 2 else np.full(rows, rng.choice(edges))
        # the last mode of each band stays above the floor
        decay = np.exp(-rng.uniform(0.0, 25.0 / ends.max()) * modes)
        spec = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
        spec *= decay * (modes < ends[:, None]) * n * 10.0 ** rng.uniform(-14.0, 3.0)
        spec[rng.random(rows) < 0.2] = 0.0
        k_top = int(rng.integers(1, 21))
        full = _full_width_ladder(grid, spec, k_top).tobytes()
        bands = [a.tolist() for a in _full_width_bands(grid, spec)]
        c, cut = _magnitudes(grid, spec)
        widths.add(cut)
        for node in nodes[: nodes.index(cut) + 1]:
            padded = _pad(c, node)
            for ladder in (_spectral_h1_ladder(grid, c, node, k_top),
                           _spectral_h1_ladder(grid, padded, node, k_top)):
                assert ladder.tobytes() == full, (trial, ends, node)
            assert [a.tolist() for a in _fit_bands(padded)] == bands, (trial, ends, node)
        assert [a.tolist() for a in _fit_bands(c)] == bands, (trial, ends)
    assert widths == set(nodes)


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
        spec = run.grid.rfft(np.vstack([run.values, np.zeros_like(run.values[:1])]))
        block = _spectral_h1_ladder(run.grid, *_magnitudes(run.grid, spec), 14)
        rows = np.stack([_spectral_h1_ladder(run.grid, *_magnitudes(run.grid, row), 14)
                         for row in spec])
        assert np.array_equal(block, rows)
        assert np.all(block[-1] == 0.0)


def _per_snapshot(traj, params):
    """sigma, residual, norm and argmax of each snapshot alone, by ``radius_estimate`` (NaN where
    it finds too few modes) and ``majorant_norm_argmax``."""
    out = []
    for u in traj.snapshots:
        try:
            fit = radius_estimate(u)
        except ValueError:
            fit = RadiusFit(np.nan, np.nan, False)
        out.append((fit.sigma, fit.residual, *majorant_norm_argmax(u, params)))
    return [np.array(col) for col in zip(*out)]


def _pulses(grid, widths):
    return [sample(grid, lambda x, w=w: 0.05 / np.cosh(x / w) ** 2) for w in widths]


class TestAnalyticityTrack:
    """The one consumer fits chunks of rows, bit for bit each snapshot's own estimates."""

    @staticmethod
    def _chunks(traj, monkeypatch, rows_per_block, params=MajorantParams()):
        """The ``(rows, width)`` of each chunk the track fits, after checking every output."""
        import gch.analyticity as analyticity_mod
        import gch.integrate as integrate_mod

        monkeypatch.setattr(
            integrate_mod, "ROW_BLOCK_BYTES", rows_per_block * 16 * (traj.grid.n // 2 + 1)
        )
        shapes, true_ladder = [], analyticity_mod._spectral_h1_ladder

        def spied(grid, c, width, k_top):
            shapes.append((len(c), width))
            return true_ladder(grid, c, width, k_top)

        monkeypatch.setattr(analyticity_mod, "_spectral_h1_ladder", spied)
        series, norm, argmax = analyticity_track(traj, params)
        chunks = list(shapes)  # the per-snapshot norms below go through the spy too
        sigma, residual, norm_alone, argmax_alone = _per_snapshot(traj, params)
        assert series.sigma.tobytes() == sigma.tobytes()
        assert series.residual.tobytes() == residual.tobytes()
        assert norm.tobytes() == norm_alone.tobytes()
        assert argmax.tolist() == argmax_alone.tolist()
        assert sum(rows for rows, _ in chunks) == len(traj)
        return chunks

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    @pytest.mark.parametrize("params", [MajorantParams(), MajorantParams(0.3, 20)])
    def test_a_chunk_spans_several_blocks(self, fine_run, monkeypatch, rows_per_block, params):
        chunks = self._chunks(fine_run, monkeypatch, rows_per_block, params)
        # 2 x rows_per_block rows of 512 columns fill half of rows_per_block full-width rows
        rows = 2 * rows_per_block
        assert chunks == [(min(rows, 14 - i), 512) for i in range(0, 14, rows)]

    def test_a_widening_band_is_padded_with_zeros(self, monkeypatch):
        # pulses ever narrower, so each row's band is wider: the magnitudes stop at 128, 256,
        # 256, 512 and 1025 of 1025 modes, and the first chunk pads its first row to 256
        grid = Grid(2048, 40.0)
        fields = _pulses(grid, (3.0, 2.0, 1.4, 0.8, 0.4))
        widths = [_magnitudes(grid, grid.rfft(u.values))[1] for u in fields]
        assert widths == [128, 256, 256, 512, 1025]
        traj = Trajectory.from_snapshots(np.arange(5.0), fields)
        assert self._chunks(traj, monkeypatch, 1) == [(3, 256), (1, 512), (1, 1025)]

    def test_a_zero_row(self, monkeypatch):
        grid = Grid(2048, 40.0)
        zero = Field(grid, np.zeros(grid.n))
        (pulse,) = _pulses(grid, (2.0,))
        traj = Trajectory.from_snapshots(np.arange(4.0), [pulse, zero, pulse, zero])
        # the zero rows' magnitudes stop at 128 modes, and are padded to 256
        assert self._chunks(traj, monkeypatch, 1) == [(4, 256)]
        series, norm, argmax = analyticity_track(traj)
        assert series.valid.tolist() == [True, False, True, False]
        assert norm[1] == norm[3] == 0.0 and argmax[1] == argmax[3] == 0

    @pytest.mark.parametrize("rows_per_block", [1, 2])
    def test_a_band_that_reaches_nyquist_keeps_its_nyquist_mode(self, monkeypatch, rows_per_block):
        # the middle row carries a Nyquist wave: its block's magnitudes are n/2 + 1 wide, and
        # the ladder drops the Nyquist mode from its derivatives there alone
        grid = Grid(2048, 40.0)
        pulses = _pulses(grid, (2.0, 1.4, 1.2, 1.6))
        wave = Field(grid, pulses[1].values + 0.01 * (-1.0) ** np.arange(grid.n))
        traj = Trajectory.from_snapshots(np.arange(5.0), pulses[:2] + [wave] + pulses[2:])
        chunks = self._chunks(traj, monkeypatch, rows_per_block)
        assert (rows_per_block, 1025) in chunks
        assert all(width == 256 for _, width in chunks if width != 1025)
