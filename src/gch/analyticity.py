"""Analyticity indicators: majorant norms, operator bounds, radius tracking.

The majorant norm with geometric scale s,

    |||f|||_s = sup_k  s^k (k+1)^2 ||d^k f||_{H^1} / k!,

is finite exactly on fields whose derivatives grow no faster than k!/s^k,
i.e. fields analytic in a strip of width ~s.  Any computation truncates the
sup at order K, so computed values are lower bounds of the true norm and
all inequalities are checked in their truncated form.

The spatial analyticity radius is read off the Fourier side (Sulem, Sulem & Frisch,
J. Comput. Phys. 50:138, 1983): a strip-analytic field's coefficients decay like
exp(-sigma |k|), so the least-squares slope of -log|c_k| against |k| over the resolved
band tracks the strip half-width sigma; a trajectory is fitted one row block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid
from .integrate import Trajectory
from .rowpass import consume, one_pass

__all__ = [
    "MajorantParams",
    "RadiusFit",
    "RadiusSeries",
    "OperatorBoundReport",
    "majorant_norm",
    "majorant_norm_argmax",
    "majorant_track",
    "operator_bound_report",
    "radius_estimate",
    "radius_track",
]

#: Modes below this amplitude are treated as roundoff noise.
SPECTRUM_FLOOR = 1e-13
#: Lowest modes excluded from the radius fit (non-asymptotic part).
SKIP_MODES = 4
#: Fits leaving more than this unexplained variance flag super-exponential decay.
RESIDUAL_FLAG = 1e-2


@dataclass(frozen=True)
class MajorantParams:
    """Scale s in (0, 1] and truncation order K of the majorant norm."""

    s: float = 0.5
    k_max: int = 12

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"scale s must lie in (0, 1], got {self.s}")
        if not (1 <= self.k_max <= 30):
            raise ValueError(f"truncation order must lie in [1, 30], got {self.k_max}")


def _spectral_h1_ladder(grid: Grid, spec: np.ndarray, k_top: int) -> np.ndarray:
    """||d^k f||_{H^1}, k = 0..k_top, by Parseval, for each row of ``spec`` (rffts on ``grid``).

    The Nyquist mode is dropped from every derivative, matching repeated
    application of the odd-order spectral derivative, so at k = 0 it keeps
    only its L^2 part, as in :func:`gch.grid.h1_norm`.  Modes below
    the relative noise floor are excluded: k-fold differentiation scales
    roundoff by k_max^k, which would otherwise swamp the genuine terms of
    an analytic field from k ~ 15 on and defeat truncation-convergence
    checks.  Only the columns up to the node of numpy's pairwise sum after the
    block's last mode above the floor are swept: the rest would add exact zeros.
    """
    power = np.abs(spec)
    power /= grid.n  # abs(spec / n) bit for bit, n being a power of two
    # modes at or below the row's floor count as zero; a zero row stays zero
    low = power <= SPECTRUM_FLOOR * np.max(power, axis=-1, keepdims=True)
    live = np.flatnonzero(~np.logical_and.reduce(low.reshape(-1, low.shape[-1])))
    # numpy sums a row of c > 128 columns as its first c//2 - (c//2) % 8 and the rest
    c, last = spec.shape[-1], live[-1] if live.size else -1
    while c > 128 and c // 2 - (c // 2) % 8 > last:
        c = c // 2 - (c // 2) % 8
    power[..., :c][low[..., :c]] = 0.0
    power = power[..., :c] ** 2 * grid.h1_weight[:c] * (2.0 * grid.half_width)
    out = np.empty(spec.shape[:-1] + (k_top + 1,))
    out[..., 0] = np.sqrt(np.sum(power, axis=-1))
    if c == spec.shape[-1]:
        grid.drop_nyquist(power)
    for k in range(1, k_top + 1):
        power *= grid.k2[:c]
        out[..., k] = np.sqrt(np.sum(power, axis=-1))
    return out


def _h1_ladder(f: Field, k_top: int) -> np.ndarray:
    return _spectral_h1_ladder(f.grid, f.grid.rfft(f.values), k_top)


#: k! for every order a :class:`MajorantParams` admits.
_FACTORIALS = np.array([math.factorial(k) for k in range(31)], dtype=float)


def _majorant_terms(ladder: np.ndarray, s) -> np.ndarray:
    """s^k (k+1)^2 ladder[k] / k! along the last axis; an array ``s`` broadcasts against it."""
    ks = np.arange(ladder.shape[-1])
    terms = s**ks * (ks + 1.0) ** 2 * ladder / _FACTORIALS[: ks.size]
    if not np.all(np.isfinite(terms)):
        raise OverflowError("majorant-norm term overflowed; reduce the truncation order")
    return terms


def majorant_norm_argmax(f: Field, params: MajorantParams = MajorantParams()):
    """Truncated majorant norm together with the order attaining the sup.

    An argmax equal to K means the sup may not be resolved at this
    truncation.
    """
    terms = _majorant_terms(_h1_ladder(f, params.k_max), params.s)
    k = int(np.argmax(terms))
    return float(terms[k]), k


def majorant_norm(f: Field, params: MajorantParams = MajorantParams()) -> float:
    """Truncated majorant norm: max over k <= K of s^k (k+1)^2 ||d^k f||_{H^1} / k!."""
    return majorant_norm_argmax(f, params)[0]


@dataclass
class OperatorBoundReport:
    """Measured slacks of the shift and smoothing bounds plus the algebra constant."""

    shift_lhs: float
    shift_rhs: float
    smooth_lhs: float
    smooth_rhs: float
    c_algebra: float
    c_algebra_doubled: float

    @property
    def shift_slack(self) -> float:
        """Slack of ||d_x u||_{s'} <= ||u||_s / (s - s')."""
        return self.shift_rhs - self.shift_lhs

    @property
    def smooth_slack(self) -> float:
        """Slack of ||d_x (1-d_xx)^{-1} u||_s <= ||u||_s."""
        return self.smooth_rhs - self.smooth_lhs

    @property
    def c_algebra_drift(self) -> float:
        if self.c_algebra == 0.0:
            return 0.0
        return abs(self.c_algebra_doubled - self.c_algebra) / self.c_algebra


#: Truncation order K of the operator bounds, and the doubled order 2K (capped at 30).
_BOUND_ORDER = MajorantParams().k_max
_BOUND_ORDER_DOUBLED = min(2 * _BOUND_ORDER, 30)


def operator_bound_report(f: Field, s: float, s_prime: float) -> OperatorBoundReport:
    """Check the scale-of-spaces operator bounds on a concrete field.

    Measures both sides of ||d_x f||_{s'} <= ||f||_s/(s-s') and
    ||P2 f||_s <= ||f||_s at the default truncation K, plus the algebra
    constant C = |||f^2|||_s / |||f|||_s^2 at K and 2K (capped at 30) to
    confirm the truncation has converged.
    """
    if not (0.0 < s_prime < s <= 1.0):
        raise ValueError(f"need 0 < s' < s <= 1, got s'={s_prime}, s={s}")
    maxima = _operator_maxima(_operator_ladders(f.grid, f.values), [(s, s_prime)])
    return _operator_bounds(maxima[0], s, s_prime)


def _operator_ladders(grid: Grid, values) -> np.ndarray:
    """H^1 ladders to order 2K of f, P2 f and f^2 for one field f or each row of a block.

    All that the bounds at any (s, s') read: ``(..., 3, 2K + 1)``, from one P2 pass and
    one batched rfft; a ladder's prefix equals the shorter ladder bit for bit.
    """
    rows = np.stack((values, grid.p2(values), values**2), axis=-2)
    return _spectral_h1_ladder(grid, grid.rfft(rows), max(_BOUND_ORDER + 1, _BOUND_ORDER_DOUBLED))


def _operator_maxima(ladders: np.ndarray, pairs) -> np.ndarray:
    """``(..., len(pairs), 6)``: the norms ||d_x f||_{s'}, ||f||_s, ||P2 f||_s, |||f^2|||_s
    at K and ||f||_s, |||f^2|||_s at 2K of every ladder triple at every (s, s') pair, in one
    broadcast.  Terms no report reads are zeroed first, so only a read term can overflow.
    """
    k_top, k_double = _BOUND_ORDER, _BOUND_ORDER_DOUBLED
    # rows d_x f, f, P2 f, f^2: the first and third to K, the others to 2K
    read = np.zeros(ladders.shape[:-2] + (4, k_double + 1))
    read[..., 0, : k_top + 1] = ladders[..., 0, 1 : k_top + 2]
    read[..., 1::2, :] = ladders[..., 0::2, : k_double + 1]
    read[..., 2, : k_top + 1] = ladders[..., 1, : k_top + 1]
    scales = np.array([(s_prime, s, s, s) for s, s_prime in pairs])[..., None]
    terms = _majorant_terms(read[..., None, :, :], scales)
    at_k = np.max(terms[..., : k_top + 1], axis=-1)
    return np.concatenate((at_k, np.max(terms[..., 1::2, :], axis=-1)), axis=-1)


def _operator_bounds(maxima, s: float, s_prime: float) -> OperatorBoundReport:
    """:func:`operator_bound_report` at (s, s') from its six :func:`_operator_maxima`.

    On Python floats: a float's ``x**2`` is libm's ``pow``, at times a bit off numpy's ``x*x``.
    """
    shift_lhs, norm_s, smooth_lhs, norm_sq, norm_s_dbl, norm_sq_dbl = maxima.tolist()
    denom = norm_s**2
    return OperatorBoundReport(
        shift_lhs, norm_s / (s - s_prime), smooth_lhs, norm_s,
        norm_sq / denom if denom else 0.0, norm_sq_dbl / norm_s_dbl**2 if norm_s_dbl else 0.0,
    )


@dataclass
class RadiusFit:
    """Exponential decay rate of the Fourier coefficients of one field."""

    sigma: float
    residual: float
    super_exponential: bool

    @property
    def note(self) -> str | None:
        if self.super_exponential:
            return "super-exponential decay; entire function (sigma is a lower bound)"
        return None


def radius_estimate(f: Field) -> RadiusFit:
    """Analyticity-radius estimate from the Fourier-coefficient decay.

    Least-squares slope of -log|c_k| against k over the largest contiguous
    band of modes above SPECTRUM_FLOOR, excluding the lowest SKIP_MODES
    modes.  ``residual`` is the unexplained variance 1 - R^2 of the linear
    fit; values above RESIDUAL_FLAG mark a spectrum decaying faster than
    any exponential, for which sigma is only a lower bound.
    """
    bands = _fit_bands(f.grid, f.grid.rfft(f.values)[None])
    (sigma,), (residual,) = _radius_fits(f.grid.k_rfft, *bands, strict=True)
    return RadiusFit(float(sigma), float(residual), bool(residual > RESIDUAL_FLAG))


def _longest_run(mask: np.ndarray):
    """``(start, length)`` of the first longest run of True in each row of ``mask``, ``(0, 0)``
    where there is none."""
    # a False mode in front: the run ending there, of length 0 at 0, stands in for none
    mask = np.concatenate((np.zeros(mask.shape[:-1] + (1,), dtype=bool), mask), axis=-1)
    count = np.cumsum(mask, axis=-1)
    # the length of the run ending at each mode: the count since the last False mode
    run = count - np.maximum.accumulate(np.where(mask, 0, count), axis=-1)
    length = np.max(run, axis=-1)
    return np.argmax(run, axis=-1) - length, length


def _fit_bands(grid: Grid, spec: np.ndarray):
    """``(c, start, length)`` of each row of ``spec`` (rffts on ``grid``): ``|spec| / n`` and its
    first longest run of modes above SPECTRUM_FLOOR, the lowest SKIP_MODES excluded.

    The run search reads only the modes up to the block's last usable one: past it every row is
    False, which moves no run.  The bands of the benchmark's pulses hold 217-526 of 2049 modes.
    """
    c = np.abs(spec) / grid.n
    usable = c > SPECTRUM_FLOOR
    usable[..., :SKIP_MODES] = False
    seen = np.flatnonzero(usable.reshape(-1, usable.shape[-1]).any(axis=0))
    return (c, *_longest_run(usable[..., : seen[-1] + 1 if seen.size else 0]))


def _radius_fits(k: np.ndarray, c: np.ndarray, start, length, strict: bool = False):
    """:func:`radius_estimate`'s sigma and residual per row from its :func:`_fit_bands`, ``k`` the
    wavenumbers; NaN where a band has under 10 modes, a ``ValueError`` for row 0 if ``strict``.

    Each centred sum reads its own row's band alone (``np.add.reduceat`` over the bands laid end
    to end), so a row's fit does not depend on the block it came in.
    """
    if strict and length[0] < 10:
        raise ValueError(f"spectrum too narrow: only {length[0]} usable modes above the floor")
    sigma, residual = np.full(len(c), np.nan), np.full(len(c), np.nan)
    rows = np.flatnonzero(length >= 10)
    size = length[rows]
    heads = np.cumsum(size) - size
    cols = np.arange(np.sum(size)) + np.repeat(start[rows] - heads, size)
    x, y = k[cols], -np.log(c[np.repeat(rows, size), cols])  # the bands, end to end
    x = x - np.repeat(np.add.reduceat(x, heads) / size, size)
    y = y - np.repeat(np.add.reduceat(y, heads) / size, size)
    sigma[rows] = slope = np.add.reduceat(x * y, heads) / np.add.reduceat(x * x, heads)
    ss_res = np.add.reduceat((y - np.repeat(slope, size) * x) ** 2, heads)
    ss_tot = np.add.reduceat(y * y, heads)
    residual[rows] = np.divide(ss_res, ss_tot, out=np.zeros_like(ss_res), where=ss_tot > 0.0)
    return sigma, residual


@dataclass
class RadiusSeries:
    """Analyticity-radius estimates along a trajectory."""

    times: np.ndarray
    sigma: np.ndarray
    residual: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@one_pass
def radius_track(traj: Trajectory) -> RadiusSeries:
    """Radius estimate per snapshot, in one pass; failures invalidate single entries.

    The initial snapshot must admit an estimate (analytic initial data);
    later failures are recorded as invalid entries rather than aborting the
    series.  Its ``consumer`` finds the bands and fits every row of a row block at once.
    """
    sigma, residual = np.full(len(traj), np.nan), np.full(len(traj), np.nan)

    def add(rows, spec, d):
        bands = _fit_bands(traj.grid, spec)
        # strict on row 0, which must admit an estimate
        sigma[rows], residual[rows] = _radius_fits(traj.grid.k_rfft, *bands, rows.start == 0)

    yield from consume(add, 0, len(traj))
    return RadiusSeries(traj.times, sigma, residual, valid=~np.isnan(sigma))


@one_pass
def majorant_track(traj: Trajectory, params: MajorantParams = MajorantParams()):
    """:func:`majorant_norm_argmax` of every snapshot, as two arrays, in one pass."""
    norm, argmax = np.empty(len(traj)), np.empty(len(traj), dtype=np.intp)

    def add(rows, spec, d):
        terms = _majorant_terms(_spectral_h1_ladder(traj.grid, spec, params.k_max), params.s)
        norm[rows], argmax[rows] = np.max(terms, axis=-1), np.argmax(terms, axis=-1)

    yield from consume(add, 0, len(traj))
    return norm, argmax
