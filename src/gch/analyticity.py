"""Analyticity indicators: majorant norms, operator bounds, radius tracking.

The majorant norm with geometric scale s,

    |||f|||_s = sup_k  s^k (k+1)^2 ||d^k f||_{H^1} / k!,

is finite exactly on fields whose derivatives grow no faster than k!/s^k,
i.e. fields analytic in a strip of width ~s.  Any computation truncates the
sup at order K, so computed values are lower bounds of the true norm and
all inequalities are checked in their truncated form.

The spatial analyticity radius itself is estimated from the Fourier side:
coefficients of a strip-analytic field decay like exp(-sigma |k|), so the
least-squares slope of -log|c_k| against |k| over the resolved band tracks
the strip half-width sigma along a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field
from .helmholtz import p2_apply
from .integrate import Trajectory

__all__ = [
    "MajorantParams",
    "RadiusFit",
    "RadiusSeries",
    "OperatorBoundReport",
    "majorant_norm",
    "majorant_norm_argmax",
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


def _h1_ladder(f: Field, k_top: int) -> np.ndarray:
    """||d^k f||_{H^1} for k = 0..k_top, via Parseval on the one-sided spectrum.

    The Nyquist mode is dropped from every derivative, matching repeated
    application of the odd-order spectral derivative, so at k = 0 it keeps
    only its L^2 part, as in :func:`gch.grid.h1_norm`.  Modes below
    the relative noise floor are excluded: k-fold differentiation scales
    roundoff by k_max^k, which would otherwise swamp the genuine terms of
    an analytic field from k ~ 15 on and defeat truncation-convergence
    checks.
    """
    grid = f.grid
    c = grid.rfft(f.values) / grid.n
    amp = np.abs(c)
    peak = float(np.max(amp))
    if peak > 0.0:
        c = np.where(amp > SPECTRUM_FLOOR * peak, c, 0.0)
    power = np.abs(c) ** 2 * grid.h1_weight * (2.0 * grid.half_width)
    out = np.empty(k_top + 1)
    out[0] = np.sqrt(np.sum(power))
    power_k = grid.drop_nyquist(power.copy())
    for k in range(1, k_top + 1):
        power_k = power_k * grid.k2
        out[k] = np.sqrt(np.sum(power_k))
    return out


def _majorant_terms(ladder: np.ndarray, s: float) -> np.ndarray:
    ks = np.arange(ladder.size)
    factorials = np.array([math.factorial(k) for k in ks], dtype=float)
    terms = s**ks * (ks + 1.0) ** 2 * ladder / factorials
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


def operator_bound_report(f: Field, s: float, s_prime: float) -> OperatorBoundReport:
    """Check the scale-of-spaces operator bounds on a concrete field.

    Measures both sides of ||d_x f||_{s'} <= ||f||_s/(s-s') and
    ||P2 f||_s <= ||f||_s at the default truncation K, plus the algebra
    constant C = |||f^2|||_s / |||f|||_s^2 at K and 2K (capped at 30) to
    confirm the truncation has converged.
    """
    if not (0.0 < s_prime < s <= 1.0):
        raise ValueError(f"need 0 < s' < s <= 1, got s'={s_prime}, s={s}")
    k_top = MajorantParams().k_max
    ladder = _h1_ladder(f, k_top + 1)

    shift_lhs = float(np.max(_majorant_terms(ladder[1:], s_prime)))
    norm_s = float(np.max(_majorant_terms(ladder[:-1], s)))
    shift_rhs = norm_s / (s - s_prime)

    smooth_lhs = majorant_norm(p2_apply(f), MajorantParams(s, k_top))
    smooth_rhs = norm_s

    f2 = Field(f.grid, f.values**2)
    denom = norm_s**2
    c_alg = majorant_norm(f2, MajorantParams(s, k_top)) / denom if denom else 0.0
    k_double = min(2 * k_top, 30)
    norm_s_dbl = majorant_norm(f, MajorantParams(s, k_double))
    c_alg_dbl = (
        majorant_norm(f2, MajorantParams(s, k_double)) / norm_s_dbl**2
        if norm_s_dbl
        else 0.0
    )

    return OperatorBoundReport(
        shift_lhs=shift_lhs,
        shift_rhs=shift_rhs,
        smooth_lhs=smooth_lhs,
        smooth_rhs=smooth_rhs,
        c_algebra=c_alg,
        c_algebra_doubled=c_alg_dbl,
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
    grid = f.grid
    c = np.abs(grid.rfft(f.values)) / grid.n
    usable = c > SPECTRUM_FLOOR
    usable[:SKIP_MODES] = False

    best_start, best_len = 0, 0
    run_start = None
    for i, ok in enumerate(np.append(usable, False)):
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            if i - run_start > best_len:
                best_start, best_len = run_start, i - run_start
            run_start = None
    if best_len < 10:
        raise ValueError(
            f"spectrum too narrow: only {best_len} usable modes above the floor"
        )

    band = slice(best_start, best_start + best_len)
    ks = grid.k_rfft[band]
    y = -np.log(c[band])
    slope, intercept = np.polyfit(ks, y, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    residual = ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return RadiusFit(
        sigma=float(slope),
        residual=residual,
        super_exponential=residual > RESIDUAL_FLAG,
    )


@dataclass
class RadiusSeries:
    """Analyticity-radius estimates along a trajectory."""

    times: np.ndarray
    sigma: np.ndarray
    residual: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def radius_track(traj: Trajectory) -> RadiusSeries:
    """Radius estimate per snapshot; failures invalidate single entries.

    The initial snapshot must admit an estimate (analytic initial data);
    later failures are recorded as invalid entries rather than aborting the
    series.
    """
    n = len(traj)
    sigma = np.full(n, np.nan)
    residual = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    for i, u in enumerate(traj.snapshots):
        try:
            fit = radius_estimate(u)
        except ValueError:
            if i == 0:
                raise  # analytic initial data required
            continue
        sigma[i] = fit.sigma
        residual[i] = fit.residual
        valid[i] = True
    return RadiusSeries(times=traj.times, sigma=sigma, residual=residual, valid=valid)
