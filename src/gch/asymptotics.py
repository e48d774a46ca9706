"""Spatial tail profiles: averaged source, tail amplitudes, and log-rate fits.

Integrating the nonlocal form of the equation in time shows that the
solution develops exponential tails of size

    |u(x, t) - u0(x)| ~ e^{-|x|} t Amp(t)   as |x| -> inf,

where the amplitudes are exponential moments of a time-averaged source h.
Two source variants are supported:

* MEAN: h = (1/t) int_0^t (6 u^2 + 2 u_x^2) ds
* RMS:  h = (1/sqrt(t)) [int_0^t (sqrt2 u_x + sqrt6 u)^2 ds]^{1/2}

The right amplitude is Amp_+ = 0.5 int e^{y} h dy.  For the left amplitude
this module uses 0.5 int e^{-y} h dy, which is what the left-tail expansion
and the bracketing argument require; ``psi_literal=True`` reproduces the
e^{+y} moment instead for comparison.  The sign with which the tails are
shed, and their exact leading coefficients (whose u_x^2 weighting differs
from the headline moments), are in :func:`emitted_tail_amplitudes`.

Every time integral is one running trapezoid over the stored snapshots, a
consumer of a row pass (:mod:`gch.rowpass`): it takes the integral over
[0, t_i] for each i in turn and holds one n-length accumulator, never a
``rows x n`` block.  Each public function is one such pass.  A profile's
consumer reads the rows up to its own time and gives its source, its
amplitude pair and the amplitude series up to it, so a run reads the series
from the profile it measured, in the pass the other diagnostics share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid import Field, derivative
from .integrate import Trajectory
from .rowpass import consume, one_pass, run_pass, together

__all__ = [
    "SourceVariant",
    "TailRatio",
    "LogRateFit",
    "AsymptoticProfile",
    "averaged_source",
    "tail_amplitudes",
    "initial_tail_amplitudes",
    "amplitude_series",
    "tail_ratio",
    "emitted_tail_amplitudes",
    "dominated_convergence_series",
    "fit_log_slope",
    "log_remainder_rate",
    "extract_profile",
]

#: Minimum number of stored snapshots up to the profile time.
MIN_SNAPSHOTS = 8
#: Profile integrals require the boundary integrand below this.
BOUNDARY_INTEGRAND_TOL = 1e-10
#: Tail-ratio extraction requires the signal above this floor.
TAIL_SIGNAL_FLOOR = 1e-14


class SourceVariant(enum.Enum):
    """MEAN (``thm41``) or RMS (``thm43``) time-averaged source.

    RMS decays only like |u|, so every RMS profile of a simulated run is degenerate:
    e^{L} h(+-L) stays far above BOUNDARY_INTEGRAND_TOL (1.1e2 at L = 40, where
    h(+-L) is at roundoff, ~1e-16, and 3.3e-3 at L = 30).
    """

    MEAN = "mean"
    RMS = "rms"


def _source_values(u: np.ndarray, ux: np.ndarray, variant: SourceVariant) -> np.ndarray:
    if variant is SourceVariant.MEAN:
        out = 6.0 * u**2
        out += 2.0 * ux**2  # in place: a block-sized temporary fewer at the pass's peak
        return out
    return (np.sqrt(2.0) * ux + np.sqrt(6.0) * u) ** 2


def _resolve_index(traj: Trajectory, t_index: int, need: int = MIN_SNAPSHOTS) -> int:
    """The snapshot index counted from the start, with ``need`` snapshots up to it.

    t = 0 has no time average.
    """
    if t_index < 0:
        t_index += len(traj)
    if t_index == 0:
        raise ValueError("profile undefined at t=0; use the initial-data formula")
    if t_index + 1 < need:
        raise ValueError(
            f"need at least {need} snapshots up to the profile time, got {t_index + 1}"
        )
    return t_index


def _running(traj: Trajectory, stop: int, integrand, each=None):
    """A row-pass consumer of the trapezoid integral of ``integrand(u, u_x)`` over [0, t_i].

    One accumulator is updated in place and passed to ``each(i, total, rows)``, ``rows`` the
    range read of i's block, for each i < stop in turn, so a caller that keeps a row copies it;
    the last is the result.  Steps, formed in the spent previous row, add up in ``np.cumsum``'s
    order, so each row equals ``np.trapezoid``'s result bit for bit.
    """
    times, total, previous = traj.times, None, None

    def add(rows, spec, d):
        nonlocal total, previous
        if rows.start >= stop:
            return
        block = integrand(d[0][: stop - rows.start], d[1][: stop - rows.start])
        read = range(rows.start, rows.start + len(block))
        for i, y in enumerate(block, rows.start):
            if total is None:
                total = np.zeros_like(y)
            else:  # (times[i] - times[i - 1]) * (y + previous) / 2.0
                previous += y
                previous *= times[i] - times[i - 1]
                previous /= 2.0
                total += previous
            previous = y
            if each is not None:
                each(i, total, read)
        # a copy of the last row, not a view, so the block is freed when the pass moves on
        previous = previous.copy()

    yield from consume(add, 1, stop)
    return total


def _source(total, t: float, variant: SourceVariant) -> np.ndarray:
    """The source h from the integral ``total`` of its integrand over [0, t]."""
    mean = total / t
    return mean if variant is SourceVariant.MEAN else np.sqrt(mean)


def _amplitudes(traj: Trajectory, stop: int, variant: SourceVariant, psi_literal: bool):
    """A row-pass consumer of the source h at each admissible snapshot i < stop; it returns
    (Amp_+, Amp_-) of each such row as a ``2 x rows`` array, and the last row (or None)."""
    amps, last, held = [], [None], [None, None]  # e^{+-x}, held across a block of rows

    def each(i, total, rows):
        if i == rows[0] and len(rows) > 1 and rows[-1] >= MIN_SNAPSHOTS - 1:
            held[:] = np.exp(traj.grid.x), np.exp(-traj.grid.x)
        if i >= MIN_SNAPSHOTS - 1:
            last[0] = _source(total, traj.times[i], variant)
            amps.append(_amplitude_pair(traj.grid, last[0], psi_literal, held))
        if i == rows[-1]:  # dropped before the next block's integrand is formed
            held[:] = None, None

    yield from _running(traj, stop, lambda u, ux: _source_values(u, ux, variant), each)
    return np.array(amps, dtype=float).reshape(-1, 2).T, last[0]


def averaged_source(traj: Trajectory, t_index: int, variant=SourceVariant.MEAN) -> Field:
    """Time-averaged source field h at the given snapshot index.

    MEAN takes the plain time average of 6u^2 + 2u_x^2; RMS takes the root
    mean square of sqrt2 u_x + sqrt6 u.  Time quadrature is the trapezoid
    rule over the stored snapshots, so the snapshot stride controls the
    quadrature error; h is the last row of one running trapezoid pass.
    """
    variant = SourceVariant(variant)
    i = _resolve_index(traj, t_index)
    total = run_pass(traj, _running(traj, i + 1, lambda u, ux: _source_values(u, ux, variant)))
    return Field(traj.grid, _source(total, traj.times[i], variant))


def _amplitude_pair(grid, h: np.ndarray, psi_literal: bool = False, held=(None, None)):
    """(Amp_+, Amp_-) of the source row ``h``, checked for finite samples and boundary decay.

    e^{+-x} are ``held`` by a caller that keeps them across a row block; a None is taken
    with the row.  Both kept across a whole pass once cost history ~2 MB of peak RSS, and
    across long's one-row blocks (n = 16384) 0.14 MB of tracemalloc peak: one row takes both.
    """
    if not np.all(np.isfinite(h)):
        raise ValueError("source contains non-finite samples")
    x, dx = grid.x, grid.dx
    edge = max(abs(np.exp(-x[0]) * h[0]), abs(np.exp(x[-1]) * h[-1]))
    if edge > BOUNDARY_INTEGRAND_TOL:
        raise ValueError(
            "insufficient decay for profile integral: boundary integrand "
            f"{edge:.3e} exceeds {BOUNDARY_INTEGRAND_TOL:g}"
        )
    plus, minus = held
    right = 0.5 * float(np.sum((np.exp(x) if plus is None else plus) * h) * dx)
    if psi_literal:
        return right, right
    return right, 0.5 * float(np.sum((np.exp(-x) if minus is None else minus) * h) * dx)


def tail_amplitudes(h: Field, psi_literal: bool = False):
    """Amplitudes (Amp_+, Amp_-) as exponential moments of the source.

    Amp_+ = 0.5 int e^{y} h dy and Amp_- = 0.5 int e^{-y} h dy by the
    rectangle rule; ``psi_literal`` makes the left amplitude use e^{+y} as
    well, collapsing it onto Amp_+.
    """
    return _amplitude_pair(h.grid, h.values, psi_literal)


def initial_tail_amplitudes(u0: Field, variant=SourceVariant.MEAN, psi_literal: bool = False):
    """Amplitudes at t=0 from the initial datum.

    MEAN: moments of the instantaneous source 6 u0^2 + 2 u0_x^2.  RMS: the
    square root of the moment of (sqrt2 u0_x + sqrt6 u0)^2, taken as
    written, i.e. sqrt of the integral rather than integral of the sqrt.
    """
    variant = SourceVariant(variant)
    source = _source_values(u0.values, derivative(u0, 1).values, variant)
    plus, minus = tail_amplitudes(Field(u0.grid, source), psi_literal)
    if variant is SourceVariant.RMS:
        # 0.5 [int e^{y} q^2]^{1/2}: the moment above already carries the 0.5
        return float(np.sqrt(2.0 * plus) / 2.0), float(np.sqrt(2.0 * minus) / 2.0)
    return plus, minus


def amplitude_series(traj: Trajectory, variant=SourceVariant.MEAN, psi_literal: bool = False):
    """Amplitudes at every admissible snapshot time, in one pass; returns (times, amp+, amp-)."""
    amps, _ = run_pass(traj, _amplitudes(traj, len(traj), SourceVariant(variant), psi_literal))
    return traj.times[MIN_SNAPSHOTS - 1 :].copy(), *amps


@dataclass
class TailRatio:
    """Windowed tail-ratio series and its summary against the amplitude.

    ``rel_deviation`` compares |median| with the amplitude moment, and the
    sign of ``median`` is the measured orientation.  The flow sheds its
    exponential tails with the opposite orientation to the one the
    amplitude formula's sign would suggest (see
    :func:`emitted_tail_amplitudes` for the exact emitted coefficients),
    while the magnitudes agree up to the u_x^2 weighting.
    """

    xs: np.ndarray
    ratios: np.ndarray
    median: float
    amplitude: float
    rel_deviation: float


def tail_ratio(
    traj: Trajectory,
    t_index: int,
    window,
    side: str = "right",
    variant=SourceVariant.MEAN,
) -> TailRatio:
    """Ratio e^{x} (u(x,t) - u0(x)) / t over the window, against Amp_+.

    For the left tail the mirrored ratio -e^{-x} (u - u0)/t is compared to
    Amp_-.  The window must sit inside (0.2 L, 0.8 L); a signal below the
    floor raises, since the ratio would be pure roundoff.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    amp_right, amp_left = tail_amplitudes(averaged_source(traj, t_index, variant))
    sign, amp = (1.0, amp_right) if side == "right" else (-1.0, amp_left)
    return _tail_ratio(traj, t_index, window, sign, amp)


def _window_mask(x, window, sign: float):
    """Whether each node x (an array, or one node) of the side ``sign`` (+1 right, -1 left)
    has ``sign * x`` in the window."""
    lo, hi = sorted((sign * window[0], sign * window[1]))
    return (x >= lo) & (x <= hi)  # compares x itself: no temporary copy of sign * x


def _tail_ratio(traj, t_index, window, sign, amp) -> TailRatio:
    """:func:`tail_ratio` on the side ``sign`` (+1 right, -1 left), against its amplitude amp."""
    x_lo, x_hi = float(window[0]), float(window[1])
    L = traj.grid.half_width
    if not (0.2 * L < x_lo < x_hi < 0.8 * L):
        raise ValueError(f"window [{x_lo}, {x_hi}] must sit inside (0.2 L, 0.8 L)")
    x = traj.grid.x
    mask = _window_mask(x, (x_lo, x_hi), sign)
    if not np.any(mask):
        raise ValueError(f"window [{x_lo}, {x_hi}] holds no grid node (dx = {traj.grid.dx:g})")
    t = traj.times[t_index]
    du = traj.values[t_index] - traj.values[0]
    du_w = du[mask]
    if np.max(np.abs(du_w)) < TAIL_SIGNAL_FLOOR:
        raise ValueError("tail signal below floor")
    ratios = sign * np.exp(sign * x[mask]) * du_w / t

    median = float(np.median(ratios))
    rel = abs(abs(median) - amp) / abs(amp) if amp != 0.0 else np.inf
    return TailRatio(xs=x[mask], ratios=ratios, median=median, amplitude=amp, rel_deviation=rel)


def emitted_tail_amplitudes(traj: Trajectory, t_index: int) -> tuple[float, float]:
    """Exact leading coefficients of the tails the flow actually sheds.

    Integrating the nonlocal form in time and expanding the kernel
    convolutions gives, for decaying data,

        u - u0 -> -e^{-x} t [ 0.5 int e^{+y} avg(6u^2 + u_x^2) dy ]   (x -> +inf)
        u - u0 -> +e^{+x} t [ 0.5 int e^{-y} avg(6u^2 + 3u_x^2) dy ]  (x -> -inf)

    where avg is the trapezoid time average over [0, t].  The u_x^2
    weighting differs from the 6u^2 + 2u_x^2 moment because the local
    -u_x^2 term and the separate kernel convolution of u_x^2 contribute at
    the same exponential order.  Returns (right_coefficient,
    left_coefficient) as the signed coefficients of e^{-x} t and e^{+x} t.
    """
    t_index = _resolve_index(traj, t_index, need=1)
    squares = _running(traj, t_index + 1, lambda u, ux: np.stack((u**2, ux**2), 1))
    avg_u2, avg_ux2 = run_pass(traj, squares) / traj.times[t_index]
    dx = traj.grid.dx
    ex = np.exp(traj.grid.x)
    right = -0.5 * float(np.sum(ex * (6.0 * avg_u2 + avg_ux2)) * dx)
    left = 0.5 * float(np.sum((6.0 * avg_u2 + 3.0 * avg_ux2) / ex) * dx)
    return right, left


def dominated_convergence_series(h: Field, xs) -> tuple[np.ndarray, np.ndarray]:
    """Bracketing integrals for the right tail at each x in xs.

    Returns (lhs, rhs) with lhs(x) = int_x^L (e^{y} + e^{2x-y}) h dy and
    rhs(x) = 2 int_x^L e^{y} h dy; the bracketing inequality 0 <= lhs <= rhs
    holds pointwise for nonnegative h, and both vanish as x grows.
    """
    xs = np.asarray(xs, dtype=float)
    x_grid = h.grid.x
    dx = h.grid.dx
    lhs = np.empty_like(xs)
    rhs = np.empty_like(xs)
    for i, x0 in enumerate(xs):
        mask = x_grid >= x0
        y = x_grid[mask]
        hv = h.values[mask]
        lhs[i] = float(np.sum((np.exp(y) + np.exp(2.0 * x0 - y)) * hv) * dx)
        rhs[i] = 2.0 * float(np.sum(np.exp(y) * hv) * dx)
    return lhs, rhs


@dataclass
class LogRateFit:
    """Least-squares exponent of the tail integral against log log(1+x)."""

    slope: float
    window_used: tuple
    n_points: int
    degenerate: bool = False
    reason: str | None = None


def fit_log_slope(xs, tails) -> LogRateFit:
    """Fit log(tail integral) against log log(1 + x).

    For a source saturating the borderline decay hypothesis with exponent
    d > 1/2 the predicted slope is 1 - 2d.  Points where the tail integral
    has underflowed (or vanished) are dropped and the window shrunk
    accordingly; fewer than four usable points makes the fit degenerate.
    """
    xs = np.asarray(xs, dtype=float)
    tails = np.asarray(tails, dtype=float)
    floor = np.max(tails) * 1e-13 if np.any(tails > 0.0) else 0.0
    keep = tails > max(floor, 0.0)
    if np.count_nonzero(keep) < 4:
        return LogRateFit(
            slope=np.nan, window_used=(np.nan, np.nan), n_points=int(np.count_nonzero(keep)),
            degenerate=True, reason="degenerate: zero tail",
        )
    xs_k, tails_k = xs[keep], tails[keep]
    t_ax = np.log(np.log1p(xs_k))
    slope, _ = np.polyfit(t_ax, np.log(tails_k), 1)
    return LogRateFit(
        slope=float(slope),
        window_used=(float(xs_k[0]), float(xs_k[-1])),
        n_points=int(xs_k.size),
    )


def log_remainder_rate(traj: Trajectory, t_index: int, window) -> LogRateFit:
    """Fit the tail-integral log rate of the averaged source over a window."""
    return _log_remainder_rate(averaged_source(traj, t_index, SourceVariant.MEAN), window)


def _log_remainder_rate(h: Field, window) -> LogRateFit:
    """:func:`log_remainder_rate` on a MEAN source h already built."""
    x = h.grid.x
    x_lo, x_hi = float(window[0]), float(window[1])
    mask = (x >= x_lo) & (x <= x_hi)
    xs = x[mask]
    weighted = np.exp(x) * h.values
    # reverse cumulative rectangle sums: int_{x_j}^{L} e^{y} h dy
    tail_all = np.cumsum(weighted[::-1])[::-1] * h.grid.dx
    return fit_log_slope(xs, tail_all[mask])


@dataclass
class AsymptoticProfile:
    """Bundle of tail diagnostics at one time.

    ``series`` is :func:`amplitude_series`'s (times, amp+, amp-) over the admissible
    snapshots up to ``t``; its last entry is (t, amp_right, amp_left).
    """

    t: float
    h: Field
    amp_right: float
    amp_left: float
    window: tuple
    ratio_right: TailRatio
    ratio_left: TailRatio
    variant: SourceVariant
    log_fit: LogRateFit
    series: tuple


@one_pass
def extract_profile(
    traj: Trajectory,
    t_index: int,
    window,
    variant=SourceVariant.MEAN,
    psi_literal: bool = False,
) -> AsymptoticProfile:
    """Assemble source, amplitudes, both tail ratios, and the log-rate fit (always on MEAN).

    One running pass up to t_index gives the amplitude series, whose last row is the
    source h and whose last pair is the profile's; for RMS, a second running integral
    in the same pass gives the MEAN source of the fit.
    """
    variant = SourceVariant(variant)
    i = _resolve_index(traj, t_index)
    amplitudes = _amplitudes(traj, i + 1, variant, psi_literal)
    if variant is SourceVariant.MEAN:
        amps, h = yield from amplitudes
        mean = h
    else:
        mean_sum = _running(traj, i + 1, lambda u, ux: _source_values(u, ux, SourceVariant.MEAN))
        (amps, h), total = yield from together(amplitudes, mean_sum)
        mean = _source(total, traj.times[i], SourceVariant.MEAN)
    amp_right, amp_left = map(float, amps[:, -1])
    return AsymptoticProfile(
        t=float(traj.times[t_index]),
        h=Field(traj.grid, h),
        amp_right=amp_right,
        amp_left=amp_left,
        window=(float(window[0]), float(window[1])),
        ratio_right=_tail_ratio(traj, t_index, window, 1.0, amp_right),
        ratio_left=_tail_ratio(traj, t_index, window, -1.0, amp_left),
        variant=variant,
        log_fit=_log_remainder_rate(Field(traj.grid, mean), window),
        series=(traj.times[MIN_SNAPSHOTS - 1 : i + 1].copy(), *amps),
    )
