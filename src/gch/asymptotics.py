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

Every time integral is one running trapezoid over the stored snapshots:
row i holds the integral over [0, t_i], so the whole amplitude series
costs one pass, and :func:`source_integral` lets a run build each source once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid import Field, derivative
from .integrate import Trajectory

__all__ = [
    "SourceVariant",
    "TailRatio",
    "LogRateFit",
    "AsymptoticProfile",
    "averaged_source",
    "source_integral",
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


def _source_values(u: Field, variant: SourceVariant) -> np.ndarray:
    ux = derivative(u, 1).values
    if variant is SourceVariant.MEAN:
        return 6.0 * u.values**2 + 2.0 * ux**2
    return (np.sqrt(2.0) * ux + np.sqrt(6.0) * u.values) ** 2


def _resolve_index(traj: Trajectory, t_index: int) -> int:
    """The snapshot index counted from the start; t = 0 has no time average."""
    if t_index < 0:
        t_index += len(traj)
    if t_index == 0:
        raise ValueError("profile undefined at t=0; use the initial-data formula")
    return t_index


def _running_integral(traj: Trajectory, stop: int, integrand) -> np.ndarray:
    """Row i is the trapezoid integral of integrand(u) over [0, t_i], for i < stop.

    Rows add up in ``np.trapezoid``'s order, so they equal its results bit for
    bit; the integral overwrites the integrand stack to keep memory at its level.
    """
    y = np.stack([integrand(u) for u in traj.snapshots[:stop]])
    steps = np.diff(traj.times[:stop])[:, None] * (y[1:] + y[:-1]) / 2.0
    y[0] = 0.0
    np.cumsum(steps, axis=0, out=y[1:])
    return y


def _time_average(traj: Trajectory, integral: np.ndarray, i: int, variant: SourceVariant) -> Field:
    """The source h at snapshot i from row i of its running integral."""
    if i + 1 < MIN_SNAPSHOTS:
        raise ValueError(
            f"need at least {MIN_SNAPSHOTS} snapshots up to the profile time, got {i + 1}"
        )
    mean = integral[i] / traj.times[i]
    return Field(traj.grid, mean if variant is SourceVariant.MEAN else np.sqrt(mean))


def averaged_source(traj: Trajectory, t_index: int, variant=SourceVariant.MEAN) -> Field:
    """Time-averaged source field h at the given snapshot index.

    MEAN takes the plain time average of 6u^2 + 2u_x^2; RMS takes the root
    mean square of sqrt2 u_x + sqrt6 u.  Time quadrature is the trapezoid
    rule over the stored snapshots, so the snapshot stride controls the
    quadrature error; h is one row of the running trapezoid.
    """
    variant = SourceVariant(variant)
    t_index = _resolve_index(traj, t_index)
    integral = _running_integral(traj, t_index + 1, lambda u: _source_values(u, variant))
    return _time_average(traj, integral, t_index, variant)


def source_integral(traj: Trajectory, variant=SourceVariant.MEAN) -> np.ndarray:
    """The source's running integral at every snapshot; row i is :func:`averaged_source`'s."""
    variant = SourceVariant(variant)
    return _running_integral(traj, len(traj), lambda u: _source_values(u, variant))


def _exp_moment(h: Field, sign: float) -> float:
    integrand = np.exp(sign * h.grid.x) * h.values
    return 0.5 * float(np.sum(integrand) * h.grid.dx)


def _check_boundary_decay(h: Field) -> None:
    x = h.grid.x
    right = abs(np.exp(x[-1]) * h.values[-1])
    left = abs(np.exp(-x[0]) * h.values[0])
    if max(left, right) > BOUNDARY_INTEGRAND_TOL:
        raise ValueError(
            "insufficient decay for profile integral: boundary integrand "
            f"{max(left, right):.3e} exceeds {BOUNDARY_INTEGRAND_TOL:g}"
        )


def tail_amplitudes(h: Field, psi_literal: bool = False):
    """Amplitudes (Amp_+, Amp_-) as exponential moments of the source.

    Amp_+ = 0.5 int e^{y} h dy and Amp_- = 0.5 int e^{-y} h dy by the
    rectangle rule; ``psi_literal`` makes the left amplitude use e^{+y} as
    well, collapsing it onto Amp_+.
    """
    _check_boundary_decay(h)
    amp_right = _exp_moment(h, +1.0)
    amp_left = amp_right if psi_literal else _exp_moment(h, -1.0)
    return amp_right, amp_left


def initial_tail_amplitudes(u0: Field, variant=SourceVariant.MEAN, psi_literal: bool = False):
    """Amplitudes at t=0 from the initial datum.

    MEAN: moments of the instantaneous source 6 u0^2 + 2 u0_x^2.  RMS: the
    square root of the moment of (sqrt2 u0_x + sqrt6 u0)^2, taken as
    written, i.e. sqrt of the integral rather than integral of the sqrt.
    """
    variant = SourceVariant(variant)
    plus, minus = tail_amplitudes(Field(u0.grid, _source_values(u0, variant)), psi_literal)
    if variant is SourceVariant.RMS:
        # 0.5 [int e^{y} q^2]^{1/2}: the moment above already carries the 0.5
        return float(np.sqrt(2.0 * plus) / 2.0), float(np.sqrt(2.0 * minus) / 2.0)
    return plus, minus


def amplitude_series(
    traj: Trajectory, variant=SourceVariant.MEAN, psi_literal: bool = False, integral=None
):
    """Amplitudes at every admissible snapshot time, in one pass; returns (times, amp+, amp-).

    ``integral`` is the variant's :func:`source_integral`, built here if not given.
    """
    variant = SourceVariant(variant)
    integral = source_integral(traj, variant) if integral is None else integral
    amps = np.array([
        tail_amplitudes(_time_average(traj, integral, i, variant), psi_literal)
        for i in range(MIN_SNAPSHOTS - 1, len(traj))
    ]).reshape(-1, 2)
    return traj.times[MIN_SNAPSHOTS - 1 :].copy(), *amps.T


@dataclass
class TailRatio:
    """Windowed tail-ratio series and its summary against the amplitude.

    ``rel_deviation`` compares |median| with the amplitude moment;
    ``orientation`` records the measured sign of the ratio.  The flow sheds
    its exponential tails with the opposite orientation to the one the
    amplitude formula's sign would suggest (see
    :func:`emitted_tail_amplitudes` for the exact emitted coefficients),
    while the magnitudes agree up to the u_x^2 weighting.
    """

    xs: np.ndarray
    ratios: np.ndarray
    median: float
    amplitude: float
    rel_deviation: float
    orientation: int


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
    h = averaged_source(traj, t_index, variant)
    return _tail_ratio(traj, t_index, window, side, h)


def _tail_ratio(traj, t_index, window, side, h) -> TailRatio:
    """:func:`tail_ratio` against the amplitudes of a source h already built."""
    x_lo, x_hi = float(window[0]), float(window[1])
    L = traj.grid.half_width
    if not (0.2 * L < x_lo < x_hi < 0.8 * L):
        raise ValueError(f"window [{x_lo}, {x_hi}] must sit inside (0.2 L, 0.8 L)")
    t = traj.times[t_index]
    du = traj.snapshots[t_index].values - traj.u0.values
    x = traj.grid.x
    if side == "right":
        mask = (x >= x_lo) & (x <= x_hi)
        factor = np.exp(x[mask])
        sign = 1.0
    elif side == "left":
        mask = (x >= -x_hi) & (x <= -x_lo)
        factor = np.exp(-x[mask])
        sign = -1.0
    else:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    du_w = du[mask]
    if np.max(np.abs(du_w)) < TAIL_SIGNAL_FLOOR:
        raise ValueError("tail signal below floor")
    ratios = sign * factor * du_w / t

    amp_right, amp_left = tail_amplitudes(h)
    amp = amp_right if side == "right" else amp_left
    median = float(np.median(ratios))
    rel = abs(abs(median) - amp) / abs(amp) if amp != 0.0 else np.inf
    return TailRatio(
        xs=x[mask], ratios=ratios, median=median, amplitude=amp,
        rel_deviation=rel, orientation=int(np.sign(median)),
    )


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
    t_index = _resolve_index(traj, t_index)
    t = traj.times[t_index]
    avg_u2 = _running_integral(traj, t_index + 1, lambda s: s.values**2)[-1] / t
    avg_ux2 = _running_integral(traj, t_index + 1, lambda s: derivative(s, 1).values ** 2)[-1] / t
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


def fit_log_slope(xs, tails, d: float) -> LogRateFit:
    """Fit log(tail integral) against log log(1 + x).

    For a source saturating the borderline decay hypothesis with exponent
    d > 1/2 the predicted slope is 1 - 2d.  Points where the tail integral
    has underflowed (or vanished) are dropped and the window shrunk
    accordingly; fewer than four usable points makes the fit degenerate.
    """
    if d <= 0.5:
        raise ValueError(f"log exponent d must exceed 1/2, got {d}")
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


def log_remainder_rate(traj: Trajectory, t_index: int, d: float, window) -> LogRateFit:
    """Fit the tail-integral log rate of the averaged source over a window."""
    return _log_remainder_rate(averaged_source(traj, t_index, SourceVariant.MEAN), d, window)


def _log_remainder_rate(h: Field, d: float, window) -> LogRateFit:
    """:func:`log_remainder_rate` on a MEAN source h already built."""
    x = h.grid.x
    x_lo, x_hi = float(window[0]), float(window[1])
    mask = (x >= x_lo) & (x <= x_hi)
    xs = x[mask]
    weighted = np.exp(x) * h.values
    # reverse cumulative rectangle sums: int_{x_j}^{L} e^{y} h dy
    tail_all = np.cumsum(weighted[::-1])[::-1] * h.grid.dx
    return fit_log_slope(xs, tail_all[mask], d)


@dataclass
class AsymptoticProfile:
    """Bundle of tail diagnostics at one time."""

    t: float
    h: Field
    amp_right: float
    amp_left: float
    window: tuple
    ratio_right: TailRatio
    ratio_left: TailRatio
    d: float
    variant: SourceVariant
    log_fit: LogRateFit


def extract_profile(
    traj: Trajectory,
    t_index: int,
    window,
    d: float = 1.0,
    variant=SourceVariant.MEAN,
    psi_literal: bool = False,
    integral=None,
) -> AsymptoticProfile:
    """Assemble source, amplitudes, both tail ratios, and the log-rate fit (always on MEAN).

    ``integral`` is the variant's :func:`source_integral`, built here up to t_index if not given.
    """
    variant = SourceVariant(variant)
    if integral is None:
        h = averaged_source(traj, t_index, variant)
    else:
        h = _time_average(traj, integral, _resolve_index(traj, t_index), variant)
    amp_right, amp_left = tail_amplitudes(h, psi_literal)
    return AsymptoticProfile(
        t=float(traj.times[t_index]),
        h=h,
        amp_right=amp_right,
        amp_left=amp_left,
        window=(float(window[0]), float(window[1])),
        ratio_right=_tail_ratio(traj, t_index, window, "right", h),
        ratio_left=_tail_ratio(traj, t_index, window, "left", h),
        d=d,
        variant=variant,
        log_fit=_log_remainder_rate(
            h if variant is SourceVariant.MEAN else averaged_source(traj, t_index), d, window
        ),
    )
