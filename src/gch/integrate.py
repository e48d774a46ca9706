"""Deterministic explicit time stepping with snapshot recording.

By default every step sums the flow's own Taylor series in time, only T is
landed on, and snapshots run on a fixed clock of :func:`estimate_dt` units; an
explicit ``dt`` steps classical four-stage Runge-Kutta instead and keeps every
``snapshot_stride``-th step's end and T.  No choice depends on anything but
the inputs, so reruns are bit-identical.

:func:`simulate` keeps the state in Fourier space, as the rfft ``uh`` of
u, and writes the right side in the primitive form

    u_t = post * rfft(w**2),    w = irfft(pre * uh),
    pre = keep * (2 - ik),    post = keep * (2ik + (ik)^2) / (1 + k^2),

with the multipliers taken from the ``Grid`` operator table once per compute grid.
The operand (2 - d_x)u is truncated by ``pre`` and the square by ``post``,
which with a truncated operand is the exact 2/3 rule (Orszag 1971), so every
form of :mod:`gch.dynamics` defines the same semi-discretisation and the
cheapest one drives the integrator.

The right side is quadratic in u and has no linear part, so the Taylor
coefficients ``a_j`` of ``u(t + tau) = sum_j a_j tau^j`` follow from ``a_0 = uh``
by Cauchy products, ``(j + 1) a_{j+1} = post * rfft(sum_{i <= j} w_i w_{j-i})``
with ``w_j = irfft(pre * a_j)``, at one FFT pair per order: the classical
Taylor-series method (Corliss & Chang, ACM TOMS 8:114, 1982; Jorba & Zou,
Experiment. Math. 14:99, 2005), which the paper's analyticity in t makes
converge.  A default step sums ``K = 16`` orders over ``rho BAND_FLOOR^(1/K)``,
``rho`` the series' radius read off orders K/2 and K, so the first term left
out is about ``BAND_FLOOR`` of the state; each snapshot inside it is the same
sum at its own time, taken from the coefficients with no FFT.  On the
long-horizon pulse (0.05 sech^2, n = 16384, L = 40, T = 1) this takes 6 steps
where RK4 under an error estimate took 67, and its final state is within
1.5e-14 of max|u0| of an RK4 run at T/4000 (the RK4 default's was 9.6e-11).
The physical-space :func:`rk4_step` with :func:`gch.dynamics.rhs` stays as the
reference path; an explicit step writes the same update in place, bit for bit.

Both steppers work on a compute grid ``Grid(m, L)``, the smallest size
``16 <= m <= n`` on the ladder ``2^a, 3 2^a, 5 2^a`` (``GRID_SIZES``)
whose 2/3 band holds the spectrum: every coefficient at or above mode
``3m/10``, the top tenth of the kept band, is at most
``BAND_FLOOR * max|uh|``.  An analytic solution's coefficients decay like
``exp(-sigma |k|)``, so the modes a step needs are set by the analyticity
radius, not by ``n`` (Sulem, Sulem & Frisch, J. Comput. Phys. 50:138,
1983, read the radius off the same edge); above the edge sits the
roundoff plateau.  On the long-horizon pulse this rule steps at
m = 1280-3072, and its snapshots stay within 3.8e-15 of max|u0| of those of
a run held on the full grid.  The rule is checked at every step end and ``m`` only grows; the
modes above the band are carried unchanged, so their largest magnitude
and H^1 share are read once per ``m`` and each check reads only the band.
The state stays the rfft on ``n``: only its first ``m/2 + 1`` modes are
stepped, and every snapshot is taken on ``n``.  At a step end that is no
snapshot the blow-up guard reads the Wiener bound ``2 sum|uh[band]| / n``,
which no sample on the compute grid exceeds, and takes the compute grid's
irfft only when that bound passes half the guard, so it fires where one
that read every step's samples would.
"""

from __future__ import annotations

import bisect
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

# rhs is not called here; perfbench's tracer wraps gch.integrate.rhs, so it stays importable
from .dynamics import rhs  # noqa: F401
from .errors import BlowUpError, ConfigError
from .grid import GRID_SIZES, Field, Grid, lp_norm, derivative

__all__ = [
    "Trajectory",
    "rk4_step",
    "estimate_dt",
    "simulate",
    "spectral_rhs",
    "write_checkpoint",
    "read_checkpoint",
    "write_snapshots",
    "read_snapshots",
    "BOUNDARY_TOLERANCE",
]

#: The cap on :func:`estimate_dt`, the default snapshot clock's unit; it caps no step.
DT_MAX = 1e-2
#: The order of the Taylor series in t that a default step sums (see :func:`simulate`): a
#: power of two, so the step's K-th root commutes with power-of-two scaling of the data.
K = 16
#: A default step below STEP_FLOOR * T ends the run with a FloatingPointError: a
#: series whose radius collapses cannot spin.
STEP_FLOOR = 1e-12
BLOWUP_FACTOR = 1e3
#: A run is marked valid only while max(|u(-L)|, |u(L-dx)|) stays below this.
BOUNDARY_TOLERANCE = 1e-8
#: Relative size below which a coefficient counts as outside the spectrum
#: when the compute grid is chosen: well above the ~1e-17 roundoff plateau
#: of the rfft and well below the 1e-13 that ``radius_estimate`` reads.
BAND_FLOOR = 1e-15
#: Spectrum bytes per row block of a diagnostic pass (:mod:`gch.rowpass`).  Against per-snapshot
#: work, a history run's (n = 4096, 104 rows) peak RSS rose 2.3 MB with rows x n temporaries
#: and fell 0.7 MB in blocks; the one pass holds one block's spectrum, u_x and u_xx at a time.
ROW_BLOCK_BYTES = 2**18
#: The most bytes the rows x n snapshot block of :func:`simulate` may take.
SNAPSHOT_BYTES = 2**30
#: The most steps a run may take: an explicit ``dt`` that asks for more, ``T / dt``, is
#: refused before the first stage (at the 75 us an RK4 step takes at n = 16 on a 2-core
#: x86_64 host, about 80 s of stepping), and a default run that has kept this many
#: steps short of T ends with a FloatingPointError.
MAX_STEPS = 2**20


@dataclass(frozen=True)
class Trajectory:
    """Snapshots as one read-only ``rows x n`` block, plus run metadata.

    From :func:`simulate`: ``n_steps`` counts the steps kept.  By default
    ``dt_initial`` and ``dt_final`` are the series' steps ``rho
    BAND_FLOOR^(1/K)`` at the first and the last step, before any cut to land
    on T or to keep the band, and ``n_rejected`` counts the steps cut short
    where the compute grid's band stopped holding the spectrum; with an
    explicit ``dt`` both steps are ``dt`` and no step is cut.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    # run metadata from simulate; wrapped or read-back trajectories have none
    dt_initial: float = np.nan
    dt_final: float = np.nan
    n_steps: int = 0
    n_rejected: int = 0  # steps cut short where the band stopped holding
    h1_drift: np.ndarray | None = None  # per snapshot
    compute_n: np.ndarray | None = None  # compute-grid size per snapshot

    def __post_init__(self):
        if np.ndim(self.times) != 1 or len(self.times) == 0:
            raise ValueError(f"times must be non-empty and 1-D, got shape {np.shape(self.times)}")
        for name in ("times", "values"):  # read-only float arrays: validated once
            array = np.asarray(getattr(self, name), dtype=float).view()
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        times, values = self.times, self.values
        if values.shape != (len(self), self.grid.n):
            raise ValueError(f"values must be {(len(self), self.grid.n)}, not {values.shape}")
        # the extremes are finite exactly when every sample is, with no rows x n mask
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("snapshots contain non-finite samples")
        # a NaN or infinite time fails the strict increase or the finite end
        if times[0] != 0.0 or not (np.all(np.diff(times) > 0) and np.isfinite(times[-1])):
            raise ValueError("times must be finite, start at 0 and increase strictly")

    def __len__(self) -> int:
        return len(self.times)

    def row_blocks(self, stop: int | None = None) -> list:
        """Slices of the first ``stop`` rows (default all), ROW_BLOCK_BYTES of spectrum each."""
        stop = len(self) if stop is None else stop
        step = max(1, ROW_BLOCK_BYTES // (16 * (self.grid.n // 2 + 1)))
        return [slice(i, min(i + step, stop)) for i in range(0, stop, step)]

    @property
    def snapshots(self) -> tuple:
        return tuple(Field(self.grid, row) for row in self.values)

    @property
    def u0(self) -> Field:
        return Field(self.grid, self.values[0])

    @property
    def final(self) -> Field:
        return Field(self.grid, self.values[-1])

    @property
    def boundary_magnitudes(self) -> np.ndarray:  # max(|u(-L)|, |u(L - dx)|) per snapshot
        return np.maximum(np.abs(self.values[:, 0]), np.abs(self.values[:, -1]))

    @property
    def valid(self) -> bool:
        """True when every snapshot kept the boundary below the tolerance."""
        return bool(np.all(self.boundary_magnitudes <= BOUNDARY_TOLERANCE))

    @classmethod
    def from_snapshots(cls, times, snapshots) -> "Trajectory":
        """Wrap precomputed snapshots (frozen fields, synthetic data) as a trajectory."""
        snapshots = tuple(snapshots)
        if not snapshots:
            raise ValueError("need at least one snapshot")
        grid = snapshots[0].grid
        for i, u in enumerate(snapshots):
            if u.grid != grid:
                raise ValueError(f"snapshot {i} lives on {u.grid}, snapshot 0 on {grid}")
        return cls(grid, np.asarray(times, float), [u.values for u in snapshots])


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _checked(index: int, k):
    if not np.isfinite(k.values if isinstance(k, Field) else k).all():
        raise FloatingPointError(f"non-finite RK4 stage {index}")
    return k


def rk4_step(u: Field, dt: float, deriv) -> Field:
    """One classical RK4 update; raises on a non-finite stage."""
    dt = _require_positive("dt", dt)
    k1 = _checked(1, deriv(u))
    k2 = _checked(2, deriv(u + (0.5 * dt) * k1))
    k3 = _checked(3, deriv(u + (0.5 * dt) * k2))
    k4 = _checked(4, deriv(u + dt * k3))
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def estimate_dt(u: Field) -> float:
    """The default snapshot clock's unit: 0.5 dx / max(1, ||4u|| + ||2u_x||), capped at DT_MAX.

    The coefficients are the advective terms of the momentum formulation.
    Without an explicit ``dt``, :func:`simulate` spaces its snapshots
    ``snapshot_stride`` such units apart; its steps are set by accuracy.
    """
    speed = 4.0 * lp_norm(u, np.inf) + 2.0 * lp_norm(derivative(u, 1), np.inf)
    return float(min(0.5 * u.grid.dx / max(1.0, speed), DT_MAX))


def _spectral_stage(uh, grid: Grid, pre, post):
    """``post * rfft(irfft(pre * uh)**2)``: every RK4 stage :func:`simulate` takes is one call."""
    w = grid.irfft(pre * uh)
    return post * grid.rfft(w * w)


def spectral_rhs(uh, grid: Grid, pre, post):
    """u_t in Fourier space: ``post * rfft(irfft(pre * uh)**2)``, one FFT pair."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _spectral_stage(uh, grid, pre, post)


def _stage(index: int, uh, ops):
    """:func:`_spectral_stage` on ``ops = (grid, pre, post)``, checked."""
    return _checked(index, _spectral_stage(uh, *ops))


def _band_rk4(y, h: float, ops):
    """The RK4 update of the band ``y`` by ``h``, its stages checked: the combinations are
    written in place, in the order of :func:`rk4_step`'s expressions, so bit for bit theirs."""
    k1 = _stage(1, y, ops)
    s = k1 * (0.5 * h)
    s += y
    k2 = _stage(2, s, ops)
    np.multiply(k2, 0.5 * h, out=s)
    s += y
    k3 = _stage(3, s, ops)
    np.multiply(k3, h, out=s)
    s += y
    k4 = _stage(4, s, ops)
    np.multiply(k2, 2.0, out=s)
    s += k1
    k3 *= 2.0
    s += k3
    s += k4
    s *= h / 6.0
    s += y
    return s


def _root(x: float, j: int) -> float:
    """``x^(1/j)`` for a power of two ``j``, as repeated square roots.

    A square root commutes exactly with scaling by an even power of two, where ``x**(1/j)``
    may round differently.
    """
    while j > 1:
        x, j = math.sqrt(x), j // 2
    return x


def _square_norm(a) -> float:
    return float(np.sum(a.real**2 + a.imag**2))


def _series(y, ops, W, A, work, spec) -> float:
    """Into ``A``: the flow's Taylor coefficients ``a_1 .. a_K`` at ``y``, on the kept band.

    ``a_0 = y`` and ``(j + 1) a_{j+1} = post rfft(sum_{i <= j} w_i w_{j-i})`` for j < K with
    ``w_j = irfft(pre a_j)``, into ``W`` for j < K: the right side ``post rfft(w^2)`` is
    quadratic in u with no linear part, so its Taylor coefficients in t are these Cauchy
    products, at one rfft per order and one irfft below K.  Every ``a_j`` with j >= 1 vanishes from
    mode m/3 up, as ``post`` does, so only the kept band is formed, through ``spec``;
    ``work`` holds the products.  Returns the series' radius ``rho = min (||a_0|| /
    ||a_j||)^(1/j)`` over j = K/2 and K, in the band's l2 norm, or inf when both orders
    vanish.  A non-finite order raises ``FloatingPointError`` naming it.
    """
    comp, pre, post = ops
    kept = A.shape[1]  # the modes below m/3, where pre and post do not vanish
    pre, post, band = pre[:kept], post[:kept], spec[:kept]
    acc, term = work
    comp.irfft(np.multiply(pre, y[:kept], out=band), out=W[0])
    size, rho = _square_norm(y), np.inf
    for j in range(K):
        # the pairs w_i w_{j-i} with i < j - i twice, summed in i's order, and w_{j/2}^2
        pairs = (j + 1) // 2
        if pairs:
            np.einsum("ij,ij->j", W[:pairs], W[j + 1 - pairs : j + 1][::-1], out=acc)
            acc *= 2.0
            if j % 2 == 0:
                acc += np.square(W[j // 2], out=term)
        else:
            np.square(W[0], out=acc)
        comp.rfft(acc, out=spec)
        a = np.multiply(band, post, out=A[j])
        a /= j + 1
        if not np.isfinite(a).all():
            raise FloatingPointError(f"non-finite series order {j + 1}")
        if j + 1 in (K // 2, K):
            order = _square_norm(a)
            if order > 0.0:
                rho = min(rho, _root(math.sqrt(size) / math.sqrt(order), j + 1))
        if j + 1 < K:
            comp.irfft(np.multiply(a, pre, out=band), out=W[j + 1])
    return rho


def _sum(out, y, A, tau: float):
    """Into ``out``: ``y + sum_j tau^j a_j`` over the coefficients ``A`` of :func:`_series`.

    The powers ``tau^j`` are repeated products, and the sum over j one product of them
    with ``A`` in numpy's own loop, taken alike for a step's end and each snapshot; the
    modes from m/3 up are ``y``'s.  No FFT, and each term ``tau^j a_j`` scales by exactly
    ``eps`` under the flow's power-of-two scaling.
    """
    powers = np.cumprod(np.full(K, tau))
    np.copyto(out, y)
    out[: A.shape[1]] += np.einsum("j,jm->m", powers, A.view(float)).view(complex)
    return out


def _compute_grid(grid: Grid, uh, m: int):
    """``(m, (Grid(m, L), pre, post), tail, carried)``: the compute grid ``m`` of ``uh``.

    The stages take the first ``m/2 + 1`` modes of an n-grid rfft, whose
    coefficients are ``n/m`` times those of the m-grid samples, so the
    factors ``m/n`` and ``n/m`` are folded into ``pre`` and ``post``: both
    are exact powers of two when ``m`` is one, and for ``m = 3 2^a`` or
    ``5 2^a`` only ``n/m`` rounds.  They are built from the first ``m/2 + 1``
    entries of ``grid``'s operator table, which are ``Grid(m, L)``'s bit for
    bit, so the compute grid only takes FFTs and builds no table.  ``tail``
    is max|uh| above the band and ``carried`` their share ``sum(h1_weight
    |uh|^2)`` of the H^1 norm: a step carries these modes unchanged, so they
    are read once per grid.
    """
    comp = grid if m == grid.n else Grid(m, grid.half_width)
    band = slice(0, m // 2 + 1)
    ik, keep = grid.ik_pow[0][band], np.arange(m // 2 + 1) < m / 3.0
    pre = np.where(keep, 2.0 - ik, 0.0) * (m / grid.n)
    post = np.where(keep, (2.0 * ik + grid.ik_pow[1][band]) / grid.helm[band], 0.0) * (grid.n / m)
    above = uh[m // 2 + 1 :]
    tail = float(np.max(np.abs(above), initial=0.0))
    return m, (comp, pre, post), tail, _h1_sum(grid, above, m // 2 + 1)


def _h1_sum(grid: Grid, vh, start: int = 0) -> float:
    """``sum(h1_weight |vh|^2)`` over the modes ``start ..`` of ``grid`` that ``vh`` holds."""
    square = vh.real**2
    square += vh.imag**2
    square *= grid.h1_weight[start : start + vh.size]
    return float(np.sum(square))


def _tail_size(grid: Grid, a, m: int) -> int:
    """The ladder size whose band the exponential tail of the magnitudes ``a`` would fill.

    ``a`` is ``|uh|`` on the band of ``m``.  An analytic solution's coefficients decay like
    ``exp(-sigma |k|)``, so the decay from the largest magnitude of modes [m/5, m/4) to that
    of [m/4, 3m/10), each taken at its window's middle, is carried on to the mode where it
    meets ``BAND_FLOOR * max a``; the answer is the smallest ``GRID_SIZES`` entry whose
    3/10 of a size lies past that mode, at most ``n``, or ``m`` when the magnitudes do not
    decay there or already sit under the floor.  It reads ratios of magnitudes only, so it
    commutes exactly with power-of-two scaling.
    """
    lo, mid, hi = m // 5, m // 4, 3 * m // 10
    first, second = (float(np.max(a[i:j], initial=0.0)) for i, j in ((lo, mid), (mid, hi)))
    floor = BAND_FLOOR * float(np.max(a))
    if second <= floor or not second < first:
        return m
    near, far = (lo + mid) // 2, (mid + hi) // 2
    edge = far + (far - near) * math.log(floor / second) / math.log(second / first)
    return min(GRID_SIZES[bisect.bisect_right(GRID_SIZES, int(10 * edge) // 3)], grid.n)


def _held(grid: Grid, uh, compute, a) -> int:
    """The size of ``compute`` while its 2/3 band holds ``uh``, else the smallest larger one.

    ``a`` is ``|uh|`` on the band of ``compute``'s ``m``: a step's magnitudes
    stand for ``uh``'s own band before the step is kept.  A size ``m`` holds
    ``uh`` when every coefficient at or above mode ``3 m / 10`` is at most
    ``BAND_FLOOR * max|uh|``; the answer is the smallest ``GRID_SIZES``
    entry that holds, but never below ``m`` nor above ``n``.  With no
    coefficient above the floor (zero data) that is ``m`` itself.  Only the
    band is read, unless a tail coefficient is above the floor: then every
    coefficient is, and the answer is the same either way.
    """
    m, _, tail, _ = compute
    if m == grid.n:
        return m
    floor = BAND_FLOOR * max(float(np.max(a)), tail)
    if tail > floor:
        a = np.concatenate((a, np.abs(uh[m // 2 + 1 :])))
    above = np.flatnonzero(a > floor)
    if not above.size:
        return m
    # the first size with 3 size > 10 * last, the last mode above the floor
    size = GRID_SIZES[bisect.bisect_right(GRID_SIZES, 10 * int(above[-1]) // 3)]
    return min(max(m, size), grid.n)


def _require_stride(stride) -> int:
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"snapshot_stride must be an integer >= 1, got {stride!r}")
    return int(stride)


def simulate(
    u0: Field,
    T: float,
    snapshot_stride: int = 1,
    dt: float | None = None,
) -> Trajectory:
    """Integrate from u0 to time T and record snapshots along the way.

    The state is the rfft of u on the compute grid of the module docstring.
    By default each step builds the series of :func:`_series` at the step's
    start, 2K FFTs, and is ``h = rho BAND_FLOOR^(1/K)``, with ``rho =
    min (||a_0|| / ||a_j||)^(1/j)`` over j = K/2 and K and each root taken by
    repeated square roots, so the rule commutes exactly with the flow's
    scaling ``u -> eps u(eps t)`` for a power-of-two ``eps``.  The step end
    is the series summed at ``h`` (:func:`_sum`: from the coefficients, no
    FFT).  Where the band no longer holds that end, the step is halved
    until it does, and the next step is taken on the grid that end fills,
    its exponential tail read on to the floor (:func:`_tail_size`): no
    series is thrown away, and a step never runs past the band its series
    was built on, and a step that would leave less than ``1e-12 T`` lands on
    T instead.  An explicit ``dt`` is each RK4 step's length, never checked
    or cut (past ``MAX_STEPS`` steps, ``T / dt``, a :class:`ConfigError`
    before the first stage); t sums the steps, each addition rounding by at
    most ``2^-53 T``, and a step lands on T where it would leave less than
    ``1e-12 T`` or twice ``T / dt`` such roundings, so a run takes ``T / dt``
    steps, rounded up.  Either way only T is landed on.

    By default snapshots run on a clock of ``snapshot_stride *
    estimate_dt(u0)``: each snapshot time is the previous one plus the
    clock, and a tick within ``1e-12 T`` of T, or past it, is T.  A snapshot
    at ``s`` in a kept step ``(t, t + h]`` is the step's series summed at
    ``s - t``, the step's end bit for bit at ``s = t + h``, and the modes
    above the band are carried unchanged.  With an explicit ``dt`` the
    snapshots are the state at the end of every ``snapshot_stride``-th step
    and at T, and the clock is ``snapshot_stride * dt``.  On
    the benchmark's workloads (0.05 sech^2 pulses, n = 4096 and 16384,
    L = 40, T = 0.25 and 1) at seeds 0-10 the default snapshots are within
    2.0e-11 of max|u| of an RK4 run that steps an eighth of the clock and
    ends a step on every snapshot, that run's own error (5.6e-15 where its
    steps are 0.0012), and the relative H^1 drift stays under 4e-16.

    Each snapshot takes one irfft on ``n``, into a ``rows x n`` block of ``T /
    clock + 3`` rows allocated before the first step (refused past
    ``SNAPSHOT_BYTES`` with a :class:`ConfigError`).  Every tick but the last
    advances by the clock less at most one rounding of T, which the budget
    holds under ``2**-30`` of the clock, so the snapshots fill at most ``T /
    clock + 2.01`` rows, an explicit run's at most ``T / clock + 2``.
    ``compute_n`` holds the ``m`` of each snapshot's step, the first one's
    for ``u0``; the Trajectory docstring says what ``dt_initial``,
    ``dt_final`` and ``n_rejected`` hold.

    Aborts with :class:`BlowUpError` if the sup norm grows by more than a
    factor of 1000 over the initial datum, or overflows: each snapshot reads
    its samples, each step end that is no snapshot the Wiener-bound guard of
    the module docstring.  A non-finite RK4 stage or series order, a default
    step below ``STEP_FLOOR * T`` and a default run that has kept
    ``MAX_STEPS`` steps short of T raise ``FloatingPointError``, naming the
    step's t and its number.  ``h1_drift`` holds |H1(t) - H1(0)| / H1(0) per
    snapshot.
    """
    T = _require_positive("T", T)
    stride = _require_stride(snapshot_stride)
    unit = estimate_dt(u0) if dt is None else _require_positive("dt", dt)
    # a stride past T / unit keeps only T; the product could overflow a float
    clock = stride * unit if stride < T / unit else np.inf

    def tick(s: float) -> float:  # the snapshot time after s: a clock tick, or T, then none
        return np.inf if s == T else s + clock if s + clock < T - 1e-12 * T else T

    grid = u0.grid
    n = grid.n
    rows = T / clock + 3.0
    if rows * n * 8 > SNAPSHOT_BYTES:
        raise ConfigError([f"snapshots of n = {n} to T = {T:g}, one per {clock:.3g}, "
                           f"would exceed SNAPSHOT_BYTES = {SNAPSHOT_BYTES}"])
    if dt is not None and T / unit > MAX_STEPS:
        raise ConfigError([f"T / dt = {T / unit:.3g} steps would exceed MAX_STEPS = {MAX_STEPS}"])
    initial_peak = lp_norm(u0, np.inf)
    guard = BLOWUP_FACTOR * initial_peak if initial_peak > 0.0 else np.inf

    def h1(band, carried: float) -> float:  # ||u||_{H^1} as h1_norm takes it
        return math.sqrt((_h1_sum(grid, band) + carried) * grid.dx / n)

    uh = grid.rfft(u0.values)
    # the compute grid (m, ops, tail, carried), rebuilt when it grows; the first is sized from
    # 16 up, reading every mode (the H^1 share of huge data may overflow, as h1_0 does below)
    with np.errstate(over="ignore", invalid="ignore"):
        compute = _compute_grid(grid, uh, 16)
        compute = _compute_grid(grid, uh, _held(grid, uh, compute, np.abs(uh[:9])))
    times = np.empty(int(rows))
    values = np.empty((times.size, n))
    drift = np.empty(times.size)
    sizes = np.empty(times.size, dtype=int)
    times[0], values[0], drift[0], sizes[0] = 0.0, u0.values, 0.0, compute[0]
    row = 1

    def record(s: float, step: int, m: int, carried: float) -> None:  # uh holds u(s)
        nonlocal row
        u = grid.irfft(uh, out=values[row])
        peak = max(float(u.max()), -float(u.min()))  # max|u| with no temporary
        if not peak <= guard:  # a NaN peak, from a state that overflowed, fails it too
            raise BlowUpError(s, step, peak, guard)
        gap = abs(h1(uh[: m // 2 + 1], carried) - h1_0)
        times[row], drift[row], sizes[row] = s, gap / h1_0 if h1_0 > 0.0 else gap, m
        row += 1

    def end_guard(t: float, step: int, a, comp: Grid) -> None:
        """At a step end that is no snapshot: the Wiener bound ``2 sum|uh[band]| / n`` of the
        band's magnitudes ``a``, and near the guard the compute grid's samples."""
        if times[row - 1] != t:
            peak = 2.0 * float(np.sum(a)) / n
            if peak > 0.5 * guard:
                peak = float(np.max(np.abs(comp.irfft(uh[: a.size] * (comp.n / n)))))
            if not peak <= guard:
                raise BlowUpError(t, step, peak, guard)

    h_first = h_max = dt
    t, s, step, cut = 0.0, tick(0.0), 0, 0
    # overflow surfaces as the named non-finite stage or order, not as a warning
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            h1_0 = h1(uh[: compute[0] // 2 + 1], compute[3])
            if dt is None:
                W = None
                while t < T:
                    m, ops, _, carried = compute
                    band = slice(0, m // 2 + 1)
                    if W is None:  # the compute grid's samples, coefficients, products, spectra
                        W, work = np.empty((K, m)), np.empty((2, m))
                        A = np.empty((K, -(-m // 3)), dtype=complex)
                        spec, end, y = np.empty((3, m // 2 + 1), dtype=complex)
                    y[:] = uh[band]  # the step's start, as uh's band takes each snapshot
                    if step == MAX_STEPS:
                        raise FloatingPointError(f"MAX_STEPS = {MAX_STEPS} steps end short of T")
                    h_max = _series(y, ops, W, A, work, spec) * _root(BAND_FLOOR, K)
                    h_first = h_max if h_first is None else h_first
                    # a step that would leave less than 1e-12 T lands on T instead
                    h, t_next = (T - t, T) if t + h_max >= T - 1e-12 * T else (h_max, t + h_max)
                    size = m
                    while True:
                        if h < STEP_FLOOR * T:
                            raise FloatingPointError(
                                f"series step {h:.3g} below {STEP_FLOOR * T:.3g}"
                            )
                        a = np.abs(_sum(end, y, A, h))
                        held = _held(grid, uh, compute, a)
                        if held == m:
                            break
                        if size == m:
                            # the band stops holding within the step: the next step is taken on
                            # the grid the full step's end fills, its tail read on to the floor
                            size = max(held, _tail_size(grid, a, m))
                        # and this one ends where the band still holds
                        h *= 0.5
                        t_next = t + h
                    cut += size != m
                    step += 1
                    while s <= t_next:  # at t_next the sum is the step's end bit for bit
                        _sum(uh[band], y, A, s - t)
                        record(s, step, m, carried)
                        s = tick(s)
                    uh[band] = end
                    t = t_next
                    end_guard(t, step, a, ops[0])
                    if size != m:  # the old buffers go before the grown grid's come
                        W = A = work = spec = end = y = a = None
                        compute = _compute_grid(grid, uh, size)
                W = A = work = spec = end = y = None  # gone before the block is checked
            else:
                # a step that would leave less than t's possible rounding lands on T instead
                land = T - max(1e-12, T / dt * 2.0**-52) * T
                while t < T:
                    m, ops, _, carried = compute
                    band = slice(0, m // 2 + 1)
                    h, t_next = (T - t, T) if t + dt >= land else (dt, t + dt)
                    uh[band] = _band_rk4(uh[band], h, ops)
                    a = np.abs(uh[band])  # read by the compute-grid check and the guard
                    size = _held(grid, uh, compute, a)
                    step += 1
                    if step % stride == 0 or t_next == T:
                        record(t_next, step, m, carried)
                    t = t_next
                    end_guard(t, step, a, ops[0])
                    if size != m:
                        compute = _compute_grid(grid, uh, size)
    except FloatingPointError as exc:  # a non-finite stage or order: say where the run failed
        raise FloatingPointError(f"{exc} at t = {t!r} (step {step + 1})") from None

    return Trajectory(
        grid=grid,
        times=times[:row],
        values=values[:row],
        dt_initial=h_first,
        dt_final=h_max,
        n_steps=step,
        n_rejected=cut,
        h1_drift=drift[:row],
        compute_n=sizes[:row],
    )


_CHECKPOINT_MAGIC = b"GCH1"
_SNAPSHOTS_MAGIC = b"GCHS"
_HEADER = struct.Struct("<4sIdd")  # magic, n (uint32), L, t -- little-endian
_SNAPSHOTS_COUNT = struct.Struct("<I12s")  # rows (uint32), ASCII config hash


def _write_dump(path, magic: bytes, grid: Grid, t: float, *parts) -> None:
    """The shared header, then each part in turn: bytes as they are, arrays as float64.

    An array is written from its own buffer, not from a ``tobytes()`` copy.  A
    non-finite ``t``, which the readers refuse, is refused before the path is opened.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, grid.n, grid.half_width, float(t)))
        for part in parts:
            fh.write(part if isinstance(part, bytes) else np.ascontiguousarray(part, dtype="<f8"))


def write_checkpoint(path, u: Field, t: float) -> None:
    """Binary state dump: magic "GCH1", uint32 n, float64 L, float64 t, n float64 samples.

    All fields little-endian.
    """
    _write_dump(path, _CHECKPOINT_MAGIC, u.grid, t, u.values)


def write_snapshots(path, traj: Trajectory, config_hash: str) -> None:
    """Binary trajectory dump, the checkpoint layout extended to a block of snapshot rows.

    Magic "GCHS", uint32 n, float64 L, float64 t (the last time), uint32 rows,
    the 12 ASCII bytes of the config hash, rows float64 times, then the rows x n
    float64 samples row by row.  All fields little-endian.
    :func:`gch.runner.snapshots_to_csv` turns ``read_snapshots(path)[1]``
    into the ``t,x,u`` text of the trajectory.
    """
    tag = config_hash.encode("ascii")
    if len(tag) != 12:
        raise ValueError(f"config hash must be 12 ASCII characters, got {config_hash!r}")
    count = _SNAPSHOTS_COUNT.pack(len(traj), tag)
    _write_dump(path, _SNAPSHOTS_MAGIC, traj.grid, traj.times[-1], count, traj.times, traj.values)


def _read_fixed(fh, path, layout: struct.Struct) -> tuple:
    raw = fh.read(layout.size)
    if len(raw) != layout.size:
        raise ValueError(f"{path}: truncated header ({len(raw)} of {layout.size} bytes)")
    return layout.unpack(raw)


def _read_header(fh, path, magic: bytes) -> tuple:
    """``(n, L, t)`` from the shared header, after checking the magic."""
    found, n, L, t = _read_fixed(fh, path, _HEADER)
    if found != magic:
        raise ValueError(f"{path}: bad magic {found!r}")
    return n, L, t


def _read_body(fh, path, what: str, rows: int, width: int) -> np.ndarray:
    """The ``rows x width`` float64 body after the header, flat; ``what`` names it.

    The bytes left are checked before reading, so a corrupt header cannot ask
    for an arbitrarily large buffer.  A mismatch, or no rows, is refused.
    """
    size = 8 * rows * width
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if rows == 0 or have != size:
        raise ValueError(f"{path}: {what} need {size} bytes after the header, found {have}")
    return np.frombuffer(fh.read(size), dtype="<f8")


def read_checkpoint(path):
    """Read a :func:`write_checkpoint` dump; returns (t, Field).

    Raises ``ValueError`` naming the path when the file is not such a dump,
    its size disagrees with its header, or its time, grid or samples are invalid.
    """
    with open(path, "rb") as fh:
        n, L, t = _read_header(fh, path, _CHECKPOINT_MAGIC)
        samples = _read_body(fh, path, f"{n} samples", 1, n)
    try:
        if not np.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        return t, Field(Grid(n, L), samples.astype(float))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_snapshots(path):
    """Read a :func:`write_snapshots` dump; returns (config_hash, Trajectory).

    The trajectory holds the times and samples only, as
    :meth:`Trajectory.from_snapshots` builds it.  Raises ``ValueError``
    naming the path when the file is not such a dump or its size, count,
    times or samples disagree with its header.
    """
    with open(path, "rb") as fh:
        n, L, t = _read_header(fh, path, _SNAPSHOTS_MAGIC)
        count, tag = _read_fixed(fh, path, _SNAPSHOTS_COUNT)
        data = _read_body(fh, path, f"{count} snapshots of {n} samples", count, n + 1)
    times, block = data[:count].astype(float), data[count:].reshape(count, n)
    try:
        config_hash = tag.decode("ascii")
        if times[-1] != t:
            raise ValueError(f"last time {float(times[-1])!r} differs from the header's {t!r}")
        traj = Trajectory(Grid(n, L), times, block)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config_hash, traj
