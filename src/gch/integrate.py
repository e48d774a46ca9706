"""Deterministic explicit time stepping with snapshot recording.

Classical four-stage Runge-Kutta under one step rule: every step is as
long as accuracy allows, and only T is landed on.  Snapshots run on a
fixed clock, whose unit is an explicit ``dt`` or, by default,
:func:`estimate_dt` of the initial datum; one inside a step is read off
the step's cubic Hermite interpolant at no extra stage.  An explicit
``dt`` caps the step; by default an embedded error estimate, built from
the next step's first stage, accepts or rejects each step against
``STEP_TOL`` within the stage's stability bound (see :func:`simulate`).
No choice depends on anything but the inputs, so reruns are bit-identical.

:func:`simulate` keeps the state in Fourier space, as the rfft ``uh`` of
u, and evaluates each stage in the primitive form

    k = post * rfft(irfft(pre * uh)**2),
    pre = keep * (2 - ik),    post = keep * (2ik + (ik)^2) / (1 + k^2),

with the multipliers taken from the ``Grid`` operator table once per compute grid:
one FFT pair per stage.  The operand (2 - d_x)u is truncated by ``pre``
and the square by ``post``, which with a truncated operand is the exact
2/3 rule (Orszag 1971), so every form of :mod:`gch.dynamics` defines the
same semi-discretisation and the cheapest one drives the integrator.
The physical-space :func:`rk4_step` with :func:`gch.dynamics.rhs` stays as
the reference path; the spectral step writes the same update in place, bit
for bit.

The stages run on a compute grid ``Grid(m, L)``, the smallest size
``16 <= m <= n`` on the ladder ``2^a, 3 2^a, 5 2^a`` (``GRID_SIZES``)
whose 2/3 band holds the spectrum: every coefficient at or above mode
``3m/10``, the top tenth of the kept band, is at most
``BAND_FLOOR * max|uh|``.  An analytic solution's coefficients decay like
``exp(-sigma |k|)``, so the modes a step needs are set by the analyticity
radius, not by ``n`` (Sulem, Sulem & Frisch, J. Comput. Phys. 50:138,
1983, read the radius off the same edge); above the edge sits the
roundoff plateau.  On the long-horizon pulse (n = 16384, T = 1) this rule
steps at m = 1280-3072 where powers of two with the edge at ``2m/9`` took
55 of the 67 steps at 4096; its snapshots stay within 8.4e-16 of max|u|
of the full grid's.  The rule is re-checked from ``uh`` before every step
and ``m`` only grows; the modes above the band are carried unchanged, so
their largest magnitude is read once per ``m`` and each check reads only
the band.  The state stays the rfft on ``n``: only its first ``m/2 + 1``
modes are stepped, and every snapshot is taken on ``n``.  At a step end
that is no snapshot the blow-up guard reads the Wiener bound
``2 sum|uh[band]| / n``, which no sample on the compute grid exceeds, and
takes the compute grid's irfft only when that bound passes half the
guard, so it fires where one that read every step's samples would.
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
#: RK4 is stable on the imaginary axis up to |lambda dt| = 2 sqrt(2)
#: (Hairer-Wanner, Solving ODEs II, IV.2).
RK4_IMAGINARY_LIMIT = 2.0 * np.sqrt(2.0)
#: Fraction of the RK4 limit a default step may use.  On a 0.05 sech^2
#: pulse (n = 16384, L = 40, T = 1) with DT_MAX lifted, the max relative H^1
#: drift was 7.9e-13 at 0.5, 8.6e-12 at 0.9 and 8.7e-3 at 1.5: instability
#: sets in between 0.9 and 1.5, as the bound predicts, and 0.5 keeps a
#: factor of ~2 in hand.
STEP_SAFETY = 0.5
#: The largest error estimate a default step may keep: (h/6) ||k4 - k5||_{H^1}
#: relative to ||u0||_{H^1} (see :func:`simulate`).  sigma(T) reads the RK4
#: error of the top modes, which grows like h^4, long before the H^1 drift
#: does, so sigma(T) sets it: the largest value on a 1e-10 grid whose
#: sigma(T) on the 0.05 sech^2 pulse (n = 16384, L = 40, T = 1, stride 32)
#: stays within 5e-7 of a dt = 0.0025 run, with max drift <= 1e-11, the
#: steps as long as accuracy allows.  It reads 4.8e-7 in 67 steps; 5e-10
#: reads 5.9e-7 in 63 and 3e-10 3.6e-7 in 72 (BENCH_dense_output.json).
STEP_TOL = 4e-10
#: A default step rejected below STEP_FLOOR * T ends the run with a
#: FloatingPointError: a stage that never meets the tolerance cannot spin.
STEP_FLOOR = 1e-12
BLOWUP_FACTOR = 1e3
#: A run is marked valid only while max(|u(-L)|, |u(L-dx)|) stays below this.
BOUNDARY_TOLERANCE = 1e-8
#: Relative size below which a coefficient counts as outside the spectrum
#: when the compute grid is chosen: well above the ~1e-17 roundoff plateau
#: of the rfft and well below the 1e-13 that ``radius_estimate`` reads.
BAND_FLOOR = 1e-15
#: Spectrum bytes per row block of a diagnostic pass (:mod:`gch.rowpass`).  Against per-snapshot
#: work, a history run's (n = 4096, K = 104) peak RSS rose 2.3 MB with K x n temporaries and
#: fell 0.7 MB in blocks; the one pass holds one block's spectrum, u_x and u_xx at a time.
ROW_BLOCK_BYTES = 2**18
#: The most bytes the K x n snapshot block of :func:`simulate` may take.
SNAPSHOT_BYTES = 2**30
#: The most steps an explicit ``dt`` may ask for, ``T / dt``: at the 75 us a step
#: takes at n = 16 (2-core x86_64 host), about 80 s of stepping.
MAX_STEPS = 2**20


@dataclass(frozen=True)
class Trajectory:
    """Snapshots as one read-only ``K x n`` block, plus run metadata."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    # run metadata from simulate; wrapped or read-back trajectories have none
    dt_initial: float = np.nan
    dt_final: float = np.nan
    n_steps: int = 0
    n_rejected: int = 0  # steps the error estimate sent back
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
        if not np.all(np.isfinite(values)):
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
    """``(spectral_rhs(uh), w)`` with ``w = irfft(pre * uh)``, the squared operand.

    Every stage :func:`simulate` takes is one call of this function.
    """
    w = grid.irfft(pre * uh)
    return post * grid.rfft(w * w), w


def spectral_rhs(uh, grid: Grid, pre, post):
    """u_t in Fourier space: ``post * rfft(irfft(pre * uh)**2)``, one FFT pair."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _spectral_stage(uh, grid, pre, post)[0]


def _stage(index: int, uh, ops):
    """``(k, w)`` of :func:`_spectral_stage` on ``ops = (grid, pre, post)``, ``k`` checked."""
    k, w = _spectral_stage(uh, *ops)
    return _checked(index, k), w


def _band_rk4(y, h: float, k1, ops):
    """``(y_next, k4)``: the RK4 update of the band ``y`` from its checked first stage ``k1``.

    The combinations are written in place, in the order of
    :func:`rk4_step`'s expressions, so ``y_next`` is their result bit for bit.
    """
    s = k1 * (0.5 * h)
    s += y
    k2 = _stage(2, s, ops)[0]
    np.multiply(k2, 0.5 * h, out=s)
    s += y
    k3 = _stage(3, s, ops)[0]
    np.multiply(k3, h, out=s)
    s += y
    k4 = _stage(4, s, ops)[0]
    np.multiply(k2, 2.0, out=s)
    s += k1
    k3 *= 2.0
    s += k3
    s += k4
    s *= h / 6.0
    s += y
    return s, k4


def _hermite(out, y0, y1, f0, f1, h: float, theta: float, scratch):
    """Into ``out``: the cubic Hermite interpolant at ``theta`` of a step of ``h`` from y0 to y1.

    ``f0`` and ``f1`` are the slopes at its ends; ``scratch`` is overwritten, not allocated.
    The weights of y1 - y0, f0 and f1 vanish at ``theta = 1``, where it is y1 bit for bit.
    """
    rest = 1.0 - theta
    np.subtract(y1, y0, out=out)
    out *= -rest * rest * (1.0 + 2.0 * theta)
    out += y1
    out += np.multiply(f0, theta * rest * rest * h, out=scratch)
    out += np.multiply(f1, -theta * theta * rest * h, out=scratch)
    return out


def _starting_step(y, k1, ops, norm) -> float:
    """The first default step: Hairer-Wanner's starting step (Solving ODEs I, II.4) in ``norm``.

    ``d1 = ||k1|| / ||y||``, and ``d2 = ||f(y + h0 k1) - k1|| / (h0 ||y||)`` from
    one Euler probe of ``h0 = 0.01 / d1``.  The step is ``STEP_TOL^(1/4) / max(d1,
    sqrt(d2))``, not the textbook's ``(0.01 / max(d1, d2))^(1/(p+1))``, which
    mixes 1/time with 1/time^2: it scales with the data as the flow does.
    """
    size = norm(y)
    rate = norm(k1) / size if size > 0.0 else 0.0
    if rate == 0.0:
        return np.inf
    probe = 0.01 / rate
    curvature = norm(_stage(1, y + probe * k1, ops)[0] - k1) / (probe * size)
    return STEP_TOL**0.25 / max(rate, math.sqrt(curvature))


def _compute_grid(grid: Grid, uh, m: int):
    """``(m, (Grid(m, L), pre, post), reach, tail)``: the compute grid ``m`` of ``uh`` on ``grid``.

    The stages take the first ``m/2 + 1`` modes of an n-grid rfft, whose
    coefficients are ``n/m`` times those of the m-grid samples, so the
    factors ``m/n`` and ``n/m`` are folded into ``pre`` and ``post``: both
    are exact powers of two when ``m`` is one, and for ``m = 3 2^a`` or
    ``5 2^a`` only ``n/m`` rounds.  ``Grid(m, L).k_rfft`` is the first
    ``m/2 + 1`` wavenumbers of ``grid`` bit for bit.  ``reach`` is the
    stability bound's numerator over
    ``B = 2 max|pre| max|post|``, which the folded factors leave unchanged:
    ``B`` is the compute grid's.  ``tail`` is max|uh| above the band, the
    modes a step carries unchanged, so it is read once per grid.
    """
    comp = grid if m == grid.n else Grid(m, grid.half_width)
    ik = comp.ik_pow[0]
    pre = np.where(comp.keep, 2.0 - ik, 0.0) * (m / grid.n)
    post = np.where(comp.keep, (2.0 * ik + comp.ik_pow[1]) / comp.helm, 0.0) * (grid.n / m)
    B = 2.0 * np.max(np.abs(pre)) * np.max(np.abs(post))
    tail = float(np.max(np.abs(uh[m // 2 + 1 :]), initial=0.0))
    return m, (comp, pre, post), float(STEP_SAFETY * RK4_IMAGINARY_LIMIT / B), tail


def _held(grid: Grid, uh, compute, a):
    """``compute`` while its 2/3 band holds ``uh``, else the smallest larger grid's value that does.

    ``a`` is ``|uh|`` on the band of ``compute``'s ``m``: a step's magnitudes
    stand for ``uh``'s own band before the step is kept.  A size ``m`` holds
    ``uh`` when every coefficient at or above mode ``3 m / 10`` is at most
    ``BAND_FLOOR * max|uh|``; the answer is the smallest ``GRID_SIZES``
    entry that holds, but never below ``m`` nor above ``n``.  With no
    coefficient above the floor (zero data) that is ``m`` itself.  Only the
    band is read, unless a tail coefficient is above the floor: then every
    coefficient is, and the answer is the same either way.
    """
    m, _, _, tail = compute
    if m == grid.n:
        return compute
    floor = BAND_FLOOR * max(float(np.max(a)), tail)
    if tail > floor:
        a = np.concatenate((a, np.abs(uh[m // 2 + 1 :])))
    above = np.flatnonzero(a > floor)
    if not above.size:
        return compute
    # the first size with 3 size > 10 * last, the last mode above the floor
    size = GRID_SIZES[bisect.bisect_right(GRID_SIZES, 10 * int(above[-1]) // 3)]
    grown = min(max(m, size), grid.n)
    return compute if grown == m else _compute_grid(grid, uh, grown)


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

    The state is the rfft of u and each RK4 stage is one
    :func:`_spectral_stage` call.  Each step is ``h = min(h_max, T - t)``,
    and one that would leave less than ``1e-12 T`` lands on T instead: only
    T is landed on.  Each step's first stage is the previous step's last.

    Snapshots run on a clock of ``snapshot_stride * unit``, ``unit`` being
    the explicit ``dt`` or else ``estimate_dt(u0)``: each snapshot time is
    the previous one plus the clock, and a tick within ``1e-12 T`` of T, or
    past it, is T.  A snapshot at ``s`` in a kept step ``(t, t + h]`` is the
    step's cubic Hermite interpolant at ``theta = (s - t) / h`` from
    ``y_n``, ``y_{n+1}``, ``k1 = f(y_n)`` and ``k5 = f(y_{n+1})`` (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6), on the stepped band with the
    modes above it carried unchanged; at ``theta = 1`` it is ``y_{n+1}``
    bit for bit.  Against a run that steps an eighth of the clock and ends
    a step on every snapshot, the benchmark's workloads (0.05 sech^2
    pulses, n = 4096 and 16384, L = 40, T = 0.25 and 1) at seeds 0-10 are
    within 1.0e-10 of max|u|, their weighted norms W within 6.0e-10 and
    their interior radii within 3.9e-6 (relative); tests hold them within
    2e-10, 1e-9 and 1e-5.  On history's datum (67 steps for 103 snapshots)
    an interpolated snapshot's H^1 drift reaches 7.2e-12, a step end's 1e-12.

    An explicit ``dt`` is ``h_max``, never checked or rejected; one that asks
    for more than ``MAX_STEPS`` steps, ``T / dt``, is refused with a
    :class:`ConfigError` before the first stage.  By default
    ``h_max`` is set by accuracy within the stability bound: the stage's
    Jacobian ``d -> post * rfft(2 w irfft(pre d))`` has spectral radius at
    most ``B ||w||_inf``, ``B = 2 max|pre| max|post|`` over the kept modes
    (Parseval), so no step exceeds
    ``STEP_SAFETY * RK4_IMAGINARY_LIMIT / (B ||w||_inf)``, read off each
    step's first stage.  The next step's first stage ``k5`` gives the
    embedded third-order solution ``y + h (k1/6 + k2/3 + k3/3 + k5/6)`` and
    the error estimate ``err = (h/6) ||k4 - k5||_{H^1} / ||u0||_{H^1}``
    (ibid., II.4).  A step with ``err <= STEP_TOL`` is kept, and the next
    ``h_max`` may be ``h min(5, 0.9 (STEP_TOL/err)^(1/4))``; otherwise the
    step is taken again with ``h max(0.2, 0.9 (STEP_TOL/err)^(1/4))``, and
    one rejected below ``STEP_FLOOR * T`` raises ``FloatingPointError``.
    The first step tries :func:`_starting_step`.  ``dt_initial`` and
    ``dt_final`` are the ``h_max`` of the first and last kept steps, and
    ``n_rejected`` counts the steps taken again.

    The stages run on the compute grid of the module docstring, re-chosen
    after every step at no FFT cost; ``B`` is taken on it.  Each snapshot
    takes one irfft on ``n``, into a ``K x n`` block of ``T / clock + 3``
    rows allocated before the first step (refused past ``SNAPSHOT_BYTES``
    with a :class:`ConfigError`).  Every tick but the last advances by the
    clock less at most one rounding of T, which the budget holds under
    ``2**-30`` of the clock, so the snapshots fill at most
    ``T / clock + 2.01`` rows.  ``compute_n`` holds the ``m`` of each
    snapshot's step, the first one's for ``u0``.

    Aborts with :class:`BlowUpError` if the sup norm grows by more than a
    factor of 1000 over the initial datum: each snapshot reads its samples,
    each step end that is no snapshot the Wiener-bound guard of the module
    docstring.  A non-finite stage raises ``FloatingPointError`` naming the
    stage, the step's t and its number.  ``h1_drift`` holds
    |H1(t) - H1(0)| / H1(0) per snapshot.
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
    # sum(h1_weights * |uh|^2) is ||u||_{H^1}^2 as h1_norm takes it
    h1_weights = grid.h1_weight * (grid.dx / grid.n)

    def h1(vh) -> float:  # on vh's band
        return float(np.sqrt(np.sum(h1_weights[: vh.size] * (vh.real**2 + vh.imag**2))))

    uh = grid.rfft(u0.values)
    snap = np.empty_like(uh)  # every snapshot's coefficients, formed in place
    # the compute grid (m, ops, reach, tail), rebound after a kept step; the first is sized
    # from 16 up, reading every mode
    compute = _held(grid, uh, _compute_grid(grid, uh, 16), np.abs(uh[:9]))
    times = np.empty(int(rows))
    values = np.empty((times.size, n))
    drift = np.empty(times.size)
    sizes = np.empty(times.size, dtype=int)
    times[0], values[0], drift[0], sizes[0] = 0.0, u0.values, 0.0, compute[0]
    # overflow surfaces as the named non-finite stage, not as a warning
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            h1_0 = h1(uh)
            h_max, dt_initial, t, s, row, step, rejected = dt, None, 0.0, tick(0.0), 1, 0, 0
            m, ops = compute[:2]
            k1, w = _stage(1, uh[: m // 2 + 1], ops)
            proposal = np.inf if dt is not None else _starting_step(uh[: m // 2 + 1], k1, ops, h1)
            while t < T:
                m, ops, reach, _ = compute
                band = slice(0, m // 2 + 1)
                y = uh[band]
                if dt is None:
                    peak_w = float(np.max(np.abs(w)))
                    h_max = min(reach / peak_w, proposal) if peak_w > 0.0 else proposal
                # a step that would leave less than 1e-12 T lands on T instead
                h, t_next = (T - t, T) if t + h_max >= T - 1e-12 * T else (h_max, t + h_max)
                y_next, k4 = _band_rk4(y, h, k1, ops)
                a = np.abs(y_next)  # read by the compute-grid check and the guard
                ahead_grid = _held(grid, uh, compute, a)
                # the next step's first stage, on the grid it will be taken on
                ahead = y_next
                if ahead_grid is not compute:
                    ahead = np.concatenate((y_next, uh[y.size : ahead_grid[0] // 2 + 1]))
                k5, w5 = _stage(1, ahead, ahead_grid[1])
                if dt is None:
                    # the embedded third-order solution's error, on k4's band
                    err = h / 6.0 * h1(k4 - k5[: k4.size]) / h1_0 if h1_0 > 0.0 else 0.0
                    factor = min(5.0, max(0.2, 0.9 * (STEP_TOL / err) ** 0.25)) if err else 5.0
                    proposal = h * factor
                    if err > STEP_TOL:
                        rejected += 1
                        if proposal < STEP_FLOOR * T:
                            break
                        continue
                if dt_initial is None:
                    dt_initial = h_max
                step += 1
                # the snapshots in (t, t_next], interpolated (k4 is spent); theta = 1 at t_next
                while s <= t_next:
                    theta = (s - t) / (t_next - t)
                    _hermite(snap[band], y, y_next, k1, k5[: y.size], h, theta, k4)
                    snap[y.size :] = uh[y.size :]
                    values[row] = grid.irfft(snap)
                    peak = float(np.max(np.abs(values[row])))
                    if peak > guard:
                        raise BlowUpError(s, step, peak, guard)
                    gap = abs(h1(snap) - h1_0)
                    times[row], drift[row], sizes[row] = s, gap / h1_0 if h1_0 > 0.0 else gap, m
                    row, s = row + 1, tick(s)
                k1, w, compute = k5, w5, ahead_grid
                uh[: ahead.size] = ahead
                t = t_next
                if times[row - 1] != t:
                    # the Wiener bound 2 sum|uh[band]| / n, and near the guard the compute
                    # grid's samples
                    peak = 2.0 * float(np.sum(a)) / n
                    if peak > 0.5 * guard:
                        peak = float(np.max(np.abs(ops[0].irfft(uh[band] * (m / n)))))
                    if peak > guard:
                        raise BlowUpError(t, step, peak, guard)
    except FloatingPointError as exc:  # a non-finite stage: say where the run failed
        raise FloatingPointError(f"{exc} at t = {t!r} (step {step + 1})") from None
    if t < T:  # only a step rejected below the floor ends the loop early
        raise FloatingPointError(
            f"step rejected below {STEP_FLOOR * T:.3g} at t = {t!r}: error "
            f"estimate {err:.3g} > STEP_TOL after {rejected} rejections"
        )

    return Trajectory(
        grid=grid,
        times=times[:row],
        values=values[:row],
        dt_initial=dt_initial,
        dt_final=h_max,
        n_steps=step,
        n_rejected=rejected,
        h1_drift=drift[:row],
        compute_n=sizes[:row],
    )


_CHECKPOINT_MAGIC = b"GCH1"
_SNAPSHOTS_MAGIC = b"GCHS"
_HEADER = struct.Struct("<4sIdd")  # magic, n (uint32), L, t -- little-endian
_SNAPSHOTS_COUNT = struct.Struct("<I12s")  # K (uint32), ASCII config hash


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
    """Binary trajectory dump, the checkpoint layout extended to K snapshots.

    Magic "GCHS", uint32 n, float64 L, float64 t (the last time), uint32 K,
    the 12 ASCII bytes of the config hash, K float64 times, then the K x n
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
