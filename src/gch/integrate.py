"""Deterministic explicit time stepping with snapshot recording.

Classical four-stage Runge-Kutta.  By default every step is taken from the
stability bound of the stage being stepped (see :func:`simulate`), re-checked
on every step, and shortened only to land exactly on the next snapshot time;
the snapshot times run on a fixed clock set once from the initial datum by
:func:`estimate_dt`.  No choice depends on anything but the inputs, so
reruns with identical inputs are bit-identical.

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
the reference path.

The stages run on a compute grid ``Grid(m, L)``, the smallest power of two
``16 <= m <= n`` whose 2/3 band holds the spectrum: every coefficient at or
above mode ``2m/9``, the top third of the kept band, is at most
``BAND_FLOOR * max|uh|``.  An analytic solution's coefficients decay like
``exp(-sigma |k|)``, so the modes a step needs are set by the analyticity
radius, not by ``n`` (Sulem, Sulem & Frisch, J. Comput. Phys. 50:138,
1983, read the radius off the same edge); above the edge sits the
roundoff plateau.  The rule is re-checked from ``uh`` before every step and
``m`` only doubles; the modes above the band are carried unchanged, so
their largest magnitude is read once per ``m`` and each check reads only
the band.  The state stays the rfft on ``n``: only its first ``m/2 + 1``
modes are stepped, and every snapshot is taken on ``n``.  Between
snapshots the blow-up guard reads the Wiener bound ``2 sum|uh[band]| / n``,
which no sample on the compute grid exceeds, and takes the compute grid's
irfft only when that bound passes half the guard, so the guard fires at
the same step with the same peak as one that read every step's samples.
A run that needs ``m = n`` throughout steps exactly as on the full grid.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# rhs is not called here; perfbench's tracer wraps gch.integrate.rhs, so it stays importable
from .dynamics import rhs  # noqa: F401
from .errors import BlowUpError
from .grid import Field, Grid, lp_norm, derivative

__all__ = [
    "Trajectory",
    "rk4_step",
    "estimate_dt",
    "simulate",
    "spectral_rhs",
    "snapshots_to_csv",
    "write_checkpoint",
    "read_checkpoint",
    "write_snapshots",
    "read_snapshots",
    "BOUNDARY_TOLERANCE",
]

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
BLOWUP_FACTOR = 1e3
#: A run is marked valid only while max(|u(-L)|, |u(L-dx)|) stays below this.
BOUNDARY_TOLERANCE = 1e-8
#: Relative size below which a coefficient counts as outside the spectrum
#: when the compute grid is chosen: well above the ~1e-17 roundoff plateau
#: of the rfft and well below the 1e-13 that ``radius_estimate`` reads.
BAND_FLOOR = 1e-15
#: Spectrum bytes per diagnostic row block.  Against per-snapshot work, one history run's
#: (n = 4096, K = 104) peak RSS rose 2.3 MB with K x n temporaries and fell 0.7 MB in blocks.
ROW_BLOCK_BYTES = 2**18


@dataclass(frozen=True)
class Trajectory:
    """Snapshots as one read-only ``K x n`` block with its cached rfft, plus run metadata."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    # run metadata from simulate; wrapped or read-back trajectories have none
    dt_initial: float = np.nan
    dt_final: float = np.nan
    n_steps: int = 0
    h1_drift: np.ndarray | None = None  # per snapshot
    compute_n: np.ndarray | None = None  # compute-grid size per snapshot

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()  # read-only: spectrum is cached
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self), self.grid.n):
            raise ValueError(f"values must be {(len(self), self.grid.n)}, not {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("snapshots contain non-finite samples")
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must start at 0 and increase strictly")

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The rfft of every row, ``K x (n/2 + 1)``, read-only."""
        spec = self.grid.rfft(self.values)
        spec.setflags(write=False)
        return spec

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
        return cls(snapshots[0].grid, np.asarray(times, float), [u.values for u in snapshots])


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _checked(index: int, k):
    if not np.all(np.isfinite(k.values if isinstance(k, Field) else k)):
        raise FloatingPointError(f"non-finite RK4 stage {index}")
    return k


def _rk4(y, dt: float, deriv, k1=None):
    """The RK4 update of a ``Field`` or of a coefficient array.

    ``k1``, when given, is the already checked first stage ``deriv(y)``.
    """
    if k1 is None:
        k1 = _checked(1, deriv(y))
    k2 = _checked(2, deriv(y + (0.5 * dt) * k1))
    k3 = _checked(3, deriv(y + (0.5 * dt) * k2))
    k4 = _checked(4, deriv(y + dt * k3))
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(u: Field, dt: float, deriv) -> Field:
    """One classical RK4 update; raises on a non-finite stage."""
    return _rk4(u, _require_positive("dt", dt), deriv)


def estimate_dt(u: Field) -> float:
    """The snapshot clock's unit: 0.5 dx / max(1, ||4u|| + ||2u_x||), capped at DT_MAX.

    :func:`simulate` spaces its snapshots ``snapshot_stride`` such units
    apart, the unit taken once from the initial datum.  The coefficients
    are the advective terms of the momentum formulation; the step itself
    comes from the stability bound of the stage (see :func:`simulate`).
    """
    speed = 4.0 * lp_norm(u, np.inf) + 2.0 * lp_norm(derivative(u, 1), np.inf)
    return float(min(0.5 * u.grid.dx / max(1.0, speed), DT_MAX))


def _spectral_stage(uh, grid: Grid, pre, post):
    """``(spectral_rhs(uh), w)`` with ``w = irfft(pre * uh)``, the squared operand."""
    # overflow surfaces as the named non-finite stage, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        w = grid.irfft(pre * uh)
        return post * grid.rfft(w * w), w


def spectral_rhs(uh, grid: Grid, pre, post):
    """u_t in Fourier space: ``post * rfft(irfft(pre * uh)**2)``, one FFT pair."""
    return _spectral_stage(uh, grid, pre, post)[0]


def _tail_max(uh, m: int) -> float:
    """max|uh| above the band of ``m``: the modes a step on ``Grid(m, L)`` carries unchanged."""
    tail = uh[m // 2 + 1 :]
    return float(np.max(np.abs(tail))) if tail.size else 0.0


def _compute_size(uh, m: int, n: int, tail: float) -> int:
    """The smallest power of two in ``[m, n]`` whose 2/3 band holds ``uh``.

    The band holds it when every coefficient at or above mode ``2 m' / 9``
    is at most ``BAND_FLOOR * max|uh|``; with no coefficient above the
    floor (zero data) that is ``m`` itself.  ``tail`` is
    ``_tail_max(uh, m)``, which the caller keeps while ``m`` holds, so only
    the band is read; when a tail coefficient is above the floor every
    coefficient is read, and the answer is the same either way.
    """
    if m == n:
        return m
    a = np.abs(uh[: m // 2 + 1])
    floor = BAND_FLOOR * max(float(np.max(a)), tail)
    if tail > floor:
        a = np.abs(uh)
    above = np.flatnonzero(a > floor)
    while m < n and above.size and 9 * above[-1] >= 2 * m:
        m *= 2
    return m


def _compute_operators(grid: Grid, m: int):
    """``(Grid(m, L), pre, post, reach)`` acting on the first ``m/2 + 1`` modes of an n-grid rfft.

    The n-grid coefficients are ``n/m`` times those of the m-grid samples,
    so the exact power-of-two factors ``m/n`` and ``n/m`` are folded into
    ``pre`` and ``post``; ``Grid(m, L).k_rfft`` is the first ``m/2 + 1``
    wavenumbers of ``grid`` bit for bit.  ``reach`` is the stability
    bound's numerator over ``B = 2 max|pre| max|post|``, which the folded
    factors leave unchanged: ``B`` is the compute grid's.
    """
    comp = grid if m == grid.n else Grid(m, grid.half_width)
    ik = comp.ik_pow[0]
    pre = np.where(comp.keep, 2.0 - ik, 0.0) * (m / grid.n)
    post = np.where(comp.keep, (2.0 * ik + comp.ik_pow[1]) / comp.helm, 0.0) * (grid.n / m)
    B = 2.0 * np.max(np.abs(pre)) * np.max(np.abs(post))
    return comp, pre, post, float(STEP_SAFETY * RK4_IMAGINARY_LIMIT / B)


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
    :func:`spectral_rhs` call, the dealiased primitive form
    ``post * rfft(w**2)`` with ``w = irfft(pre * uh)``.

    By default each step is taken from the stability bound of its own first
    stage.  The stage's Jacobian ``d -> post * rfft(2 w irfft(pre d))`` has
    spectral radius at most ``B ||w||_inf`` with
    ``B = 2 max|pre| max|post|`` over the kept modes (Parseval), so the
    step is ``h = min(STEP_SAFETY * RK4_IMAGINARY_LIMIT / (B ||w||_inf),
    DT_MAX)``, re-checked on every step from the first stage's ``w``.
    Snapshots run on a fixed clock of ``snapshot_stride * estimate_dt(u0)``:
    each snapshot time is the previous one plus the clock, and a step is
    shortened to land exactly on it and on T.  A stride-1 run whose bound
    allows the clock's step therefore takes one step per snapshot.
    ``dt_initial`` and ``dt_final`` are the first and last steps the bound
    chose, before any shortening.

    With an explicit ``dt`` every step is ``dt``, the last one shortened to
    land on T, and a snapshot is kept every ``snapshot_stride`` steps.

    Either way the stages run on the compute grid of the module docstring,
    re-chosen from ``uh`` before every step at no FFT cost.  ``B`` is taken
    on that grid, because its semi-discretisation is the one being stepped.
    The irfft on ``n`` runs only when a snapshot lands.  ``compute_n`` holds
    the ``m`` that produced each snapshot, the first one's ``m`` for ``u0``.

    Aborts with :class:`BlowUpError` if the sup norm grows by more than
    a factor of 1000 over the initial datum, checked after every step: a
    landing step reads its snapshot, any other step the Wiener-bound guard
    of the module docstring.  ``h1_drift`` holds |H1(t) - H1(0)| / H1(0)
    per snapshot, from the coefficients.
    """
    T = _require_positive("T", T)
    stride = _require_stride(snapshot_stride)
    if dt is not None:
        dt = _require_positive("dt", dt)

    grid = u0.grid
    n = grid.n
    if dt is None:
        unit = estimate_dt(u0)
        # a stride past T / unit keeps only T; the product could overflow a float
        clock = stride * unit if stride < T / unit else np.inf
    initial_peak = lp_norm(u0, np.inf)
    guard = BLOWUP_FACTOR * initial_peak if initial_peak > 0.0 else np.inf
    # sum(h1_weights * |uh|^2) is ||u||_{H^1}^2 as h1_norm takes it
    h1_weights = grid.h1_weight * (grid.dx / grid.n)

    def h1(vh) -> float:
        return float(np.sqrt(np.sum(h1_weights * (vh.real**2 + vh.imag**2))))

    def deriv(vh):
        # the operators of the current compute grid, rebound when m doubles
        return spectral_rhs(vh, comp, pre, post)

    uh = grid.rfft(u0.values)
    h1_0 = h1(uh)
    m = _compute_size(uh, 16, n, _tail_max(uh, 16))
    comp, pre, post, reach = _compute_operators(grid, m)
    tail = _tail_max(uh, m)
    times = [0.0]
    rows = [u0.values]
    drift = [0.0]
    sizes = [m]
    t, t_snap, step = 0.0, 0.0, 0
    while t < T - 1e-12 * T:
        grown = _compute_size(uh, m, n, tail)
        if grown != m:
            m = grown
            comp, pre, post, reach = _compute_operators(grid, m)
            tail = _tail_max(uh, m)
        band = slice(0, m // 2 + 1)
        if dt is None:
            k1, w = _spectral_stage(uh[band], comp, pre, post)
            k1 = _checked(1, k1)
            peak_w = float(np.max(np.abs(w)))
            bound = min(reach / peak_w, DT_MAX) if peak_w > 0.0 else DT_MAX
            interval = min(clock, T - t_snap)
            left = interval - (t - t_snap)
            lands = left - bound <= 1e-12 * T
            h = left if lands else bound
            t_next = min(t_snap + interval, T) if lands else t + h
        else:
            k1, bound = None, dt
            h = min(dt, T - t)
            t_next = min(t + h, T)
            lands = (step + 1) % stride == 0 or t_next >= T - 1e-12 * T
        if step == 0:
            dt_initial = bound
        uh[band] = _rk4(uh[band], h, deriv, k1)
        t = t_next
        step += 1
        if lands:
            values = grid.irfft(uh)
            peak = float(np.max(np.abs(values)))
        else:
            # the samples on the compute grid are at most the Wiener bound
            # 2 sum|uh[band]| / n; their irfft is taken only near the guard
            peak = 2.0 * float(np.sum(np.abs(uh[band]))) / n
            if peak > 0.5 * guard:
                peak = float(np.max(np.abs(comp.irfft(uh[band] * (m / n)))))
        if peak > guard:
            raise BlowUpError(t, step, peak, guard)
        if lands:
            t_snap = t
            times.append(t)
            rows.append(values)
            gap = abs(h1(uh) - h1_0)
            drift.append(gap / h1_0 if h1_0 > 0.0 else gap)
            sizes.append(m)

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        values=np.stack(rows),
        dt_initial=dt_initial,
        dt_final=bound,
        n_steps=step,
        h1_drift=np.asarray(drift),
        compute_n=np.asarray(sizes),
    )


def _write_rows(stream, config_hash: str, header: str, rows) -> None:
    """CSV text under a ``# config-hash`` line and ``header``; floats, numpy's too, as repr."""
    stream.write(f"# config-hash: {config_hash}\n{header}\n")
    for row in rows:
        stream.write(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
        stream.write("\n")


def snapshots_to_csv(traj: Trajectory, stream, config_hash: str) -> None:
    """Write the trajectory in long format with columns t,x,u, under a config-hash line."""
    times = np.asarray(traj.times, dtype=float)
    rows = ((t, *pair) for t, row in zip(times, traj.values) for pair in zip(traj.grid.x, row))
    _write_rows(stream, config_hash, "t,x,u", rows)


_CHECKPOINT_MAGIC = b"GCH1"
_SNAPSHOTS_MAGIC = b"GCHS"
_HEADER = struct.Struct("<4sIdd")  # magic, n (uint32), L, t -- little-endian
_SNAPSHOTS_COUNT = struct.Struct("<I12s")  # K (uint32), ASCII config hash


def write_checkpoint(path, u: Field, t: float) -> None:
    """Binary state dump: magic "GCH1", uint32 n, float64 L, float64 t, n float64 samples.

    All fields little-endian.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_CHECKPOINT_MAGIC, u.grid.n, u.grid.half_width, float(t)))
        fh.write(u.values.astype("<f8").tobytes())


def write_snapshots(path, traj: Trajectory, config_hash: str) -> None:
    """Binary trajectory dump, the checkpoint layout extended to K snapshots.

    Magic "GCHS", uint32 n, float64 L, float64 t (the last time), uint32 K,
    the 12 ASCII bytes of the config hash, K float64 times, then the K x n
    float64 samples row by row.  All fields little-endian.
    ``snapshots_to_csv(read_snapshots(path)[1], fh, config_hash)`` gives the
    ``t,x,u`` text of the trajectory.
    """
    tag = config_hash.encode("ascii")
    if len(tag) != 12:
        raise ValueError(f"config hash must be 12 ASCII characters, got {config_hash!r}")
    grid = traj.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_SNAPSHOTS_MAGIC, grid.n, grid.half_width, float(traj.times[-1])))
        fh.write(_SNAPSHOTS_COUNT.pack(len(traj), tag))
        fh.write(np.asarray(traj.times, dtype="<f8").tobytes())
        # the block's own buffer, not a tobytes() copy of it
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8"))


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


def read_checkpoint(path):
    """Read a :func:`write_checkpoint` dump; returns (t, Field).

    Raises ``ValueError`` naming the path when the file is not such a dump,
    its size disagrees with its header, or its grid or samples are invalid.
    """
    with open(path, "rb") as fh:
        n, L, t = _read_header(fh, path, _CHECKPOINT_MAGIC)
        # the size is checked before reading, so a corrupt header cannot ask
        # for an arbitrarily large buffer
        expected = 8 * n
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have < expected:
            raise ValueError(f"{path}: truncated state (expected {n} samples, got {have // 8})")
        if have > expected:
            raise ValueError(
                f"{path}: {n} samples need {expected} bytes after the header, found {have}"
            )
        raw = fh.read(expected)
    try:
        return t, Field(Grid(n, L), np.frombuffer(raw, dtype="<f8").astype(float))
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
        # sizes are checked before reading, so a corrupt header cannot ask
        # for an arbitrarily large buffer
        expected = 8 * count * (n + 1)
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if count == 0 or have > expected:
            raise ValueError(
                f"{path}: {count} snapshots of {n} samples need {expected} bytes "
                f"after the header, found {have}"
            )
        if have < expected:
            raise ValueError(f"{path}: truncated block ({have} of {expected} bytes)")
        raw = fh.read(expected)
    data = np.frombuffer(raw, dtype="<f8")
    times, block = data[:count].astype(float), data[count:].reshape(count, n)
    try:
        config_hash = tag.decode("ascii")
        if times[-1] != t:
            raise ValueError(f"last time {float(times[-1])!r} differs from the header's {t!r}")
        traj = Trajectory(Grid(n, L), times, block)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config_hash, traj
