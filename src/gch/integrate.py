"""Deterministic explicit time stepping with snapshot recording.

Classical four-stage Runge-Kutta with a fixed step chosen from a CFL-style
bound on the transport coefficients 4u and 2u_x.  The step is re-examined
every 100 steps and may only shrink, never grow, so reruns with identical
inputs are bit-identical.

:func:`simulate` keeps the state in Fourier space, as the rfft ``uh`` of
u, and evaluates each stage in the primitive form

    k = post * rfft(irfft(pre * uh)**2),
    pre = keep * (2 - ik),    post = keep * (2ik + (ik)^2) / (1 + k^2),

with the multipliers taken once per run from the ``Grid`` operator table:
one FFT pair per stage.  The operand (2 - d_x)u is truncated by ``pre``
and the square by ``post``, which with a truncated operand is the exact
2/3 rule (Orszag 1971), so every form of :mod:`gch.dynamics` defines the
same semi-discretisation and the cheapest one drives the integrator.
The physical-space :func:`rk4_step` with :func:`gch.dynamics.rhs` stays as
the reference path.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

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
    "spectral_operators",
    "spectral_rhs",
    "snapshots_to_csv",
    "write_checkpoint",
    "read_checkpoint",
    "write_snapshots",
    "read_snapshots",
    "BOUNDARY_TOLERANCE",
]

CFL_NUMBER = 0.5
DT_MAX = 1e-2
BLOWUP_FACTOR = 1e3
#: A run is marked valid only while max(|u(-L)|, |u(L-dx)|) stays below this.
BOUNDARY_TOLERANCE = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots of a simulation plus run metadata."""

    grid: Grid
    times: np.ndarray
    snapshots: tuple
    dt_initial: float
    dt_final: float
    n_steps: int
    boundary_magnitudes: np.ndarray
    h1_drift: np.ndarray | None = None  # per snapshot from simulate; None if wrapped

    def __post_init__(self):
        if len(self.snapshots) != len(self.times):
            raise ValueError("snapshots and times must have equal length")
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must start at 0 and increase strictly")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def u0(self) -> Field:
        return self.snapshots[0]

    @property
    def final(self) -> Field:
        return self.snapshots[-1]

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
        return cls(
            grid=snapshots[0].grid,
            times=np.asarray(times, dtype=float),
            snapshots=snapshots,
            dt_initial=np.nan,
            dt_final=np.nan,
            n_steps=0,
            boundary_magnitudes=np.asarray([_boundary_magnitude(u) for u in snapshots]),
        )


def _boundary_magnitude(u: Field) -> float:
    return float(max(abs(u.values[0]), abs(u.values[-1])))


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _stage(index: int, deriv, y):
    k = deriv(y)
    if not np.all(np.isfinite(k.values if isinstance(k, Field) else k)):
        raise FloatingPointError(f"non-finite RK4 stage {index}")
    return k


def _rk4(y, dt: float, deriv):
    """The RK4 update of a ``Field`` or of a coefficient array."""
    k1 = _stage(1, deriv, y)
    k2 = _stage(2, deriv, y + (0.5 * dt) * k1)
    k3 = _stage(3, deriv, y + (0.5 * dt) * k2)
    k4 = _stage(4, deriv, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(u: Field, dt: float, deriv) -> Field:
    """One classical RK4 update; raises on a non-finite stage."""
    return _rk4(u, _require_positive("dt", dt), deriv)


def estimate_dt(u: Field) -> float:
    """CFL-style step from the transport coefficients, capped at DT_MAX.

    dt = 0.5 dx / max(1, ||4u|| + ||2u_x||), the coefficients being the
    advective terms of the momentum formulation.
    """
    speed = 4.0 * lp_norm(u, np.inf) + 2.0 * lp_norm(derivative(u, 1), np.inf)
    return float(min(CFL_NUMBER * u.grid.dx / max(1.0, speed), DT_MAX))


def spectral_operators(grid: Grid):
    """The multipliers ``(pre, post)`` of :func:`spectral_rhs` on this grid.

    Both are zero outside the 2/3 mask ``keep``, which excludes the Nyquist
    mode.
    """
    ik = grid.ik_pow[0]
    pre = np.where(grid.keep, 2.0 - ik, 0.0)
    post = np.where(grid.keep, (2.0 * ik + grid.ik_pow[1]) / grid.helm, 0.0)
    return pre, post


def spectral_rhs(uh, grid: Grid, pre, post):
    """u_t in Fourier space: ``post * rfft(irfft(pre * uh)**2)``, one FFT pair."""
    # overflow surfaces as the named non-finite stage, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        a = grid.irfft(pre * uh)
        return post * grid.rfft(a * a)


def simulate(
    u0: Field,
    T: float,
    snapshot_stride: int = 1,
    dt: float | None = None,
) -> Trajectory:
    """Integrate from u0 to time T, recording every ``snapshot_stride`` steps.

    The state is the rfft of u and each RK4 stage is one
    :func:`spectral_rhs` call, the dealiased primitive form.
    The step size comes from :func:`estimate_dt` unless ``dt`` is given
    explicitly; either way the last step is shortened to land exactly on T.
    Aborts with :class:`BlowUpError` if the sup norm grows by more than
    a factor of 1000 over the initial datum.  ``h1_drift``
    holds |H1(t) - H1(0)| / H1(0) per snapshot, from the coefficients.
    """
    T = _require_positive("T", T)
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")

    grid = u0.grid
    pre, post = spectral_operators(grid)
    deriv = lambda vh: spectral_rhs(vh, grid, pre, post)
    dt_nominal = _require_positive("dt", dt) if dt is not None else estimate_dt(u0)
    dt_initial = dt_nominal
    initial_peak = lp_norm(u0, np.inf)
    guard = BLOWUP_FACTOR * initial_peak if initial_peak > 0.0 else np.inf
    # sum(h1_weights * |uh|^2) is ||u||_{H^1}^2 as h1_norm takes it
    h1_weights = grid.h1_weight * (grid.dx / grid.n)

    def h1(vh) -> float:
        return float(np.sqrt(np.sum(h1_weights * (vh.real**2 + vh.imag**2))))

    uh = grid.rfft(u0.values)
    h1_0 = h1(uh)
    times = [0.0]
    snaps = [u0]
    boundary = [_boundary_magnitude(u0)]
    drift = [0.0]
    values, t, step = u0.values, 0.0, 0
    while t < T - 1e-12 * T:
        if dt is None and step > 0 and step % 100 == 0:
            dt_nominal = min(dt_nominal, estimate_dt(Field(grid, values)))
        step_dt = min(dt_nominal, T - t)
        uh = _rk4(uh, step_dt, deriv)
        t = min(t + step_dt, T)
        step += 1
        values = grid.irfft(uh)
        peak = float(np.max(np.abs(values)))
        if peak > guard:
            raise BlowUpError(t, step, peak, guard)
        if step % snapshot_stride == 0 or t >= T - 1e-12 * T:
            u = Field(grid, values)
            times.append(t)
            snaps.append(u)
            boundary.append(_boundary_magnitude(u))
            gap = abs(h1(uh) - h1_0)
            drift.append(gap / h1_0 if h1_0 > 0.0 else gap)

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        snapshots=tuple(snaps),
        dt_initial=dt_initial,
        dt_final=dt_nominal,
        n_steps=step,
        boundary_magnitudes=np.asarray(boundary),
        h1_drift=np.asarray(drift),
    )


def snapshots_to_csv(traj: Trajectory, stream, config_hash: str) -> None:
    """Write the trajectory in long format with columns t,x,u, under a config-hash line."""
    stream.write(f"# config-hash: {config_hash}\n")
    stream.write("t,x,u\n")
    for t, snap in zip(traj.times, traj.snapshots):
        ts = repr(float(t))
        for xj, uj in zip(traj.grid.x, snap.values):
            stream.write(f"{ts},{float(xj)!r},{float(uj)!r}\n")


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
        # row by row: a stacked K x n copy would double the peak memory of the dump
        for snap in traj.snapshots:
            fh.write(snap.values.astype("<f8", copy=False).tobytes())


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
    """Read a binary state dump; returns (t, Field)."""
    with open(path, "rb") as fh:
        n, L, t = _read_header(fh, path, _CHECKPOINT_MAGIC)
        raw = fh.read(8 * n)
    values = np.frombuffer(raw, dtype="<f8")
    if values.size != n:
        raise ValueError(f"{path}: truncated state (expected {n} samples, got {values.size})")
    return t, Field(Grid(n, L), values.astype(float))


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
        grid = Grid(n, L)
        traj = Trajectory.from_snapshots(times, (Field(grid, row) for row in block))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config_hash, traj
