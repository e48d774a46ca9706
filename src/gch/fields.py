"""Initial-condition generators and seeded test-field families."""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid, interpolate_onto, read_initial_condition, sample

__all__ = [
    "make_initial",
    "INITIAL_KINDS",
    "smooth_field_family",
    "compact_pair_family",
]

INITIAL_KINDS = ("zero", "sech", "sech2", "gaussian", "file")


def make_initial(grid: Grid, kind: str, amplitude: float = 0.05,
                 width: float = 1.0, center: float = 0.0, path=None) -> Field:
    """Build a named initial condition on the grid."""
    if kind == "zero":
        return Field(grid, np.zeros(grid.n))
    if kind == "sech":
        return sample(grid, lambda x: amplitude / np.cosh((x - center) / width))
    if kind == "sech2":
        return sample(grid, lambda x: amplitude / np.cosh((x - center) / width) ** 2)
    if kind == "gaussian":
        return sample(grid, lambda x: amplitude * np.exp(-(((x - center) / width) ** 2)))
    if kind == "file":
        if path is None:
            raise ValueError("initial kind 'file' requires a path")
        return interpolate_onto(*read_initial_condition(path), grid)
    raise ValueError(f"unknown initial-condition kind {kind!r}; choose from {INITIAL_KINDS}")


def _sign(rng: np.random.Generator) -> float:
    """A random sign, from the stream ``rng.choice([-1.0, 1.0])`` reads, at a fifth of its cost."""
    return (-1.0, 1.0)[rng.integers(2)]


def _random_smooth_field(grid: Grid, rng: np.random.Generator) -> Field:
    """Three Gaussian bumps with random centers, widths and signed amplitudes.

    Bumps stay well inside the box so the samples decay below roundoff at
    the seam; widths of at least one length unit keep the spectrum far from
    the dealiasing band on the working grids.
    """
    vals = np.zeros(grid.n)
    for _ in range(3):
        a = 0.2 * rng.uniform(0.3, 1.0) * _sign(rng)
        c = rng.uniform(-8.0, 8.0)
        w = rng.uniform(1.0, 3.0)
        vals += a * np.exp(-(((grid.x - c) / w) ** 2))
    return Field(grid, vals)


def _random_compact_field(grid: Grid, rng: np.random.Generator) -> Field:
    """Two smooth bumps that vanish identically outside [-10, 10].

    Built from the standard mollifier exp(-1/(1-t^2)); exact compact
    support keeps periodized convolutions free of wrap-around.
    """
    vals = np.zeros(grid.n)
    for _ in range(2):
        a = rng.uniform(0.3, 1.0) * _sign(rng)
        half = rng.uniform(0.3, 0.45) * 10.0
        c = rng.uniform(-(10.0 - half), 10.0 - half)
        t = (grid.x - c) / half
        inside = np.abs(t) < 1.0
        bump = np.zeros(grid.n)
        with np.errstate(divide="ignore", over="ignore"):
            bump[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        vals += a * np.e * bump  # scaled so the bump peak is ~a
    return Field(grid, vals)


def smooth_field_family(grid: Grid, count: int, seed: int) -> list:
    """Deterministic family of smooth decaying fields for sweep tests."""
    rng = np.random.default_rng(seed)
    return [_random_smooth_field(grid, rng) for _ in range(count)]


def compact_pair_family(grid: Grid, count: int, seed: int) -> list:
    """Deterministic family of compactly supported field pairs."""
    rng = np.random.default_rng(seed)
    return [
        (_random_compact_field(grid, rng), _random_compact_field(grid, rng))
        for _ in range(count)
    ]
