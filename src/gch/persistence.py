"""Empirical verification of weighted-norm growth bounds along the flow.

For an admissible weight the triple norm

    W(t) = ||u w_N||_p + ||u_x w_N||_p + ||u_xx w_N||_p

grows at most like W(0) exp(C M t), where M bounds the sup norms of
(u, u_x, u_xx) over the horizon and w_N = min(w, N) is the bounded
truncation.  ``persistence_ledger`` measures the smallest constant C_fit
that makes the bound true on the sampled trajectory; the two-tier check
repeats the measurement for (w, p) and (sqrt(w), 2) for fast-growing
weights whose kernel integral diverges, and records the L^1 time series of
the two convolution sources together with their fitted exp(2 C M t)
envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import lp_norms
from .integrate import Trajectory
from .weights import (
    WeightSpec,
    admissibility_report,
    eval_weight,
    truncate_weight,
    weight_on_grid,
)

__all__ = [
    "PersistenceLedger",
    "TwoTierReport",
    "persistence_ledger",
    "two_tier_persistence_check",
    "default_truncation_level",
]


def _require_valid(traj: Trajectory) -> None:
    if not traj.valid:
        raise ValueError(
            "trajectory is not boundary-clean (max boundary magnitude "
            f"{np.max(traj.boundary_magnitudes):.3e} exceeds tolerance)"
        )


def default_truncation_level(phi: WeightSpec, traj: Trajectory) -> float:
    """Truncate at the weight's value at 0.9 L, away from the active region."""
    return float(eval_weight(phi, 0.9 * traj.grid.half_width))


@dataclass
class PersistenceLedger:
    """Weighted-norm history with the fitted growth constant.

    C_fit is the max over samples of log(W_i/W_0)/(M t_i), floored at zero:
    the smallest constant for which W(t) <= W(0) exp(C_fit M t) holds at
    every sample, with equality at the binding index.
    """

    times: np.ndarray
    W: np.ndarray
    M: float
    C_fit: float
    N_used: float
    p: float
    weight: WeightSpec
    degenerate: bool = False
    binding_index: int | None = None

    def bound(self) -> np.ndarray:
        """The fitted envelope W(0) exp(C_fit M t) at the sample times."""
        return self.W[0] * np.exp(self.C_fit * self.M * self.times)


def persistence_ledger(
    traj: Trajectory, phi: WeightSpec, p: float, N: float | None = None
) -> PersistenceLedger:
    """Measure the weighted triple norm along the trajectory and fit its growth."""
    _require_valid(traj)
    if N is None:
        N = default_truncation_level(phi, traj)
    if N <= 0:
        raise ValueError(f"truncation level must be positive, got {N}")
    grid = traj.grid
    w_vals = weight_on_grid(truncate_weight(phi, N), grid)

    # u, u_x and u_xx a row block at a time, the derivatives from the one spectrum
    sups, W = np.zeros(len(traj)), np.zeros(len(traj))
    for rows in traj.row_blocks():
        spec = traj.spectrum[rows]
        for f in (traj.values[rows], *(grid.irfft(grid.diff_hat(spec, k)) for k in (1, 2))):
            sups[rows] += lp_norms(f, grid.dx, np.inf)
            W[rows] += lp_norms(f * w_vals, grid.dx, p)
    M = float(np.max(sups))

    if W[0] == 0.0:
        return PersistenceLedger(
            times=traj.times, W=W, M=M, C_fit=np.nan, N_used=N, p=p,
            weight=phi, degenerate=True,
        )

    # a lone snapshot has no growth to fit
    C_fit, binding = 0.0, None
    if len(W) > 1:
        slopes = np.log(W[1:] / W[0]) / (M * traj.times[1:])
        i_max = int(np.argmax(slopes))
        C_fit = float(max(0.0, slopes[i_max]))
        binding = i_max + 1 if slopes[i_max] > 0.0 else None
    return PersistenceLedger(
        times=traj.times, W=W, M=M, C_fit=C_fit, N_used=N, p=p,
        weight=phi, binding_index=binding,
    )


@dataclass
class TwoTierReport:
    """Result of the two-tier boundedness check for fast-growing weights."""

    condition_ok: bool
    reason: str | None
    ledger_primary: PersistenceLedger | None
    ledger_root: PersistenceLedger | None
    times: np.ndarray | None = None
    source_plain: np.ndarray | None = None
    source_differentiated: np.ndarray | None = None
    envelope_plain: float | None = None
    envelope_differentiated: float | None = None
    envelope_rate: float | None = None

    @property
    def bounded(self) -> bool:
        return (
            self.condition_ok
            and self.ledger_primary is not None
            and bool(np.all(np.isfinite(self.ledger_primary.W)))
            and bool(np.all(np.isfinite(self.ledger_root.W)))
        )


def _weighted_l1_sources(traj: Trajectory, w_vals: np.ndarray):
    """L^1 norms of the two convolution sources, weighted.

    source_plain carries (2 u_x^2 + 6 u^2) + d_x(u_x^2); the differentiated
    variant carries d_x(2 u_x^2 + 6 u^2) + u_x^2.
    """
    grid = traj.grid
    plain, diffed = np.empty(len(traj)), np.empty(len(traj))
    for rows in traj.row_blocks():
        u2 = traj.values[rows] ** 2
        ux2 = grid.irfft(grid.diff_hat(traj.spectrum[rows], 1)) ** 2
        base = 2.0 * ux2 + 6.0 * u2
        plain[rows] = lp_norms((base + grid.diff(ux2)) * w_vals, grid.dx, 1.0)
        diffed[rows] = lp_norms((grid.diff(base) + ux2) * w_vals, grid.dx, 1.0)
    return plain, diffed


def two_tier_persistence_check(traj: Trajectory, phi: WeightSpec, p: float) -> TwoTierReport:
    """Check boundedness of both the (phi, p) and (sqrt(phi), 2) ledgers.

    Applies to weights too fast-growing for the plain estimate: the kernel
    L^1 condition may fail as long as v e^{-|x|} stays in L^p, which is
    verified through :func:`admissibility_report` before any norms are
    computed.  The comparison weight v is phi itself, the natural choice
    for a sub-multiplicative weight, and both ledgers truncate at their
    default level.
    """
    report = admissibility_report(phi, phi, p=p)
    if not report.passes["kernel_lp"]:
        return TwoTierReport(
            condition_ok=False,
            reason="weight hypothesis not satisfied: v e^{-|x|} is not in L^p",
            ledger_primary=None,
            ledger_root=None,
        )

    ledger_primary = persistence_ledger(traj, phi, p)
    ledger_root = persistence_ledger(traj, phi.sqrt(), 2.0)

    N_used = ledger_primary.N_used
    w_vals = weight_on_grid(truncate_weight(phi, N_used), traj.grid)
    source_plain, source_diffed = _weighted_l1_sources(traj, w_vals)

    # Envelope K exp(2 C M t) with C from the sqrt-weight tier, whose
    # squared L^2 bounds control these L^1 series.
    rate = 2.0 * (0.0 if ledger_root.degenerate else ledger_root.C_fit) * ledger_root.M
    growth = np.exp(rate * traj.times)
    env_plain = float(np.max(source_plain / growth))
    env_diffed = float(np.max(source_diffed / growth))

    return TwoTierReport(
        condition_ok=True,
        reason=None,
        ledger_primary=ledger_primary,
        ledger_root=ledger_root,
        times=traj.times,
        source_plain=source_plain,
        source_differentiated=source_diffed,
        envelope_plain=env_plain,
        envelope_differentiated=env_diffed,
        envelope_rate=rate,
    )
