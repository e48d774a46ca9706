"""Evolve a small pulse and watch the bookkeeping the solver carries along.

A 0.05 sech^2 pulse is integrated with classical RK4 at the CFL-capped
step.  The trajectory records the boundary magnitude per snapshot (the box
must stay effectively infinite) and the H^1 drift, which the flow conserves.
Refining the step, or stepping the physical-space form_a right-hand side
instead of the Fourier-space primitive form, leaves the final state
unchanged to far below the integration error.
"""

import numpy as np

from gch import Grid, estimate_dt, lp_norm, rhs, rk4_step, sample, simulate
from gch.dynamics import RhsForm

grid = Grid(1024, 40.0)
u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
print(f"dt from the transport bound: {estimate_dt(u0):.4g}")

traj = simulate(u0, 0.5, snapshot_stride=5)
print(f"steps: {traj.n_steps}, snapshots: {len(traj)}, valid: {traj.valid}")
print(f"max boundary magnitude: {np.max(traj.boundary_magnitudes):.2e}")
print(f"max H^1 drift:          {np.max(traj.metadata['h1_drift']):.2e}")

print("\n   t        max|u|      u(x=10)")
for t, snap in zip(traj.times, traj.snapshots):
    j = np.argmin(np.abs(grid.x - 10.0))
    print(f"  {t:5.2f}   {lp_norm(snap, np.inf):.6f}   {snap.values[j]:+.3e}")

half = simulate(u0, 0.5, snapshot_stride=10**6, dt=traj.dt_initial / 2)
print(f"\nhalf-step rerun shift:      {lp_norm(half.final - traj.final, np.inf):.2e}")
fixed = simulate(u0, 0.5, snapshot_stride=10**6, dt=0.01)
other = u0
for _ in range(50):
    other = rk4_step(other, 0.01, lambda v: rhs(v, RhsForm.FORM_A))
print(f"physical form_a shift:      {lp_norm(other - fixed.final, np.inf):.2e}")

finals = [
    simulate(u0, 0.8, snapshot_stride=10**6, dt=0.1 / 2**i).final
    for i in range(3)
]
e1 = lp_norm(finals[0] - finals[1], np.inf)
e2 = lp_norm(finals[1] - finals[2], np.inf)
print(f"measured convergence order: {np.log2(e1 / e2):.3f} (classical RK4: 4)")
