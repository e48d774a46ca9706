"""Evolve a small pulse and watch the bookkeeping the solver carries along.

A 0.05 sech^2 pulse is integrated by default with the flow's own Taylor
series in time: each step sums 16 orders over the series' radius times
BAND_FLOOR^(1/16), is halved where the compute grid's band stops holding
its end, and only T is landed on.  Snapshots run on a clock of 5 units of
``estimate_dt`` and are the step's series summed at their times: on the
benchmark's pulses they match an RK4 run at an eighth of the clock to that
run's own error, and drift in H^1 by under 4e-16.  The trajectory records
the boundary magnitude per snapshot (the box must stay effectively
infinite) and the H^1 drift, which the flow conserves.  An explicit ``dt``
steps classical RK4 instead: every step is ``dt``, neither checked nor cut,
until the last lands on T, and the snapshots are the state at every
``snapshot_stride``-th step's end and at T.  Refining the RK4 step
converges to the series' final state at order 4, and stepping the
physical-space form_a right-hand side instead of the Fourier-space primitive
form leaves the RK4 result unchanged to far below the integration error."""

import numpy as np

from gch import Grid, estimate_dt, lp_norm, rhs, rk4_step, sample, simulate
from gch.dynamics import RhsForm

grid = Grid(1024, 40.0)
u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
print(f"snapshot clock: 5 x {estimate_dt(u0):.4g}")

traj = simulate(u0, 0.5, snapshot_stride=5)
print(f"first series step: {traj.dt_initial:.4g}")
print(f"steps: {traj.n_steps} ({traj.n_rejected} cut where the band stopped holding), "
      f"snapshots: {len(traj)}, valid: {traj.valid}")
print(f"max boundary magnitude: {np.max(traj.boundary_magnitudes):.2e}")
print(f"max H^1 drift:          {np.max(traj.h1_drift):.2e}")

print("\n   t        max|u|      u(x=10)")
for t, snap in zip(traj.times, traj.snapshots):
    j = np.argmin(np.abs(grid.x - 10.0))
    print(f"  {t:5.2f}   {lp_norm(snap, np.inf):.6f}   {snap.values[j]:+.3e}")

# a stride past T / dt keeps only T: RK4 steps of dt, and the last lands on T; a 4x
# finer step moves RK4 4^4 times closer to the series
print()
for k in (8, 32):
    rk4 = simulate(u0, 0.5, snapshot_stride=10**6, dt=traj.dt_initial / k)
    print(f"RK4 at 1/{k} of the first series step, shift: "
          f"{lp_norm(rk4.final - traj.final, np.inf):.2e}")
# T / dt = 50, so the run takes 50 steps of 0.01, as the loop below does
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
