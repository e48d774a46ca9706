"""How wide is the strip of analyticity, and what happens to it under the flow?

Fourier coefficients of a strip-analytic function decay like e^{-sigma k};
fitting that rate tracks the strip half-width sigma.  A sech profile with
poles at +-i pi/2 calibrates the estimator, a Gaussian trips the
super-exponential flag, and a short evolution shows the radius contracting
quickly at first (the complex singularities move at order-one speed even
for small data) while staying well away from zero.  The truncated majorant
norms behind the abstract existence machinery obey their operator bounds
with visible slack.
"""

import numpy as np

from gch import (
    Grid,
    MajorantParams,
    majorant_norm,
    operator_bound_report,
    radius_estimate,
    radius_track,
    sample,
    simulate,
)

grid = Grid(1024, 40.0)

sech = sample(grid, lambda x: 1 / np.cosh(x))
fit = radius_estimate(sech)
print(f"sech:     sigma = {fit.sigma:.4f}  (pole distance pi/2 = {np.pi/2:.4f}), "
      f"fit residual {fit.residual:.1e}")

gauss = sample(grid, lambda x: np.exp(-(x**2)))
fit_g = radius_estimate(gauss)
print(f"gaussian: sigma = {fit_g.sigma:.4f}  flagged: {fit_g.note}")

u0 = sample(grid, lambda x: 0.05 / np.cosh(x) ** 2)
traj = simulate(u0, 0.25, snapshot_stride=2)
series = radius_track(traj)
print("\nradius along the flow (u0 = 0.05 sech^2):")
for t, s, r in zip(series.times, series.sigma, series.residual):
    print(f"  t={t:5.3f}  sigma={s:.4f}  residual={r:.2e}")
print(f"  min sigma / initial sigma = {np.nanmin(series.sigma)/series.sigma[0]:.3f}")

print("\nmajorant norms |||u|||_s (truncated at K = 12) grow with the scale s:")
for s in (0.2, 0.4, 0.6, 0.8):
    print(f"  s={s}: {majorant_norm(u0, MajorantParams(s, 12)):.6f}")

rep = operator_bound_report(u0, 0.8, 0.4)
print("\noperator bounds at (s, s') = (0.8, 0.4):")
print(f"  shift:     {rep.shift_lhs:.6f} <= {rep.shift_rhs:.6f}  (slack {rep.shift_slack:.4f})")
print(f"  smoothing: {rep.smooth_lhs:.6f} <= {rep.smooth_rhs:.6f}  (slack {rep.smooth_slack:.4f})")
print(
    f"  algebra constant {rep.c_algebra:.4f}, drift under K-doubling "
    f"{rep.c_algebra_drift:.2%}"
)
