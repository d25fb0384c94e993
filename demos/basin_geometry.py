"""Loss-basin geometry of the error-versus-strength curves.

Locates the minimum and curvature of each estimator's theoretical error
curve, prints the depth and curvature increases relative to Ridge, and then
uses the rule of thumb E[min] = mu + (kappa delta)^2 / ((n+1)(n+2)) to show
why a flatter basin can win under coarse cross-validation grids even when
its minimum is slightly higher.
"""

import numpy as np

from schattenreg import (
    SchattenIndex,
    default_alpha_grid,
    err_spherical_quadrature,
    expected_cv_minimum,
    geometry_table,
    locate_min_and_curvature,
)

LAM, BETA = 0.5, 1.0
SIGMAS = [0.5, 1.0, 2.0]

grid = default_alpha_grid()
curves = {}
for sigma in SIGMAS:
    for name, p in (("ridge", SchattenIndex.FROBENIUS),
                    ("nuclear", SchattenIndex.NUCLEAR),
                    ("spectral", SchattenIndex.SPECTRAL)):
        curves[(name, sigma, LAM)] = err_spherical_quadrature(p, grid, LAM, BETA, sigma)

cells = geometry_table(curves, grid)
print(f"{'estimator':>9} {'sigma':>6} {'depth %':>9} {'curvature %':>12}")
for cell in cells:
    print(f"{cell.estimator:>9} {cell.sigma:>6.1f} {cell.depth_pct:>9.2f}"
          f" {cell.curvature_pct:>12.2f}")

# Expected cross-validated minimum for a coarse grid: n alpha values landing
# uniformly within half a grid step (delta) of the optimum.
print("\nexpected CV minimum (n = 9 grid values, sigma = 1):")
delta = 0.5 * np.log(10) * 10.0 / 8  # half a log step of the 9-point grid
for name, p in (("ridge", SchattenIndex.FROBENIUS),
                ("nuclear", SchattenIndex.NUCLEAR)):
    geom = locate_min_and_curvature(curves[(name, 1.0, LAM)], grid)
    # convert curvature to log-alpha units at the minimum
    kappa_log = geom.kappa * geom.alpha_min
    exp_min = expected_cv_minimum(geom.err_min, kappa_log, delta, 9)
    print(f"  {name:>9}: min {geom.err_min:.4f}, expected CV min {exp_min:.4f}")
