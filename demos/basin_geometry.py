"""Loss-basin geometry of the error-versus-strength curves.

Locates the minimum and curvature of each estimator's theoretical error
curve, prints the depth and curvature increases relative to Ridge, and then
uses the rule of thumb E[min] = mu + (kappa delta)^2 / ((n+1)(n+2)) to show
why a flatter basin can win under coarse cross-validation grids even when
its minimum is slightly higher.
"""

import numpy as np

from schattenreg import (
    MODEL_NAMES,
    AlphaGrid,
    MarchenkoPastur,
    error_integrals,
    expected_cv_minimum,
    geometry_table,
    locate_min_and_curvature,
)
from schattenreg.basin import DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_N

LAM, BETA = 0.5, 1.0
SIGMAS = [0.5, 1.0, 2.0]
# Ridge, the reference of every cell, first; then MODEL_NAMES' order.
MODELS = {name: p for p, name in sorted(MODEL_NAMES.items(), key=lambda item: item[1] != "ridge")}

grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_N).values()
# One pass for all three estimators; each sigma then costs no quadrature.
integrals = error_integrals(tuple(MODELS.values()), MarchenkoPastur(LAM), grid, LAM)
curves = {(name, sigma, LAM): q.error(BETA, sigma)
          for sigma in SIGMAS for name, q in zip(MODELS, integrals)}

cells = geometry_table(curves, grid)
print(f"{'estimator':>9} {'sigma':>6} {'depth %':>9} {'curvature %':>12}")
for cell in cells:
    print(f"{cell.estimator:>9} {cell.sigma:>6.1f} {cell.depth_pct:>9.2f}"
          f" {cell.curvature_pct:>12.2f}")

# Expected cross-validated minimum for a coarse grid: n alpha values landing
# uniformly within half a grid step (delta) of the optimum.
print("\nexpected CV minimum (n = 9 grid values, sigma = 1):")
delta = 0.5 * np.log(10) * 10.0 / 8  # half a log step of the 9-point grid
for name in ("ridge", "nuclear"):
    geom = locate_min_and_curvature(curves[(name, 1.0, LAM)], grid)
    # convert curvature to log-alpha units at the minimum
    kappa_log = geom.kappa * geom.alpha_min
    exp_min = expected_cv_minimum(geom.err_min, kappa_log, delta, 9)
    print(f"  {name:>9}: min {geom.err_min:.4f}, expected CV min {exp_min:.4f}")
