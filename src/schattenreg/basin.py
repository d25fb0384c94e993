"""Loss-basin geometry of error-vs-alpha curves.

The interesting quantity for cross-validation is not just how deep the
minimum of Err(alpha) is but how sharp: with a finite search over alpha the
expected achieved minimum is penalized by the curvature at the bottom of the
basin.  This module measures both and evaluates the closed-form penalty for
the idealized parabola model, together with its Monte-Carlo oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateFit, InvalidConfig, _check_array, _check_counts, _check_reals

__all__ = [
    "BasinGeometry",
    "GeometryCell",
    "expected_cv_minimum",
    "geometry_table",
    "locate_min_and_curvature",
    "monte_carlo_parabola_min",
]

# 500 points, logarithmically spaced over [1e-3, 1e5].
DEFAULT_GRID_LO = 1e-3
DEFAULT_GRID_HI = 1e5
DEFAULT_GRID_N = 500
FIT_HALF_WINDOW = 5


@dataclass(frozen=True)
class BasinGeometry:
    alpha_min: float
    err_min: float
    curvature: float  # Hessian of Err w.r.t. alpha at the minimum
    edge_minimum: bool = False  # argmin within the fit window of a grid edge

    @property
    def kappa(self) -> float:
        return float(np.sqrt(max(self.curvature, 0.0)))


def locate_min_and_curvature(values: np.ndarray, grid: np.ndarray) -> BasinGeometry:
    """Grid argmin plus curvature of a curve's values on `grid`, from a
    quadratic fit on an 11-point window.

    The quadratic is fit in alpha on the linear scale, centered at the grid
    argmin; the estimated Hessian is twice the quadratic coefficient.  Edge
    minima use a one-sided window and are flagged.  Raises DimensionMismatch
    unless grid is 1-d and values has its shape, and NonFinite for a NaN or
    inf in either.
    """
    grid = _check_array(grid, "grid", (None,))
    values = _check_array(values, "values", grid.shape)
    i0 = int(np.argmin(values))
    lo = max(i0 - FIT_HALF_WINDOW, 0)
    hi = min(i0 + FIT_HALF_WINDOW, len(grid) - 1)
    edge = (i0 - FIT_HALF_WINDOW < 0) or (i0 + FIT_HALF_WINDOW > len(grid) - 1)
    x = grid[lo : hi + 1] - grid[i0]
    y = values[lo : hi + 1] - values[i0]
    # Distinct points by sorting, not np.unique, which imports numpy.ma.
    if np.count_nonzero(np.diff(np.sort(x))) + 1 < 3:
        raise DegenerateFit("need at least 3 distinct grid points around the minimum")
    coeffs = np.polyfit(x, y, 2)
    return BasinGeometry(
        alpha_min=float(grid[i0]),
        err_min=float(values[i0]),
        curvature=float(2.0 * coeffs[0]),
        edge_minimum=edge,
    )


def _check_draws(delta: float, n: int) -> None:
    """The parabola model's inputs: n >= 1 draws, an integer, on [-delta, delta],
    delta finite and positive."""
    _check_counts({"n": n})
    _check_reals({"delta": delta}, admits=lambda v: 0.0 < v < np.inf, what="finite and positive")


def expected_cv_minimum(mu: float, kappa: float, delta: float, n: int) -> float:
    """Expected achieved minimum of kappa^2 x^2 / 2 + mu over n uniform draws
    on [-delta, delta]: mu + (kappa delta)^2 / ((n+1)(n+2))."""
    _check_draws(delta, n)
    return mu + (kappa * delta) ** 2 / ((n + 1) * (n + 2))


def monte_carlo_parabola_min(
    mu: float,
    kappa: float,
    delta: float,
    n: int,
    reps: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo oracle for expected_cv_minimum: (mean, standard error).
    Rejects the n and delta that expected_cv_minimum rejects."""
    _check_draws(delta, n)
    _check_counts({"reps": reps}, least=1000)
    _check_counts({"seed": seed}, least=0)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-delta, delta, size=(reps, n))
    mins = (kappa * kappa * np.min(x * x, axis=1) / 2.0) + mu
    return float(np.mean(mins)), float(np.std(mins, ddof=1) / np.sqrt(reps))


@dataclass(frozen=True)
class GeometryCell:
    estimator: str
    sigma: float
    shape_param: float  # lam for spherical, gamma for diagonal
    depth_pct: float  # percent increase of min error vs Ridge
    curvature_pct: float  # percent increase of kappa vs Ridge
    edge_minimum: bool


def geometry_table(
    curves: dict[tuple[str, float, float], np.ndarray], grid: np.ndarray
) -> list[GeometryCell]:
    """Depth / curvature percent increases relative to the Ridge estimator,
    one cell per curve.  A Ridge minimum of 0 and a curve whose fitted
    curvature is not positive (a flat curve, or a grid too coarse for the
    11-point fit) raise DegenerateFit.

    curves maps (estimator_name, sigma, shape_param) -> Err on `grid`; every
    (sigma, shape_param) pair must include "ridge", else InvalidConfig.
    """
    geoms = {key: locate_min_and_curvature(values, grid) for key, values in curves.items()}
    for (name, sigma, shape), geom in geoms.items():
        at = f"at sigma {sigma:g}, shape {shape:g}"
        if ("ridge", sigma, shape) not in geoms:
            raise InvalidConfig(f"no ridge curve {at}")
        if name == "ridge" and geom.err_min == 0:
            raise DegenerateFit(f"ridge's minimum is 0 {at}")
        if geom.curvature <= 0:
            raise DegenerateFit(f"{name}'s fitted curvature is {geom.curvature:.3g}, "
                                f"not positive, {at}")
    cells = []
    for (name, sigma, shape), geom in geoms.items():
        ref = geoms[("ridge", sigma, shape)]
        cells.append(
            GeometryCell(
                estimator=name,
                sigma=sigma,
                shape_param=shape,
                depth_pct=100.0 * (geom.err_min / ref.err_min - 1.0),
                curvature_pct=100.0 * (geom.kappa / ref.kappa - 1.0),
                edge_minimum=geom.edge_minimum or ref.edge_minimum,
            )
        )
    return cells
