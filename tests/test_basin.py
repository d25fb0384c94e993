import numpy as np
import pytest

from schattenreg import (
    SchattenIndex,
    default_alpha_grid,
    expected_cv_minimum,
    geometry_table,
    locate_min_and_curvature,
    err_spherical_quadrature,
    monte_carlo_parabola_min,
)
from schattenreg.exceptions import DegenerateFit


def test_exact_parabola_recovery():
    kappa2, mu = 3.7, 0.42
    fn = lambda a: kappa2 * (a - 1.0) ** 2 / 2.0 + mu  # noqa: E731
    grid = np.linspace(0.8, 1.2, 401)
    geom = locate_min_and_curvature(fn(grid), grid)
    assert geom.err_min == pytest.approx(mu, rel=1e-6)
    assert geom.curvature == pytest.approx(kappa2, rel=1e-6)
    assert geom.alpha_min == pytest.approx(1.0, abs=1e-3)
    assert not geom.edge_minimum


def test_edge_minimum_is_flagged():
    grid = np.linspace(0.0, 1.0, 50)
    geom = locate_min_and_curvature(grid, grid)  # argmin at the left edge
    assert geom.edge_minimum


def test_degenerate_window_raises():
    with pytest.raises(DegenerateFit):
        locate_min_and_curvature(np.ones(3), np.array([1.0, 1.0, 1.0]))


def test_ridge_minimum_at_oracle_alpha():
    grid = default_alpha_grid()
    values = err_spherical_quadrature(SchattenIndex.FROBENIUS, grid, 0.5, 1.0, 1.0)
    geom = locate_min_and_curvature(values, grid)
    i = np.searchsorted(grid, geom.alpha_min)
    step = grid[min(i + 1, len(grid) - 1)] / grid[i]
    assert abs(np.log(geom.alpha_min / 1.0)) <= np.log(step) * 1.001


def test_nuclear_flatter_than_ridge():
    grid = default_alpha_grid()
    ridge = locate_min_and_curvature(
        err_spherical_quadrature(SchattenIndex.FROBENIUS, grid, 0.5, 1.0, 1.0), grid
    )
    nuclear = locate_min_and_curvature(
        err_spherical_quadrature(SchattenIndex.NUCLEAR, grid, 0.5, 1.0, 1.0), grid
    )
    assert nuclear.curvature < ridge.curvature
    assert nuclear.err_min >= ridge.err_min


def test_curvature_offset_and_scale_covariance():
    base = lambda a: 2.0 * (a - 1.0) ** 2 + 0.1  # noqa: E731
    grid = np.linspace(0.5, 1.5, 301)
    g0 = locate_min_and_curvature(base(grid), grid)
    g_off = locate_min_and_curvature(base(grid) + 5.0, grid)
    g_scaled = locate_min_and_curvature(3.0 * base(grid), grid)
    assert g_off.curvature == pytest.approx(g0.curvature, rel=1e-9)
    assert g_scaled.curvature == pytest.approx(3.0 * g0.curvature, rel=1e-9)


# ---------------------------------------------------------------------------
# Rule of thumb for the expected cross-validated minimum
# ---------------------------------------------------------------------------

def test_expected_cv_minimum_hand_values():
    assert expected_cv_minimum(0.3, 0.0, 1.0, 5) == 0.3
    assert expected_cv_minimum(0.0, 1.0, 1.0, 1) == pytest.approx(1.0 / 6.0)
    assert expected_cv_minimum(0.2, 1.0, 1.0, 10**6) == pytest.approx(0.2, abs=1e-9)


def test_monte_carlo_degenerate_case():
    mean, stderr = monte_carlo_parabola_min(0.7, 0.0, 1.0, 3, reps=2000, seed=0)
    assert mean == pytest.approx(0.7, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,expected", [(1, 1.0 / 6.0), (3, 1.0 / 20.0)])
def test_monte_carlo_matches_formula(n, expected):
    mean, stderr = monte_carlo_parabola_min(0.0, 1.0, 1.0, n, reps=200_000, seed=1)
    assert abs(mean - expected) < 3 * stderr


def test_formula_vs_monte_carlo_sweep():
    for kappa in (0.5, 2.0):
        for n in (1, 3, 10):
            mean, stderr = monte_carlo_parabola_min(
                0.1, kappa, 0.7, n, reps=100_000, seed=n
            )
            assert abs(mean - expected_cv_minimum(0.1, kappa, 0.7, n)) < 3 * stderr


# ---------------------------------------------------------------------------
# Geometry table
# ---------------------------------------------------------------------------

def test_geometry_table_ridge_rows_are_zero():
    grid = default_alpha_grid(n=200)
    curves = {}
    for name, p in [("ridge", SchattenIndex.FROBENIUS),
                    ("nuclear", SchattenIndex.NUCLEAR)]:
        curves[(name, 1.0, 0.5)] = err_spherical_quadrature(p, grid, 0.5, 1.0, 1.0)
    by_name = {c.estimator: c for c in geometry_table(curves, grid)}
    assert by_name["ridge"].depth_pct == 0.0
    assert by_name["ridge"].curvature_pct == 0.0
    assert by_name["nuclear"].depth_pct > 0.0
    assert by_name["nuclear"].curvature_pct < 0.0


def test_depth_gap_shrinks_with_sigma():
    # Higher noise brings the Nuclear minimum closer to the Ridge minimum.
    grid = default_alpha_grid(n=300)
    gaps = []
    for sigma in (0.5, 1.0, 2.0, 3.5):
        ridge = locate_min_and_curvature(
            err_spherical_quadrature(SchattenIndex.FROBENIUS, grid, 0.5, 1.0, sigma), grid
        )
        nuclear = locate_min_and_curvature(
            err_spherical_quadrature(SchattenIndex.NUCLEAR, grid, 0.5, 1.0, sigma), grid
        )
        gaps.append(nuclear.err_min / ridge.err_min - 1.0)
    assert np.all(np.diff(gaps) <= 1e-6)


def test_grid_min_bounds_curve():
    grid = default_alpha_grid(n=100)
    values = err_spherical_quadrature(SchattenIndex.SPECTRAL, grid, 0.3, 1.0, 1.0)
    geom = locate_min_and_curvature(values, grid)
    assert np.all(geom.err_min <= values + 1e-15)
