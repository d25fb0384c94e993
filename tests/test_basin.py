import re

import numpy as np
import pytest

from schattenreg import (
    AlphaGrid,
    MarchenkoPastur,
    SchattenIndex,
    error_integrals,
    expected_cv_minimum,
    geometry_table,
    locate_min_and_curvature,
    err_spectral_closed,
    monte_carlo_parabola_min,
)
from schattenreg.basin import (DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_N,
                              FIT_HALF_WINDOW)
from schattenreg.exceptions import DegenerateFit, DimensionMismatch, InvalidConfig


def err_mp(p, alpha, lam, beta, sigma):
    """Error of estimator p against the MP law at aspect ratio lam."""
    (q,) = error_integrals((p,), MarchenkoPastur(lam), alpha, lam)
    return q.error(beta, sigma)


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
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_N).values()
    values = err_mp(SchattenIndex.FROBENIUS, grid, 0.5, 1.0, 1.0)
    geom = locate_min_and_curvature(values, grid)
    i = np.searchsorted(grid, geom.alpha_min)
    step = grid[min(i + 1, len(grid) - 1)] / grid[i]
    assert abs(np.log(geom.alpha_min / 1.0)) <= np.log(step) * 1.001


def test_nuclear_flatter_than_ridge():
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_N).values()
    ridge = locate_min_and_curvature(
        err_mp(SchattenIndex.FROBENIUS, grid, 0.5, 1.0, 1.0), grid
    )
    nuclear = locate_min_and_curvature(
        err_mp(SchattenIndex.NUCLEAR, grid, 0.5, 1.0, 1.0), grid
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


@pytest.mark.parametrize("values_shape, grid_shape, message", [
    ((20,), (30,), "values (20,) must be (30,)"), ((32,), (30,), "values (32,) must be (30,)"),
    ((30, 1), (30,), "values (30, 1) must be (30,)"), ((30,), (30, 1), "grid (30, 1) must be 1-d"),
])
def test_curve_and_grid_must_be_1d_of_one_length(values_shape, grid_shape, message):
    # 20 values on 30 points failed in np.polyfit with a TypeError, and 32
    # values with an IndexError.
    values = np.linspace(1.0, 2.0, np.prod(values_shape)).reshape(values_shape)
    grid = np.linspace(0.0, 1.0, np.prod(grid_shape)).reshape(grid_shape)
    with pytest.raises(DimensionMismatch, match="^" + re.escape(message) + "$"):
        locate_min_and_curvature(values, grid)


def test_monte_carlo_degenerate_case():
    mean, stderr = monte_carlo_parabola_min(0.7, 0.0, 1.0, 3, reps=2000, seed=0)
    assert mean == pytest.approx(0.7, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("delta, n, match", [
    (1.0, 0, "^n must be an integer >= 1, got 0$"),
    (1.0, -2, "^n must be an integer >= 1, got -2$"),
    (0.0, 3, "^delta must be finite and positive, got 0.0$"),
    (-1.0, 3, "^delta must be finite and positive, got -1.0$"),
    (np.nan, 3, "^delta must be finite and positive, got nan$"),
])
def test_monte_carlo_rejects_what_the_closed_form_rejects(delta, n, match):
    # The oracle used to fail inside numpy at n = 0 and delta = -1, and to
    # return (0.0, 0.0) at delta = 0.
    with pytest.raises(ValueError, match=match):
        expected_cv_minimum(0.0, 1.0, delta, n)
    with pytest.raises(ValueError, match=match):
        monte_carlo_parabola_min(0.0, 1.0, delta, n, reps=1000)


@pytest.mark.parametrize("n", [2.5, True, 3.0])
def test_parabola_model_needs_an_integer_draw_count(n):
    # 2.5 used to give the closed form a value, 0.0635 at (0, 1, 1), while the
    # oracle failed inside numpy; True is a bool, not a count.
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got "):
        expected_cv_minimum(0.0, 1.0, 1.0, n)
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got "):
        monte_carlo_parabola_min(0.0, 1.0, 1.0, n, reps=1000)


def test_parabola_model_takes_a_numpy_integer_draw_count():
    assert expected_cv_minimum(0.0, 1.0, 1.0, np.int64(3)) == expected_cv_minimum(0.0, 1.0, 1.0, 3)
    assert (monte_carlo_parabola_min(0.0, 1.0, 1.0, np.int32(3), reps=1000)
            == monte_carlo_parabola_min(0.0, 1.0, 1.0, 3, reps=1000))


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
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, 200).values()
    curves = {}
    for name, p in [("ridge", SchattenIndex.FROBENIUS),
                    ("nuclear", SchattenIndex.NUCLEAR)]:
        curves[(name, 1.0, 0.5)] = err_mp(p, grid, 0.5, 1.0, 1.0)
    by_name = {c.estimator: c for c in geometry_table(curves, grid)}
    assert by_name["ridge"].depth_pct == 0.0
    assert by_name["ridge"].curvature_pct == 0.0
    assert by_name["nuclear"].depth_pct > 0.0
    assert by_name["nuclear"].curvature_pct < 0.0


@pytest.mark.parametrize("ridge", ["zero", "constant"])
def test_geometry_table_rejects_a_flat_ridge_curve(ridge):
    # Ridge's minimum and kappa are the bases of the percentages.  With
    # beta = sigma = 0 every error curve is 0, so the minimum is; a constant
    # curve has kappa 0.
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, 200).values()
    curves = {(name, 0.0, 0.5): err_mp(p, grid, 0.5, 0.0, 0.0)
              for name, p in [("ridge", SchattenIndex.FROBENIUS),
                              ("nuclear", SchattenIndex.NUCLEAR)]}
    assert not np.any(curves[("ridge", 0.0, 0.5)])
    if ridge == "constant":
        curves[("ridge", 0.0, 0.5)] = np.ones_like(grid)
    with pytest.raises(DegenerateFit, match="ridge"):
        geometry_table(curves, grid)


def test_geometry_table_without_a_ridge_curve_names_the_cell():
    # Ridge's curve at each (sigma, shape) is the base of its percentages;
    # without it the table raised a bare KeyError.
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, 200).values()
    curves = {("ridge", 1.0, 0.5): err_mp(SchattenIndex.FROBENIUS, grid, 0.5, 1.0, 1.0),
              ("nuclear", 2.0, 0.5): err_mp(SchattenIndex.NUCLEAR, grid, 0.5, 1.0, 2.0)}
    with pytest.raises(InvalidConfig, match="^no ridge curve at sigma 2, shape 0.5$"):
        geometry_table(curves, grid)


def test_depth_gap_shrinks_with_sigma():
    # Higher noise brings the Nuclear minimum closer to the Ridge minimum.
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, 300).values()
    gaps = []
    for sigma in (0.5, 1.0, 2.0, 3.5):
        ridge = locate_min_and_curvature(
            err_mp(SchattenIndex.FROBENIUS, grid, 0.5, 1.0, sigma), grid
        )
        nuclear = locate_min_and_curvature(
            err_mp(SchattenIndex.NUCLEAR, grid, 0.5, 1.0, sigma), grid
        )
        gaps.append(nuclear.err_min / ridge.err_min - 1.0)
    assert np.all(np.diff(gaps) <= 1e-6)


def test_grid_min_bounds_curve():
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, 100).values()
    values = err_mp(SchattenIndex.SPECTRAL, grid, 0.3, 1.0, 1.0)
    geom = locate_min_and_curvature(values, grid)
    assert np.all(geom.err_min <= values + 1e-15)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_spectral_curvature_matches_closed_form_second_derivative(sigma):
    # With u = 1 + alpha, K = lam beta^2 and M = lam sigma^2 / (1 - lam) the
    # closed form is E = K - 2K/u + (K + M)/u^2; its derivatives in alpha:
    lam, beta = 0.5, 1.0
    K, M = lam * beta * beta, lam * sigma * sigma / (1.0 - lam)
    d2 = lambda u: -4.0 * K / u**3 + 6.0 * (K + M) / u**4  # noqa: E731
    d3 = lambda u: 12.0 * K / u**4 - 24.0 * (K + M) / u**5  # noqa: E731
    # A bound on |E''''| = |-48 K/u^5 + 120 (K + M)/u^6| that falls with u.
    d4_bound = lambda u: 48.0 * K / u**5 + 120.0 * (K + M) / u**6  # noqa: E731

    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_N).values()
    values = np.array([err_spectral_closed(a, lam, beta, sigma) for a in grid])
    geom = locate_min_and_curvature(values, grid)
    i0 = int(np.argmin(values))
    assert not geom.edge_minimum and geom.alpha_min == grid[i0]
    fit = slice(i0 - FIT_HALF_WINDOW, i0 + FIT_HALF_WINDOW + 1)
    x = grid[fit] - grid[i0]

    # The fit's quadratic coefficient is h . y, with h the first row of the
    # pseudo-inverse of [x^2, x, 1]: it reproduces x^2 and annihilates x and 1.
    # By Taylor's theorem about the argmin a0,
    #   y_i = E'(a0) x_i + E''(a0) x_i^2 / 2 + E'''(a0) x_i^3 / 6 + R_i,
    #   |R_i| <= max over the window of |E''''| x_i^4 / 24,
    # so twice the coefficient is E''(a0) + E'''(a0) (h . x^3) / 3 + 2 h . R,
    # plus the rounding of y: a few ulps of the largest value in the window.
    h = np.linalg.pinv(np.column_stack([x * x, x, np.ones_like(x)]))[0]
    u0, u_lo = 1.0 + grid[i0], 1.0 + grid[fit][0]
    rounding = 8.0 * np.finfo(float).eps * values[fit].max()
    tol = 2.0 * (abs(d3(u0) * (h @ x**3)) / 6.0
                 + np.abs(h) @ (d4_bound(u_lo) * x**4 / 24.0 + rounding))
    assert abs(geom.curvature - d2(u0)) <= tol
