import ast
from pathlib import Path

import numpy as np
import pytest

import schattenreg.oracle
from schattenreg import (
    SchattenIndex,
    alpha_to_bias_bound,
    bias_bound_to_alpha,
    estimator_operator,
    gram_spectrum,
    operator_diagnostics,
    project_schatten_ball,
    solve_bias_constrained_numeric,
)
from schattenreg.exceptions import DidNotConverge, DimensionMismatch, NonFinite

ALL_P = list(SchattenIndex)


def test_numeric_oracle_imports_nothing_from_the_estimators_it_checks():
    tree = ast.parse(Path(schattenreg.oracle.__file__).read_text())
    assert "estimators" not in {node.module for node in ast.walk(tree)
                                if isinstance(node, ast.ImportFrom)}


def test_numeric_oracle_rejects_a_design_that_is_not_2d():
    # numpy used to fail unpacking the shape: "not enough values to unpack".
    with pytest.raises(DimensionMismatch, match=r"^X \(5,\) must be 2-d"):
        solve_bias_constrained_numeric(np.ones(5), 0.5, SchattenIndex.FROBENIUS)


def test_numeric_oracle_rejects_a_non_finite_design():
    # A NaN used to reach the SVD of the scale: "SVD did not converge".
    X = np.random.default_rng(0).standard_normal((8, 4))
    X[2, 1] = np.nan
    with pytest.raises(NonFinite, match="^X contains NaN or inf$"):
        solve_bias_constrained_numeric(X, 0.5, SchattenIndex.FROBENIUS)


def test_numeric_oracle_raises_when_no_restart_converges(monkeypatch):
    # One FISTA step per restart cannot bring the objective's change below _TOL.
    monkeypatch.setattr(schattenreg.oracle, "_MAX_ITER", 1)
    X = np.random.default_rng(0).standard_normal((8, 4))
    with pytest.raises(DidNotConverge, match="^objective still changing by more than 1e-12 "
                                             "after 1 iterations$"):
        solve_bias_constrained_numeric(X, 0.5, SchattenIndex.NUCLEAR)


@pytest.mark.parametrize("p", ALL_P)
def test_saturated_budget_returns_zero_operator(p):
    X = np.random.default_rng(0).standard_normal((8, 4))
    L = solve_bias_constrained_numeric(X, p.identity_norm(4), p)
    np.testing.assert_array_equal(L, np.zeros((4, 8)))


@pytest.mark.parametrize("p", ALL_P)
def test_zero_budget_recovers_ols(p):
    X = np.random.default_rng(1).standard_normal((10, 4))
    L = solve_bias_constrained_numeric(X, 0.0, p)
    ols = np.linalg.inv(X.T @ X) @ X.T
    np.testing.assert_allclose(L, ols, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("p", ALL_P)
def test_oracle_agrees_with_closed_form(p):
    # The acceptance-level check at a reduced instance count.
    rng = np.random.default_rng(42)
    for _ in range(5):
        X = rng.standard_normal((6, 3))
        sp = gram_spectrum(X)
        alpha = bias_bound_to_alpha(sp, p, 0.8)
        L_closed = estimator_operator(X, p, alpha)
        L_num = solve_bias_constrained_numeric(X, 0.8, p)
        _, v_closed = operator_diagnostics(L_closed, X, p)
        _, v_num = operator_diagnostics(L_num, X, p)
        assert v_num == pytest.approx(v_closed, rel=1e-3)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_oracle_accuracy_does_not_depend_on_the_units_of_x(scale):
    # Ridge at alpha = 0.7 s_2, whose bias bound C is the same at every scale.
    X = np.random.default_rng(0).standard_normal((8, 3)) * scale
    p = SchattenIndex.FROBENIUS
    sp = gram_spectrum(X)
    alpha = 0.7 * sp.eigvals[1]
    L_closed = estimator_operator(X, p, alpha)
    L_num = solve_bias_constrained_numeric(X, alpha_to_bias_bound(sp, p, alpha), p)
    assert np.max(np.abs(L_num - L_closed)) <= 1e-6 * np.max(np.abs(L_closed))


@pytest.mark.parametrize("p", ALL_P)
def test_solution_is_feasible(p):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 4))
    c = 0.6
    L = solve_bias_constrained_numeric(X, c, p)
    bias, _ = operator_diagnostics(L, X, p)
    assert bias <= c + 1e-8


def test_projection_frobenius_rescales():
    B = np.eye(3) * 2.0
    P = project_schatten_ball(B, SchattenIndex.FROBENIUS, 1.0)
    assert np.linalg.norm(P) == pytest.approx(1.0)
    np.testing.assert_allclose(P, B / np.linalg.norm(B))


def test_projection_spectral_clips():
    B = np.diag([3.0, 0.5])
    P = project_schatten_ball(B, SchattenIndex.SPECTRAL, 1.0)
    np.testing.assert_allclose(P, np.diag([1.0, 0.5]))


def test_projection_nuclear_soft_thresholds():
    B = np.diag([3.0, 1.0])
    P = project_schatten_ball(B, SchattenIndex.NUCLEAR, 2.0)
    # Simplex projection of (3, 1) onto sum <= 2 is (2, 0).
    np.testing.assert_allclose(P, np.diag([2.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("p", ALL_P)
def test_projection_is_idempotent_and_contractive(p):
    rng = np.random.default_rng(9)
    for _ in range(10):
        B = rng.standard_normal((4, 4)) * 3
        P = project_schatten_ball(B, p, 1.0)
        sv = np.linalg.svd(P, compute_uv=False)
        norm = {SchattenIndex.NUCLEAR: sv.sum(),
                SchattenIndex.FROBENIUS: np.sqrt((sv**2).sum()),
                SchattenIndex.SPECTRAL: sv.max()}[p]
        assert norm <= 1.0 + 1e-10
        np.testing.assert_allclose(project_schatten_ball(P, p, 1.0), P, atol=1e-9)
