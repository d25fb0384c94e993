"""Numeric solver for the bias-constrained variance minimization problem.

Solves  min_L Tr(L L^T)/2  s.t.  ||L X - I||_p <= C  at desk scale, as an
independent check on the closed-form estimators.  The search is carried out
in the bias variable B = L X - I: for fixed B the minimum-variance operator
is L = (I + B) G^{-1} X^T, giving the smooth convex objective
g(B) = Tr((I + B) G^{-1} (I + B)^T)/2 over the Schatten-p ball of radius C.
Accelerated projected gradient descent with exact singular-value projections
(soft-threshold for p=1, rescale for p=2, clip for p=inf) solves it quickly.
"""

from __future__ import annotations

import numpy as np

from .estimators import BiasBound
from .exceptions import DidNotConverge, _check_array, _check_reals
from .spectrum import SchattenIndex

__all__ = ["project_schatten_ball", "solve_bias_constrained_numeric"]

# FISTA iterations per restart, the relative change of the objective that
# counts as converged, the number of restarts and the seed of their draws.
_MAX_ITER = 20000
_TOL = 1e-12
_N_RESTARTS = 5
_SEED = 0


def _project_l1_simplex_abs(s: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {x >= 0, sum x <= radius}."""
    if s.sum() <= radius:
        return s
    u = np.sort(s)[::-1]
    css = np.cumsum(u) - radius
    idx = np.arange(1, len(u) + 1)
    rho = np.max(np.nonzero(u - css / idx > 0)[0]) + 1
    theta = css[rho - 1] / rho
    return np.maximum(s - theta, 0.0)


def project_schatten_ball(B: np.ndarray, p: SchattenIndex, radius: float) -> np.ndarray:
    """Euclidean (Frobenius) projection onto the Schatten-p ball of given
    radius.  Raises DimensionMismatch unless B is 2-d, NonFinite for a NaN
    or inf entry, and InvalidConfig unless radius is finite and nonnegative."""
    B = _check_array(B, "B", (None, None))
    _check_reals({"radius": radius})
    if radius == 0:
        return np.zeros_like(B)
    if p is SchattenIndex.FROBENIUS:
        nrm = np.linalg.norm(B)
        return B if nrm <= radius else B * (radius / nrm)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    if p is SchattenIndex.NUCLEAR:
        s_proj = _project_l1_simplex_abs(s, radius)
    else:
        s_proj = np.minimum(s, radius)
    return (U * s_proj) @ Vt


def solve_bias_constrained_numeric(X: np.ndarray, C: BiasBound | float,
                                   p: SchattenIndex) -> np.ndarray:
    """Minimize Tr(L L^T)/2 subject to ||L X - I||_p <= C; returns L (d, N).

    The problem is convex, so the 5 random restarts are a consistency check
    rather than a necessity; the best objective across restarts is returned.
    Raises DimensionMismatch unless X is 2-d and NonFinite for a NaN or inf
    entry, before the search starts, and DidNotConverge if no restart
    reaches the relative-change tolerance 1e-12 within 20000 iterations.

    The search runs on X / ||X||_2 and returns that solution's L / ||X||_2,
    which is exact because L(kX) = L(X) / k at the same C.  The objective
    scales like 1 / ||X||^2, so at unit scale the stop rule's max(1, |obj|)
    means the same accuracy whatever the units of X.
    """
    X = _check_array(X, "X", (None, None))
    N, d = X.shape
    c = (C if isinstance(C, BiasBound) else BiasBound(C)).value
    if c >= p.identity_norm(d):
        # Constraint set contains B = -I, i.e. L = 0, the global minimizer.
        return np.zeros((d, N))

    scale = np.linalg.norm(X, 2) or 1.0  # a zero X stays singular
    X = X / scale
    G = X.T @ X
    Ginv = np.linalg.inv(G)
    eigs = np.linalg.eigvalsh(Ginv)
    step = 1.0 / eigs[-1]  # 1 / Lipschitz constant of the gradient
    eye = np.eye(d)

    def objective(B: np.ndarray) -> float:
        M = eye + B
        return float(np.sum((M @ Ginv) * M) / 2.0)

    rng = np.random.default_rng(_SEED)
    best_B, best_obj = None, np.inf
    any_converged = False
    for restart in range(_N_RESTARTS):
        if restart == 0:
            B = project_schatten_ball(-eye, p, c)
        else:
            B = project_schatten_ball(rng.standard_normal((d, d)), p, c)
        # FISTA with projection; momentum restarts are unnecessary here.
        Z = B.copy()
        t = 1.0
        prev_obj = objective(B)
        converged = False
        for _ in range(_MAX_ITER):
            grad = (eye + Z) @ Ginv
            B_next = project_schatten_ball(Z - step * grad, p, c)
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            Z = B_next + ((t - 1.0) / t_next) * (B_next - B)
            B, t = B_next, t_next
            obj = objective(B)
            if abs(prev_obj - obj) <= _TOL * max(1.0, abs(obj)):
                converged = True
                break
            prev_obj = obj
        obj = objective(B)
        any_converged = any_converged or converged
        if obj < best_obj:
            best_obj, best_B = obj, B
    if not any_converged:
        raise DidNotConverge(
            f"objective still changing by more than {_TOL} after {_MAX_ITER} iterations"
        )
    return (eye + best_B) @ Ginv @ X.T / scale
