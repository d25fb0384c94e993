"""Closed-form bias-constrained linear estimators and the alpha <-> C maps.

The estimator family is beta-hat = G-hat^{-1} X^T Y, where G-hat shares the
eigenvectors of G = X^T X and its eigenvalues are G's under the filter
f_alpha of ``SchattenIndex.shrinkage``.  alpha = 0 recovers OLS; alpha = inf
is a sentinel for the zero estimator, which is optimal once the bias budget C
reaches d**(1/p).
"""

from __future__ import annotations

import numpy as np

from .exceptions import DomainError, NonFinite, _check_array, _check_reals
from .spectrum import GramSpectrum, SchattenIndex, gram_spectrum

__all__ = [
    "alpha_to_bias_bound",
    "bias_bound_to_alpha",
    "estimator_operator",
    "fit",
    "fit_path",
    "operator_diagnostics",
    "predict",
]


def _inverse_filter_weights(spectrum: GramSpectrum, p: SchattenIndex, alpha) -> np.ndarray:
    """Weights r/s = 1/f_alpha(s) on the k = rank kept eigenvalues s: (k,) for
    a scalar alpha, (k, n_alpha) for a vector.

    The n_feat - rank null directions get no weight: X^T Y and X^T have no
    component on them, so any weight (G-hat's 1/alpha for p in {1, 2}) would
    only scale rounding noise.  The model is then min-norm OLS at alpha = 0,
    and for p = inf min-norm OLS scaled by 1/(1 + alpha).  alpha = inf gives
    all-zero weights: the zero estimator.
    """
    alpha = np.asarray(alpha, dtype=float)
    s = spectrum.eigvals.reshape(-1, *([1] * alpha.ndim))
    r, _ = p.shrinkage(s, alpha)
    return r / s


def fit(X: np.ndarray, Y: np.ndarray, p: SchattenIndex, alpha: float) -> np.ndarray:
    """The (d,) coefficients of the p-bias-constrained estimator at
    regularization strength alpha: column 0 of fit_path at [alpha].  Raises
    DimensionMismatch unless X is 2-d, (N, d), and Y is (N,), and NonFinite
    for a NaN or inf in either or in the coefficients."""
    X = _check_array(X, "X", (None, None))
    Y = _check_array(Y, "Y", X.shape[:1])
    beta = fit_path(gram_spectrum(X), X.T @ Y, p, [alpha])[:, 0]
    if not np.isfinite(beta).all():
        raise NonFinite("beta_hat is not finite")
    return beta


def fit_path(spectrum: GramSpectrum, xty: np.ndarray, p: SchattenIndex, alphas) -> np.ndarray:
    """Coefficients for every alpha at once, as the columns of a (d, n_alpha)
    array: beta-hat(alpha) = U diag(1/f_alpha) U^T xty for xty = X^T Y, one
    filter matrix and one product for the whole path, over the kept
    eigenpairs alone: X^T Y has no component on the null directions.
    Raises DimensionMismatch unless xty is (d,), and NonFinite unless it is finite."""
    xty = _check_array(xty, "xty", (spectrum.n_feat,))
    W = _inverse_filter_weights(spectrum, p, np.asarray(alphas, dtype=float).ravel())
    U = spectrum.eigvecs
    return U @ (W * (U.T @ xty)[:, None])


def predict(beta: np.ndarray, X_test: np.ndarray) -> np.ndarray:
    """X_test @ beta for coefficients beta, as fit returns them.  Raises
    DimensionMismatch unless beta is (d,) and X_test is (n, d), and NonFinite
    for a NaN or inf entry in either."""
    beta = _check_array(beta, "beta", (None,))
    return _check_array(X_test, "X_test", (None, len(beta))) @ beta


def estimator_operator(X: np.ndarray, p: SchattenIndex, alpha: float) -> np.ndarray:
    """The (d, N) matrix L with beta-hat = L Y, i.e. L = G-hat^{-1} X^T."""
    X = np.asarray(X, dtype=float)
    spectrum = gram_spectrum(X)
    U = spectrum.eigvecs
    return (U * _inverse_filter_weights(spectrum, p, alpha)) @ U.T @ X.T


def operator_diagnostics(
    L: np.ndarray, X: np.ndarray, p: SchattenIndex
) -> tuple[float, float]:
    """(Schatten-p norm of LX - I, Tr(L L^T) / 2) for a candidate operator.
    Raises DimensionMismatch unless X is 2-d, (N, d), and L is (d, N), and
    NonFinite for a NaN or inf in either."""
    X = _check_array(X, "X", (None, None))
    L = _check_array(L, "L", X.shape[::-1])
    d = X.shape[1]
    B = L @ X - np.eye(d)
    bias_norm = p.norm(np.linalg.svd(B, compute_uv=False))
    return bias_norm, float(np.sum(L * L) / 2.0)


def alpha_to_bias_bound(spectrum: GramSpectrum, p: SchattenIndex, alpha: float) -> float:
    """Budget C, the Schatten-p norm of the bias operator LX - I, that the
    estimator at strength alpha attains, as a float.

    The bias operator LX - I is -1 on each of the n_feat - rank null
    directions of G, where X gives the estimator nothing to act on, and
    -q = -(1 - r) of ``SchattenIndex.shrinkage`` on each kept eigenvalue s.
    C is therefore monotone nondecreasing in alpha, from a floor at alpha = 0
    (#null for p=1, sqrt(#null) for p=2, 1 for p=inf when G is singular;
    0 at full rank) up to d**(1/p) at alpha = inf.
    """
    s = spectrum.eigvals
    _, q = p.shrinkage(s, alpha)
    null = np.ones(spectrum.n_feat - spectrum.rank)
    return p.norm(np.concatenate([null, np.broadcast_to(q, s.shape)]))


def bias_bound_to_alpha(spectrum: GramSpectrum, p: SchattenIndex, C: float) -> float:
    """Invert the alpha -> C map for a budget C, a finite real >= 0, else
    InvalidConfig; returns inf when C >= d**(1/p), where the zero estimator
    is allowed.

    The map is continuous and strictly increasing between its floor (its
    value at alpha = 0) and its supremum, so a doubling bracket plus Brent
    root-finding pins alpha to ~1e-12 relative.  A C below the floor set by
    the null directions of G cannot be reached and raises DomainError.
    """
    _check_reals({"bias bound C": C})
    d = spectrum.n_feat
    if C >= p.identity_norm(d):
        return np.inf
    floor = alpha_to_bias_bound(spectrum, p, 0.0)
    if C < floor:
        raise DomainError(
            f"C = {C:g} is below the floor {floor:g} of the p = {p.value} bias "
            f"norm, set by the {d - spectrum.rank} null directions of G"
        )
    if C == floor:
        return 0.0
    if p is SchattenIndex.SPECTRAL:
        return C / (1.0 - C)
    # Imported here, its only use, so that `import schattenreg` skips scipy.optimize.
    from scipy.optimize import brentq

    def gap(a: float) -> float:
        return alpha_to_bias_bound(spectrum, p, a) - C

    hi = float(spectrum.eigvals.max(initial=1.0))  # no eigenvalue when X = 0
    while gap(hi) < 0:
        hi *= 2.0
    return float(brentq(gap, 0.0, hi, rtol=1e-12, xtol=1e-30, maxiter=300))
