"""Closed-form bias-constrained linear estimators and the alpha <-> C maps.

The estimator family is beta-hat = G-hat^{-1} X^T Y, where G-hat shares the
eigenvectors of G = X^T X and its eigenvalues are G's under the filter
f_alpha of ``SchattenIndex.shrinkage``.  alpha = 0 recovers OLS; alpha = inf
is a sentinel for the zero estimator, which is optimal once the bias budget C
reaches d**(1/p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, DomainError, NonFinite
from .spectrum import GramSpectrum, SchattenIndex, gram_spectrum

__all__ = [
    "BiasBound",
    "FittedModel",
    "alpha_to_bias_bound",
    "bias_bound_to_alpha",
    "estimator_operator",
    "fit",
    "fit_path",
    "operator_diagnostics",
    "predict",
]


@dataclass(frozen=True)
class BiasBound:
    """Budget C on the Schatten-p norm of the bias operator LX - I."""

    value: float

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError(f"bias bound C must be nonnegative, got {self.value}")


@dataclass(frozen=True)
class FittedModel:
    p: SchattenIndex
    alpha: float
    beta_hat: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.beta_hat)):
            raise NonFinite("beta_hat is not finite")


def _inverse_filter_weights(spectrum: GramSpectrum, p: SchattenIndex, alpha) -> np.ndarray:
    """Weights r/s = 1/f_alpha(s) on the k = min(N, d) eigenvalues s that have
    an eigenvector: (k,) for a scalar alpha, (k, n_alpha) for a vector.

    An eigenvalue at or below the rank tolerance gets weight 0 for every p:
    X^T Y and X^T have no component on its eigenvector, so any other weight
    (G-hat's 1/alpha for p in {1, 2}) would only scale the rounding noise
    there.  The model is then min-norm OLS at alpha = 0, and for p = inf
    min-norm OLS scaled by 1/(1 + alpha).  alpha = inf gives all-zero
    weights: the zero estimator.
    """
    alpha = np.asarray(alpha, dtype=float)
    s = spectrum.eigvals[:spectrum.eigvecs.shape[1]].reshape(-1, *([1] * alpha.ndim))
    r, _ = p.shrinkage(s, alpha)
    out = np.zeros(np.broadcast_shapes(s.shape, alpha.shape))
    return np.divide(r, s, out=out, where=s > spectrum.rank_tol)


def fit(X: np.ndarray, Y: np.ndarray, p: SchattenIndex, alpha: float) -> FittedModel:
    """Fit the p-bias-constrained estimator at regularization strength alpha.
    Raises ValueError unless Y is (N,) for an (N, d) X, NonFinite for NaN or inf in Y."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if Y.shape != X.shape[:1]:
        raise ValueError(f"Y {Y.shape} must be {X.shape[:1]} for X {X.shape}")
    beta = fit_path(gram_spectrum(X), X.T @ Y, p, [alpha])[:, 0]
    return FittedModel(p=p, alpha=float(alpha), beta_hat=beta)


def fit_path(spectrum: GramSpectrum, xty: np.ndarray, p: SchattenIndex, alphas) -> np.ndarray:
    """Coefficients for every alpha at once, as the columns of a (d, n_alpha)
    array: beta-hat(alpha) = U diag(1/f_alpha) U^T xty for xty = X^T Y, one
    filter matrix and one product for the whole path.  Only the k weights
    with an eigenvector apply: X^T Y has no component on the other directions.
    Raises ValueError unless xty is (d,), and NonFinite unless it is finite."""
    if np.shape(xty) != (spectrum.n_feat,):
        raise ValueError(f"xty {np.shape(xty)} must be ({spectrum.n_feat},)")
    if not np.all(np.isfinite(xty)):
        raise NonFinite("X^T Y contains NaN or Inf")
    W = _inverse_filter_weights(spectrum, p, np.asarray(alphas, dtype=float).ravel())
    U = spectrum.eigvecs
    return U @ (W * (U.T @ xty)[:, None])


def predict(model: FittedModel, X_test: np.ndarray) -> np.ndarray:
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2 or X_test.shape[1] != model.beta_hat.shape[0]:
        raise DimensionMismatch(
            f"X_test has {X_test.shape[-1]} columns, model has "
            f"{model.beta_hat.shape[0]} features"
        )
    return X_test @ model.beta_hat


def estimator_operator(X: np.ndarray, p: SchattenIndex, alpha: float) -> np.ndarray:
    """The (d, N) matrix L with beta-hat = L Y, i.e. L = G-hat^{-1} X^T."""
    X = np.asarray(X, dtype=float)
    spectrum = gram_spectrum(X)
    U = spectrum.eigvecs
    return (U * _inverse_filter_weights(spectrum, p, alpha)) @ U.T @ X.T


def operator_diagnostics(
    L: np.ndarray, X: np.ndarray, p: SchattenIndex
) -> tuple[float, float]:
    """(Schatten-p norm of LX - I, Tr(L L^T) / 2) for a candidate operator."""
    L = np.asarray(L, dtype=float)
    X = np.asarray(X, dtype=float)
    if L.shape[1] != X.shape[0] or L.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"L {L.shape} incompatible with X {X.shape}")
    d = X.shape[1]
    B = L @ X - np.eye(d)
    bias_norm = p.norm(np.linalg.svd(B, compute_uv=False))
    return bias_norm, float(np.sum(L * L) / 2.0)


def alpha_to_bias_bound(
    spectrum: GramSpectrum, p: SchattenIndex, alpha: float
) -> BiasBound:
    """Bias norm C attained by the estimator at strength alpha.

    The bias operator LX - I is -1 on each of the d - rank null directions of
    G, where X gives the estimator nothing to act on, and -q = -(1 - r) of
    ``SchattenIndex.shrinkage`` on each eigenvalue s above the rank
    tolerance.  C is therefore monotone nondecreasing in alpha, from a floor
    at alpha = 0 (#null for p=1, sqrt(#null) for p=2, 1 for p=inf when G is
    singular; 0 at full rank) up to d**(1/p) at alpha = inf.
    """
    s = spectrum.eigvals[:spectrum.rank]
    _, q = p.shrinkage(s, alpha)
    null = np.ones(spectrum.n_feat - s.size)
    return BiasBound(p.norm(np.concatenate([null, np.broadcast_to(q, s.shape)])))


def bias_bound_to_alpha(
    spectrum: GramSpectrum, p: SchattenIndex, C: BiasBound | float
) -> float:
    """Invert the alpha -> C map; returns inf when C >= d**(1/p).

    The map is continuous and strictly increasing between its floor (its
    value at alpha = 0) and its supremum, so a doubling bracket plus Brent
    root-finding pins alpha to ~1e-12 relative.  A C below the floor set by
    the null directions of G cannot be reached and raises DomainError.
    """
    c = (C if isinstance(C, BiasBound) else BiasBound(float(C))).value
    d = spectrum.n_feat
    if c >= p.identity_norm(d):
        return np.inf
    floor = alpha_to_bias_bound(spectrum, p, 0.0).value
    if c < floor:
        raise DomainError(
            f"C = {c:g} is below the floor {floor:g} of the p = {p.value} bias "
            f"norm, set by the {d - spectrum.rank} null directions of G"
        )
    if c == floor:
        return 0.0
    if p is SchattenIndex.SPECTRAL:
        return c / (1.0 - c)
    # Imported here, its only use, so that `import schattenreg` skips scipy.optimize.
    from scipy.optimize import brentq

    def gap(a: float) -> float:
        return alpha_to_bias_bound(spectrum, p, a).value - c

    hi = max(float(spectrum.eigvals[0]), 1.0)
    while gap(hi) < 0:
        hi *= 2.0
    return float(brentq(gap, 0.0, hi, rtol=1e-12, xtol=1e-30, maxiter=300))
