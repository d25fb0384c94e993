"""Closed-form bias-constrained linear estimators and the alpha <-> C maps.

The estimator family is beta-hat = G-hat^{-1} X^T Y, where G-hat shares the
eigenvectors of G = X^T X and its eigenvalues are a filtered version of G's
(see :mod:`schattenreg.spectrum`).  alpha = 0 recovers OLS; alpha = inf is a
sentinel for the zero estimator, which is optimal once the bias budget C
reaches d**(1/p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, DomainError, NonFinite, SingularGram
from .spectrum import GramSpectrum, SchattenIndex, filtered_gram_eigvals, gram_spectrum

__all__ = [
    "BiasBound",
    "FittedModel",
    "alpha_to_bias_bound",
    "bias_bound_to_alpha",
    "estimator_operator",
    "fit",
    "fit_from_spectrum",
    "fit_path",
    "operator_diagnostics",
    "predict",
]


@dataclass(frozen=True)
class BiasBound:
    """Budget C on the Schatten-p norm of the bias operator LX - I."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bias bound must be nonnegative")


@dataclass(frozen=True)
class FittedModel:
    p: SchattenIndex
    alpha: float
    beta_hat: np.ndarray
    spectrum: GramSpectrum

    def __post_init__(self):
        if not np.all(np.isfinite(self.beta_hat)):
            raise NonFinite("beta_hat is not finite")


def _inverse_filter_weights(
    spectrum: GramSpectrum,
    p: SchattenIndex,
    alpha,
    strict: bool = False,
) -> np.ndarray:
    """Per-eigenvalue weights 1/f_alpha(sigma^2), with rank-deficient handling.

    Shaped like ``filtered_gram_eigvals``: (d,) for a scalar alpha, (d, n_alpha)
    for a vector.  An eigenvalue at or below the rank tolerance gets weight 0
    for every p: X^T Y and X^T have no component on its eigenvector, so any
    other weight (G-hat's 1/alpha for p in {1, 2}) would only scale the rounding
    noise there.  The model is then min-norm OLS at alpha = 0, and for p = inf
    min-norm OLS scaled by 1/(1 + alpha), unless strict mode raises instead.
    alpha = inf gives all-zero weights: the zero estimator.
    """
    if p is SchattenIndex.SPECTRAL and strict and spectrum.rank < spectrum.n_feat:
        raise SingularGram(
            "spectral estimator requires full-rank G in strict mode"
        )
    f = filtered_gram_eigvals(spectrum, p, alpha)
    kept = (spectrum.eigvals > spectrum.rank_tol).reshape(-1, *([1] * (f.ndim - 1)))
    return np.divide(1.0, f, out=np.zeros_like(f), where=kept)


def fit(
    X: np.ndarray,
    Y: np.ndarray,
    p: SchattenIndex,
    alpha: float,
    strict: bool = False,
) -> FittedModel:
    """Fit the p-bias-constrained estimator at regularization strength alpha."""
    return fit_from_spectrum(gram_spectrum(X, Y), p, alpha, strict=strict)


def fit_path(
    spectrum: GramSpectrum,
    p: SchattenIndex,
    alphas,
    strict: bool = False,
) -> np.ndarray:
    """Coefficients for every alpha at once, as the columns of a (d, n_alpha)
    array: beta-hat(alpha) = U diag(1/f_alpha) U^T X^T Y, one filter matrix
    and one product for the whole path.  Only the k weights that have an
    eigenvector apply: X^T Y has no component on the other directions."""
    if spectrum.xty is None:
        raise ValueError("spectrum must carry X^T Y; build it via gram_spectrum(X, Y)")
    W = _inverse_filter_weights(spectrum, p, np.asarray(alphas, dtype=float).ravel(),
                                strict=strict)
    U = spectrum.eigvecs
    return U @ (W[:U.shape[1]] * (U.T @ spectrum.xty)[:, None])


def fit_from_spectrum(
    spectrum: GramSpectrum,
    p: SchattenIndex,
    alpha: float,
    strict: bool = False,
) -> FittedModel:
    """Fit from a precomputed spectrum (with cached X^T Y) at one alpha."""
    beta = fit_path(spectrum, p, [alpha], strict=strict)[:, 0]
    return FittedModel(p=p, alpha=float(alpha), beta_hat=beta, spectrum=spectrum)


def predict(model: FittedModel, X_test: np.ndarray) -> np.ndarray:
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2 or X_test.shape[1] != model.beta_hat.shape[0]:
        raise DimensionMismatch(
            f"X_test has {X_test.shape[-1]} columns, model has "
            f"{model.beta_hat.shape[0]} features"
        )
    return X_test @ model.beta_hat


def estimator_operator(
    X: np.ndarray, p: SchattenIndex, alpha: float, strict: bool = False
) -> np.ndarray:
    """The (d, N) matrix L with beta-hat = L Y, i.e. L = G-hat^{-1} X^T."""
    X = np.asarray(X, dtype=float)
    spectrum = gram_spectrum(X)
    w = _inverse_filter_weights(spectrum, p, alpha, strict=strict)
    U = spectrum.eigvecs
    return (U * w[:U.shape[1]]) @ U.T @ X.T


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
    sv = np.linalg.svd(B, compute_uv=False)
    if p is SchattenIndex.NUCLEAR:
        bias_norm = float(np.sum(sv))
    elif p is SchattenIndex.FROBENIUS:
        bias_norm = float(np.sqrt(np.sum(sv**2)))
    else:
        bias_norm = float(sv[0]) if sv.size else 0.0
    variance_trace = float(np.sum(L * L) / 2.0)
    return bias_norm, variance_trace


def alpha_to_bias_bound(
    spectrum: GramSpectrum, p: SchattenIndex, alpha: float
) -> BiasBound:
    """Bias norm C attained by the estimator at strength alpha.

    The bias operator LX - I is -1 on each of the d - rank null directions of
    G, where X gives the estimator nothing to act on, and 1 - s/f_alpha(s) on
    each eigenvalue s above the rank tolerance.  C is therefore monotone
    nondecreasing in alpha, from a floor at alpha = 0 (#null for p=1,
    sqrt(#null) for p=2, 1 for p=inf when G is singular; 0 at full rank) up
    to d**(1/p) as alpha -> inf.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    d = spectrum.n_feat
    if np.isinf(alpha):
        return BiasBound(p.identity_norm(d))
    s = spectrum.eigvals[:spectrum.rank]
    n_null = d - s.size
    if p is SchattenIndex.NUCLEAR:
        below = s < alpha
        return BiasBound(n_null + float(np.sum(1.0 - s[below] / alpha)))
    if p is SchattenIndex.FROBENIUS:
        return BiasBound(float(np.sqrt(n_null + np.sum((alpha / (s + alpha)) ** 2))))
    return BiasBound(1.0 if n_null else alpha / (1.0 + alpha))


def bias_bound_to_alpha(
    spectrum: GramSpectrum, p: SchattenIndex, C: BiasBound | float
) -> float:
    """Invert the alpha -> C map; returns inf when C >= d**(1/p).

    The map is continuous and strictly increasing between its floor (its
    value at alpha = 0) and its supremum, so a doubling bracket plus Brent
    root-finding pins alpha to ~1e-12 relative.  A C below the floor set by
    the null directions of G cannot be reached and raises DomainError.
    """
    c = C.value if isinstance(C, BiasBound) else float(C)
    if c < 0:
        raise ValueError("C must be nonnegative")
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
