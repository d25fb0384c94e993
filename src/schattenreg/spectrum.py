"""Gram-matrix spectra and the per-eigenvalue filters of the three estimators.

All three bias-constrained estimators act on the eigendecomposition of the
Gram matrix G = X^T X.  They differ only in the scalar filter applied to the
eigenvalues: elementwise max with alpha (Nuclear, p=1), additive shift
(Ridge/Frobenius, p=2), or uniform scaling (Spectral, p=inf).

``gram_spectrum`` picks its route by the shape of X (N rows, d columns).  For
d <= N it forms G and runs a symmetric eigensolver.  For d > N, G has rank at
most N, so it takes the thin SVD X = W diag(sv) V^T instead: the eigenvectors
are the N rows of V^T and the eigenvalues are sv**2, padded with d - N exact
zeros.  The d - N null directions are never formed, because X^T and X^T Y
have no component on them; every consumer applies its filter weights to the
first k = min(N, d) eigenvalues only.  The wide route takes the thin SVD
rather than an eigensolve of X X^T, because recovering V from that dual
loses orthogonality like eps s_max^2 / s_i^2 on small singular values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonFinite

# Relative cutoff below which a Gram eigenvalue is treated as exactly zero.
EIGVAL_RTOL = 1e-12


class SchattenIndex(enum.Enum):
    """The three Schatten norms with closed-form estimators."""

    NUCLEAR = 1        # p = 1
    FROBENIUS = 2      # p = 2, recovers ridge regression
    SPECTRAL = "inf"   # p = infinity

    @property
    def p(self) -> float:
        return np.inf if self is SchattenIndex.SPECTRAL else float(self.value)

    def identity_norm(self, d: int) -> float:
        """Schatten-p norm of I_d, i.e. d**(1/p); the saturation point of C."""
        if self is SchattenIndex.SPECTRAL:
            return 1.0
        return float(d) ** (1.0 / self.p)


@dataclass(frozen=True)
class GramSpectrum:
    """Eigendecomposition of G = X^T X.

    eigvecs: (d, k) matrix with orthonormal columns, the eigenvectors of the
        k = min(N, d) leading eigenvalues: all d of them on the d <= N route,
        the N right singular vectors of X on the d > N route.
    eigvals: all d eigenvalues of G, sorted descending, >= 0; the d - k
        without an eigenvector are exactly 0.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    n_obs: int
    n_feat: int
    xty: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        U, s = self.eigvecs, self.eigvals
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(s))):
            raise NonFinite("non-finite spectrum")
        if np.any(s[:-1] < s[1:]):
            raise ValueError("eigvals must be sorted descending")
        if np.any(s < 0):
            raise ValueError("eigvals must be nonnegative")
        d = self.n_feat
        if U.ndim != 2 or U.shape[0] != d or U.shape[1] > d or s.shape != (d,):
            raise ValueError(f"eigvecs {U.shape} and eigvals {s.shape} must be "
                             f"(d, k) with k <= d and (d,), for d = {d}")
        k = U.shape[1]
        if np.any(s[k:] != 0.0):
            raise ValueError("eigvals without an eigenvector must be exactly 0")
        # max |U^T U - I| <= 1e-10, on one k x k array: column norms as well
        # as inner products are held to 1e-10.
        M = U.T @ U
        M.flat[::k + 1] -= 1.0
        if np.abs(M, out=M).max(initial=0.0) > 1e-10:
            raise ValueError("eigvecs must be orthonormal")

    @property
    def rank_tol(self) -> float:
        top = self.eigvals[0] if self.eigvals.size else 0.0
        return EIGVAL_RTOL * top

    @property
    def rank(self) -> int:
        return int(np.sum(self.eigvals > self.rank_tol))


def gram_spectrum(X: np.ndarray, Y: np.ndarray | None = None) -> GramSpectrum:
    """Eigendecompose X^T X, caching X^T Y when targets are supplied: eigh of
    the Gram matrix for d <= N, the thin SVD of X for d > N."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise NonFinite("X contains NaN or Inf")
    N, d = X.shape
    if d <= N:
        w, U = np.linalg.eigh(X.T @ X)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order], 0.0, None)
        U = U[:, order]
    else:
        _, sv, Vt = np.linalg.svd(X, full_matrices=False)
        w = np.concatenate([sv * sv, np.zeros(d - N)])
        U = Vt.T
    xty = None
    if Y is not None:
        Y = np.asarray(Y, dtype=float)
        if not np.all(np.isfinite(Y)):
            raise NonFinite("Y contains NaN or Inf")
        xty = X.T @ Y
    return GramSpectrum(eigvecs=U, eigvals=w, n_obs=N, n_feat=d, xty=xty)


def filtered_gram_eigvals(
    spectrum: GramSpectrum, p: SchattenIndex, alpha
) -> np.ndarray:
    """Eigenvalues of the regularized Gram matrix G-hat.

    Nuclear clips from below at alpha, Frobenius shifts by alpha, Spectral
    scales by (1 + alpha).  The output dominates the input elementwise, so
    G-hat >= G in the PSD order for every alpha >= 0.  A scalar alpha gives
    shape (d,); a vector of alphas gives (d, n_alpha), one column per alpha.
    A zero eigenvalue stays 0 under Spectral even at alpha = inf, the limit
    of (1 + alpha) * 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    s = spectrum.eigvals.reshape(-1, *([1] * alpha.ndim))
    if p is SchattenIndex.NUCLEAR:
        return np.maximum(s, alpha)
    if p is SchattenIndex.FROBENIUS:
        return s + alpha
    out = np.zeros(np.broadcast_shapes(s.shape, alpha.shape))
    return np.multiply(1.0 + alpha, s, out=out, where=s > 0)
