"""Gram-matrix spectra and the per-eigenvalue filter of the three estimators.

All three bias-constrained estimators act on the eigendecomposition of the
Gram matrix G = X^T X.  They differ only in the scalar filter f_alpha applied
to the eigenvalues: elementwise max with alpha (Nuclear, p=1), additive shift
(Ridge/Frobenius, p=2), or uniform scaling (Spectral, p=inf).
``SchattenIndex.shrinkage`` is the one definition of that filter: the
estimator weights, the alpha -> C map and the error integrands of the theory
all read it.

``gram_spectrum`` picks its route by the shape of X (N rows, d columns) and
reads X as it is, so a view into a larger array is factored without being
copied.  For d <= N it forms G and runs a symmetric eigensolver.  For d > N,
G has rank at most N, so it takes the thin SVD X = W diag(sv) V^T instead:
the eigenvectors are the N rows of V^T and the eigenvalues are sv**2, padded
with d - N exact zeros.  The d - N null directions are never formed, because
X^T and X^T Y have no component on them; every consumer applies its filter
weights to the first k = min(N, d) eigenvalues only.  The wide route takes
the thin SVD rather than an eigensolve of X X^T, because recovering V from
that dual loses orthogonality like eps s_max^2 / s_i^2 on small singular
values.  A spectrum is X's alone; a fit takes X^T Y beside it (fit_path).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientData, NonFinite

# Relative cutoff below which a Gram eigenvalue is treated as exactly zero.
EIGVAL_RTOL = 1e-12

# Rows per slab of a blocked Gram update (see gram_matrix): at d = 1000 a
# slab product is 1 MB, an eighth of the d x d result.
_SLAB = 128


class SchattenIndex(enum.Enum):
    """The three Schatten norms with closed-form estimators."""

    NUCLEAR = 1        # p = 1
    FROBENIUS = 2      # p = 2, recovers ridge regression
    SPECTRAL = "inf"   # p = infinity

    @property
    def p(self) -> float:
        return np.inf if self is SchattenIndex.SPECTRAL else float(self.value)

    def norm(self, sv) -> float:
        """Schatten-p norm of an operator with singular values sv; 0 when empty."""
        sv = np.asarray(sv, dtype=float)
        return float(np.linalg.norm(sv, self.p)) if sv.size else 0.0

    def shrinkage(self, x, alpha) -> tuple[np.ndarray, np.ndarray]:
        """The share r = x / f_alpha(x) of a Gram eigenvalue x >= 0 that the
        estimator at strength alpha keeps, and the share q = 1 - r it drops:

            p     f_alpha(x)        r                   q
            1     max(x, alpha)     x / max(x, alpha)   max(alpha - x, 0) / max(x, alpha)
            2     x + alpha         x / (x + alpha)     alpha / (x + alpha)
            inf   (1 + alpha) x     1 / (1 + alpha)     alpha / (1 + alpha)

        q is formed as written, without the cancellation of 1 - r when r is
        near 1.  x and alpha broadcast against each other; Spectral's r and q
        do not depend on x and keep alpha's shape.  alpha = 0 gives r = 1 and
        alpha = inf gives r = 0 for every x, and at x = 0 both r and q are
        their limits from the right.  Raises ValueError unless every
        alpha >= 0, so a NaN alpha is rejected too.
        """
        alpha = np.asarray(alpha, dtype=float)
        lo, hi = alpha.min(initial=np.inf), alpha.max(initial=0.0)  # NaN if any is
        if not lo >= 0:
            raise ValueError("alpha must be nonnegative")
        if self is SchattenIndex.SPECTRAL:
            x, f, cut = 1.0, 1.0 + alpha, alpha  # x and f_alpha(x), both divided by x
        else:
            x = np.asarray(x, dtype=float)
            if self is SchattenIndex.NUCLEAR:
                f = np.maximum(x, alpha)
                cut = f - x
            else:
                f, cut = x + alpha, alpha
        # Only alpha = 0 and alpha = inf can make a quotient read 0/0 (at x = 0)
        # or inf/inf; their entries are then set to the limits outright.
        with np.errstate(invalid="ignore"):
            r, q = np.asarray(x / f), np.asarray(cut / f)
        if lo == 0 or hi == np.inf:
            edge = (alpha == 0) | (alpha == np.inf)
            np.copyto(r, alpha == 0, where=edge)
            np.copyto(q, alpha != 0, where=edge)
        return r, q

    def identity_norm(self, d: int) -> float:
        """Schatten-p norm of I_d, i.e. d**(1/p); the saturation point of C."""
        return self.norm(np.ones(d))


def gram_matrix(blocks) -> np.ndarray:
    """X^T X of the design whose rows are those of the row blocks `blocks`,
    an iterable read once, so a block can be made as it is needed.  The
    first block's product is one call, which numpy routes to a symmetric
    rank-k update.  Each later block adds its products to the upper triangle
    a slab of _SLAB rows at a time, and the lower triangle is copied from
    the upper at the end, so the only temporary is one (_SLAB, d) slab,
    never a second d x d array."""
    blocks = iter(blocks)
    X = next(blocks)
    G = X.T @ X
    del X  # each block is let go before the next is made
    d = G.shape[0]
    slabs = [(lo, min(lo + _SLAB, d)) for lo in range(0, d, _SLAB)]
    for X in blocks:
        for lo, hi in slabs:
            G[lo:hi, lo:] += X[:, lo:hi].T @ X[:, lo:]
        del X
    for lo, hi in slabs:
        G[hi:, lo:hi] = G[lo:hi, hi:].T
    return G


@dataclass(frozen=True)
class GramSpectrum:
    """Eigendecomposition of G = X^T X, and nothing of the targets.

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


def gram_spectrum(X: np.ndarray) -> GramSpectrum:
    """Eigendecompose X^T X: eigh of the Gram matrix for d <= N, the thin SVD
    of X for d > N.  Raises InsufficientData for a design with no rows or no
    columns, and NonFinite for a NaN or inf entry."""
    X = np.asarray(X, dtype=float)
    N, d = X.shape
    if N == 0:
        raise InsufficientData(f"X {X.shape} has no rows to factor")
    if d == 0:
        raise InsufficientData(f"X {X.shape} has no columns to factor")
    if not np.all(np.isfinite(X)):
        raise NonFinite("X contains NaN or Inf")
    if d <= N:
        w, U = np.linalg.eigh(X.T @ X)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order], 0.0, None)
        U = U[:, order]
    else:
        _, sv, Vt = np.linalg.svd(X, full_matrices=False)
        w = np.concatenate([sv * sv, np.zeros(d - N)])
        U = Vt.T
    return GramSpectrum(eigvecs=U, eigvals=w, n_obs=N, n_feat=d)
