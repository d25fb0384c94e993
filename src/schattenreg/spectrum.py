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
the eigenvectors are the N rows of V^T and the eigenvalues are sv**2.  Either
route keeps only the rank eigenpairs above EIGVAL_RTOL times the largest
eigenvalue; the n_feat - rank null directions are never formed, because X^T
and X^T Y have no component on them.  The wide route takes the thin SVD
rather than an eigensolve of X X^T, because recovering V from that dual
loses orthogonality like eps s_max^2 / s_i^2 on small singular values.  A
spectrum is X's alone; a fit takes X^T Y beside it (fit_path).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientData, InvalidConfig, NonFinite, _check_array

# Relative cutoff below which a Gram eigenvalue is treated as exactly zero.
EIGVAL_RTOL = 1e-12


def _check_alpha(alpha: np.ndarray) -> bool:
    """Raise ValueError unless every entry of the float array alpha is >= 0,
    so that NaN fails too; return whether any is 0 or inf."""
    lo, hi = alpha.min(initial=np.inf), alpha.max(initial=0.0)  # NaN if any is
    if not lo >= 0:
        raise ValueError("alpha must be nonnegative")
    return lo == 0 or hi == np.inf


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
        return self._shrinkage(x, alpha, _check_alpha(alpha))

    def _shrinkage(self, x, alpha: np.ndarray, edge: bool) -> tuple[np.ndarray, np.ndarray]:
        """shrinkage without the alpha check, for a float alpha that
        _check_alpha has passed; `edge` is what it returned."""
        if self is SchattenIndex.SPECTRAL:
            x, f, cut = 1.0, 1.0 + alpha, alpha  # x and f_alpha(x), both divided by x
        else:
            x = np.asarray(x, dtype=float)
            if self is SchattenIndex.NUCLEAR:
                f = np.maximum(x, alpha)
                cut = f - x
            else:
                f, cut = x + alpha, alpha
        if not edge:
            return np.asarray(x / f), np.asarray(cut / f)
        # Only alpha = 0 and alpha = inf can make a quotient read 0/0 (at x = 0)
        # or inf/inf; their entries are then set to the limits outright.
        with np.errstate(invalid="ignore"):
            r, q = x / f, cut / f
        at = (alpha == 0) | (alpha == np.inf)
        return np.where(at, alpha == 0, r), np.where(at, alpha != 0, q)

    def identity_norm(self, d: int) -> float:
        """Schatten-p norm of I_d, i.e. d**(1/p); the saturation point of C."""
        return self.norm(np.ones(d))


def _check_models(models) -> None:
    """Raise InvalidConfig unless models holds at least one SchattenIndex and
    no other entry, and none twice."""
    if not (models and all(isinstance(m, SchattenIndex) for m in models)
            and len(set(models)) == len(models)):
        raise InvalidConfig(f"models: need distinct models, at least one, "
                            f"each a SchattenIndex, got {models!r}")


def _check_model(p) -> None:
    """_check_models for the one model p of an entry that takes one."""
    if not isinstance(p, SchattenIndex):
        raise InvalidConfig(f"p must be a SchattenIndex, got {p!r}")


@dataclass(frozen=True)
class GramSpectrum:
    """The eigenpairs of G = X^T X that carry weight; nothing of the targets.

    eigvecs: (d, k) orthonormal columns, the eigenvectors of eigvals.
    eigvals: (k,) the k = rank eigenvalues of G above EIGVAL_RTOL times the
        largest, sorted descending; the other n_feat - rank count as 0.

    benchmark/tracer.py reads n_obs, n_feat and rank from outside the package.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    n_obs: int

    def __post_init__(self):
        U, s = self.eigvecs, self.eigvals
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(s))):
            raise NonFinite("non-finite spectrum")
        if U.ndim != 2 or s.shape != U.shape[1:]:
            raise ValueError(f"eigvecs {U.shape} and eigvals {s.shape} must be (d, k) and (k,)")
        if np.any(s[:-1] < s[1:]):
            raise ValueError("eigvals must be sorted descending")
        # Sorted, so this also rejects a first eigenvalue <= 0.
        if s.size and not np.all(s > EIGVAL_RTOL * s[0]):
            raise ValueError("eigvals must be above EIGVAL_RTOL times the largest")
        # max |U^T U - I| <= 1e-10, on one k x k array: column norms as well
        # as inner products are held to 1e-10.
        k = U.shape[1]
        M = U.T @ U
        M.flat[::k + 1] -= 1.0
        if np.abs(M, out=M).max(initial=0.0) > 1e-10:
            raise ValueError("eigvecs must be orthonormal")

    @property
    def n_feat(self) -> int:
        return self.eigvecs.shape[0]

    @property
    def rank(self) -> int:
        return self.eigvals.size


def gram_spectrum(X: np.ndarray) -> GramSpectrum:
    """Eigendecompose X^T X (eigh of the Gram matrix for d <= N, the thin SVD
    of X for d > N) and keep the eigenpairs above the rank tolerance.  Raises
    DimensionMismatch unless X is 2-d, InsufficientData for a design with no
    rows or no columns, and NonFinite for a NaN or inf entry."""
    X = _check_array(X, "X", (None, None))
    N, d = X.shape
    if N == 0:
        raise InsufficientData(f"X {X.shape} has no rows to factor")
    if d == 0:
        raise InsufficientData(f"X {X.shape} has no columns to factor")
    if d <= N:
        w, U = np.linalg.eigh(X.T @ X)
        order = np.argsort(w)[::-1]
        w, U = w[order], U[:, order]
    else:
        _, sv, Vt = np.linalg.svd(X, full_matrices=False)
        w, U = sv * sv, Vt.T
    k = int(np.count_nonzero(w > EIGVAL_RTOL * w[0]))
    return GramSpectrum(eigvecs=U[:, :k], eigvals=w[:k], n_obs=N)
