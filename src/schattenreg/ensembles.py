"""Data sources: the synthetic ensembles' generators and real-data splits.

Three generators: spherical Gaussian entries of variance 1/N, the
diagonal/Stiefel ensemble with a prescribed spectral measure (a
theory.PowerLaw or theory.Atoms, whose sample draws the eigenvalues), and
equicorrelated Gaussian rows (optionally with a sparse ground-truth
coefficient vector).  Test targets never carry exogenous noise; noise on the
test side would only add a constant sigma^2 offset to every error.
sample_real_data draws a random train/test split of a RealDataConfig's table.

Every sampler factors its training design as soon as that design exists,
before the test set and the targets are drawn or copied, and returns that
GramSpectrum, the factorization of X_tr alone, inside the Dataset, so within
one dataset the eigensolve's temporaries never sit on top of its test set
(simulate draws one dataset per thread, so another thread's test set may be
alive at the same time).
The spherical and equicorrelated test rows are drawn in one pass, in blocks
of up to 256 KiB (more for large d, see _test_spans), and _test_gram sums
them into H = X_te^T X_te as they come (see Dataset).  Spherical blocks, and
equicorrelated ones at rho = 0, are pieces of one draw of z; at rho > 0 each
block draws its z, then its g, as the training rows do.  Either way a test
set takes the same number of normals, so the draws after it (beta0, the
training noise) do not depend on its blocks, and the spectrum consumes no
randomness.  The diagonal test frame has orthonormal columns, so its H is
diag(lam) exactly and no test row is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost in
# set-up rather than inside the first sampling call.
import numpy.random  # noqa: F401

from .exceptions import InvalidConfig, NonFinite, _check_array, _check_counts, _check_reals
from .spectrum import GramSpectrum, gram_spectrum
from .theory import Atoms, PowerLaw

__all__ = [
    "Dataset",
    "DiagonalEnsembleConfig",
    "EquicorrelatedConfig",
    "GramTestSet",
    "RealDataConfig",
    "RowTestSet",
    "SphericalGaussianConfig",
    "SparseSpec",
    "child_seeds",
    "haar_stiefel",
    "sample_diagonal",
    "sample_equicorrelated",
    "sample_real_data",
    "sample_spherical",
]

DEFAULT_N_TEST = 5000

# Bytes of one block of rows (a scored block of a test design, eval_target's
# projection, a piece of rff._cos_turns' argument): within 96 KiB it stays
# below glibc's 128 KiB mmap threshold, like theory._BLOCK, so it is not
# mapped and page-faulted afresh.  Sampled test rows are drawn in coarser
# blocks of _DRAW_BYTES (see _test_spans).
_BLOCK_BYTES = 96 * 1024
# Bytes of one block of sampled test rows.  Each block is a few short numpy
# calls, and each call hands the interpreter lock between simulate's
# replicate threads, so fewer, larger blocks let them overlap: a default
# simulate test set (5000 x 50) is 8 blocks, where _BLOCK_BYTES made 21.
_DRAW_BYTES = 256 * 1024
# Rows of H per slab of the blocked test-Gram update (see _test_gram): at
# d = 1000 a slab product is 1 MB, an eighth of the d x d result.
_SLAB = 128


def row_blocks(n: int, row_bytes: int):
    """(lo, hi) ranges covering rows 0..n in blocks of at most _BLOCK_BYTES
    of row_bytes each, and at least two rows.  BLAS takes a one-row product
    through gemv, whose sums round unlike gemm's; a last block of one row
    starts a row early instead, so that row is made twice."""
    step = max(2, _BLOCK_BYTES // row_bytes)
    for start in range(0, n, step):
        yield max(min(start, n - 2), 0), min(start + step, n)


def _test_spans(n: int, d: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges partitioning n sampled test rows of d features into
    blocks of at most max(_DRAW_BYTES, 8 d^2) bytes.  From d = 182 on, a
    block never outweighs the d x d test Gram matrix, so a test set costs at
    most twice that matrix while it is drawn; below, a block is up to
    256 KiB, larger than H, so that a few long draws, not many short ones,
    make the test set."""
    step = max(_DRAW_BYTES, 8 * d * d) // (8 * d)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _test_gram(n: int, d: int, draw) -> np.ndarray:
    """H = X_te^T X_te of n sampled test rows of d features, made in one
    pass: draw(m) returns the next m rows, which are asked for in the spans
    of _test_spans and let go before the next are drawn.  The first block's
    product is one call, which numpy routes to a symmetric rank-k update.
    Each later block adds its products to the upper triangle a slab of _SLAB
    rows at a time, and the lower triangle is copied from the upper at the
    end, so besides H and one block the only temporary is one (_SLAB, d)
    slab product.  A plain H += X.T @ X holds a second d x d array on top of
    H and the block: with it, the tracemalloc peak of sample_spherical at
    n_obs 100, n_feat 1000, n_test 3000 rose from 2.33 to 3.2 times H, and
    the peak RSS of spherical cv-bench from 59.7 to 66.3 MB at n_obs/n_feat
    100/1000 and from 149.7 to 166.8 MB at 1000/2000 (cv-tall read 95.4 and
    95.5 MB, since its eigensolve sets its peak)."""
    (_, m), *rest = _test_spans(n, d)
    X = draw(m)
    H = X.T @ X
    del X
    slabs = [(lo, min(lo + _SLAB, d)) for lo in range(0, d, _SLAB)]
    for lo, hi in rest:
        X = draw(hi - lo)
        for a, b in slabs:
            H[a:b, a:] += X[:, a:b].T @ X[:, a:]
        del X
    for a, b in slabs:
        H[b:, a:b] = H[a:b, b:].T
    return H


def child_seeds(master_seed: int, n: int) -> list[int]:
    """Independent per-replicate seeds derived from a master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


@dataclass(frozen=True, eq=False)
class RowTestSet:
    """A test set as rows: X, an array or a row source (an object with
    .shape whose row slices X[i:j] are arrays), and its targets Y."""

    X: np.ndarray  # or a row source, as above
    Y: np.ndarray

    def mse(self, B: np.ndarray) -> np.ndarray:
        """Mean squared error of every coefficient column of B.  X is read in
        the row blocks of row_blocks, so a row source is made one block at a
        time; each block's product fills its columns of one residual array
        held alpha-major, so each mean sums one contiguous row."""
        n, d = self.X.shape
        resid = np.empty((B.shape[1], n))
        for lo, hi in row_blocks(n, 8 * d):
            resid[:, lo:hi] = B.T @ self.X[lo:hi].T
        resid -= self.Y
        return np.square(resid, out=resid).mean(axis=1)


@dataclass(frozen=True, eq=False)
class GramTestSet:
    """A sampled test set: n rows X whose targets are the noiseless X beta0,
    kept as H = X^T X."""

    H: np.ndarray
    n: int
    beta0: np.ndarray

    def mse(self, B: np.ndarray) -> np.ndarray:
        """Mean squared error of every coefficient column of B: for
        Z = B - beta0 it is colsum(Z * HZ) / n, exactly, as ||X Z||^2 is
        Z^T H Z column by column."""
        Z = B - self.beta0[:, None]
        return np.einsum("ij,ij->j", Z, self.H @ Z) / self.n


@dataclass(frozen=True)
class Dataset:
    """A training set, a held-out test set and the training set's spectrum.

    spectrum is gram_spectrum(X_tr), made by the dataset's maker before the
    test set existed; fitting reads it, with X_tr.T @ Y_tr, instead of
    factoring X_tr again.

    test is scored by one call, test.mse(B), for coefficient columns B.  A
    sampler's test set is a GramTestSet (H, n_test, beta0), so it costs d^2
    floats, not n_test*d; H is the larger only when d > n_test, which no
    default or benchmark config has.  The spherical and equicorrelated rows
    are drawn in the blocks of _test_spans, at most max(256 KiB, 8 d^2) bytes
    each, and summed into H by _test_gram; the diagonal H is diag(lam), with
    n = N.  RFF and real-data test sets are RowTestSets (X_te, Y_te);
    make_rff_dataset(config, seed)'s X_te is an rff.RFFRows, made a block at
    a time as it is scored, so rff-bench memory scales with n_obs*d_rbf plus
    one block, not with n_test*d_rbf.  X_te and Y_te (beta0) are read from a
    row (sampled) test set, and None for the other kind; benchmark/tracer.py
    reads X_te, Y_te and beta0 from outside the package.
    """

    X_tr: np.ndarray
    Y_tr: np.ndarray
    test: RowTestSet | GramTestSet
    spectrum: GramSpectrum

    @property
    def X_te(self):
        return getattr(self.test, "X", None)

    @property
    def Y_te(self) -> np.ndarray | None:
        return getattr(self.test, "Y", None)

    @property
    def beta0(self) -> np.ndarray | None:
        return getattr(self.test, "beta0", None)


@dataclass(frozen=True)
class SphericalGaussianConfig:
    n_obs: int
    n_feat: int
    beta: float = 1.0
    sigma: float = 1.0
    n_test: int = DEFAULT_N_TEST

    def __post_init__(self):
        _check_counts(self, "n_obs", "n_feat", "n_test")
        _check_reals(self, "beta", "sigma")


@dataclass(frozen=True)
class DiagonalEnsembleConfig:
    n_obs: int
    n_feat: int
    spectral_density: PowerLaw | Atoms
    # a in [0, 1]: the training spectrum times unit-mean noise, Unif[1-a, 1+a];
    # a = 0 draws nothing.
    noise_half_width: float = 0.0
    beta: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        _check_counts(self, "n_obs", "n_feat")
        if self.n_feat > self.n_obs:
            raise InvalidConfig(f"n_feat: the diagonal ensemble's Stiefel frames need "
                                f"n_feat <= n_obs, got n_feat {self.n_feat} > n_obs {self.n_obs}")
        _check_reals(self, "beta", "sigma")
        _check_reals(self, "noise_half_width", admits=lambda v: 0.0 <= v <= 1.0, what="in [0, 1]")


@dataclass(frozen=True)
class SparseSpec:
    """Sparse coefficient structure: n_large indices at unit scale, the rest
    shrunk by small_scale."""

    n_large: int = 3
    small_scale: float = 0.1

    def __post_init__(self):
        _check_counts(self, "n_large", least=0)
        _check_reals(self, "small_scale")


@dataclass(frozen=True)
class EquicorrelatedConfig:
    n_obs: int
    n_feat: int
    rho: float = 0.0
    sigma: float = 1.0
    sparse: SparseSpec | None = None
    n_test: int = DEFAULT_N_TEST

    def __post_init__(self):
        _check_reals(self, "rho", admits=lambda v: 0.0 <= v < 1.0, what="in [0, 1)")
        _check_reals(self, "sigma")
        _check_counts(self, "n_obs", "n_feat", "n_test")
        if self.sparse is not None and self.sparse.n_large > self.n_feat:
            raise InvalidConfig(f"sparse: n_large {self.sparse.n_large} exceeds "
                                f"n_feat {self.n_feat}")


@dataclass(frozen=True, eq=False)
class RealDataConfig:
    """A table, features X (n, d) and targets y (n,) stored as checked float
    arrays, to split at random into n_obs training rows, in [1, n - 1], and the rest."""

    X: np.ndarray
    y: np.ndarray
    n_obs: int

    def __post_init__(self):
        object.__setattr__(self, "X", _check_array(self.X, "X", (None, None)))
        object.__setattr__(self, "y", _check_array(self.y, "y", self.X.shape[:1]))
        _check_counts(self, "n_obs")
        if self.n_obs >= len(self.y):
            raise InvalidConfig(f"n_obs must be below the {len(self.y)} rows, got {self.n_obs!r}")


def haar_stiefel(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed (n, d) frame with orthonormal columns.

    Thin QR of a Gaussian matrix, with the diagonal of R forced positive so
    the distribution is exactly Haar.
    """
    Q, R = np.linalg.qr(rng.standard_normal((n, d)))
    return Q * np.sign(np.diag(R))


def _scaled(z: np.ndarray, scale: float) -> np.ndarray:
    z *= scale
    return z


def sample_spherical(config: SphericalGaussianConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    scale = 1.0 / np.sqrt(N)
    X_tr = _scaled(rng.standard_normal((N, d)), scale)
    spectrum = gram_spectrum(X_tr)
    H = _test_gram(config.n_test, d, lambda m: _scaled(rng.standard_normal((m, d)), scale))
    beta0 = rng.standard_normal(d) * config.beta
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    return Dataset(X_tr, Y_tr, GramTestSet(H, config.n_test, beta0), spectrum)


def sample_diagonal(config: DiagonalEnsembleConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    lam = config.spectral_density.sample(d, rng)
    a = config.noise_half_width
    lam_tr = lam * rng.uniform(1.0 - a, 1.0 + a, d) if a else lam  # drawn before the frame
    X_tr = haar_stiefel(N, d, rng) * np.sqrt(lam_tr)
    spectrum = gram_spectrum(X_tr)
    beta0 = rng.standard_normal(d) * config.beta
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    # An N x d test frame has orthonormal columns, so its Gram is diag(lam)
    # exactly, and no frame is drawn.
    return Dataset(X_tr, Y_tr, GramTestSet(np.diag(lam), N, beta0), spectrum)


def _mix(z: np.ndarray, g: np.ndarray | None, rho: float, N: int) -> np.ndarray:
    """Rows z of unit Gaussians, with their shared components g, made into
    rows of covariance ((1-rho) I + rho 1 1^T) / N in place.  The 1/N entry
    variance matches the spherical ensemble, so Gram eigenvalues stay on the
    scale the error theory is written in; with unscaled rows the benchmark
    drifts into a high signal-to-noise regime where regularization is nearly
    irrelevant.  At rho = 0 both mixing passes are exact no-ops and are
    skipped, and g is not read."""
    if rho:
        z *= np.sqrt(1.0 - rho)
        z += np.sqrt(rho) * g
    z /= np.sqrt(N)
    return z


def sample_equicorrelated(config: EquicorrelatedConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    X_tr = _mix(rng.standard_normal((N, d)), rng.standard_normal((N, 1)), config.rho, N)
    spectrum = gram_spectrum(X_tr)
    rho, n = config.rho, config.n_test
    # Each block draws its z, then its g, as the training rows do.  g is not
    # read at rho = 0; it is drawn once after the last block instead, so the
    # draws that follow the test set do not depend on rho.
    H = _test_gram(n, d, lambda m: _mix(rng.standard_normal((m, d)),
                                        rng.standard_normal((m, 1)) if rho else None, rho, N))
    if not rho:
        rng.standard_normal((n, 1))
    if config.sparse is None:
        beta0 = rng.standard_normal(d)
    else:
        beta0 = rng.standard_normal(d) * config.sparse.small_scale
        large = rng.choice(d, size=config.sparse.n_large, replace=False)
        beta0[large] = rng.standard_normal(config.sparse.n_large)
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    return Dataset(X_tr, Y_tr, GramTestSet(H, config.n_test, beta0), spectrum)


def sample_real_data(config: RealDataConfig, seed: int = 0) -> Dataset:
    """A random split of config's table into n_obs training rows and a
    RowTestSet of the rest, its features z-scored and its targets centered by
    the training rows' statistics alone (a constant column keeps scale 1);
    NonFinite names the X column or y whose statistics are not finite."""
    perm = np.random.default_rng(seed).permutation(len(config.y))
    tr, te = perm[:config.n_obs], perm[config.n_obs:]
    X_tr, y_tr = config.X[tr], config.y[tr]
    mu = X_tr.mean(axis=0)
    sd = X_tr.std(axis=0, ddof=0)
    y_mean = y_tr.mean()
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sd)))
    if bad.size:
        raise NonFinite(f"X column {bad[0]} has a non-finite training mean or standard deviation")
    if not np.isfinite(y_mean):
        raise NonFinite("y has a non-finite training mean")
    sd[sd == 0] = 1.0
    X_tr -= mu
    X_tr /= sd
    y_tr -= y_mean
    spectrum = gram_spectrum(X_tr)  # before the test rows are copied
    X_te = config.X[te]
    X_te -= mu
    X_te /= sd
    return Dataset(X_tr, y_tr, RowTestSet(X_te, config.y[te] - y_mean), spectrum)
