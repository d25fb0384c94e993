"""Synthetic data generators for the random-matrix ensembles.

Three generators: spherical Gaussian entries of variance 1/N, the
diagonal/Stiefel ensemble with a prescribed spectral measure (a
theory.PowerLaw or theory.Atoms, whose sample draws the eigenvalues), and
equicorrelated Gaussian rows (optionally with a sparse ground-truth
coefficient vector).  Test targets never carry exogenous noise; noise on the
test side would only add a constant sigma^2 offset to every error.

Every generator factors its training design as soon as that design exists,
before the test set and the targets are drawn, and returns that
GramSpectrum, the factorization of X_tr alone, inside the Dataset, so within
one dataset the eigensolve's temporaries never sit on top of its test set
(simulate draws one dataset per thread, so another thread's test set may be
alive at the same time).
The test rows are drawn in blocks of up to 256 KiB (more for large d, see
_test_spans) and summed into H = X_te^T X_te as they come (see Dataset).
The random draws keep their order and values: blockwise draws return the
one-shot values, and the spectrum consumes no randomness.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost in
# set-up rather than inside the first sampling call.
import numpy.random  # noqa: F401

from .exceptions import InvalidConfig
from .spectrum import GramSpectrum, gram_matrix, gram_spectrum
from .theory import Atoms, PowerLaw

__all__ = [
    "Dataset",
    "DiagonalEnsembleConfig",
    "EquicorrelatedConfig",
    "GramTestSet",
    "NoiseDensity",
    "RowTestSet",
    "SphericalGaussianConfig",
    "SparseSpec",
    "child_seeds",
    "haar_stiefel",
    "sample_diagonal",
    "sample_equicorrelated",
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


def _check_scales(config, *names: str) -> None:
    """Raise InvalidConfig naming the first field of `names` that is not a
    finite nonnegative number; NaN fails every comparison, so it fails too."""
    for name in names:
        value = getattr(config, name)
        if not 0.0 <= value < np.inf:
            raise InvalidConfig(f"{name} must be finite and nonnegative, got {value!r}")


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
    default or benchmark config has.  Its rows are drawn in the blocks of
    _test_spans, at most max(256 KiB, 8 d^2) bytes each, and summed into H.
    RFF and real-data test sets are RowTestSets (X_te, Y_te);
    make_rff_dataset's X_te is an rff.RFFRows, made a block at a time as it
    is scored, so rff-bench memory scales with n_obs*d_rbf plus one block,
    not with n_test*d_rbf.  X_te and Y_te are a row test set's X and Y, and
    None for a sampled one.
    """

    X_tr: np.ndarray
    Y_tr: np.ndarray
    test: RowTestSet | GramTestSet
    beta0: np.ndarray | None
    spectrum: GramSpectrum

    @property
    def X_te(self):
        return getattr(self.test, "X", None)

    @property
    def Y_te(self) -> np.ndarray | None:
        return getattr(self.test, "Y", None)


@dataclass(frozen=True)
class SphericalGaussianConfig:
    n_obs: int
    n_feat: int
    beta: float = 1.0
    sigma: float = 1.0
    n_test: int = DEFAULT_N_TEST

    def __post_init__(self):
        if self.n_obs < 1 or self.n_feat < 1 or self.n_test < 1:
            raise InvalidConfig("n_obs, n_feat and n_test must be >= 1")
        _check_scales(self, "beta", "sigma")


@dataclass(frozen=True)
class NoiseDensity:
    """Unit-mean multiplicative noise on the training spectrum: Unif[1-a, 1+a]
    with half-width a in [0, 1].  a = 0, the default everywhere, is the point
    mass at 1 and draws nothing."""

    half_width: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.half_width <= 1.0:
            raise InvalidConfig("half_width must be in [0, 1]")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.half_width == 0.0:
            return np.ones(size)
        return rng.uniform(1.0 - self.half_width, 1.0 + self.half_width, size=size)


@dataclass(frozen=True)
class DiagonalEnsembleConfig:
    n_obs: int
    n_feat: int
    spectral_density: PowerLaw | Atoms
    noise_density: NoiseDensity = NoiseDensity()
    beta: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.n_obs < 1 or self.n_feat < 1:
            raise InvalidConfig("n_obs and n_feat must be >= 1")
        if self.n_feat > self.n_obs:
            raise InvalidConfig(f"n_feat: the diagonal ensemble's Stiefel frames need "
                                f"n_feat <= n_obs, got n_feat {self.n_feat} > n_obs {self.n_obs}")
        _check_scales(self, "beta", "sigma")


@dataclass(frozen=True)
class SparseSpec:
    """Sparse coefficient structure: n_large indices at unit scale, the rest
    shrunk by small_scale."""

    n_large: int = 3
    small_scale: float = 0.1

    def __post_init__(self):
        if self.n_large < 0:
            raise InvalidConfig(f"n_large must be nonnegative, got {self.n_large!r}")
        _check_scales(self, "small_scale")


@dataclass(frozen=True)
class EquicorrelatedConfig:
    n_obs: int
    n_feat: int
    rho: float = 0.0
    sigma: float = 1.0
    sparse: SparseSpec | None = None
    n_test: int = DEFAULT_N_TEST

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise InvalidConfig("rho must lie in [0, 1)")
        _check_scales(self, "sigma")
        if self.n_obs < 1 or self.n_feat < 1 or self.n_test < 1:
            raise InvalidConfig("n_obs, n_feat and n_test must be >= 1")
        if self.sparse is not None and self.sparse.n_large > self.n_feat:
            raise InvalidConfig(f"sparse: n_large {self.sparse.n_large} exceeds "
                                f"n_feat {self.n_feat}")


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
    H = gram_matrix(_scaled(rng.standard_normal((hi - lo, d)), scale)
                    for lo, hi in _test_spans(config.n_test, d))
    beta0 = rng.standard_normal(d) * config.beta
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    return Dataset(X_tr, Y_tr, GramTestSet(H, config.n_test, beta0), beta0, spectrum)


def sample_diagonal(config: DiagonalEnsembleConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    lam = config.spectral_density.sample(d, rng)
    s = config.noise_density.sample(d, rng)
    X_tr = haar_stiefel(N, d, rng) * np.sqrt(lam * s)
    spectrum = gram_spectrum(X_tr)
    # The test frame is N x d like the training one; only its Gram is kept.
    H = gram_matrix([haar_stiefel(N, d, rng) * np.sqrt(lam)])
    beta0 = rng.standard_normal(d) * config.beta
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    return Dataset(X_tr, Y_tr, GramTestSet(H, N, beta0), beta0, spectrum)


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


def _equicorrelated_test_rows(rng: np.random.Generator, n: int, d: int, rho: float, N: int):
    """The n test rows in the blocks of _test_spans, drawn as they always
    were: z as one (n, d) draw, then g as one (n, 1) draw, which blockwise
    draws reproduce exactly.  g comes after all of z, so with rho > 0 z is
    drawn once to reach g and then again, block by block, from a copy of the
    generator taken before it.  At rho = 0, g is drawn after the last block
    and not used, so the stream does not depend on rho."""
    spans = _test_spans(n, d)
    if not rho:
        for lo, hi in spans:
            yield _mix(rng.standard_normal((hi - lo, d)), None, rho, N)
        rng.standard_normal((n, 1))
        return
    z_rng = copy.deepcopy(rng)
    for lo, hi in spans:
        rng.standard_normal((hi - lo, d))
    g = rng.standard_normal((n, 1))
    for lo, hi in spans:
        yield _mix(z_rng.standard_normal((hi - lo, d)), g[lo:hi], rho, N)


def sample_equicorrelated(config: EquicorrelatedConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    X_tr = _mix(rng.standard_normal((N, d)), rng.standard_normal((N, 1)), config.rho, N)
    spectrum = gram_spectrum(X_tr)
    H = gram_matrix(_equicorrelated_test_rows(rng, config.n_test, d, config.rho, N))
    if config.sparse is None:
        beta0 = rng.standard_normal(d)
    else:
        beta0 = rng.standard_normal(d) * config.sparse.small_scale
        large = rng.choice(d, size=config.sparse.n_large, replace=False)
        beta0[large] = rng.standard_normal(config.sparse.n_large)
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    return Dataset(X_tr, Y_tr, GramTestSet(H, config.n_test, beta0), beta0, spectrum)
