"""Synthetic data generators for the random-matrix ensembles.

Three generators: spherical Gaussian entries of variance 1/N, the
diagonal/Stiefel ensemble with a prescribed spectral density, and
equicorrelated Gaussian rows (optionally with a sparse ground-truth
coefficient vector).  Test targets never carry exogenous noise; noise on the
test side would only add a constant sigma^2 offset to every error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost in
# set-up rather than inside the first sampling call.
import numpy.random  # noqa: F401

from .exceptions import InvalidConfig

__all__ = [
    "Dataset",
    "DiagonalEnsembleConfig",
    "EquicorrelatedConfig",
    "NoiseDensity",
    "SphericalGaussianConfig",
    "SparseSpec",
    "SpectralDensity",
    "child_seeds",
    "haar_stiefel",
    "sample_diagonal",
    "sample_equicorrelated",
    "sample_spherical",
]

DEFAULT_N_TEST = 5000


def child_seeds(master_seed: int, n: int) -> list[int]:
    """Independent per-replicate seeds derived from a master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


@dataclass(frozen=True)
class Dataset:
    X_tr: np.ndarray
    Y_tr: np.ndarray
    X_te: np.ndarray
    Y_te: np.ndarray
    beta0: np.ndarray | None
    seed: int


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
        if self.beta < 0 or self.sigma < 0:
            raise InvalidConfig("beta and sigma must be nonnegative")


@dataclass(frozen=True)
class SpectralDensity:
    """Probability density on [0, 1] for the diagonal ensemble's spectrum.

    Either PowerLaw (pdf proportional to x**(gamma-1)) or a tabulated set of
    atoms with weights summing to 1.
    """

    kind: str  # "powerlaw" | "tabulated"
    gamma: float = 1.0
    grid: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "powerlaw":
            if self.gamma <= 0:
                raise InvalidConfig("power-law exponent must be positive")
        elif self.kind == "tabulated":
            if self.grid is None or self.weights is None:
                raise InvalidConfig("tabulated density needs grid and weights")
            w = np.asarray(self.weights, dtype=float)
            g = np.asarray(self.grid, dtype=float)
            if g.shape != w.shape or np.any(w < 0):
                raise InvalidConfig("weights must be nonnegative, same shape as grid")
            if abs(w.sum() - 1.0) > 1e-10:
                raise InvalidConfig("weights must sum to 1")
            if np.any((g < 0) | (g > 1)):
                raise InvalidConfig("grid must lie in [0, 1]")
        else:
            raise InvalidConfig(f"unknown spectral density kind {self.kind!r}")

    @staticmethod
    def power_law(gamma: float) -> "SpectralDensity":
        return SpectralDensity(kind="powerlaw", gamma=gamma)

    @staticmethod
    def tabulated(grid, weights) -> "SpectralDensity":
        return SpectralDensity(
            kind="tabulated",
            grid=np.asarray(grid, dtype=float),
            weights=np.asarray(weights, dtype=float),
        )

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "powerlaw":
            # Inverse CDF of gamma * x**(gamma-1) on [0, 1].
            return rng.uniform(size=size) ** (1.0 / self.gamma)
        idx = rng.choice(len(self.grid), size=size, p=self.weights)
        return self.grid[idx]

    def mean(self) -> float:
        if self.kind == "powerlaw":
            return self.gamma / (self.gamma + 1.0)
        return float(np.sum(self.grid * self.weights))


@dataclass(frozen=True)
class NoiseDensity:
    """Unit-mean multiplicative noise on the training spectrum.

    "point" is the degenerate distribution at 1 (the default everywhere);
    "uniform" is Unif[1-a, 1+a] with half-width a in [0, 1].
    """

    kind: str = "point"
    half_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("point", "uniform"):
            raise InvalidConfig(f"unknown noise density kind {self.kind!r}")
        if not 0.0 <= self.half_width <= 1.0:
            raise InvalidConfig("half_width must be in [0, 1]")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "point":
            return np.ones(size)
        return rng.uniform(1.0 - self.half_width, 1.0 + self.half_width, size=size)


@dataclass(frozen=True)
class DiagonalEnsembleConfig:
    n_obs: int
    n_feat: int
    spectral_density: SpectralDensity
    noise_density: NoiseDensity = NoiseDensity()
    beta: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.n_obs < 1 or self.n_feat < 1:
            raise InvalidConfig("n_obs and n_feat must be >= 1")
        if self.n_feat > self.n_obs:
            raise InvalidConfig("diagonal ensemble requires d <= N (Stiefel frames)")
        if self.beta < 0 or self.sigma < 0:
            raise InvalidConfig("beta and sigma must be nonnegative")


@dataclass(frozen=True)
class SparseSpec:
    """Sparse coefficient structure: n_large indices at unit scale, the rest
    shrunk by small_scale."""

    n_large: int = 3
    small_scale: float = 0.1

    def __post_init__(self):
        if self.n_large < 0 or self.small_scale < 0:
            raise InvalidConfig("n_large and small_scale must be nonnegative")


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
        if self.sigma < 0:
            raise InvalidConfig("sigma must be nonnegative")
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


def sample_spherical(config: SphericalGaussianConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    scale = 1.0 / np.sqrt(N)
    X_tr = rng.standard_normal((N, d))
    X_tr *= scale
    X_te = rng.standard_normal((config.n_test, d))
    X_te *= scale
    beta0 = rng.standard_normal(d) * config.beta
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    Y_te = X_te @ beta0
    return Dataset(X_tr, Y_tr, X_te, Y_te, beta0, seed)


def sample_diagonal(config: DiagonalEnsembleConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    lam = config.spectral_density.sample(d, rng)
    s = config.noise_density.sample(d, rng)
    X1 = haar_stiefel(N, d, rng)
    X2 = haar_stiefel(N, d, rng)
    X_tr = X1 * np.sqrt(lam * s)
    X_te = X2 * np.sqrt(lam)
    beta0 = rng.standard_normal(d) * config.beta
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    Y_te = X_te @ beta0
    return Dataset(X_tr, Y_tr, X_te, Y_te, beta0, seed)


def sample_equicorrelated(config: EquicorrelatedConfig, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    N, d = config.n_obs, config.n_feat
    rho = config.rho

    def rows(m: int) -> np.ndarray:
        # Covariance ((1-rho) I + rho 1 1^T) / N via a shared component per
        # row.  The 1/N entry variance matches the spherical ensemble, so
        # Gram eigenvalues stay on the scale the error theory is written in;
        # with unscaled rows the benchmark drifts into a high signal-to-noise
        # regime where regularization is nearly irrelevant.
        # In place, so the (m, d) draw is the only full-size array.
        z = rng.standard_normal((m, d))
        g = rng.standard_normal((m, 1))
        z *= np.sqrt(1.0 - rho)
        z += np.sqrt(rho) * g
        z /= np.sqrt(N)
        return z

    X_tr = rows(N)
    X_te = rows(config.n_test)
    if config.sparse is None:
        beta0 = rng.standard_normal(d)
    else:
        beta0 = rng.standard_normal(d) * config.sparse.small_scale
        large = rng.choice(d, size=config.sparse.n_large, replace=False)
        beta0[large] = rng.standard_normal(config.sparse.n_large)
    Y_tr = X_tr @ beta0 + config.sigma * rng.standard_normal(N)
    Y_te = X_te @ beta0
    return Dataset(X_tr, Y_tr, X_te, Y_te, beta0, seed)

