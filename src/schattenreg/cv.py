"""Cross-validation benchmark harness.

Protocol: for each replicate dataset and each estimator, select alpha on the
training set by k-fold cross-validation over a fixed logarithmic grid, refit
on the full training set, and score on the held-out test set.  Reports
aggregate average errors and per-dataset win probabilities.

Every model's alpha path is fit from one spectrum and scored by one call,
ds.test.mse(B), whatever the test set is: a sampled one through its d x d
Gram matrix, a set of rows (RFF, real data, a CV fold's validation block) in
row blocks of at most ensembles._BLOCK_BYTES, so an RFF test set's features
are made one block at a time and scoring never holds its n x d design.

Once a dataset has been scored and let go, its training rows are permuted
into fold order in place, and the fold loop holds that only copy: a fold's
validation design is a slice of it, and its training design the RowStack of
the two slices around that block, which gram_spectrum factors without
copying its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import (
    Dataset,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    RowTestSet,
    SphericalGaussianConfig,
    child_seeds,
    sample_diagonal,
    sample_equicorrelated,
    sample_spherical,
)
from .estimators import fit_path
from .exceptions import InsufficientData, InvalidConfig
from .rff import make_rff_dataset
from .spectrum import GramSpectrum, RowStack, SchattenIndex, gram_spectrum

__all__ = [
    "AlphaGrid",
    "BenchReport",
    "CVConfig",
    "MODEL_NAMES",
    "RFFBenchConfig",
    "aggregate_wins",
    "kfold_select_alpha",
    "rff_benchmark",
    "run_benchmark",
    "sample_ensemble",
    "simulate_path_errors",
]

MODEL_NAMES = {
    SchattenIndex.NUCLEAR: "nuclear",
    SchattenIndex.FROBENIUS: "ridge",
    SchattenIndex.SPECTRAL: "spectral",
}


@dataclass(frozen=True)
class AlphaGrid:
    """Logarithmically spaced candidate regularization strengths."""

    lo: float = 1e-4
    hi: float = 1e6
    count: int = 9

    def __post_init__(self):
        if not self.lo > 0:
            raise InvalidConfig("log-spaced grid needs lo > 0")
        if not self.lo < self.hi:
            raise InvalidConfig("grid lo must be below hi")
        if self.count < 1:
            raise InvalidConfig("grid needs at least one value")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lo])
        return np.logspace(np.log10(self.lo), np.log10(self.hi), self.count)


@dataclass(frozen=True)
class CVConfig:
    folds: int = 3
    grid: AlphaGrid = field(default_factory=AlphaGrid)
    models: tuple[SchattenIndex, ...] = (
        SchattenIndex.NUCLEAR,
        SchattenIndex.FROBENIUS,
        SchattenIndex.SPECTRAL,
    )
    n_datasets: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidConfig("need at least 2 folds")
        if self.n_datasets < 1:
            raise InvalidConfig("need at least one dataset")


@dataclass(frozen=True)
class BenchReport:
    models: tuple[str, ...]
    errors: np.ndarray  # (n_models, n_datasets)
    selected_alphas: np.ndarray  # (n_models, n_datasets)
    avg_error: dict[str, float]
    win_count: dict[str, int]
    win_prob: dict[str, float]
    ridge_ratio: dict[str, float] | None = None

    def to_dict(self) -> dict:
        out = {
            "models": list(self.models),
            "errors": self.errors.tolist(),
            "selected_alphas": self.selected_alphas.tolist(),
            "avg_error": self.avg_error,
            "win_count": self.win_count,
            "win_prob": self.win_prob,
        }
        if self.ridge_ratio is not None:
            out["ridge_ratio"] = self.ridge_ratio
        return out


def _fold_order(n: int, folds: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded shuffle of n rows into fold order and the fold edges: fold k
    is the shuffled rows edges[k]:edges[k + 1], and fold sizes differ by at
    most one."""
    if n < folds:
        raise InsufficientData(f"{n} observations cannot fill {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return perm, np.r_[0, np.cumsum([len(b) for b in np.array_split(perm, folds)])]


def _permute_rows(A: np.ndarray, perm: np.ndarray) -> None:
    """A[i] = A[perm[i]] for every row i, in place: each cycle of perm is
    followed with one saved row, so no second copy of A is made."""
    perm, done = perm.tolist(), bytearray(len(perm))
    for start in range(len(perm)):
        if done[start]:
            continue
        saved, i = A[start].copy(), start
        while perm[i] != start:
            A[i] = A[perm[i]]
            done[i] = True
            i = perm[i]
        A[i] = saved
        done[i] = True


def _path_scores(spectrum: GramSpectrum, models, alphas: np.ndarray, test) -> np.ndarray:
    """(n_models, n_alpha) mean squared error on a test set (anything with an
    mse(B) method) of every model's whole alpha path fit from one spectrum,
    all scored in one call."""
    B = np.hstack([fit_path(spectrum, p, alphas) for p in models])
    return test.mse(B).reshape(len(models), len(alphas))


def _cv_best_index(X: np.ndarray, Y: np.ndarray, edges: np.ndarray,
                   models: tuple[SchattenIndex, ...], alphas: np.ndarray) -> np.ndarray:
    """Per model, the grid index minimizing mean validation MSE across the
    folds of rows X, Y in fold order (_fold_order); argmin takes the first
    minimum, so ties break to the smaller alpha.  Each fold is factored once,
    from slices of X and Y, and shared by all models."""
    scores = np.zeros((len(edges) - 1, len(models), len(alphas)))
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        scores[k] = _path_scores(
            gram_spectrum(RowStack((X[:lo], X[hi:])), RowStack((Y[:lo], Y[hi:]))),
            models, alphas, RowTestSet(X[lo:hi], Y[lo:hi]))
    return np.argmin(scores.mean(axis=0), axis=1)


def kfold_select_alpha(
    X: np.ndarray,
    Y: np.ndarray,
    models: tuple[SchattenIndex, ...],
    cfg: CVConfig,
    seed: int | None = None,
) -> dict[SchattenIndex, float]:
    """Per model, the grid alpha minimizing mean validation MSE across folds;
    ties break to the smaller alpha.  Each fold is factored once and shared
    by all models."""
    alphas = cfg.grid.values()
    perm, edges = _fold_order(X.shape[0], cfg.folds, cfg.seed if seed is None else seed)
    best = _cv_best_index(X[perm], Y[perm], edges, models, alphas)
    return {p: float(alphas[b]) for p, b in zip(models, best)}


def sample_ensemble(config, seed: int) -> Dataset:
    """Dispatch a dataset draw on the ensemble config type."""
    if isinstance(config, SphericalGaussianConfig):
        return sample_spherical(config, seed=seed)
    if isinstance(config, DiagonalEnsembleConfig):
        return sample_diagonal(config, seed=seed)
    if isinstance(config, EquicorrelatedConfig):
        return sample_equicorrelated(config, seed=seed)
    raise InvalidConfig(f"unknown ensemble config type {type(config).__name__}")


def _path_errors(ds: Dataset, models, alphas: np.ndarray) -> np.ndarray:
    """(n_models, n_alpha) test MSE of every model's alpha path fit on the
    full training set, from the spectrum the dataset arrives with."""
    return _path_scores(ds.spectrum, models, alphas, ds.test)


def simulate_path_errors(
    ensemble_config,
    models: tuple[SchattenIndex, ...],
    alphas: np.ndarray,
    n_datasets: int,
    seed: int,
) -> np.ndarray:
    """Test MSE of every model at every alpha on fresh draws of an ensemble,
    shape (n_models, n_alpha, n_datasets); dataset j uses child seed j."""
    mses = np.zeros((len(models), len(alphas), n_datasets))
    for j, s in enumerate(child_seeds(seed, n_datasets)):
        mses[:, :, j] = _path_errors(sample_ensemble(ensemble_config, s), models, alphas)
    return mses


def _cv_errors(ds: Dataset, cfg: CVConfig, cv_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(test MSE, selected alpha) per model.  Every model's whole alpha path
    is fit from the dataset's own spectrum and scored on the test set first;
    then the dataset is let go and k-fold CV picks the grid index to report.
    The dataset is consumed: its training rows, X_tr with Y_tr, are permuted
    into fold order in place, so no second copy of them is made.  Called with a dataset no
    one else holds, as the replicate harness does, the test set is freed
    before any fold is factored."""
    alphas = cfg.grid.values()
    test_mse = _path_errors(ds, cfg.models, alphas)
    X, Y = ds.X_tr, ds.Y_tr
    del ds
    perm, edges = _fold_order(X.shape[0], cfg.folds, cv_seed)
    _permute_rows(X, perm)
    _permute_rows(Y, perm)
    best = _cv_best_index(X, Y, edges, cfg.models, alphas)
    return test_mse[np.arange(len(cfg.models)), best], alphas[best]


def _bench_over_datasets(make_dataset, cfg: CVConfig, with_ratio: bool) -> BenchReport:
    """The replicate protocol: dataset j is make_dataset(seed) for the j-th
    even child seed and its CV folds use the next one.  Each dataset is made
    inside the call that scores and consumes it, so only one is alive at a
    time.  No factorization overlaps a test set: make_dataset factors the
    full training set before it makes the test set, and that is freed before
    the folds are factored."""
    names = tuple(MODEL_NAMES[m] for m in cfg.models)
    n_data = cfg.n_datasets
    seeds = child_seeds(cfg.seed, 2 * n_data)
    errors = np.zeros((len(cfg.models), n_data))
    alphas = np.zeros((len(cfg.models), n_data))
    for j in range(n_data):
        errors[:, j], alphas[:, j] = _cv_errors(make_dataset(seeds[2 * j]), cfg,
                                                seeds[2 * j + 1])
    winners = np.argmin(errors, axis=0)  # first index wins ties
    win_count = {name: int(np.sum(winners == i)) for i, name in enumerate(names)}
    avg_error = {name: float(errors[i].mean()) for i, name in enumerate(names)}
    ratio = None
    if with_ratio and "ridge" in names:
        ridge_avg = avg_error["ridge"]
        ratio = {name: avg_error[name] / ridge_avg for name in names}
    return BenchReport(
        models=names,
        errors=errors,
        selected_alphas=alphas,
        avg_error=avg_error,
        win_count=win_count,
        win_prob={name: win_count[name] / n_data for name in names},
        ridge_ratio=ratio,
    )


def run_benchmark(ensemble_config, cfg: CVConfig) -> BenchReport:
    """The full replicate protocol on a synthetic ensemble."""
    return _bench_over_datasets(lambda s: sample_ensemble(ensemble_config, s), cfg,
                                with_ratio=False)


@dataclass(frozen=True)
class RFFBenchConfig:
    d: int = 10
    d_rbf: int = 100
    n_obs: int = 100
    n_test: int = 1000
    sigma: float = 1.0
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.d_rbf < 1:
            raise InvalidConfig("d_rbf must be >= 1")
        if not 0.0 <= self.sigma < np.inf:
            raise InvalidConfig(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if not 0.0 < self.bandwidth < np.inf:
            raise InvalidConfig(f"bandwidth must be finite and positive, got {self.bandwidth!r}")


def rff_benchmark(rff_cfg: RFFBenchConfig, cfg: CVConfig) -> BenchReport:
    """Benchmark on RFF feature-space data; Nuclear and Ridge only by default
    (the Spectral estimator has no natural overparametrized extension), with
    the ratio-to-Ridge statistic included."""
    models = tuple(m for m in cfg.models if m is not SchattenIndex.SPECTRAL)
    if not models:
        raise InvalidConfig("rff benchmark drops the spectral model, which leaves "
                            "no model to run; request nuclear or ridge")
    return _bench_over_datasets(
        lambda s: make_rff_dataset(
            rff_cfg.d, rff_cfg.d_rbf, rff_cfg.n_obs, rff_cfg.n_test,
            rff_cfg.sigma, rff_cfg.bandwidth, seed=s,
        ),
        replace(cfg, models=models),
        with_ratio=True,
    )


def aggregate_wins(report: BenchReport) -> tuple[str, str]:
    """(model with lowest average error, modal per-dataset winner); ties go to
    the lexicographically first model name."""
    if not report.models:
        raise InvalidConfig("empty report")
    best_avg = min(sorted(report.models), key=lambda m: report.avg_error[m])
    best_mode = max(sorted(report.models), key=lambda m: report.win_count[m])
    return best_avg, best_mode
