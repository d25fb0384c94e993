"""Cross-validation benchmark harness.

Protocol: for each replicate dataset and each estimator, select alpha on the
training set by k-fold cross-validation over a fixed logarithmic grid, refit
on the full training set, and score on the held-out test set.  Reports
aggregate average errors and per-dataset win probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import (
    Dataset,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    SphericalGaussianConfig,
    child_seeds,
    sample_diagonal,
    sample_equicorrelated,
    sample_spherical,
)
from .estimators import fit_path
from .exceptions import InsufficientData, InvalidConfig
from .rff import make_rff_dataset
from .spectrum import GramSpectrum, SchattenIndex, gram_spectrum

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


def _fold_blocks(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Contiguous blocks of a seeded shuffle; sizes differ by at most one."""
    perm = rng.permutation(n)
    return [np.asarray(b) for b in np.array_split(perm, folds)]


def _path_mse(B: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Mean squared error on (X, Y) of every coefficient column of B: one
    GEMM, with the residual rows held alpha-major so each mean sums one
    contiguous row."""
    resid = B.T @ X.T
    resid -= Y
    return np.square(resid, out=resid).mean(axis=1)


def _path_scores(spectrum: GramSpectrum, models, alphas: np.ndarray, X: np.ndarray,
                 Y: np.ndarray) -> np.ndarray:
    """(n_models, n_alpha) mean squared error on (X, Y) of every model's
    whole alpha path fit from one spectrum."""
    return np.array([_path_mse(fit_path(spectrum, p, alphas), X, Y) for p in models])


def _cv_best_index(
    X: np.ndarray,
    Y: np.ndarray,
    models: tuple[SchattenIndex, ...],
    cfg: CVConfig,
    seed: int,
) -> np.ndarray:
    """Per model, the grid index minimizing mean validation MSE across folds;
    argmin takes the first minimum, so ties break to the smaller alpha.  Each
    fold is factored once and shared by all models."""
    n = X.shape[0]
    if n < cfg.folds:
        raise InsufficientData(f"{n} observations cannot fill {cfg.folds} folds")
    rng = np.random.default_rng(seed)
    alphas = cfg.grid.values()
    scores = np.zeros((cfg.folds, len(models), len(alphas)))
    for k, val_idx in enumerate(_fold_blocks(n, cfg.folds, rng)):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        scores[k] = _path_scores(gram_spectrum(X[mask], Y[mask]), models, alphas,
                                 X[val_idx], Y[val_idx])
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
    best = _cv_best_index(X, Y, models, cfg, cfg.seed if seed is None else seed)
    alphas = cfg.grid.values()
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
    full training set."""
    return _path_scores(gram_spectrum(ds.X_tr, ds.Y_tr), models, alphas, ds.X_te, ds.Y_te)


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
    is fit on the full training set and scored on the test set first; then
    the dataset is dropped and k-fold CV picks the grid index to report.
    Called with a dataset no one else holds, as the replicate harness does,
    the test arrays are freed before any fold is factored."""
    alphas = cfg.grid.values()
    test_mse = _path_errors(ds, cfg.models, alphas)
    X, Y = ds.X_tr, ds.Y_tr
    del ds
    best = _cv_best_index(X, Y, cfg.models, cfg, cv_seed)
    return test_mse[np.arange(len(cfg.models)), best], alphas[best]


def _bench_over_datasets(make_dataset, cfg: CVConfig, with_ratio: bool) -> BenchReport:
    """The replicate protocol: dataset j is make_dataset(seed) for the j-th
    even child seed and its CV folds use the next one.  Each dataset is made
    inside the call that scores it, so only one is alive at a time, and its
    test arrays are freed before its folds are factored."""
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
        if self.sigma < 0:
            raise InvalidConfig("sigma must be nonnegative")
        if not self.bandwidth > 0:
            raise InvalidConfig("bandwidth must be positive")


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
