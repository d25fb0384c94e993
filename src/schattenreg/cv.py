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

kfold_select_alpha and the replicate harness select alpha through one
routine, _cv_best_index, which lays the folds out in place: before fold k is
factored, its rows are moved after the other folds', which keep fold order,
so the fold's training design is a prefix of the array and its validation
design the rest.  A wide design (d > N) is cross-validated in its row space:
for X^T = Q R, the N x N rows of R^T are X's rows in an orthonormal basis of
their span, so each fold is factored as m x N, not m x d.  The estimators
are equivariant under an orthogonal change of basis and act only on the span
of their rows, so the fold scores are the same in exact arithmetic.

Every replicate command runs its datasets through one loop, _replicates:
simulate on one worker per usable CPU, each taking the next dataset no
worker has taken when it is free, the CV benchmarks (cv-bench, rff-bench,
real-data) on the calling thread alone.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field

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
from .exceptions import DimensionMismatch, InsufficientData, InvalidConfig, NonFinite
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
        if not 0 < self.lo < np.inf:
            raise InvalidConfig(f"grid lo must be finite and positive, got {self.lo!r}")
        if not self.lo < self.hi < np.inf:
            raise InvalidConfig(f"grid hi must be finite and above lo, got {self.hi!r}")
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
        _check_models(self.models)


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


def _check_models(models) -> None:
    if not models or len(set(models)) < len(models):
        raise InvalidConfig(f"models: need distinct models, at least one, got {models!r}")


def _check_folds(n: int, folds: int) -> None:
    if n < folds:
        raise InsufficientData(f"{n} observations cannot fill {folds} folds")


def _fold_order(n: int, folds: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded shuffle of n rows into fold order and the fold edges: fold k
    is the shuffled rows edges[k]:edges[k + 1], and fold sizes differ by at
    most one."""
    _check_folds(n, folds)
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


def _path_scores(spectrum: GramSpectrum, xty, models, alphas: np.ndarray, test) -> np.ndarray:
    """(n_models, n_alpha) mean squared error on a test set (anything with an
    mse(B) method) of every model's whole alpha path fit from one spectrum
    and its X^T Y, all scored in one call."""
    B = np.hstack([fit_path(spectrum, xty, p, alphas) for p in models])
    return test.mse(B).reshape(len(models), len(alphas))


def _cv_best_index(X: np.ndarray, Y: np.ndarray, models: tuple[SchattenIndex, ...],
                   alphas: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Per model, the grid index minimizing mean validation MSE across the
    folds of _fold_order(N, folds, seed); argmin takes the first minimum, so
    ties break to the smaller alpha.  Before fold k is factored, the rows
    become the other folds' in fold order, then fold k's, so its training
    design is the prefix X[:m] and its validation set the rest; Y ends as
    Y[perm], and so does X when d <= N and X is writeable.  When d > N, X is
    left as it was and the folds are laid out in R^T for X^T = Q R; a
    read-only X with d <= N is copied first.  Each fold is factored once and
    shared by all models."""
    perm, edges = _fold_order(X.shape[0], folds, seed)
    if X.shape[1] > X.shape[0]:
        X = np.linalg.qr(X.T, mode="r").T
    if not X.flags.writeable:
        X = X.copy()
    n = len(perm)
    where = np.arange(n)  # where[i]: the current position of original row i
    scores = np.zeros((len(edges) - 1, len(models), len(alphas)))
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        order = np.r_[perm[:lo], perm[hi:], perm[lo:hi]]
        step = where[order]
        _permute_rows(X, step)
        _permute_rows(Y, step)
        where[order] = np.arange(n)
        m = n - (hi - lo)
        scores[k] = _path_scores(gram_spectrum(X[:m]), X[:m].T @ Y[:m], models, alphas,
                                 RowTestSet(X[m:], Y[m:]))
    return np.argmin(scores.mean(axis=0), axis=1)


def kfold_select_alpha(
    X: np.ndarray,
    Y: np.ndarray,
    models: tuple[SchattenIndex, ...],
    cfg: CVConfig,
    seed: int | None = None,
) -> dict[SchattenIndex, float]:
    """Per model, the grid alpha minimizing mean validation MSE across
    cfg.folds folds shuffled by seed (default cfg.seed), ties to the smaller
    alpha.  X and Y are left as they were: Y is copied, and X goes in
    read-only, so the routine copies it only when d <= N.  Raises
    DimensionMismatch unless X is (N, d) and Y (N,), NonFinite for a NaN or
    inf in Y, and InvalidConfig for empty or repeated models."""
    X, Y = np.asarray(X, dtype=float).view(), np.array(Y, dtype=float)
    X.flags.writeable = False
    if X.ndim != 2 or Y.shape != X.shape[:1]:
        raise DimensionMismatch(f"X {X.shape} and Y {Y.shape} must be (N, d) and (N,)")
    if not np.all(np.isfinite(Y)):
        raise NonFinite("Y contains NaN or Inf")
    _check_models(models)
    alphas = cfg.grid.values()
    best = _cv_best_index(X, Y, models, alphas, cfg.folds, cfg.seed if seed is None else seed)
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
    return _path_scores(ds.spectrum, ds.X_tr.T @ ds.Y_tr, models, alphas, ds.test)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _replicates(run, n: int, workers: int) -> list:
    """[run(j) for j in range(n)] on the calling thread and workers - 1
    threads.  A worker that is free takes the lowest dataset no worker has
    taken, so the datasets are claimed in order and none waits behind a
    slower worker's share; each result goes to its own slot, so the result
    is the same for any workers.  A failure fills its slot: no worker starts
    a dataset above a failure it has seen, and once every thread is joined
    the lowest failing dataset's error is raised, as a serial loop would."""
    results: list = [None] * n
    failed: list[int] = []  # list.append is atomic, so no lock is needed
    order, claim = itertools.count(), threading.Lock()

    def work() -> None:
        while True:
            with claim:  # taking the next index is a read-modify-write
                j = next(order)
            if j >= n or (failed and j > min(failed)):
                return
            try:
                results[j] = run(j)
            except BaseException as exc:  # raised on the calling thread below
                results[j] = exc
                failed.append(j)
                return

    threads = [threading.Thread(target=work) for _ in range(1, workers)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failed:
        raise results[min(failed)]
    return results


def simulate_path_errors(
    ensemble_config,
    models: tuple[SchattenIndex, ...],
    alphas: np.ndarray,
    n_datasets: int,
    seed: int,
) -> np.ndarray:
    """Test MSE of every model at every alpha on fresh draws of an ensemble,
    shape (n_models, n_alpha, n_datasets); dataset j uses child seed j.  The
    datasets run on min(usable CPUs, n_datasets) workers of _replicates;
    numpy releases the GIL while it draws and multiplies."""
    seeds = child_seeds(seed, n_datasets)
    return np.stack(_replicates(
        lambda j: _path_errors(sample_ensemble(ensemble_config, seeds[j]), models, alphas),
        n_datasets, min(_usable_cpus(), n_datasets)), axis=2)


def _cv_errors(ds: Dataset, cfg: CVConfig, cv_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(test MSE, selected alpha) per model.  Every model's whole alpha path
    is fit from the dataset's own spectrum and scored on the test set first;
    then the dataset is let go and _cv_best_index picks the grid index from
    its training rows, laid out in place.  Called with a dataset no one else
    holds, as the replicate harness does, the test set is freed before any
    fold is factored; X_tr is held until the selection returns."""
    alphas = cfg.grid.values()
    test_mse = _path_errors(ds, cfg.models, alphas)
    X, Y = ds.X_tr, ds.Y_tr
    del ds
    best = _cv_best_index(X, Y, cfg.models, alphas, cfg.folds, cv_seed)
    return test_mse[np.arange(len(cfg.models)), best], alphas[best]


def _bench_over_datasets(make_dataset, cfg: CVConfig, with_ratio: bool) -> BenchReport:
    """The replicate protocol: dataset j is make_dataset(seed) for the j-th
    even child seed and its CV folds use the next one.  Each dataset is made
    inside the call that scores and consumes it, so only one is alive at a
    time.  No factorization overlaps a test set: make_dataset factors the
    full training set before it makes the test set, and that is freed before
    the folds are factored."""
    names = tuple(MODEL_NAMES[m] for m in cfg.models)
    seeds = child_seeds(cfg.seed, 2 * cfg.n_datasets)
    # One worker: threading this loop raised cv-tall's peak memory by 42% (ROADMAP).
    pairs = _replicates(lambda j: _cv_errors(make_dataset(seeds[2 * j]), cfg, seeds[2 * j + 1]),
                        cfg.n_datasets, 1)
    errors, alphas = (np.stack(column, axis=1) for column in zip(*pairs))
    winners = np.argmin(errors, axis=0)  # first index wins ties
    win_count = {name: int(np.sum(winners == i)) for i, name in enumerate(names)}
    avg_error = {name: float(errors[i].mean()) for i, name in enumerate(names)}
    ratio = ({name: avg_error[name] / avg_error["ridge"] for name in names}
             if with_ratio and "ridge" in names else None)
    return BenchReport(models=names, errors=errors, selected_alphas=alphas,
                       avg_error=avg_error, win_count=win_count,
                       win_prob={name: win_count[name] / cfg.n_datasets for name in names},
                       ridge_ratio=ratio)


def run_benchmark(ensemble_config, cfg: CVConfig) -> BenchReport:
    """The full replicate protocol on a synthetic ensemble."""
    _check_folds(ensemble_config.n_obs, cfg.folds)  # before any dataset is sampled
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
        for name in ("d", "d_rbf", "n_obs", "n_test"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 <= self.sigma < np.inf:
            raise InvalidConfig(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if not 0.0 < self.bandwidth < np.inf:
            raise InvalidConfig(f"bandwidth must be finite and positive, got {self.bandwidth!r}")


def rff_benchmark(rff_cfg: RFFBenchConfig, cfg: CVConfig) -> BenchReport:
    """Benchmark on RFF feature-space data, with the ratio-to-Ridge statistic
    included.  Folds with more features than rows are rank-deficient; there
    Spectral is min-norm OLS / (1 + alpha)."""
    _check_folds(rff_cfg.n_obs, cfg.folds)  # before any dataset is made
    return _bench_over_datasets(
        lambda s: make_rff_dataset(
            rff_cfg.d, rff_cfg.d_rbf, rff_cfg.n_obs, rff_cfg.n_test,
            rff_cfg.sigma, rff_cfg.bandwidth, seed=s,
        ),
        cfg,
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
