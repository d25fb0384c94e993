"""Random Fourier features and the synthetic nonlinear regression target.

The feature map phi(x) = sqrt(2/d_rbf) cos(W x + b) with Gaussian W and
uniform phases approximates the Gaussian kernel exp(-bandwidth ||x - y||^2).
The nonlinear target is a fixed random cosine series with 1/k^2 decay, so it
is bounded by pi^2/6 and lives just outside the span of any finite feature
set.  make_rff_dataset(config, seed) draws a dataset from an RFFBenchConfig,
as each ensembles.sample_* draws one from its own config, and
cv.sample_ensemble dispatches to it as to them.

Both take their cosines in turns, cos(2 pi t), from one in-place kernel,
_cos_turns: t is reduced to one period, t - rint(t) in [-1/2, 1/2], which
is exact, and cos(2 pi t) is a degree-11 polynomial in s = t^2 evaluated by
Horner's rule.  Its coefficients interpolate cos(2 pi sqrt(s)) at the 12
Chebyshev nodes of [0, 1/4], solved in mpmath at 40 digits and rounded to
float64.  Against 40-digit values it is within 7e-16 of cos(2 pi t), on a
dense grid of one period and at arguments up to 1e4 turns (numpy's cos of
the rounded product 2 pi t is within 3.3e-16 on the grid), and its 25
elementwise passes take about a third of the time of numpy's float64 cos,
which runs scalar code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import _BLOCK_BYTES, Dataset, RowTestSet, row_blocks
from .exceptions import InvalidConfig, _check_array, _check_counts, _check_reals
from .spectrum import gram_spectrum

__all__ = ["NonlinearTarget", "RFFBenchConfig", "RFFMap", "RFFRows", "apply_rff",
           "eval_target", "make_rff_dataset", "sample_nonlinear_target", "sample_rff_map"]


# cos(2 pi sqrt(s)) ~ sum_j _COS_TURNS[j] s^j on [0, 1/4] (module docstring).
_COS_TURNS = (1.0, -19.739208802178716, 64.93939402266825, -85.45681720669127,
              60.24464137178173, -26.42625678121189, 7.903536340077173,
              -1.7143904138098518, 0.28200407958316315, -0.03637490036340231,
              0.003758590561310354, -0.0002900600501912893)


def _cos_turns(t: np.ndarray) -> None:
    """t <- cos(2 pi t) in place, elementwise, for a C-contiguous float64 t
    (every caller's is a fresh product).  Runs through t in pieces of at most
    _BLOCK_BYTES, with one temporary of that size for rint(t), then s."""
    flat = t.reshape(-1)
    step = _BLOCK_BYTES // flat.itemsize
    tmp = np.empty(min(step, flat.size))
    for lo in range(0, flat.size, step):
        u = flat[lo:lo + step]
        s = tmp[:len(u)]
        np.rint(u, out=s)
        u -= s
        np.multiply(u, u, out=s)
        np.multiply(s, _COS_TURNS[-1], out=u)
        for c in _COS_TURNS[-2:0:-1]:
            u += c
            u *= s
        u += _COS_TURNS[0]


def _rows_times(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W.T for a 2-d X of rows.  BLAS takes a one-row product through
    gemv, whose sums round unlike gemm's; a single row goes in as a block of
    two copies of itself, so it rounds as it does inside any block of rows."""
    if len(X) == 1:
        return (np.repeat(X, 2, axis=0) @ W.T)[:1]
    return X @ W.T


@dataclass(frozen=True)
class RFFMap:
    """phi(x) = sqrt(2/d_rbf) cos(W x + b), W and b stored as checked float arrays."""

    weights: np.ndarray  # (d_rbf, d)
    offsets: np.ndarray  # (d_rbf,) in [0, 2 pi)

    def __post_init__(self):
        W = _check_array(self.weights, "weights", (None, None))
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "offsets", _check_array(self.offsets, "offsets", W.shape[:1]))


@dataclass(frozen=True)
class NonlinearTarget:
    """f(x) = sum_k cos(2 pi k <x, v_k>) / k^2 for the rows v_k of directions,
    stored as a checked float array; each norm must be 1 to 1e-12 (InvalidConfig)."""

    directions: np.ndarray  # (n_terms, d), unit rows

    def __post_init__(self):
        v = _check_array(self.directions, "directions", (None, None))
        object.__setattr__(self, "directions", v)
        if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12):
            raise InvalidConfig("directions must be unit vectors")


def sample_rff_map(d: int, d_rbf: int, bandwidth: float = 1.0, seed: int = 0) -> RFFMap:
    _check_counts({"d": d, "d_rbf": d_rbf})
    _check_reals({"bandwidth": bandwidth}, admits=lambda v: 0.0 < v < np.inf,
                 what="finite and positive")
    rng = np.random.default_rng(seed)
    # w ~ N(0, 2 * bandwidth * I) makes E cos(w . (x-y)) = exp(-bandwidth |x-y|^2).
    W = rng.standard_normal((d_rbf, d)) * np.sqrt(2.0 * bandwidth)
    b = rng.uniform(0.0, 2.0 * np.pi, size=d_rbf)
    return RFFMap(weights=W, offsets=b)


def apply_rff(rff: RFFMap, X: np.ndarray) -> np.ndarray:
    """Map raw rows (2-d X) or one raw point (1-d X) to cosine features;
    entries bounded by sqrt(2/d_rbf).  Z = X W^T + b is turned into turns,
    Z / (2 pi), whose cosines _cos_turns takes in place: a feature is within
    1e-15 max(1, |Z|) sqrt(2/d_rbf) of numpy's cos of Z.  A row's features
    are the same bits whichever rows come with it.  Raises DimensionMismatch
    unless X is (d,) or (n, d) for the map's d, and NonFinite for NaN or inf."""
    d_rbf, d = rff.weights.shape
    X = _check_array(X, "X", (d,) if np.ndim(X) == 1 else (None, d))
    Z = _rows_times(np.atleast_2d(X), rff.weights)
    if X.ndim == 1:
        Z = Z[0]
    Z += rff.offsets
    Z *= 1.0 / (2.0 * np.pi)
    _cos_turns(Z)
    Z *= np.sqrt(2.0 / d_rbf)
    return Z


@dataclass(frozen=True, eq=False)
class RFFRows:
    """The RFF features of raw rows, made a block at a time: a row slice
    rows[i:j] is apply_rff(rff, raw[i:j]), so the whole (n, d_rbf) feature
    matrix never exists.  nbytes counts the raw rows it holds;
    benchmark/tracer.py reads it from outside the package."""

    rff: RFFMap
    raw: np.ndarray  # (n, d)

    @property
    def shape(self) -> tuple[int, int]:
        return self.raw.shape[0], self.rff.weights.shape[0]

    @property
    def nbytes(self) -> int:
        return self.raw.nbytes

    def __getitem__(self, rows: slice) -> np.ndarray:
        return apply_rff(self.rff, self.raw[rows])


def sample_nonlinear_target(d: int, n_terms: int, rng: np.random.Generator) -> NonlinearTarget:
    v = rng.standard_normal((n_terms, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return NonlinearTarget(directions=v)


def eval_target(target: NonlinearTarget, x: np.ndarray) -> np.ndarray | float:
    """Evaluate the cosine series at one point (1-d x) or row-wise (2-d x).
    Each term is cos(2 pi u) for u = k <x, v_k>, which is in turns already,
    so _cos_turns takes it as it is: its one-period reduction is exact, and
    the term carries only the rounding of u and the kernel's 7e-16.  A row's
    value is the same bits whichever rows come with it.  Raises
    DimensionMismatch unless x is (d,) or (n, d) for the directions' d, and
    NonFinite for NaN or inf."""
    d = target.directions.shape[1]
    x = _check_array(x, "x", (d,) if np.ndim(x) == 1 else (None, d))
    rows = np.atleast_2d(x)
    n_terms = target.directions.shape[0]
    k = np.arange(1, n_terms + 1)
    decay = k**2
    vals = np.empty(len(rows))
    for lo, hi in row_blocks(len(rows), 8 * n_terms):
        proj = _rows_times(rows[lo:hi], target.directions)
        proj *= k
        _cos_turns(proj)
        proj /= decay
        vals[lo:hi] = proj.sum(axis=1)
    return vals if x.ndim == 2 else float(vals[0])


@dataclass(frozen=True)
class RFFBenchConfig:
    d: int = 10
    d_rbf: int = 100
    n_obs: int = 100
    n_test: int = 1000
    sigma: float = 1.0
    bandwidth: float = 1.0

    def __post_init__(self):
        _check_counts(self, "d", "d_rbf", "n_obs", "n_test")
        _check_reals(self, "sigma")
        _check_reals(self, "bandwidth", admits=lambda v: 0.0 < v < np.inf,
                     what="finite and positive")


def make_rff_dataset(config: RFFBenchConfig, seed: int = 0) -> Dataset:
    """Dataset in RFF feature space, drawn from config as each sampler draws
    from its own: raw Gaussian inputs with entry variance 1/d_rbf, targets
    from the nonlinear cosine series (noiseless on test), and the identical
    feature map applied to train and test.  The training features are
    factored as soon as they exist; the test features are never formed
    whole: the test set's rows are an RFFRows over the raw test inputs,
    mapped a row block at a time as they are scored."""
    d, d_rbf, n_obs = config.d, config.d_rbf, config.n_obs
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d_rbf)
    raw_tr = rng.standard_normal((n_obs, d)) * scale
    raw_te = rng.standard_normal((config.n_test, d)) * scale
    target = sample_nonlinear_target(d, d_rbf, rng)
    rff = sample_rff_map(d, d_rbf, config.bandwidth, seed=int(rng.integers(2**31)))
    Y_tr = eval_target(target, raw_tr) + config.sigma * rng.standard_normal(n_obs)
    Y_te = eval_target(target, raw_te)
    X_tr = apply_rff(rff, raw_tr)
    return Dataset(X_tr, Y_tr, RowTestSet(RFFRows(rff, raw_te), Y_te), gram_spectrum(X_tr))
