import re

import numpy as np
import pytest

from schattenreg import (
    NonlinearTarget,
    RFFBenchConfig,
    apply_rff,
    eval_target,
    make_rff_dataset,
    sample_nonlinear_target,
    sample_rff_map,
)
from schattenreg.ensembles import _BLOCK_BYTES
from schattenreg.exceptions import DimensionMismatch, NonFinite
from schattenreg.rff import _cos_turns


def _cos_turns_of(t):
    """cos(2 pi t) by the kernel, out of place."""
    t = np.array(t, dtype=float)
    _cos_turns(t)
    return t


def test_rff_map_deterministic():
    a = sample_rff_map(5, 64, bandwidth=1.0, seed=3)
    b = sample_rff_map(5, 64, bandwidth=1.0, seed=3)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.offsets, b.offsets)


def test_rff_kernel_approximation():
    d, d_rbf = 4, 4096
    rff = sample_rff_map(d, d_rbf, bandwidth=1.0, seed=0)
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(d) * 0.4, rng.standard_normal(d) * 0.4
    feats = apply_rff(rff, np.vstack([x, y]))
    inner = float(feats[0] @ feats[1])
    kernel = np.exp(-np.sum((x - y) ** 2))
    assert abs(inner - kernel) < 3.0 / np.sqrt(d_rbf)


def test_rff_feature_bound():
    rff = sample_rff_map(3, 50, seed=2)
    feats = apply_rff(rff, np.random.default_rng(0).standard_normal((20, 3)))
    assert np.all(np.abs(feats) <= np.sqrt(2.0 / 50) + 1e-12)


def test_target_at_origin_is_basel_partial_sum():
    rng = np.random.default_rng(0)
    target = sample_nonlinear_target(4, 50, rng)
    k = np.arange(1, 51)
    assert eval_target(target, np.zeros(4)) == pytest.approx(np.sum(1.0 / k**2))


def test_single_term_target():
    v = np.array([[1.0, 0.0]])
    target = NonlinearTarget(directions=v)
    x = np.array([0.3, 9.0])
    assert eval_target(target, x) == pytest.approx(np.cos(2 * np.pi * 0.3))


def test_target_is_bounded():
    rng = np.random.default_rng(5)
    target = sample_nonlinear_target(6, 30, rng)
    X = rng.standard_normal((200, 6)) * 3
    vals = eval_target(target, X)
    assert np.all(np.abs(vals) < np.pi**2 / 6)


def test_unit_directions():
    rng = np.random.default_rng(6)
    target = sample_nonlinear_target(8, 40, rng)
    np.testing.assert_allclose(np.linalg.norm(target.directions, axis=1), 1.0,
                               atol=1e-12)


def test_target_directions_are_unit_to_1e_12():
    v = np.zeros((3, 4))
    v[:, 0] = 1.0
    NonlinearTarget(directions=v)
    v[1, 0] = 1.0 + 1e-9  # within allclose's default rtol of 1e-5
    with pytest.raises(ValueError, match="unit vectors"):
        NonlinearTarget(directions=v)
    for seed in range(20):  # sampled directions are normalized in floats
        sample_nonlinear_target(10, 1000, np.random.default_rng(seed))


def test_dataset_noiseless_and_deterministic():
    cfg = RFFBenchConfig(d=5, d_rbf=30, n_obs=40, n_test=20, sigma=0.0)
    a = make_rff_dataset(cfg, seed=9)
    b = make_rff_dataset(cfg, seed=9)
    assert np.array_equal(a.X_tr, b.X_tr) and np.array_equal(a.Y_tr, b.Y_tr)
    assert a.beta0 is None
    assert a.X_tr.shape == (40, 30) and a.X_te.shape == (20, 30)


def test_raw_entry_variance():
    ds = make_rff_dataset(RFFBenchConfig(d=50, d_rbf=100, n_obs=400, n_test=10, sigma=0.0),
                          seed=0)
    # Feature values don't expose raw X, so check indirectly: regenerate the
    # raw draw with the same stream prefix.
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((400, 50)) / np.sqrt(100)
    var = raw.var()
    se = np.sqrt(2.0 / raw.size) / 100
    assert abs(var - 0.01) < 3 * se


def test_same_map_applied_to_train_and_test():
    # A dataset built from identical raw inputs must produce identical rows.
    rff = sample_rff_map(4, 16, seed=1)
    X = np.random.default_rng(2).standard_normal((7, 4))
    np.testing.assert_array_equal(apply_rff(rff, X), apply_rff(rff, X.copy()))


def test_feature_map_and_target_match_out_of_place_expressions():
    # Both are built in place; the values are those of the expressions.
    rng = np.random.default_rng(3)
    rff = sample_rff_map(6, 40, bandwidth=0.7, seed=3)
    target = sample_nonlinear_target(6, 25, rng)
    X = rng.standard_normal((9, 6)) * 0.4
    turns = (X @ rff.weights.T + rff.offsets) * (1.0 / (2.0 * np.pi))
    feats = np.sqrt(2.0 / 40) * _cos_turns_of(turns)
    assert np.array_equal(apply_rff(rff, X), feats)
    k = np.arange(1, 26)
    u = k * (X @ target.directions.T)
    vals = np.sum(_cos_turns_of(u) / k**2, axis=1)
    assert np.array_equal(eval_target(target, X), vals)
    # One row, 2-d or 1-d, is the value it has among the others.
    assert np.array_equal(eval_target(target, X[:1]), vals[:1])
    assert eval_target(target, X[0]) == vals[0]


@pytest.mark.parametrize("n_rows", [97, 100])
def test_eval_target_in_row_blocks_equals_one_pass(n_rows):
    # 1000 terms go in blocks of 12 rows; 97 rows leave a last block of one
    # row, 100 rows one of four.  The values are those of the whole (n_rows,
    # 1000) projection formed in one product, bit for bit.  Unit-scale rows
    # make the last bit of each value depend on how its projection is summed.
    rng = np.random.default_rng(5)
    target = sample_nonlinear_target(10, 1000, rng)
    X = rng.standard_normal((n_rows, 10))
    k = np.arange(1, 1001)
    u = k * (X @ target.directions.T)
    vals = np.sum(_cos_turns_of(u) / k**2, axis=1)
    assert np.array_equal(eval_target(target, X), vals)


def test_one_period_target_is_no_further_from_exact_than_the_unreduced_series():
    # Unit-scale rows put the arguments 2 pi k <x, v_k> above 2e4.  Both
    # series are compared with the exact series of the same float
    # projections (12 rows, one block, so the products are eval_target's).
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    target = sample_nonlinear_target(10, 1000, rng)
    X = rng.standard_normal((12, 10))
    k = np.arange(1, 1001)
    proj = X @ target.directions.T
    assert np.abs(2.0 * np.pi * k * proj).max() > 2e4
    with mpmath.workdps(30):
        terms = [[mpmath.cospi(2 * int(j) * mpmath.mpf(float(p))) / int(j) ** 2
                  for j, p in zip(k, row)] for row in proj]
        exact = np.array([float(mpmath.fsum(row)) for row in terms])
        exact_terms = np.array([[float(t) for t in row] for row in terms])
    u = k * proj
    reduced_terms = _cos_turns_of(u) / k**2
    unreduced_terms = np.cos(2.0 * np.pi * k * proj) / k**2
    reduced = eval_target(target, X)
    assert np.array_equal(reduced, reduced_terms.sum(axis=1))
    unreduced = unreduced_terms.sum(axis=1)
    assert np.abs(reduced - exact).max() <= np.abs(unreduced - exact).max()
    assert (np.abs(reduced_terms - exact_terms).sum()
            <= np.abs(unreduced_terms - exact_terms).sum())


def test_eval_target_in_row_blocks_equals_rows_one_at_a_time():
    # BLAS forms a one-row product with gemv and a block with gemm, whose sums
    # round differently for d >= 2.  With d = 1 each projection is a single
    # rounded product either way, so only the blocking is compared.
    rng = np.random.default_rng(6)
    target = sample_nonlinear_target(1, 1000, rng)
    X = rng.standard_normal((97, 1)) * 0.03
    assert np.array_equal(eval_target(target, X), [eval_target(target, x) for x in X])


def test_one_row_rounds_as_it_does_inside_a_block():
    # At rff-bench's scale (d = 10, 1000 terms and features, raw entries of
    # size 0.03) a one-row product taken by gemv rounds unlike the same row
    # inside a gemm block, in about 14% of rows for the target and every row
    # for the features.  Every row alone, 2-d or 1-d, must be the bits it has
    # among the others.
    rng = np.random.default_rng(11)
    target = sample_nonlinear_target(10, 1000, rng)
    rff = sample_rff_map(10, 1000, seed=12)
    X = rng.standard_normal((2000, 10)) / np.sqrt(1000)
    vals, feats = eval_target(target, X), apply_rff(rff, X)
    for i in range(len(X)):
        assert eval_target(target, X[i]) == vals[i]
        assert np.array_equal(eval_target(target, X[i:i + 1]), vals[i:i + 1])
        assert np.array_equal(apply_rff(rff, X[i:i + 1]), feats[i:i + 1])
        assert np.array_equal(apply_rff(rff, X[i]), feats[i])


def test_cos_turns_is_within_1e_15_of_exact():
    # A dense grid of one period, its ends, zeros and extrema included, and
    # arguments up to 1e4 turns, against 40-digit cospi(2 t) of the same floats.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    t = np.r_[np.linspace(-0.5, 0.5, 4001), [0.0, 0.25, -0.25, 0.5, -0.5, 0.125],
              rng.uniform(-1e4, 1e4, 1000), rng.uniform(-2.0, 2.0, 1000),
              np.arange(-1e4, 1e4 + 1, 2500) + 0.25, [1e4, -1e4, 1e4 - 0.5]]
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.cospi(2 * mpmath.mpf(float(x)))) for x in t])
    assert np.abs(_cos_turns_of(t) - exact).max() <= 1e-15
    assert _cos_turns_of([0.0, 1.0, -3.0])[0] == 1.0


def test_cos_turns_is_elementwise_across_pieces():
    # An argument of several _BLOCK_BYTES pieces, 2-d, is the bits of its
    # elements taken a few at a time.
    t = np.random.default_rng(1).uniform(-50.0, 50.0, (7, 3 * _BLOCK_BYTES // 8 // 7 + 5))
    whole = _cos_turns_of(t)
    assert whole.shape == t.shape
    flat = t.reshape(-1)
    assert np.array_equal(whole.reshape(-1),
                          np.concatenate([_cos_turns_of(flat[i:i + 5])
                                          for i in range(0, flat.size, 5)]))


@pytest.mark.parametrize("scale", [0.03, 1.0])
def test_features_and_targets_are_within_1e_15_of_the_np_cos_expressions(scale):
    # At rff-bench's raw scale (0.03) and at unit scale, where the target's
    # arguments run to thousands of turns.  A feature's tolerance grows with
    # |Z|, since Z / (2 pi) is rounded; a target's scale is sum 1/k^2.
    rng = np.random.default_rng(7)
    target = sample_nonlinear_target(10, 1000, rng)
    rff = sample_rff_map(10, 1000, seed=8)
    X = rng.standard_normal((300, 10)) * scale
    Z = X @ rff.weights.T + rff.offsets
    feats = np.sqrt(2.0 / 1000) * np.cos(Z)
    assert np.all(np.abs(apply_rff(rff, X) - feats)
                  <= 1e-15 * np.sqrt(2.0 / 1000) * np.maximum(1.0, np.abs(Z)))
    k = np.arange(1, 1001)
    u = k * (X @ target.directions.T)
    vals = np.sum(np.cos(2.0 * np.pi * (u - np.rint(u))) / k**2, axis=1)
    assert np.abs(eval_target(target, X) - vals).max() <= 1e-15 * np.sum(1.0 / k**2)


_RFF = sample_rff_map(3, 8, seed=0)
_TARGET = sample_nonlinear_target(3, 8, np.random.default_rng(0))


@pytest.mark.parametrize("call, name", [
    (lambda x: apply_rff(_RFF, x), "X"),
    (lambda x: eval_target(_TARGET, x), "x"),
], ids=["apply_rff", "eval_target"])
@pytest.mark.parametrize("shape", [(5, 4), (5, 2), (4,), (2, 5, 3), ()])
def test_rff_input_of_another_width_raises_naming_both_shapes(call, name, shape):
    # The map and the target take one point (d,) or rows (n, d) of their d = 3.
    message = f"{name} {shape} must be {'(3,)' if len(shape) == 1 else '(*, 3)'}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        call(np.zeros(shape))


@pytest.mark.parametrize("call", [lambda x: apply_rff(_RFF, x),
                                  lambda x: eval_target(_TARGET, x)],
                         ids=["apply_rff", "eval_target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("one_point", [False, True], ids=["rows", "point"])
def test_rff_input_with_nan_or_inf_raises(call, bad, one_point):
    x = np.zeros((4, 3))
    x[2, 1] = bad
    with pytest.raises(NonFinite):
        call(x[2] if one_point else x)
