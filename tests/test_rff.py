import numpy as np
import pytest

from schattenreg import (
    NonlinearTarget,
    apply_rff,
    eval_target,
    make_rff_dataset,
    sample_nonlinear_target,
    sample_rff_map,
)


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


def test_dataset_noiseless_and_deterministic():
    a = make_rff_dataset(5, 30, 40, 20, sigma=0.0, seed=9)
    b = make_rff_dataset(5, 30, 40, 20, sigma=0.0, seed=9)
    assert np.array_equal(a.X_tr, b.X_tr) and np.array_equal(a.Y_tr, b.Y_tr)
    assert a.beta0 is None
    assert a.X_tr.shape == (40, 30) and a.X_te.shape == (20, 30)


def test_raw_entry_variance():
    ds = make_rff_dataset(50, 100, 400, 10, sigma=0.0, seed=0)
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
    feats = np.sqrt(2.0 / 40) * np.cos(X @ rff.weights.T + rff.offsets)
    assert np.array_equal(apply_rff(rff, X), feats)
    k = np.arange(1, 26)
    proj = X @ target.directions.T
    vals = np.sum(np.cos(2.0 * np.pi * k * proj) / k**2, axis=1)
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
    vals = np.sum(np.cos(2.0 * np.pi * k * (X @ target.directions.T)) / k**2, axis=1)
    assert np.array_equal(eval_target(target, X), vals)


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
