import re
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from schattenreg import (
    AlphaGrid,
    Atoms,
    BenchReport,
    CVConfig,
    Dataset,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    GramTestSet,
    PowerLaw,
    RealDataConfig,
    RFFBenchConfig,
    RowTestSet,
    SchattenIndex,
    SparseSpec,
    SphericalGaussianConfig,
    aggregate_wins,
    apply_rff,
    child_seeds,
    fit,
    fit_path,
    gram_spectrum,
    haar_stiefel,
    kfold_select_alpha,
    make_rff_dataset,
    predict,
    run_benchmark,
    sample_diagonal,
    sample_equicorrelated,
    sample_real_data,
    sample_rff_map,
    sample_spherical,
    simulate_path_errors,
)
from schattenreg import cv
from schattenreg.cv import _cv_errors, _path_errors, _path_scores, sample_ensemble
from schattenreg.ensembles import _BLOCK_BYTES, _test_spans
from schattenreg.exceptions import DimensionMismatch, InsufficientData, InvalidConfig, NonFinite
from schattenreg.rff import RFFRows


def _small_cfg(**kw):
    defaults = dict(
        folds=3,
        grid=AlphaGrid(1e-4, 1e6, 9),
        models=(SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS, SchattenIndex.SPECTRAL),
        n_datasets=5,
        seed=0,
    )
    defaults.update(kw)
    return CVConfig(**defaults)


def test_single_value_grid_is_returned():
    ds = sample_spherical(SphericalGaussianConfig(30, 5, n_test=10), seed=0)
    cfg = _small_cfg(grid=AlphaGrid(0.37, 1.0, 1), models=(SchattenIndex.FROBENIUS,))
    a = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg)[SchattenIndex.FROBENIUS]
    assert a == 0.37


@pytest.mark.parametrize("lo, hi", [(0.3, 3.0), (1e-4, 1e6), (1e-3, 1e5), (0.37, 1.1), (2e-7, 0.9)])
@pytest.mark.parametrize("count", [2, 5, 30, 500])
def test_grid_ends_are_exactly_lo_and_hi(lo, hi, count):
    # np.logspace of the log10 ends read AlphaGrid(0.3, 3.0, 5)'s first value
    # as 0.29999999999999993, while a one-point grid gave lo exactly.
    values = AlphaGrid(lo, hi, count).values()
    assert (values[0], values[-1], len(values)) == (lo, hi, count)
    assert np.all(np.diff(values) > 0)


def test_selection_deterministic():
    ds = sample_spherical(SphericalGaussianConfig(40, 8, n_test=10), seed=1)
    cfg = _small_cfg(models=(SchattenIndex.NUCLEAR,))
    a1 = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg)[SchattenIndex.NUCLEAR]
    a2 = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg)[SchattenIndex.NUCLEAR]
    assert a1 == a2


def test_selected_alpha_is_grid_member():
    ds = sample_spherical(SphericalGaussianConfig(40, 8, sigma=2.0, n_test=10), seed=2)
    cfg = _small_cfg(models=(SchattenIndex.FROBENIUS,))
    a = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg)[SchattenIndex.FROBENIUS]
    assert a in cfg.grid.values()


def test_noiseless_data_selects_least_regularization():
    # Bias-only regime: with sigma = 0 and a well-conditioned design, the
    # smallest grid alpha should win nearly always.
    wins = 0
    for seed in range(100):
        ds = sample_spherical(SphericalGaussianConfig(50, 10, sigma=0.0, n_test=10), seed=seed)
        cfg = _small_cfg(models=(SchattenIndex.FROBENIUS,), seed=seed)
        a = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg)[SchattenIndex.FROBENIUS]
        wins += a == cfg.grid.values()[0]
    assert wins >= 95


@pytest.mark.parametrize("shape", [(40, 8), (30, 45)])  # full rank; d > N
def test_multi_model_selection_matches_single_model(shape):
    ds = sample_spherical(SphericalGaussianConfig(*shape, sigma=1.5, n_test=10), seed=4)
    cfg = _small_cfg(seed=5)
    together = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg)
    for p in cfg.models:
        assert together[p] == kfold_select_alpha(ds.X_tr, ds.Y_tr, replace(cfg, models=(p,)))[p]


@pytest.mark.parametrize("shape", [(40, 8), (12, 30)])  # tall; wide and rank-deficient
def test_cv_errors_match_refit_scored_one_model_at_a_time(shape):
    n_obs, n_feat = shape
    ds = sample_spherical(SphericalGaussianConfig(n_obs, n_feat, sigma=0.5, n_test=60), seed=4)
    cfg = _small_cfg()
    # Before _cv_errors takes the rows.
    spectrum, xty = gram_spectrum(ds.X_tr), ds.X_tr.T @ ds.Y_tr
    errors, alphas = _cv_errors(ds, cfg, cv_seed=9)
    for p, err, alpha in zip(cfg.models, errors, alphas):
        want = ds.test.mse(fit_path(spectrum, xty, p, [alpha]))[0]
        assert err == pytest.approx(want, rel=1e-14, abs=0.0)


def test_cv_errors_permute_the_training_rows_into_fold_order_in_place():
    # The harness consumes its dataset: X_tr and Y_tr end up in fold order in
    # their own buffers, and the selection is kfold_select_alpha's on a copy.
    ds = sample_equicorrelated(EquicorrelatedConfig(47, 6, rho=0.3, n_test=20), seed=3)
    X, Y, buffers = ds.X_tr.copy(), ds.Y_tr.copy(), (ds.X_tr, ds.Y_tr)
    cfg = _small_cfg()
    _, alphas = _cv_errors(ds, cfg, cv_seed=8)
    perm = np.random.default_rng(8).permutation(47)
    assert ds.X_tr is buffers[0] and np.array_equal(ds.X_tr, X[perm])
    assert ds.Y_tr is buffers[1] and np.array_equal(ds.Y_tr, Y[perm])
    selected = kfold_select_alpha(X, Y, replace(cfg, seed=8))
    assert list(alphas) == [selected[p] for p in cfg.models]


def _duplicated_rows_dataset(seed):
    # 14 rows of 30 features, 6 of them repeats: rank 8 < N.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((8, 30)) / np.sqrt(14)
    X = base[[0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 4, 6, 1, 7]]
    Y = X @ rng.standard_normal(30) + 0.5 * rng.standard_normal(14)
    X_te = rng.standard_normal((40, 30)) / np.sqrt(14)
    return Dataset(X_tr=X, Y_tr=Y, test=RowTestSet(X_te, X_te @ rng.standard_normal(30)),
                   spectrum=gram_spectrum(X))


_WIDE_DATASETS = {
    "rff": lambda: make_rff_dataset(
        RFFBenchConfig(d=4, d_rbf=200, n_obs=30, n_test=50, sigma=0.5), seed=6),
    "spherical-12x30": lambda: sample_spherical(
        SphericalGaussianConfig(12, 30, sigma=0.5, n_test=60), seed=4),
    "duplicated-rows": lambda: _duplicated_rows_dataset(2),
    "n-obs-not-divisible": lambda: sample_spherical(
        SphericalGaussianConfig(20, 50, sigma=0.7, n_test=60), seed=5),
}


def _exact_fold_scores(X_tr, Y_tr, X_val, Y_val, models, alphas):
    """(n_models, n_alpha) validation MSE of the fold fit, in 40 digits from
    the float rows: with K = X_tr X_tr^T = W diag(s) W^T, every model
    predicts X_val X_tr^T W diag(1 / f_alpha(s)) W^T Y_tr, with weight 0 on
    s at or below the rank tolerance, as fit_path does."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        A = mpmath.matrix(X_tr.tolist())
        s, W = mpmath.eigsy(A * A.T)
        c = W.T * mpmath.matrix(Y_tr.tolist())
        KW = mpmath.matrix(X_val.tolist()) * A.T * W
        tol = 1e-12 * max(s)
        out = np.empty((len(models), len(alphas)))
        for i, p in enumerate(models):
            for j, a in enumerate(alphas):
                a = mpmath.mpf(float(a))
                f = {SchattenIndex.NUCLEAR: lambda x: max(x, a),
                     SchattenIndex.FROBENIUS: lambda x: x + a,
                     SchattenIndex.SPECTRAL: lambda x: (1 + a) * x}[p]
                g = mpmath.matrix([c[t] / f(x) if x > tol else 0 for t, x in enumerate(s)])
                resid = KW * g - mpmath.matrix(Y_val.tolist())
                out[i, j] = float(mpmath.fsum(r**2 for r in resid) / len(Y_val))
    return out


@pytest.mark.parametrize("make", _WIDE_DATASETS.values(), ids=_WIDE_DATASETS.keys())
def test_wide_cv_runs_in_the_row_space(make, monkeypatch):
    # With d > N the folds are laid out in R^T, N x N, for X^T = Q R: every
    # fold is factored with N columns, whether the harness or
    # kfold_select_alpha selects, and both pick the same alphas.  Their fold
    # scores are held to the exact ones: on the RFF folds (condition number
    # near 4e4) d-column folds score up to about 8e-12 from them, the
    # row-space folds within 4e-13.
    import schattenreg.cv as cv

    ds = make()
    n, d = ds.X_tr.shape
    assert d > n
    X, Y, buffers = ds.X_tr.copy(), ds.Y_tr.copy(), (ds.X_tr, ds.Y_tr)
    cfg = _small_cfg()
    perm, edges = cv._fold_order(n, cfg.folds, 8)
    exact = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        train, val = np.r_[perm[:lo], perm[hi:]], perm[lo:hi]
        exact.append(_exact_fold_scores(X[train], Y[train], X[val], Y[val], cfg.models,
                                        cfg.grid.values()))
    factored, scored = [], []
    factor, score = cv.gram_spectrum, cv._path_scores

    def factor_spy(rows):
        factored.append(rows.shape)
        return factor(rows)

    def score_spy(*args):
        scored.append(score(*args))
        return scored[-1]

    def check_folds(first):  # scored[:first] are not folds
        assert factored == [(n - (hi - lo), n) for lo, hi in zip(edges[:-1], edges[1:])]
        np.testing.assert_allclose(scored[first:], exact, rtol=1e-12, atol=0)
        factored.clear()
        scored.clear()

    monkeypatch.setattr(cv, "gram_spectrum", factor_spy)
    monkeypatch.setattr(cv, "_path_scores", score_spy)
    _, alphas = _cv_errors(ds, cfg, cv_seed=8)
    check_folds(1)  # the harness scores the test set first
    selected = kfold_select_alpha(X, Y, replace(cfg, seed=8))
    check_folds(0)
    assert list(alphas) == [selected[p] for p in cfg.models]
    # Y_tr is laid out in fold order in place; X_tr is left as it was.
    assert ds.Y_tr is buffers[1] and np.array_equal(ds.Y_tr, Y[perm])
    assert ds.X_tr is buffers[0] and np.array_equal(ds.X_tr, X)


@pytest.mark.parametrize("shape", [(40, 8), (12, 30)])  # tall; wide
def test_kfold_select_alpha_leaves_the_callers_rows_unchanged(shape):
    ds = sample_spherical(SphericalGaussianConfig(*shape, sigma=0.5, n_test=10), seed=4)
    X, Y = ds.X_tr.copy(), ds.Y_tr.copy()
    cfg = _small_cfg()
    kfold_select_alpha(ds.X_tr, ds.Y_tr, replace(cfg, seed=3))
    assert np.array_equal(ds.X_tr, X) and np.array_equal(ds.Y_tr, Y)


def test_kfold_select_alpha_holds_no_copy_of_a_wide_design():
    # The folds of a wide X are laid out in the N x N R^T for X^T = Q R, so
    # the call copies Y and no part of X: its peak is the QR's working copy
    # of X^T and little more.
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((100, 1000)), rng.standard_normal(100)
    X0, Y0 = X.copy(), Y.copy()
    cfg = CVConfig()
    kfold_select_alpha(X[:12, :30], Y[:12], cfg)  # warm-up
    tracemalloc.start()
    try:
        kfold_select_alpha(X, Y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * X.nbytes
    assert np.array_equal(X, X0) and np.array_equal(Y, Y0)


@pytest.mark.parametrize("shape", [(40, 8), (12, 30)])  # tall; wide
def test_kfold_select_alpha_takes_read_only_rows(shape):
    ds = sample_spherical(SphericalGaussianConfig(*shape, sigma=0.5, n_test=10), seed=4)
    cfg = _small_cfg(seed=3)
    expected = kfold_select_alpha(ds.X_tr.copy(), ds.Y_tr.copy(), cfg)
    X, Y = ds.X_tr.copy(), ds.Y_tr.copy()
    X.flags.writeable = Y.flags.writeable = False
    assert kfold_select_alpha(X, Y, cfg) == expected
    assert np.array_equal(X, ds.X_tr) and np.array_equal(Y, ds.Y_tr)


@pytest.fixture
def selections(monkeypatch):
    """Every call that reaches _cv_best_index, which lays out the folds."""
    import schattenreg.cv as cv

    calls = []
    monkeypatch.setattr(cv, "_cv_best_index", lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("x_shape, y_shape, message", [
    ((30, 4), (29,), "Y (29,) must be (30,)"), ((30, 4), (31,), "Y (31,) must be (30,)"),
    ((30,), (30,), "X (30,) must be 2-d"), ((30, 4), (30, 1), "Y (30, 1) must be (30,)"),
], ids=["Y-short", "Y-long", "X-1d", "Y-2d"])
def test_kfold_select_alpha_rejects_mismatched_rows_before_any_fold(x_shape, y_shape, message,
                                                                    selections):
    cfg = _small_cfg()
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        kfold_select_alpha(np.ones(x_shape), np.ones(y_shape), cfg)
    assert selections == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kfold_select_alpha_rejects_a_non_finite_y_before_any_fold(bad, selections):
    cfg = _small_cfg()
    Y = np.where(np.arange(30) == 7, bad, 1.0)
    with pytest.raises(NonFinite, match="Y contains NaN"):
        kfold_select_alpha(np.ones((30, 4)), Y, cfg)
    assert selections == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("shape", [(30, 4), (12, 30)], ids=["tall", "wide"])
def test_kfold_select_alpha_rejects_a_non_finite_x_before_any_fold(bad, shape, monkeypatch):
    # Checked before the folds are shuffled, so neither the tall route's copy
    # of X nor the wide route's QR of it is made.
    import schattenreg.cv as cv

    shuffled, fold_order = [], cv._fold_order

    def spy(*args):
        shuffled.append(args)
        return fold_order(*args)

    monkeypatch.setattr(cv, "_fold_order", spy)
    X = np.ones(shape)
    X[7, 2] = bad
    with pytest.raises(NonFinite, match="^X contains NaN or inf$"):
        kfold_select_alpha(X, np.ones(shape[0]), _small_cfg())
    assert shuffled == []


@pytest.mark.parametrize("models", [(), (SchattenIndex.NUCLEAR, SchattenIndex.NUCLEAR)],
                         ids=["none", "repeated"])
def test_kfold_select_alpha_rejects_empty_or_repeated_models_before_any_fold(models,
                                                                             selections):
    with pytest.raises(InvalidConfig, match="^models: "):
        kfold_select_alpha(np.ones((30, 4)), np.ones(30), _small_cfg(models=models))
    assert selections == []


@pytest.fixture
def mse_calls(monkeypatch):
    """Every test set scored, in call order."""
    calls = []
    for kind in (RowTestSet, GramTestSet):
        def spy(test, B, score=kind.mse):
            calls.append(test)
            return score(test, B)
        monkeypatch.setattr(kind, "mse", spy)
    return calls


_ROUTE_ALPHAS = np.r_[0.0, np.logspace(-3, 3, 7), np.inf]
_ALL_MODELS = tuple(SchattenIndex)


def _spherical_test_rows(cfg, rng):
    rng.standard_normal((cfg.n_obs, cfg.n_feat))
    return rng.standard_normal((cfg.n_test, cfg.n_feat)) * (1.0 / np.sqrt(cfg.n_obs))


def _equicorrelated_test_rows(cfg, rng):
    # The training rows, then the test rows in the sampler's spans, each span
    # drawing its z and then its g; at rho = 0 the spans draw z alone and g
    # is drawn once, after the last span.
    def rows(m, with_g=True):
        z = rng.standard_normal((m, cfg.n_feat))
        g = rng.standard_normal((m, 1)) if with_g else 0.0
        return (np.sqrt(1.0 - cfg.rho) * z + np.sqrt(cfg.rho) * g) / np.sqrt(cfg.n_obs)

    rows(cfg.n_obs)
    X_te = np.concatenate([rows(hi - lo, cfg.rho > 0)
                           for lo, hi in _test_spans(cfg.n_test, cfg.n_feat)])
    if not cfg.rho:
        rng.standard_normal((cfg.n_test, 1))
    return X_te


def _diagonal_test_rows(cfg, rng):
    lam = cfg.spectral_density.sample(cfg.n_feat, rng)
    if cfg.noise_half_width:
        rng.uniform(1.0 - cfg.noise_half_width, 1.0 + cfg.noise_half_width, cfg.n_feat)
    haar_stiefel(cfg.n_obs, cfg.n_feat, rng)
    # The sampler draws no test frame: any frame with orthonormal columns has
    # the test Gram diag(lam), so this one comes from a stream of its own.
    return haar_stiefel(cfg.n_obs, cfg.n_feat, np.random.default_rng(0)) * np.sqrt(lam)


# Test sets of 8000 rows of 10 features are drawn in three blocks.
@pytest.mark.parametrize("cfg, rows, noiseless", [
    (SphericalGaussianConfig(60, 10, n_test=200), _spherical_test_rows, False),
    (SphericalGaussianConfig(60, 10, sigma=0.0, n_test=200), _spherical_test_rows, True),
    (SphericalGaussianConfig(60, 10, n_test=8000), _spherical_test_rows, False),
    (SphericalGaussianConfig(20, 40, n_test=400), _spherical_test_rows, False),
    (EquicorrelatedConfig(60, 10, rho=0.0, n_test=8000), _equicorrelated_test_rows, False),
    (EquicorrelatedConfig(60, 10, rho=0.3, n_test=8000), _equicorrelated_test_rows, False),
    (EquicorrelatedConfig(60, 10, rho=0.8, sparse=SparseSpec(n_large=3), n_test=200),
     _equicorrelated_test_rows, False),
    (DiagonalEnsembleConfig(60, 10, spectral_density=PowerLaw(0.3)),
     _diagonal_test_rows, False),
    (DiagonalEnsembleConfig(60, 10, spectral_density=Atoms(
        [0.0, 0.5, 1.0], [0.3, 0.3, 0.4])), _diagonal_test_rows, False),
], ids=["spherical", "spherical-noiseless", "spherical-blocks", "wide",
        "equicorrelated-rho0-blocks", "equicorrelated-rho0.3-blocks", "equicorrelated-sparse",
        "powerlaw", "tabulated-atom-at-0"])
def test_gram_route_matches_direct_route(cfg, rows, noiseless):
    # A sampled test set is scored through H = X_te^T X_te; the same stream's
    # test rows, drawn here in one piece, give the row MSE it must equal.
    ds = sample_ensemble(cfg, seed=7)
    assert isinstance(ds.test, GramTestSet)
    rng = np.random.default_rng(7)
    X_te = rows(cfg, rng)
    assert ds.test.n == len(X_te)
    if getattr(cfg, "sparse", None) is None:  # the draws after the test rows match too
        assert np.array_equal(ds.beta0, rng.standard_normal(cfg.n_feat) * getattr(cfg, "beta", 1))
    B = np.hstack([fit_path(ds.spectrum, ds.X_tr.T @ ds.Y_tr, p, _ROUTE_ALPHAS)
                   for p in _ALL_MODELS])
    gram = ds.test.mse(B)
    direct = RowTestSet(X_te, X_te @ ds.beta0).mse(B)
    # An exact fit (noiseless and full rank, at alpha = 0 or, for the
    # nuclear filter, below its threshold) leaves only rounding.
    exact = direct <= 1e-25
    assert exact.any() == noiseless
    assert np.all((gram[exact] >= 0) & (gram[exact] <= 1e-25))
    np.testing.assert_allclose(gram[~exact], direct[~exact], rtol=1e-13, atol=0)


def test_each_test_set_is_scored_in_one_call(mse_calls):
    alphas = np.logspace(-3, 3, 30)
    # simulate: each sampled test set once, through its Gram matrix.
    simulate_path_errors(SphericalGaussianConfig(100, 50, n_test=500), _ALL_MODELS, alphas,
                         2, seed=0)
    assert [type(t) for t in mse_calls] == [GramTestSet] * 2
    # cv-bench: the test set, then each fold's validation rows, one call for
    # all three models each.  A validation set is a slice of the training rows
    # the harness permuted into fold order in place, not a copy.
    mse_calls.clear()
    ds = sample_equicorrelated(EquicorrelatedConfig(300, 200, rho=0.5, n_test=400), seed=1)
    _cv_errors(ds, _small_cfg(), cv_seed=2)
    assert mse_calls[0] is ds.test
    assert [type(t) for t in mse_calls[1:]] == [RowTestSet] * 3
    assert all(t.X.base is ds.X_tr for t in mse_calls[1:])
    # No truth (RFF features, real-data splits): the rows.
    rff = make_rff_dataset(RFFBenchConfig(d=4, d_rbf=20, n_obs=60, n_test=500, sigma=0.5),
                           seed=3)
    assert rff.beta0 is None and isinstance(rff.X_te, RFFRows)
    mse_calls.clear()
    _path_errors(rff, _ALL_MODELS, alphas)
    assert mse_calls == [rff.test]


@pytest.mark.parametrize("shape", [(60, 10), (30, 45)])  # full rank; d > N, rank-deficient
def test_fold_spectra_from_slices_match_gathered_rows(shape, monkeypatch):
    # Each fold is factored from a prefix of one buffer laid out in place,
    # holding the other folds' rows in fold order; the reference gathers its
    # training and validation rows with a mask.  A wide design's buffer holds
    # its rows in a basis of their span, so there only quantities that do not
    # depend on the basis are compared: the fold's leading min(N, d)
    # eigenvalues and its validation scores.
    import schattenreg.cv as cv

    ds = sample_spherical(SphericalGaussianConfig(*shape, sigma=0.7, n_test=10), seed=12)
    X, Y, n = ds.X_tr, ds.Y_tr, shape[0]
    cfg = _small_cfg()
    alphas = cfg.grid.values()
    factored, factor, scored, score = [], cv.gram_spectrum, [], cv._path_scores

    def spy(rows):
        factored.append((rows, rows.copy(), factor(rows)))
        return factored[-1][2]

    def score_spy(*args):
        scored.append(score(*args))
        return scored[-1]

    monkeypatch.setattr(cv, "gram_spectrum", spy)
    monkeypatch.setattr(cv, "_path_scores", score_spy)
    got = kfold_select_alpha(X, Y, replace(cfg, seed=5))
    perm = np.random.default_rng(5).permutation(n)
    scores = []
    folds = np.array_split(perm, cfg.folds)
    for (rows, taken, spectrum), fold_scores, val_idx in zip(factored, scored, folds,
                                                             strict=True):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        want = gram_spectrum(X[mask])
        buffer = factored[0][0].base
        assert isinstance(rows, np.ndarray) and rows.base is buffer and buffer is not X
        assert rows.shape == (mask.sum(), min(shape))
        if shape[1] <= n:
            assert np.array_equal(taken, X[perm[mask[perm]]])
        np.testing.assert_allclose(spectrum.eigvals, want.eigvals[:min(shape)], rtol=0,
                                   atol=1e-12 * want.eigvals[0])
        scores.append(_path_scores(want, X[mask].T @ Y[mask], cfg.models, alphas,
                                   RowTestSet(X[val_idx], Y[val_idx])))
        np.testing.assert_allclose(fold_scores, scores[-1], rtol=1e-12, atol=0)
    best = np.argmin(np.mean(scores, axis=0), axis=1)
    assert got == {p: alphas[b] for p, b in zip(cfg.models, best)}


# RFF test sets of 1000 features are scored in blocks of 12 rows.
_RFF_STEP = _BLOCK_BYTES // (8 * 1000)


@pytest.mark.parametrize("n_test", [2 * _RFF_STEP + 1, 3 * _RFF_STEP, _RFF_STEP - 5],
                         ids=["one-row-tail", "exact-multiple", "single-block"])
def test_rff_rows_score_as_their_feature_matrix(n_test, monkeypatch):
    ds = make_rff_dataset(RFFBenchConfig(d=4, d_rbf=1000, n_obs=30, n_test=n_test, sigma=0.5),
                          seed=n_test)
    assert isinstance(ds.X_te, RFFRows) and ds.X_te.shape == (n_test, 1000)
    X = apply_rff(ds.X_te.rff, ds.X_te.raw)
    slices, block = [], RFFRows.__getitem__

    def spy(rows, i):
        slices.append((i.start, i.stop))
        return block(rows, i)

    monkeypatch.setattr(RFFRows, "__getitem__", spy)
    streamed = _path_errors(ds, _ALL_MODELS, _ROUTE_ALPHAS)
    assert min(hi - lo for lo, hi in slices) >= 2  # no one-row product goes to gemv
    assert slices[0][0] == 0 and slices[-1][1] == n_test
    assert all(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(slices, slices[1:]))
    whole = _path_scores(ds.spectrum, ds.X_tr.T @ ds.Y_tr, _ALL_MODELS, _ROUTE_ALPHAS,
                         RowTestSet(X, ds.Y_te))
    np.testing.assert_allclose(streamed, whole, rtol=1e-15, atol=0)
    # Against one product over the whole matrix, which BLAS may sum in
    # another order than its blocks.
    B = np.hstack([fit_path(ds.spectrum, ds.X_tr.T @ ds.Y_tr, p, _ROUTE_ALPHAS)
                   for p in _ALL_MODELS])
    one_gemm = np.mean((X @ B - ds.Y_te[:, None]) ** 2, axis=0)
    np.testing.assert_allclose(streamed.ravel(), one_gemm, rtol=1e-13, atol=0)


# Test designs of 50,000 rows: one alone outweighs every other array a run
# holds at once, so tracemalloc's current total at a factorization is below
# one test design exactly when no test design is alive.
_BIG_TEST = 50_000


@pytest.mark.parametrize("bench", ["spherical", "equicorrelated", "rff", "simulate"])
def test_no_factorization_overlaps_a_test_set(monkeypatch, bench):
    import schattenreg.cv as cv
    import schattenreg.ensembles as ensembles
    import schattenreg.rff as rff

    calls, made = [], []  # (X, traced bytes) per factorization; each X_tr made

    def factor(X):
        calls.append((X, tracemalloc.get_traced_memory()[0]))
        return gram_spectrum(X)

    def recording(make):
        def made_by(*args, **kwargs):
            ds = make(*args, **kwargs)
            made.append(ds.X_tr)
            return ds
        return made_by

    for module in (cv, ensembles, rff):
        monkeypatch.setattr(module, "gram_spectrum", factor)
    monkeypatch.setattr(cv, "sample_ensemble", recording(cv.sample_ensemble))
    cfg = _small_cfg(n_datasets=2)
    if bench == "rff":
        ens = RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=_BIG_TEST)
        test_bytes = 8 * _BIG_TEST * ens.d_rbf
    else:
        ens = (EquicorrelatedConfig(30, 5, rho=0.3, n_test=_BIG_TEST)
               if bench == "equicorrelated"
               else SphericalGaussianConfig(30, 5, n_test=_BIG_TEST))
        test_bytes = 8 * _BIG_TEST * ens.n_feat
    tracemalloc.start()
    try:
        if bench == "simulate":
            simulate_path_errors(ens, cfg.models, cfg.grid.values(), 2, seed=0)
        else:
            run_benchmark(ens, cfg)
    finally:
        tracemalloc.stop()
    assert len(made) == 2
    assert all(traced < test_bytes for _, traced in calls)
    # Each training design once, inside its builder; then 3 folds of 20 rows
    # per dataset in the harness, none in simulate.
    for X_tr in made:
        assert sum(X is X_tr for X, _ in calls) == 1
    folds = [len(X) for X, _ in calls if not any(X is X_tr for X_tr in made)]
    assert folds == ([] if bench == "simulate" else [20] * 6)


@pytest.mark.parametrize("bench", ["run_benchmark", "simulate"])
@pytest.mark.parametrize("ens", [
    SphericalGaussianConfig(30, 20, n_test=_BIG_TEST),
    EquicorrelatedConfig(30, 20, rho=0.0, n_test=_BIG_TEST),
    EquicorrelatedConfig(30, 20, rho=0.3, n_test=_BIG_TEST),
], ids=["spherical", "equicorrelated-rho0", "equicorrelated-rho0.3"])
def test_sampled_benchmarks_never_hold_a_test_design(ens, bench):
    # A sampled test set is drawn in blocks of 256 KiB summed into its 20 x 20
    # Gram matrix: the run stays below the 8 MB test design.
    cfg = _small_cfg(n_datasets=2)
    tracemalloc.start()
    try:
        if bench == "simulate":
            simulate_path_errors(ens, cfg.models, cfg.grid.values(), 2, seed=0)
        else:
            run_benchmark(ens, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _BIG_TEST * ens.n_feat


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("ens", [
    SphericalGaussianConfig(40, 10, sigma=0.5, n_test=300),
    DiagonalEnsembleConfig(40, 10, spectral_density=PowerLaw(0.5)),
    EquicorrelatedConfig(40, 10, rho=0.3, n_test=300),
], ids=["spherical", "diagonal", "equicorrelated-rho0.3"])
def test_simulate_is_the_serial_loop_on_any_number_of_threads(monkeypatch, ens, workers):
    # Each dataset runs once, on whichever of the W workers (the calling
    # thread and W - 1 others) takes it first, and the result is bitwise that
    # of one loop over the datasets.
    import schattenreg.cv as cv

    alphas = np.logspace(-2, 2, 7)
    seeds = child_seeds(3, 7)
    want = np.stack([_path_errors(sample_ensemble(ens, s), _ALL_MODELS, alphas)
                     for s in seeds], axis=2)
    ran, sample = [], cv.sample_ensemble

    def spy(cfg, seed):
        ran.append((seeds.index(seed), threading.get_ident()))
        return sample(cfg, seed)

    monkeypatch.setattr(cv, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(cv, "sample_ensemble", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can be
    try:
        got = simulate_path_errors(ens, _ALL_MODELS, alphas, len(seeds), seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)
    assert sorted(j for j, _ in ran) == list(range(len(seeds)))
    others = {t for _, t in ran} - {threading.get_ident()}
    assert len(others) <= workers - 1


def test_replicates_claims_every_dataset_once_under_contention():
    # Four workers on short runs, with the interpreter lock handed over as
    # often as it can be: a claim that two workers both took, or that none
    # took, would run a dataset twice or leave its slot empty.
    import schattenreg.cv as cv

    ran = []

    def run(j):
        ran.append(j)
        return -j

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = cv._replicates(run, 3000, 4)
    finally:
        sys.setswitchinterval(interval)
    assert got == [-j for j in range(3000)]
    assert sorted(ran) == list(range(3000))


@pytest.mark.parametrize("workers", [2, 3])
def test_simulate_raises_the_lowest_failing_dataset_after_joining(monkeypatch, workers):
    # Dataset 2 fails first; dataset 1, on another worker, fails once it has.
    # The error raised is dataset 1's, as in a serial loop, and no thread
    # outlives the call.
    import schattenreg.cv as cv

    seeds = child_seeds(0, 6)
    second_failed, sample = threading.Event(), cv.sample_ensemble

    def failing(cfg, seed):
        j = seeds.index(seed)
        if j == 2:
            second_failed.set()
            raise InsufficientData("dataset 2")
        if j == 1:
            assert second_failed.wait(timeout=30)
            raise InsufficientData("dataset 1")
        return sample(cfg, seed)

    monkeypatch.setattr(cv, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(cv, "sample_ensemble", failing)
    before = threading.active_count()
    with pytest.raises(InsufficientData, match="^dataset 1$"):
        simulate_path_errors(SphericalGaussianConfig(30, 5, n_test=50), _ALL_MODELS,
                             np.logspace(-2, 2, 3), len(seeds), seed=0)
    assert threading.active_count() == before


def test_no_worker_starts_a_dataset_above_a_failure_it_has_seen(monkeypatch):
    # Dataset 0 fails once dataset 1 has started on the other worker; its
    # worker then stops: the calling thread goes on to join the other, or the
    # started thread's run ends.  Dataset 1 ends only once that has happened,
    # so its worker has seen the failure and starts no further dataset.
    import schattenreg.cv as cv

    second, stopped, started = threading.Event(), threading.Event(), []

    class Thread(threading.Thread):
        def run(self):
            super().run()
            stopped.set()

        def join(self, timeout=None):
            stopped.set()
            super().join(timeout)

    def run(j):
        started.append(j)
        if j == 0:
            assert second.wait(timeout=30)
            raise InsufficientData("dataset 0")
        second.set()
        assert stopped.wait(timeout=30)
        return j

    monkeypatch.setattr(cv.threading, "Thread", Thread)
    with pytest.raises(InsufficientData, match="^dataset 0$"):
        cv._replicates(run, 6, 2)
    assert sorted(started) == [0, 1]


@pytest.mark.parametrize("bench", ["run_benchmark", "rff", "real-data"])
def test_cv_benchmarks_make_every_dataset_on_the_calling_thread(monkeypatch, tmp_path, bench):
    # The CV benchmarks run _replicates on one worker: each dataset is made
    # on the calling thread, one after another, and no thread is started.
    # The real-data command's splits are drawn by sample_ensemble too.
    import schattenreg.cli as cli
    import schattenreg.cv as cv

    made_on, sample = [], cv.sample_ensemble

    def spy(*args, **kwargs):
        made_on.append(threading.get_ident())
        return sample(*args, **kwargs)

    def no_thread(self):
        raise AssertionError("a CV benchmark started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(cv, "sample_ensemble", spy)
    cfg = _small_cfg(n_datasets=3)
    if bench == "run_benchmark":
        run_benchmark(SphericalGaussianConfig(30, 5, n_test=50), cfg)
    elif bench == "rff":
        run_benchmark(RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=50), cfg)
    else:
        table, config = tmp_path / "table.csv", tmp_path / "c.json"
        rows = np.random.default_rng(0).standard_normal((40, 4))
        table.write_text("x1,x2,x3,y\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        config.write_text('{"target": "y", "train_size": 20, "n_splits": 3}')
        assert cli.main(["real-data", str(table), "--config", str(config),
                         "--out", str(tmp_path / "r.csv")]) == 0
    assert made_on == [threading.get_ident()] * 3


def test_diagonal_dataset_keeps_only_the_test_gram():
    # The diagonal test set is its d x d Gram matrix diag(lam), made without
    # a test frame, so the training design bounds what the dataset holds.
    tracemalloc.start()
    try:
        ds = sample_diagonal(DiagonalEnsembleConfig(_BIG_TEST, 5, PowerLaw(1.0)),
                             seed=0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ds.test.H.shape == (5, 5) and ds.test.n == _BIG_TEST
    assert held < 1.5 * ds.X_tr.nbytes


def test_rff_bench_never_holds_a_test_design():
    # The run holds the raw test inputs (n_test x 4), Y_te and the (M, n_test)
    # residual of M = 18 path columns, plus one block: under 10 MB, against
    # the 40 MB feature matrix.
    rff_cfg = RFFBenchConfig(d=4, d_rbf=100, n_obs=30, n_test=_BIG_TEST)
    tracemalloc.start()
    try:
        run_benchmark(rff_cfg, _small_cfg(n_datasets=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _BIG_TEST * rff_cfg.d_rbf


@pytest.mark.parametrize("bench", ["run_benchmark", "rff"])
def test_cv_benchmarks_check_the_folds_before_making_a_dataset(monkeypatch, bench):
    import schattenreg.cv as cv

    made = []

    def spy(make):
        def maker(*args, **kwargs):
            made.append(args)
            return make(*args, **kwargs)
        return maker

    monkeypatch.setattr(cv, "sample_ensemble", spy(cv.sample_ensemble))
    monkeypatch.setattr(cv, "make_rff_dataset", spy(cv.make_rff_dataset))
    cfg = _small_cfg(n_datasets=3)
    with pytest.raises(InsufficientData, match="^2 observations cannot fill 3 folds$"):
        if bench == "run_benchmark":
            run_benchmark(SphericalGaussianConfig(2, 1, n_test=10), cfg)
        else:
            run_benchmark(RFFBenchConfig(n_obs=2), cfg)
    assert made == []


def test_insufficient_data_raises():
    with pytest.raises(InsufficientData):
        kfold_select_alpha(np.zeros((2, 3)), np.zeros(2),
                           _small_cfg(folds=3, models=(SchattenIndex.FROBENIUS,)))


def test_no_leakage_from_test_labels():
    # Selected alpha depends only on the training data.
    cfg = _small_cfg(models=(SchattenIndex.NUCLEAR,))
    ds = sample_spherical(SphericalGaussianConfig(40, 8, n_test=50), seed=3)
    a1 = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg)[SchattenIndex.NUCLEAR]
    # "Shuffle the test labels": the call never sees them, so rerun matches.
    a2 = kfold_select_alpha(ds.X_tr, ds.Y_tr.copy(), cfg)[SchattenIndex.NUCLEAR]
    assert a1 == a2


def test_single_model_degenerate_report():
    cfg = _small_cfg(models=(SchattenIndex.FROBENIUS,), n_datasets=1)
    report = run_benchmark(EquicorrelatedConfig(n_obs=30, n_feat=5, n_test=200), cfg)
    assert report.models == ("ridge",)
    assert report.win_prob["ridge"] == 1.0
    assert report.avg_error["ridge"] == report.errors[0, 0]
    assert aggregate_wins(report) == ("ridge", "ridge")


def test_benchmark_reproducible():
    cfg = _small_cfg(n_datasets=3)
    ens = EquicorrelatedConfig(n_obs=30, n_feat=5, sigma=1.0, n_test=200)
    r1 = run_benchmark(ens, cfg)
    r2 = run_benchmark(ens, cfg)
    assert np.array_equal(r1.errors, r2.errors)
    assert np.array_equal(r1.selected_alphas, r2.selected_alphas)


def test_win_probs_sum_to_one_and_alphas_on_grid():
    cfg = _small_cfg(n_datasets=6)
    report = run_benchmark(EquicorrelatedConfig(n_obs=30, n_feat=5, n_test=200), cfg)
    assert sum(report.win_prob.values()) == pytest.approx(1.0)
    grid = set(cfg.grid.values())
    assert set(report.selected_alphas.ravel()) <= grid


def test_aggregate_wins_disagreement():
    # Model a wins 60% of datasets but model b has the lower mean.
    errors = np.array([
        [1.0, 1.0, 1.0, 10.0, 10.0],
        [2.0, 2.0, 2.0, 2.0, 2.0],
    ])
    report = BenchReport(
        models=("a", "b"),
        errors=errors,
        selected_alphas=np.zeros_like(errors),
        avg_error={"a": 4.6, "b": 2.0},
        win_count={"a": 3, "b": 2},
        win_prob={"a": 0.6, "b": 0.4},
    )
    assert aggregate_wins(report) == ("b", "a")


def test_aggregate_wins_tie_breaks_lexicographically():
    errors = np.array([[1.0, 2.0], [2.0, 1.0]])
    report = BenchReport(
        models=("zeta", "alpha"),
        errors=errors,
        selected_alphas=np.zeros_like(errors),
        avg_error={"zeta": 1.5, "alpha": 1.5},
        win_count={"zeta": 1, "alpha": 1},
        win_prob={"zeta": 0.5, "alpha": 0.5},
    )
    assert aggregate_wins(report) == ("alpha", "alpha")


def test_rff_bench_runs_every_model_and_has_ratio():
    cfg = _small_cfg(n_datasets=2, grid=AlphaGrid(1e-2, 1e2, 3))
    rff_cfg = RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=50, sigma=0.5)
    report = run_benchmark(rff_cfg, cfg)
    assert report.models == ("nuclear", "ridge", "spectral")
    assert report.ridge_ratio is not None
    assert report.ridge_ratio["ridge"] == pytest.approx(1.0)


def test_rff_bench_spectral_alone_runs_without_ratio():
    report = run_benchmark(RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=50),
                           _small_cfg(n_datasets=2, models=(SchattenIndex.SPECTRAL,)))
    assert report.models == ("spectral",)
    assert np.all(np.isfinite(report.errors))
    assert report.ridge_ratio is None


def test_rff_bench_spectral_with_more_features_than_rows():
    # d_rbf 200 against 60 rows: every fold, and the full training set, is
    # rank-deficient, where Spectral is min-norm OLS / (1 + alpha).
    report = run_benchmark(RFFBenchConfig(d=4, d_rbf=200, n_obs=60, n_test=50),
                           _small_cfg(n_datasets=2, grid=AlphaGrid(1e-2, 1e2, 3),
                                      models=(SchattenIndex.SPECTRAL, SchattenIndex.FROBENIUS)))
    assert report.models == ("spectral", "ridge")
    assert report.errors.shape == (2, 2)
    assert np.all(np.isfinite(report.errors))
    assert all(np.isfinite(report.ridge_ratio[name]) for name in report.models)


def test_run_benchmark_on_an_rff_config_is_the_harness_on_its_datasets():
    # The protocol written out: dataset j is make_rff_dataset at the j-th even
    # child seed, its folds use the next one, and the report adds the ratio
    # of each model's average error to Ridge's.
    cfg = _small_cfg(n_datasets=2, grid=AlphaGrid(1e-2, 1e2, 3))
    rff_cfg = RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=50, sigma=0.5)
    got = run_benchmark(rff_cfg, cfg)
    seeds = child_seeds(cfg.seed, 4)
    pairs = [_cv_errors(make_rff_dataset(rff_cfg, seeds[2 * j]), cfg, seeds[2 * j + 1])
             for j in range(2)]
    errors = np.stack([e for e, _ in pairs], axis=1)
    names = ("nuclear", "ridge", "spectral")
    avg = {name: float(errors[i].mean()) for i, name in enumerate(names)}
    wins = {name: int(np.sum(np.argmin(errors, axis=0) == i)) for i, name in enumerate(names)}
    want = BenchReport(names, errors, np.stack([a for _, a in pairs], axis=1), avg, wins,
                       {name: wins[name] / 2 for name in names},
                       {name: avg[name] / avg["ridge"] for name in names})
    assert got.ridge_ratio is not None
    for f in fields(BenchReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


def _table(rows: int, cols: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Features on different scales and offsets, and a target linear in them.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, cols)) * np.arange(1, cols + 1) + np.arange(cols)
    return X, X @ rng.standard_normal(cols) + rng.standard_normal(rows)


@pytest.mark.parametrize("shape", [(40, 4), (30, 45)], ids=["tall", "wide"])
def test_run_benchmark_on_a_real_data_config_is_the_real_data_report(tmp_path, shape):
    import schattenreg.cli as cli

    X, y = _table(*shape, seed=3)
    path = tmp_path / "table.csv"
    # repr of a float reads back as the same float.
    path.write_text(",".join(f"x{j}" for j in range(shape[1])) + ",y\n" + "".join(
        ",".join(map(repr, r)) + "\n" for r in np.column_stack([X, y]).tolist()))
    cfg = _small_cfg(n_datasets=3, seed=4)
    want = cli.cmd_real_data(str(path), {"target": "y", "train_size": 20, "n_splits": 3,
                                         "seed": 4})
    got = run_benchmark(RealDataConfig(X, y, 20), cfg)
    assert want.ridge_ratio is None and got.ridge_ratio is None
    assert np.array_equal(got.errors, want.errors)
    assert np.array_equal(got.selected_alphas, want.selected_alphas)


def test_real_data_split_is_standardized_on_its_training_rows():
    X, y = _table(50, 3, seed=5)
    ds = sample_real_data(RealDataConfig(X, y, 20), seed=6)
    perm = np.random.default_rng(6).permutation(50)
    tr, te = perm[:20], perm[20:]
    np.testing.assert_allclose(ds.X_tr.mean(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(ds.X_tr.std(axis=0), 1.0, rtol=1e-14)
    mu, sd = X[tr].mean(axis=0), X[tr].std(axis=0)
    np.testing.assert_allclose(ds.X_te, (X[te] - mu) / sd, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(ds.Y_tr, y[tr] - y[tr].mean(), rtol=1e-14, atol=1e-13)
    np.testing.assert_allclose(ds.Y_te, y[te] - y[tr].mean(), rtol=1e-14, atol=1e-13)
    # The whole table's statistics would standardize the test rows otherwise.
    assert not np.allclose(ds.X_te, (X[te] - X.mean(axis=0)) / X.std(axis=0))
    assert ds.beta0 is None and np.array_equal(X, _table(50, 3, seed=5)[0])


def test_real_data_split_keeps_a_constant_training_column_unscaled():
    X, y = _table(30, 3, seed=7)
    X[:, 1] = 2.5
    ds = sample_real_data(RealDataConfig(X, y, 10), seed=0)
    assert np.array_equal(ds.X_tr[:, 1], np.zeros(10))
    assert np.array_equal(ds.X_te[:, 1], np.zeros(20))


@pytest.mark.parametrize("X, y, n_obs, error, match", [
    (np.ones(5), np.ones(5), 2, DimensionMismatch, "^X \\(5,\\) must be 2-d$"),
    (np.ones((5, 2)), np.ones((5, 1)), 2, DimensionMismatch, "^y \\(5, 1\\) must be \\(5,\\)$"),
    (np.ones((5, 2)), np.ones(4), 2, DimensionMismatch, "^y \\(4,\\) must be \\(5,\\)$"),
    (np.array([[1.0, np.nan]] * 5), np.ones(5), 2, NonFinite, "^X contains"),
    (np.ones((5, 2)), np.r_[np.ones(4), np.inf], 2, NonFinite, "^y contains"),
    (np.ones((5, 2)), np.ones(5), 0, InvalidConfig, "^n_obs must be an integer >= 1"),
    (np.ones((5, 2)), np.ones(5), 2.5, InvalidConfig, "^n_obs must be an integer >= 1"),
    (np.ones((5, 2)), np.ones(5), True, InvalidConfig, "^n_obs must be an integer >= 1"),
    (np.ones((5, 2)), np.ones(5), 5, InvalidConfig, "^n_obs must be below the 5 rows, got 5$"),
], ids=["X-1d", "y-column", "y-short", "X-nan", "y-inf", "n_obs-0", "n_obs-float",
        "n_obs-bool", "n_obs-all-rows"])
def test_real_data_config_rejects_bad_input_naming_the_field(X, y, n_obs, error, match):
    with pytest.raises(error, match=match):
        RealDataConfig(X, y, n_obs)


def test_real_data_split_takes_an_integer_table_as_floats():
    X, y = np.arange(12).reshape(6, 2) ** 2, np.arange(6)
    ds = sample_ensemble(RealDataConfig(X, y, np.int64(4)), seed=1)
    want = sample_ensemble(RealDataConfig(X.astype(float), y.astype(float), 4), seed=1)
    for name in ("X_tr", "Y_tr", "X_te", "Y_te"):
        assert np.array_equal(getattr(ds, name), getattr(want, name)), name
    assert ds.X_tr.shape == (4, 2) and ds.X_tr.dtype == np.float64


def test_sample_ensemble_rejects_an_unknown_config_type():
    with pytest.raises(InvalidConfig, match="unknown ensemble config type CVConfig"):
        sample_ensemble(CVConfig(), seed=0)


def test_rff_features_realizable_noiseless_near_zero():
    # A target that is linear in the random features with no noise is
    # recoverable: cross-validated selection lands on a tiny alpha and the
    # held-out error is near zero for every model.
    rng = np.random.default_rng(7)
    rmap = sample_rff_map(d=5, d_rbf=10, seed=7)
    X_raw = rng.standard_normal((200, 5))
    X_raw_te = rng.standard_normal((100, 5))
    Phi = apply_rff(rmap, X_raw)
    Phi_te = apply_rff(rmap, X_raw_te)
    w0 = rng.standard_normal(10)
    ds = Dataset(X_tr=Phi, Y_tr=Phi @ w0, test=RowTestSet(Phi_te, Phi_te @ w0),
                 spectrum=gram_spectrum(Phi))
    cfg = _small_cfg(grid=AlphaGrid(1e-8, 1e2, 11),
                     models=(SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS))
    for p in cfg.models:
        alpha = kfold_select_alpha(ds.X_tr, ds.Y_tr, replace(cfg, models=(p,), seed=3))[p]
        beta = fit(ds.X_tr, ds.Y_tr, p, alpha)
        assert np.mean((predict(beta, ds.X_te) - ds.Y_te) ** 2) < 1e-6


def test_rff_bench_deterministic():
    cfg = _small_cfg(n_datasets=2, grid=AlphaGrid(1e-2, 1e2, 3))
    rff_cfg = RFFBenchConfig(d=4, d_rbf=15, n_obs=25, n_test=30, sigma=1.0)
    r1 = run_benchmark(rff_cfg, cfg)
    r2 = run_benchmark(rff_cfg, cfg)
    assert np.array_equal(r1.errors, r2.errors)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        AlphaGrid(1.0, 0.1, 5)
    with pytest.raises(InvalidConfig):
        CVConfig(folds=1)
    with pytest.raises(InvalidConfig):
        CVConfig(n_datasets=0)
    with pytest.raises(InvalidConfig, match="models: need distinct models, at least one"):
        CVConfig(models=())
    with pytest.raises(InvalidConfig, match="sigma"):
        RFFBenchConfig(sigma=-1.0)
    with pytest.raises(InvalidConfig, match="bandwidth"):
        RFFBenchConfig(bandwidth=0.0)


@pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
def test_a_bad_seed_is_rejected_naming_it(seed, monkeypatch):
    # A negative or float seed used to pass and die in child_seeds with
    # numpy's error, which names no field; a bool passed as 0 or 1.
    match = "^" + re.escape(f"seed must be an integer >= 0, got {seed!r}") + "$"
    with pytest.raises(InvalidConfig, match=match):
        CVConfig(seed=seed)

    def no_sampling(*args, **kwargs):
        raise AssertionError("a dataset was drawn before the seed was checked")

    monkeypatch.setattr(cv, "sample_ensemble", no_sampling)
    with pytest.raises(InvalidConfig, match=match):
        simulate_path_errors(SphericalGaussianConfig(30, 5, n_test=10),
                             (SchattenIndex.FROBENIUS,), np.array([1.0]), 2, seed)


@pytest.mark.parametrize("n_datasets", [0, 2.5, True], ids=["zero", "float", "bool"])
def test_simulate_rejects_a_bad_dataset_count_naming_it(n_datasets, monkeypatch):
    # 0 used to die in np.stack with "need at least one array to stack", and
    # 2.5 in child_seeds with a TypeError.
    def no_sampling(*args, **kwargs):
        raise AssertionError("a dataset was drawn before n_datasets was checked")

    monkeypatch.setattr(cv, "sample_ensemble", no_sampling)
    match = "^" + re.escape(f"n_datasets must be an integer >= 1, got {n_datasets!r}") + "$"
    with pytest.raises(InvalidConfig, match=match):
        simulate_path_errors(SphericalGaussianConfig(30, 5, n_test=10),
                             (SchattenIndex.FROBENIUS,), np.array([1.0]), n_datasets, 0)


@pytest.mark.parametrize("models", [
    (SchattenIndex.FROBENIUS, SchattenIndex.FROBENIUS),
    (SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS, SchattenIndex.NUCLEAR),
])
def test_repeated_models_are_rejected(models):
    # A repeated model would share one name in the report, and the later
    # entry's win count would overwrite the earlier one's.
    with pytest.raises(InvalidConfig, match="models: need distinct models"):
        CVConfig(models=models)


@pytest.mark.parametrize("models", [
    (), ("ridge",), (SchattenIndex.FROBENIUS, 2), (SchattenIndex.FROBENIUS,) * 2,
], ids=["none", "name", "number", "repeated"])
def test_both_replicate_entries_check_the_models_first(models, monkeypatch):
    # CVConfig took ("ridge",), and simulate_path_errors any models at all;
    # a name failed later with "'str' object has no attribute 'shrinkage'".
    def no_sampling(*args, **kwargs):
        raise AssertionError("a dataset was drawn before the models were checked")

    monkeypatch.setattr(cv, "sample_ensemble", no_sampling)
    match = "^models: need distinct models, at least one"
    with pytest.raises(InvalidConfig, match=match):
        CVConfig(models=models)
    with pytest.raises(InvalidConfig, match=match):
        simulate_path_errors(SphericalGaussianConfig(30, 5, n_test=10), models,
                             np.array([1.0]), 2, 0)
