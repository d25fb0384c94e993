import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from schattenreg import (
    AlphaGrid,
    BenchReport,
    CVConfig,
    Dataset,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    RFFBenchConfig,
    SchattenIndex,
    SparseSpec,
    SpectralDensity,
    SphericalGaussianConfig,
    aggregate_wins,
    apply_rff,
    fit,
    fit_path,
    gram_spectrum,
    kfold_select_alpha,
    make_rff_dataset,
    predict,
    rff_benchmark,
    run_benchmark,
    sample_diagonal,
    sample_equicorrelated,
    sample_rff_map,
    sample_spherical,
    simulate_path_errors,
)
from schattenreg.cv import _cv_errors, _path_errors, _path_scores
from schattenreg.exceptions import InsufficientData, InvalidConfig
from schattenreg.rff import _BLOCK_BYTES, RFFRows


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
    cfg = _small_cfg(grid=AlphaGrid(0.37, 1.0, 1))
    a = kfold_select_alpha(ds.X_tr, ds.Y_tr, (SchattenIndex.FROBENIUS,), cfg)[
        SchattenIndex.FROBENIUS]
    assert a == 0.37


def test_selection_deterministic():
    ds = sample_spherical(SphericalGaussianConfig(40, 8, n_test=10), seed=1)
    cfg = _small_cfg()
    a1 = kfold_select_alpha(ds.X_tr, ds.Y_tr, (SchattenIndex.NUCLEAR,), cfg)[
        SchattenIndex.NUCLEAR]
    a2 = kfold_select_alpha(ds.X_tr, ds.Y_tr, (SchattenIndex.NUCLEAR,), cfg)[
        SchattenIndex.NUCLEAR]
    assert a1 == a2


def test_selected_alpha_is_grid_member():
    ds = sample_spherical(SphericalGaussianConfig(40, 8, sigma=2.0, n_test=10), seed=2)
    cfg = _small_cfg()
    a = kfold_select_alpha(ds.X_tr, ds.Y_tr, (SchattenIndex.FROBENIUS,), cfg)[
        SchattenIndex.FROBENIUS]
    assert a in cfg.grid.values()


def test_noiseless_data_selects_least_regularization():
    # Bias-only regime: with sigma = 0 and a well-conditioned design, the
    # smallest grid alpha should win nearly always.
    cfg = _small_cfg()
    wins = 0
    for seed in range(100):
        ds = sample_spherical(SphericalGaussianConfig(50, 10, sigma=0.0, n_test=10), seed=seed)
        a = kfold_select_alpha(ds.X_tr, ds.Y_tr, (SchattenIndex.FROBENIUS,), cfg,
                               seed=seed)[SchattenIndex.FROBENIUS]
        wins += a == cfg.grid.values()[0]
    assert wins >= 95


@pytest.mark.parametrize("shape", [(40, 8), (30, 45)])  # full rank; d > N
def test_multi_model_selection_matches_single_model(shape):
    ds = sample_spherical(SphericalGaussianConfig(*shape, sigma=1.5, n_test=10), seed=4)
    cfg = _small_cfg()
    together = kfold_select_alpha(ds.X_tr, ds.Y_tr, cfg.models, cfg, seed=5)
    for p in cfg.models:
        assert together[p] == kfold_select_alpha(ds.X_tr, ds.Y_tr, (p,), cfg, seed=5)[p]


@pytest.mark.parametrize("shape", [(40, 8), (12, 30)])  # tall; wide and rank-deficient
def test_cv_errors_match_refit_scored_one_model_at_a_time(shape):
    n_obs, n_feat = shape
    ds = sample_spherical(SphericalGaussianConfig(n_obs, n_feat, sigma=0.5, n_test=60), seed=4)
    cfg = _small_cfg()
    errors, alphas = _cv_errors(ds, cfg, cv_seed=9)
    spectrum = gram_spectrum(ds.X_tr, ds.Y_tr)
    for p, err, alpha in zip(cfg.models, errors, alphas):
        want = np.mean((ds.X_te @ fit_path(spectrum, p, [alpha])[:, 0] - ds.Y_te) ** 2)
        assert err == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.fixture
def mse_calls(monkeypatch):
    """The X of every direct-route (_path_mse) scoring, in call order."""
    import schattenreg.cv as cv

    calls, direct = [], cv._path_mse

    def spy(B, X, Y):
        calls.append(X)
        return direct(B, X, Y)

    monkeypatch.setattr(cv, "_path_mse", spy)
    return calls


_ROUTE_ALPHAS = np.r_[0.0, np.logspace(-3, 3, 7), np.inf]
_ALL_MODELS = tuple(SchattenIndex)


def _noisy_test_targets():
    ds = sample_spherical(SphericalGaussianConfig(60, 10, n_test=200), seed=8)
    noise = 0.3 * np.random.default_rng(8).standard_normal(200)
    return replace(ds, Y_te=ds.Y_te + noise)


@pytest.mark.parametrize("make, noiseless", [
    (lambda: sample_spherical(SphericalGaussianConfig(60, 10, n_test=200), seed=1), False),
    (lambda: sample_spherical(SphericalGaussianConfig(60, 10, sigma=0.0, n_test=200),
                              seed=2), True),
    (lambda: sample_spherical(SphericalGaussianConfig(20, 40, n_test=400), seed=3), False),
    (lambda: sample_equicorrelated(EquicorrelatedConfig(
        60, 10, rho=0.8, sparse=SparseSpec(n_large=3), n_test=200), seed=4), False),
    (lambda: sample_diagonal(DiagonalEnsembleConfig(
        60, 10, spectral_density=SpectralDensity.power_law(0.3)), seed=5), False),
    (lambda: sample_diagonal(DiagonalEnsembleConfig(
        60, 10, spectral_density=SpectralDensity.tabulated([0.0, 0.5, 1.0],
                                                           [0.3, 0.3, 0.4])), seed=6), False),
    (_noisy_test_targets, False),
], ids=["spherical", "spherical-noiseless", "wide", "equicorrelated-sparse",
        "powerlaw", "tabulated-atom-at-0", "noisy-test-targets"])
def test_gram_route_matches_direct_route(make, noiseless, mse_calls):
    ds = make()
    gram = _path_errors(ds, _ALL_MODELS, _ROUTE_ALPHAS)
    assert mse_calls == []  # every dataset here is on the Gram side of the rule
    direct = _path_scores(ds.spectrum, _ALL_MODELS, _ROUTE_ALPHAS, ds.X_te, ds.Y_te)
    # An exact fit (noiseless and full rank, at alpha = 0 or, for the
    # nuclear filter, below its threshold) leaves only rounding.
    exact = direct <= 1e-25
    assert exact.any() == noiseless
    assert np.all((gram[exact] >= 0) & (gram[exact] <= 1e-25))
    np.testing.assert_allclose(gram[~exact], direct[~exact], rtol=1e-12, atol=0)


def test_route_follows_shape_and_truth(mse_calls):
    alphas = np.logspace(-3, 3, 30)
    # simulate's shape (d = 50, 3 models x 30 alphas): scored through H only.
    simulate_path_errors(SphericalGaussianConfig(100, 50, n_test=500), _ALL_MODELS, alphas,
                         2, seed=0)
    assert mse_calls == []
    # cv-tall's shape scaled down (d = 200 > 2M, M = 27): the test set and
    # every fold go the direct route, each in one pass for all three models.
    ds = sample_equicorrelated(EquicorrelatedConfig(300, 200, rho=0.5, n_test=400), seed=1)
    _cv_errors(ds, _small_cfg(), cv_seed=2)
    assert [X is ds.X_te for X in mse_calls] == [True] + [False] * 3
    # No truth (RFF features, real-data splits): direct, though the shapes
    # alone would pick the Gram route.
    rff = make_rff_dataset(4, 20, 60, 500, 0.5, 1.0, seed=3)
    assert rff.beta0 is None
    truthless = replace(sample_spherical(SphericalGaussianConfig(100, 50, n_test=500),
                                         seed=4), beta0=None)
    for data in (rff, truthless):
        mse_calls.clear()
        _path_errors(data, _ALL_MODELS, alphas)
        assert [X is data.X_te for X in mse_calls] == [True]


# RFF test sets of 1000 features are scored in blocks of 12 rows.
_RFF_STEP = _BLOCK_BYTES // (8 * 1000)


@pytest.mark.parametrize("n_test", [2 * _RFF_STEP + 1, 3 * _RFF_STEP, _RFF_STEP - 5],
                         ids=["one-row-tail", "exact-multiple", "single-block"])
def test_rff_rows_score_as_their_feature_matrix(n_test, monkeypatch):
    ds = make_rff_dataset(4, 1000, 30, n_test, 0.5, 1.0, seed=n_test)
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
    whole = _path_scores(ds.spectrum, _ALL_MODELS, _ROUTE_ALPHAS, X, ds.Y_te)
    np.testing.assert_allclose(streamed, whole, rtol=1e-15, atol=0)
    # Against one product over the whole matrix, which BLAS may sum in
    # another order than its blocks.
    B = np.hstack([fit_path(ds.spectrum, p, _ROUTE_ALPHAS) for p in _ALL_MODELS])
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

    def factor(X, Y=None):
        calls.append((X, tracemalloc.get_traced_memory()[0]))
        return gram_spectrum(X, Y)

    def recording(make):
        def made_by(*args, **kwargs):
            ds = make(*args, **kwargs)
            made.append(ds.X_tr)
            return ds
        return made_by

    for module in (cv, ensembles, rff):
        monkeypatch.setattr(module, "gram_spectrum", factor)
    monkeypatch.setattr(cv, "sample_ensemble", recording(cv.sample_ensemble))
    monkeypatch.setattr(cv, "make_rff_dataset", recording(cv.make_rff_dataset))
    cfg = _small_cfg(n_datasets=2)
    if bench == "rff":
        rff_cfg = RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=_BIG_TEST)
        test_bytes = 8 * _BIG_TEST * rff_cfg.d_rbf
    else:
        ens = (EquicorrelatedConfig(30, 5, rho=0.3, n_test=_BIG_TEST)
               if bench == "equicorrelated"
               else SphericalGaussianConfig(30, 5, n_test=_BIG_TEST))
        test_bytes = 8 * _BIG_TEST * ens.n_feat
    tracemalloc.start()
    try:
        if bench == "rff":
            rff_benchmark(rff_cfg, cfg)
        elif bench == "simulate":
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


def test_rff_benchmark_never_holds_a_test_design():
    # The run holds the raw test inputs (n_test x 4), Y_te and the (M, n_test)
    # residual of M = 18 path columns, plus one block: under 10 MB, against
    # the 40 MB feature matrix.
    rff_cfg = RFFBenchConfig(d=4, d_rbf=100, n_obs=30, n_test=_BIG_TEST)
    tracemalloc.start()
    try:
        rff_benchmark(rff_cfg, _small_cfg(n_datasets=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _BIG_TEST * rff_cfg.d_rbf


def test_insufficient_data_raises():
    with pytest.raises(InsufficientData):
        kfold_select_alpha(np.zeros((2, 3)), np.zeros(2), (SchattenIndex.FROBENIUS,),
                           _small_cfg(folds=3))


def test_no_leakage_from_test_labels():
    # Selected alpha depends only on the training data.
    cfg = _small_cfg()
    ds = sample_spherical(SphericalGaussianConfig(40, 8, n_test=50), seed=3)
    a1 = kfold_select_alpha(ds.X_tr, ds.Y_tr, (SchattenIndex.NUCLEAR,), cfg)[
        SchattenIndex.NUCLEAR]
    # "Shuffle the test labels": the call never sees them, so rerun matches.
    a2 = kfold_select_alpha(ds.X_tr, ds.Y_tr.copy(), (SchattenIndex.NUCLEAR,), cfg)[
        SchattenIndex.NUCLEAR]
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


def test_rff_benchmark_excludes_spectral_and_has_ratio():
    cfg = _small_cfg(n_datasets=2, grid=AlphaGrid(1e-2, 1e2, 3))
    rff_cfg = RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=50, sigma=0.5)
    report = rff_benchmark(rff_cfg, cfg)
    assert report.models == ("nuclear", "ridge")
    assert report.ridge_ratio is not None
    assert report.ridge_ratio["ridge"] == pytest.approx(1.0)


def test_rff_benchmark_spectral_only_fails_before_sampling(monkeypatch):
    import schattenreg.cv as cv

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cv, "make_rff_dataset", no_sampling)
    with pytest.raises(InvalidConfig, match="spectral"):
        rff_benchmark(RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=50),
                      _small_cfg(models=(SchattenIndex.SPECTRAL,)))


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
    ds = Dataset(X_tr=Phi, Y_tr=Phi @ w0, X_te=Phi_te, Y_te=Phi_te @ w0,
                 beta0=w0, seed=7, spectrum=gram_spectrum(Phi, Phi @ w0))
    cfg = _small_cfg(grid=AlphaGrid(1e-8, 1e2, 11),
                     models=(SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS))
    for p in cfg.models:
        alpha = kfold_select_alpha(ds.X_tr, ds.Y_tr, (p,), cfg, seed=3)[p]
        model = fit(ds.X_tr, ds.Y_tr, p, alpha)
        assert np.mean((predict(model, ds.X_te) - ds.Y_te) ** 2) < 1e-6


def test_rff_benchmark_deterministic():
    cfg = _small_cfg(n_datasets=2, grid=AlphaGrid(1e-2, 1e2, 3))
    rff_cfg = RFFBenchConfig(d=4, d_rbf=15, n_obs=25, n_test=30, sigma=1.0)
    r1 = rff_benchmark(rff_cfg, cfg)
    r2 = rff_benchmark(rff_cfg, cfg)
    assert np.array_equal(r1.errors, r2.errors)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        AlphaGrid(1.0, 0.1, 5)
    with pytest.raises(InvalidConfig):
        CVConfig(folds=1)
    with pytest.raises(InvalidConfig):
        CVConfig(n_datasets=0)
    with pytest.raises(InvalidConfig, match="sigma"):
        RFFBenchConfig(sigma=-1.0)
    with pytest.raises(InvalidConfig, match="bandwidth"):
        RFFBenchConfig(bandwidth=0.0)
