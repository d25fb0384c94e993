import weakref

import numpy as np
import pytest

from schattenreg import (
    AlphaGrid,
    BenchReport,
    CVConfig,
    Dataset,
    EquicorrelatedConfig,
    RFFBenchConfig,
    SchattenIndex,
    SphericalGaussianConfig,
    aggregate_wins,
    apply_rff,
    fit,
    fit_path,
    gram_spectrum,
    kfold_select_alpha,
    predict,
    rff_benchmark,
    run_benchmark,
    sample_rff_map,
    sample_spherical,
)
from schattenreg.cv import _cv_errors
from schattenreg.exceptions import InsufficientData, InvalidConfig


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


@pytest.mark.parametrize("bench", ["run_benchmark", "rff_benchmark"])
def test_harness_frees_the_test_set_before_the_folds(monkeypatch, bench):
    import schattenreg.cv as cv

    refs, factored = [], []  # weakrefs to each X_te; (rows, X_te alive) per factorization

    def recording(make):
        def made(*args, **kwargs):
            ds = make(*args, **kwargs)
            refs.append(weakref.ref(ds.X_te))
            return ds
        return made

    def factor(X, Y=None):
        factored.append((len(X), refs[-1]() is not None))
        return gram_spectrum(X, Y)

    monkeypatch.setattr(cv, "sample_ensemble", recording(cv.sample_ensemble))
    monkeypatch.setattr(cv, "make_rff_dataset", recording(cv.make_rff_dataset))
    monkeypatch.setattr(cv, "gram_spectrum", factor)
    cfg = _small_cfg(n_datasets=2)
    if bench == "run_benchmark":
        run_benchmark(SphericalGaussianConfig(30, 5, n_test=200), cfg)
    else:
        rff_benchmark(RFFBenchConfig(d=4, d_rbf=20, n_obs=30, n_test=50), cfg)
    # Per dataset: the full training set while X_te is alive, then 3 folds of
    # 20 training rows each, after it is freed.
    assert len(refs) == 2
    assert factored == ([(30, True)] + [(20, False)] * 3) * 2


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
                 beta0=w0, seed=7)
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
