import numpy as np
import pytest

from schattenreg import (
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    MarchenkoPastur,
    NoiseDensity,
    SchattenIndex,
    SparseSpec,
    SpectralDensity,
    SphericalGaussianConfig,
    child_seeds,
    fit,
    haar_stiefel,
    mp_cdf,
    predict,
    sample_diagonal,
    sample_equicorrelated,
    sample_spherical,
)
from schattenreg.exceptions import DimensionMismatch, InvalidConfig


def test_spherical_zero_signal_zero_noise():
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=10, beta=0.0, sigma=0.0, n_test=20)
    ds = sample_spherical(cfg, seed=1)
    np.testing.assert_array_equal(ds.Y_tr, np.zeros(30))
    np.testing.assert_array_equal(ds.Y_te, np.zeros(20))


def test_spherical_entry_variance():
    cfg = SphericalGaussianConfig(n_obs=100, n_feat=50, n_test=10)
    ds = sample_spherical(cfg, seed=0)
    entries = ds.X_tr.ravel()
    var = entries.var()
    se = np.sqrt(2.0 / len(entries)) * (1.0 / 100)  # var of sample variance of N(0, 1/100)
    assert abs(var - 1.0 / 100) < 3 * se


def test_spherical_gram_matches_marchenko_pastur():
    cfg = SphericalGaussianConfig(n_obs=2000, n_feat=1000, n_test=1)
    ds = sample_spherical(cfg, seed=3)
    eigs = np.sort(np.linalg.eigvalsh(ds.X_tr.T @ ds.X_tr))
    mp = MarchenkoPastur(0.5)
    theo = np.array([mp_cdf(mp, x) for x in eigs])
    emp = (np.arange(len(eigs)) + 0.5) / len(eigs)
    assert np.max(np.abs(theo - emp)) < 0.05


def test_diagonal_stiefel_orthonormal():
    cfg = DiagonalEnsembleConfig(
        n_obs=40, n_feat=10, spectral_density=SpectralDensity.power_law(2.0)
    )
    for seed in (0, 7):
        ds = sample_diagonal(cfg, seed=seed)
        lam = np.sum(ds.X_te**2, axis=0)  # columns of X2 diag(sqrt(lam)) are orthogonal
        gram = ds.X_te.T @ ds.X_te
        np.testing.assert_allclose(gram, np.diag(lam), atol=1e-10)


def test_diagonal_gram_is_diagonal_with_point_noise():
    cfg = DiagonalEnsembleConfig(
        n_obs=30, n_feat=8, spectral_density=SpectralDensity.power_law(1.5)
    )
    ds = sample_diagonal(cfg, seed=5)
    G = ds.X_tr.T @ ds.X_tr
    np.testing.assert_allclose(G, np.diag(np.diag(G)), atol=1e-10)
    assert np.all(np.diag(G) <= 1.0 + 1e-10)


def test_diagonal_requires_wide_frames():
    with pytest.raises(InvalidConfig):
        DiagonalEnsembleConfig(
            n_obs=5, n_feat=10, spectral_density=SpectralDensity.power_law(1.0)
        )


@pytest.mark.parametrize("n_large, small_scale, n_feat", [(-1, 0.1, 10), (3, -0.1, 10),
                                                         (11, 0.1, 10)])
def test_sparse_spec_rejected_before_sampling(n_large, small_scale, n_feat):
    with pytest.raises(InvalidConfig):
        EquicorrelatedConfig(n_obs=20, n_feat=n_feat,
                             sparse=SparseSpec(n_large=n_large, small_scale=small_scale))


@pytest.mark.parametrize("make, field", [
    (lambda: EquicorrelatedConfig(n_obs=20, n_feat=5, sigma=-1.0), "sigma"),
    (lambda: EquicorrelatedConfig(n_obs=20, n_feat=5, n_test=0), "n_test"),
    (lambda: SphericalGaussianConfig(n_obs=20, n_feat=5, n_test=0), "n_test"),
    (lambda: EquicorrelatedConfig(n_obs=0, n_feat=5), "n_obs"),
    (lambda: EquicorrelatedConfig(n_obs=20, n_feat=0), "n_feat"),
    (lambda: DiagonalEnsembleConfig(n_obs=0, n_feat=0,
                                    spectral_density=SpectralDensity.power_law(1.0)), "n_obs"),
    (lambda: DiagonalEnsembleConfig(n_obs=20, n_feat=0,
                                    spectral_density=SpectralDensity.power_law(1.0)), "n_feat"),
])
def test_ensemble_config_ranges_name_the_field(make, field):
    with pytest.raises(InvalidConfig, match=field):
        make()


def test_power_law_sampling_cdf():
    rng = np.random.default_rng(0)
    samples = SpectralDensity.power_law(2.0).sample(500, rng)
    xs = np.sort(samples)
    emp = (np.arange(500) + 0.5) / 500
    assert np.max(np.abs(emp - xs**2)) < 0.08  # CDF of x^2 on [0, 1]


def test_tabulated_density_and_alias_sampling():
    dens = SpectralDensity.tabulated([0.2, 0.8], [0.25, 0.75])
    rng = np.random.default_rng(1)
    s = dens.sample(10_000, rng)
    assert set(np.unique(s)) == {0.2, 0.8}
    assert abs(np.mean(s == 0.8) - 0.75) < 0.02
    assert dens.mean() == pytest.approx(0.65)


def test_uniform_noise_density():
    nd = NoiseDensity(kind="uniform", half_width=0.3)
    rng = np.random.default_rng(2)
    s = nd.sample(20_000, rng)
    assert abs(s.mean() - 1.0) < 0.01
    assert s.min() >= 0.7 and s.max() <= 1.3


def test_haar_stiefel_is_orthonormal():
    rng = np.random.default_rng(8)
    Q = haar_stiefel(20, 6, rng)
    np.testing.assert_allclose(Q.T @ Q, np.eye(6), atol=1e-12)


def test_equicorrelated_rho_zero_is_isotropic():
    # Rows carry the 1/N entry-variance normalization of the other ensembles.
    n = 20_000
    cfg = EquicorrelatedConfig(n_obs=n, n_feat=5, rho=0.0, n_test=10)
    ds = sample_equicorrelated(cfg, seed=0)
    cov = np.cov(ds.X_tr.T) * n
    np.testing.assert_allclose(cov, np.eye(5), atol=0.05)


def test_equicorrelated_off_diagonals():
    n = 20_000
    cfg = EquicorrelatedConfig(n_obs=n, n_feat=5, rho=0.5, n_test=10)
    ds = sample_equicorrelated(cfg, seed=0)
    cov = np.cov(ds.X_tr.T) * n
    off = cov[~np.eye(5, dtype=bool)]
    se = 3.0 / np.sqrt(n)
    assert np.all(np.abs(off - 0.5) < 3 * se + 0.02)


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_equicorrelated_rows_match_out_of_place_expression(rho):
    # The rows are built in place; the values are those of the expression.
    cfg = EquicorrelatedConfig(n_obs=30, n_feat=7, rho=rho, n_test=11)
    ds = sample_equicorrelated(cfg, seed=4)
    rng = np.random.default_rng(4)
    for X, m in ((ds.X_tr, 30), (ds.X_te, 11)):
        z = rng.standard_normal((m, 7))
        g = rng.standard_normal((m, 1))
        expected = (np.sqrt(1.0 - rho) * z + np.sqrt(rho) * g) / np.sqrt(30)
        assert np.array_equal(X, expected)


def test_spherical_matches_out_of_place_expression():
    # X_tr and X_te are scaled in place; the values are those of the expression.
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=7, n_test=11)
    ds = sample_spherical(cfg, seed=4)
    rng = np.random.default_rng(4)
    assert np.array_equal(ds.X_tr, rng.standard_normal((30, 7)) * (1.0 / np.sqrt(30)))
    assert np.array_equal(ds.X_te, rng.standard_normal((11, 7)) * (1.0 / np.sqrt(30)))


def test_sparse_coefficients():
    cfg = EquicorrelatedConfig(
        n_obs=10, n_feat=10, rho=0.0, sparse=SparseSpec(n_large=3, small_scale=0.1), n_test=5
    )
    counts = []
    for seed in range(20):
        ds = sample_equicorrelated(cfg, seed=seed)
        counts.append(int(np.sum(np.abs(ds.beta0) > 0.35)))
    # 3 coordinates at unit scale; the shrunk ones rarely exceed 3.5 small sd.
    assert np.median(counts) <= 3


def test_seed_determinism():
    cfg = SphericalGaussianConfig(n_obs=15, n_feat=4, n_test=10)
    a = sample_spherical(cfg, seed=9)
    b = sample_spherical(cfg, seed=9)
    assert np.array_equal(a.X_tr, b.X_tr) and np.array_equal(a.Y_te, b.Y_te)
    c = sample_spherical(cfg, seed=10)
    assert not np.array_equal(a.X_tr, c.X_tr)


def test_child_seeds_distinct_and_reproducible():
    s1 = child_seeds(0, 10)
    s2 = child_seeds(0, 10)
    assert s1 == s2 and len(set(s1)) == 10


def test_test_targets_noiseless():
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=5, sigma=2.0, n_test=50)
    ds = sample_spherical(cfg, seed=4)
    np.testing.assert_allclose(ds.Y_te, ds.X_te @ ds.beta0, atol=1e-14)


def test_noiseless_ols_predicts_the_test_targets():
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=5, sigma=0.0, n_test=100)
    ds = sample_spherical(cfg, seed=6)
    perfect = fit(ds.X_tr, ds.Y_tr, SchattenIndex.FROBENIUS, 0.0)
    assert np.mean((predict(perfect, ds.X_te) - ds.Y_te) ** 2) < 1e-20

    null = fit(ds.X_tr, np.zeros(30), SchattenIndex.FROBENIUS, 0.0)
    np.testing.assert_array_equal(predict(null, ds.X_te), np.zeros(100))

    narrow = fit(ds.X_tr[:, :4], ds.Y_tr, SchattenIndex.FROBENIUS, 0.0)
    with pytest.raises(DimensionMismatch):
        predict(narrow, ds.X_te)


def test_ols_error_matches_thermodynamic_limit():
    # lam = 0.5, sigma = beta = 1: limit error lam sigma^2/(1-lam) = 1.
    cfg = SphericalGaussianConfig(n_obs=100, n_feat=50, beta=1.0, sigma=1.0, n_test=2000)
    errs = []
    for seed in child_seeds(123, 100):
        ds = sample_spherical(cfg, seed=seed)
        model = fit(ds.X_tr, ds.Y_tr, SchattenIndex.FROBENIUS, 0.0)
        errs.append(np.mean((predict(model, ds.X_te) - ds.Y_te) ** 2))
    errs = np.asarray(errs)
    se = errs.std(ddof=1) / np.sqrt(len(errs))
    assert abs(errs.mean() - 1.0) < 3 * se
