import tracemalloc

import numpy as np
import pytest

from schattenreg import (
    Atoms,
    DiagonalEnsembleConfig,
    RFFBenchConfig,
    EquicorrelatedConfig,
    GramTestSet,
    MarchenkoPastur,
    PowerLaw,
    RealDataConfig,
    SchattenIndex,
    SparseSpec,
    SphericalGaussianConfig,
    child_seeds,
    fit,
    gram_spectrum,
    haar_stiefel,
    make_rff_dataset,
    mp_cdf,
    predict,
    sample_diagonal,
    sample_equicorrelated,
    sample_spherical,
)
from schattenreg.ensembles import _test_gram, _test_spans
from schattenreg.exceptions import DimensionMismatch, InvalidConfig


def test_spherical_zero_signal_zero_noise():
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=10, beta=0.0, sigma=0.0, n_test=20)
    ds = sample_spherical(cfg, seed=1)
    np.testing.assert_array_equal(ds.Y_tr, np.zeros(30))
    # The test targets X_te beta0 are all 0: the truth is 0 and so is the
    # error of the zero estimator.
    assert ds.test.n == 20
    np.testing.assert_array_equal(ds.test.beta0, np.zeros(10))
    assert ds.test.mse(np.zeros((10, 1))) == [0.0]


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
        n_obs=40, n_feat=10, spectral_density=PowerLaw(2.0)
    )
    for seed in (0, 7):
        ds = sample_diagonal(cfg, seed=seed)
        # A test frame X_te = X2 diag(sqrt(lam)) has orthogonal columns, so
        # H = X_te^T X_te is diag(lam) exactly, and no frame is drawn for it.
        lam = cfg.spectral_density.sample(10, np.random.default_rng(seed))
        assert np.array_equal(ds.test.H, np.diag(lam))
        assert ds.test.n == 40


def test_diagonal_gram_is_diagonal_with_point_noise():
    cfg = DiagonalEnsembleConfig(
        n_obs=30, n_feat=8, spectral_density=PowerLaw(1.5)
    )
    ds = sample_diagonal(cfg, seed=5)
    G = ds.X_tr.T @ ds.X_tr
    np.testing.assert_allclose(G, np.diag(np.diag(G)), atol=1e-10)
    assert np.all(np.diag(G) <= 1.0 + 1e-10)


def test_diagonal_requires_wide_frames():
    with pytest.raises(InvalidConfig, match=r"^n_feat: .* got n_feat 10 > n_obs 5$"):
        DiagonalEnsembleConfig(
            n_obs=5, n_feat=10, spectral_density=PowerLaw(1.0)
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
                                    spectral_density=PowerLaw(1.0)), "n_obs"),
    (lambda: DiagonalEnsembleConfig(n_obs=20, n_feat=0,
                                    spectral_density=PowerLaw(1.0)), "n_feat"),
    (lambda: DiagonalEnsembleConfig(20, 5, PowerLaw(1.0), noise_half_width=-0.1),
     "^noise_half_width must be in \\[0, 1\\], got -0.1$"),
    (lambda: DiagonalEnsembleConfig(20, 5, PowerLaw(1.0), noise_half_width=1.5),
     "^noise_half_width must be in \\[0, 1\\], got 1.5$"),
    (lambda: RFFBenchConfig(d=0), "d must"),
    (lambda: RFFBenchConfig(n_obs=0), "n_obs"),
    (lambda: RFFBenchConfig(n_test=0), "n_test"),
    (lambda: PowerLaw(0.0), "gamma"),
    (lambda: Atoms([0.2, 0.8], [0.5, 0.6]), "sum to 1"),
    (lambda: Atoms([0.2, 0.8], [1.5, -0.5]), "weights"),
    (lambda: Atoms([0.2, 1.5], [0.5, 0.5]), "grid"),
])
def test_ensemble_config_ranges_name_the_field(make, field):
    with pytest.raises(InvalidConfig, match=field):
        make()


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1), 1])
def test_real_config_fields_take_numpy_and_integer_numbers(value):
    assert SphericalGaussianConfig(10, 5, beta=value).beta == value
    assert RFFBenchConfig(bandwidth=value).bandwidth == value


def test_power_law_sampling_cdf():
    rng = np.random.default_rng(0)
    samples = PowerLaw(2.0).sample(500, rng)
    xs = np.sort(samples)
    emp = (np.arange(500) + 0.5) / 500
    assert np.max(np.abs(emp - xs**2)) < 0.08  # CDF of x^2 on [0, 1]


def test_tabulated_density_and_alias_sampling():
    dens = Atoms([0.2, 0.8], [0.25, 0.75])
    rng = np.random.default_rng(1)
    s = dens.sample(10_000, rng)
    assert set(np.unique(s)) == {0.2, 0.8}
    assert abs(np.mean(s == 0.8) - 0.75) < 0.02


def test_atoms_from_lists_store_float_arrays():
    # Lists are converted once, so every use sees arrays: error_integrals
    # compares the grid with 0 and sample indexes it.
    from schattenreg import error_integrals

    dens = Atoms([0, 0.25, 1], [0.5, 0.25, 0.25])
    for values in (dens.grid, dens.weights):
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
    assert set(dens.sample(100, np.random.default_rng(0))) <= {0.0, 0.25, 1.0}
    (q,) = error_integrals((SchattenIndex.FROBENIUS,), dens, 0.0, 0.5)
    # At alpha = 0 ridge keeps everything: no bias, variance 1 per nonzero atom.
    assert q.error(1.0, 1.0) == pytest.approx(0.5 * 0.5)


def test_diagonal_noise_half_width_scales_the_training_spectrum():
    # X_tr = Q diag(sqrt(lam s)) for orthonormal Q, so its column norms are
    # lam s, and the test Gram is diag(lam): s ~ Unif[0.7, 1.3], mean 1.
    ds = sample_diagonal(DiagonalEnsembleConfig(
        400, 400, Atoms([0.5, 1.0], [0.5, 0.5]), noise_half_width=0.3), seed=2)
    s = np.square(ds.X_tr).sum(axis=0) / np.diag(ds.test.H)
    assert abs(s.mean() - 1.0) < 0.03
    assert s.min() >= 0.7 - 1e-12 and s.max() <= 1.3 + 1e-12
    assert s.std() > 0.1


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
    # The 11 test rows are one block, so H is X_te^T X_te in one product, and
    # beta0 is the next draw after them.
    cfg = EquicorrelatedConfig(n_obs=30, n_feat=7, rho=rho, n_test=11)
    ds = sample_equicorrelated(cfg, seed=4)
    rng = np.random.default_rng(4)
    rows = []
    for m in (30, 11):
        z = rng.standard_normal((m, 7))
        g = rng.standard_normal((m, 1))
        rows.append((np.sqrt(1.0 - rho) * z + np.sqrt(rho) * g) / np.sqrt(30))
    assert np.array_equal(ds.X_tr, rows[0])
    assert np.array_equal(ds.test.H, rows[1].T @ rows[1])
    assert np.array_equal(ds.beta0, rng.standard_normal(7))


def test_spherical_matches_out_of_place_expression():
    # X_tr and the test rows are scaled in place; the values are those of the
    # expression, and H is the one-block test design's X_te^T X_te.
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=7, n_test=11)
    ds = sample_spherical(cfg, seed=4)
    rng = np.random.default_rng(4)
    assert np.array_equal(ds.X_tr, rng.standard_normal((30, 7)) * (1.0 / np.sqrt(30)))
    X_te = rng.standard_normal((11, 7)) * (1.0 / np.sqrt(30))
    assert np.array_equal(ds.test.H, X_te.T @ X_te)
    assert np.array_equal(ds.beta0, rng.standard_normal(7))


def test_test_spans_grain():
    # At most max(256 KiB, 8 d^2) bytes a block: a default simulate test set
    # (5000 x 50) is 8 blocks, and at d = 1000 a block is the size of H, so
    # cv-tall's 5000 test rows stay five 1000-row blocks.
    assert len(_test_spans(5000, 50)) == 8
    assert _test_spans(5000, 1000) == [(lo, lo + 1000) for lo in range(0, 5000, 1000)]
    assert _test_spans(3, 7) == [(0, 3)]


def test_spherical_multi_block_test_gram_matches_one_shot():
    # 10,000 test rows of 7 features are three blocks.  H sums their Grams,
    # so it matches the one-piece X_te^T X_te up to rounding, and the draws
    # around the test rows are those of the out-of-place expression.  Entry
    # (i, j) rounds on the scale sqrt(H_ii H_jj), which bounds it, so the
    # relative tolerance is taken on that scale: an off-diagonal entry near
    # 0 carries rounding of the diagonal's size.
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=7, n_test=10_000)
    assert len(_test_spans(cfg.n_test, cfg.n_feat)) == 3
    ds = sample_spherical(cfg, seed=4)
    rng = np.random.default_rng(4)
    assert np.array_equal(ds.X_tr, rng.standard_normal((30, 7)) * (1.0 / np.sqrt(30)))
    X_te = rng.standard_normal((10_000, 7)) * (1.0 / np.sqrt(30))
    want = X_te.T @ X_te
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.all(np.abs(ds.test.H - want) <= 1e-13 * scale)
    assert np.array_equal(ds.test.H, ds.test.H.T)
    assert np.array_equal(ds.beta0, rng.standard_normal(7))


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_equicorrelated_multi_block_test_gram_is_drawn_block_by_block(rho):
    # 10,000 test rows of 7 features are three blocks.  With rho > 0 each
    # block draws its z, then its g; at rho = 0 the blocks are pieces of one
    # draw of z, and g is drawn once after them.  H is the sum of the blocks'
    # Grams bit for bit, and the test set takes as many normals as a
    # one-piece draw, so X_tr, beta0 and Y_tr are those of that stream.
    cfg = EquicorrelatedConfig(n_obs=30, n_feat=7, rho=rho, n_test=10_000)
    spans = _test_spans(cfg.n_test, cfg.n_feat)
    assert len(spans) >= 3
    ds = sample_equicorrelated(cfg, seed=4)

    def mix(z, g):
        return (np.sqrt(1.0 - rho) * z + np.sqrt(rho) * g) / np.sqrt(30)

    rng = np.random.default_rng(4)
    rng.standard_normal((30, 8))  # skips the training z and g: 30 * 7 + 30 normals
    blocks = [mix(rng.standard_normal((hi - lo, 7)),
                  rng.standard_normal((hi - lo, 1)) if rho else 0.0) for lo, hi in spans]
    assert np.array_equal(ds.test.H, sum(X.T @ X for X in blocks))

    one_piece = np.random.default_rng(4)
    X_tr = mix(one_piece.standard_normal((30, 7)), one_piece.standard_normal((30, 1)))
    one_piece.standard_normal((10_000, 8))  # skips the test z and g, in one piece
    beta0 = one_piece.standard_normal(7)
    assert np.array_equal(ds.X_tr, X_tr)
    assert np.array_equal(ds.beta0, beta0)
    assert np.array_equal(ds.Y_tr, X_tr @ beta0 + one_piece.standard_normal(30))


def test_test_gram_of_row_blocks_is_the_stack_gram():
    # 300 columns make three slabs, and 601 rows of them three blocks, the
    # last of one row, each asked for as it is needed.  The sum matches one
    # product over the stack to rounding, and the result is exactly
    # symmetric.
    X = np.random.default_rng(4).standard_normal((601, 300))
    asked = []

    def draw(m):
        lo = sum(asked)
        asked.append(m)
        return X[lo:lo + m]

    G = _test_gram(601, 300, draw)
    assert asked == [300, 300, 1]
    np.testing.assert_allclose(G, X.T @ X, rtol=0, atol=1e-13 * np.abs(X.T @ X).max())
    assert np.array_equal(G, G.T)
    assert np.array_equal(_test_gram(300, 300, lambda m: X[:m]), X[:300].T @ X[:300])


@pytest.mark.parametrize("make", [
    lambda: sample_spherical(SphericalGaussianConfig(100, 1000, n_test=3000), seed=0),
    lambda: sample_equicorrelated(EquicorrelatedConfig(100, 1000, rho=0.5, n_test=3000),
                                  seed=0),
], ids=["spherical", "equicorrelated"])
def test_test_gram_holds_one_block_and_one_slab_beside_h(make):
    # Three 1000-row blocks of 1000 features: H and one block are 8 MB each,
    # a slab product 1 MB; the whole sample peaks near 2.33 times H.  A
    # plain H += X.T @ X would hold a second d x d product, 3.2 times H.
    make()  # numpy's first-call allocations are not counted
    tracemalloc.start()
    try:
        ds = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * ds.test.H.nbytes


def _stiefel(rng, n, d):
    Q, R = np.linalg.qr(rng.standard_normal((n, d)))
    return Q * np.sign(np.diag(R))


@pytest.mark.parametrize("half_width", [0.0, 0.5])
@pytest.mark.parametrize("measure", [PowerLaw(0.3), Atoms([0.0, 0.4, 1.0], [0.2, 0.5, 0.3])],
                         ids=["power-law", "atoms"])
def test_diagonal_matches_out_of_place_expression(measure, half_width):
    # The draws, in order: the eigenvalues by the measure's inverse CDF or
    # atom choice, the noise (none at half-width 0), the training frame,
    # beta0, the training noise.  The test set is diag(lam), with no frame.
    cfg = DiagonalEnsembleConfig(30, 7, measure, half_width, beta=2.0, sigma=0.5)
    ds = sample_diagonal(cfg, seed=4)
    rng = np.random.default_rng(4)
    if isinstance(measure, PowerLaw):
        lam = rng.uniform(size=7) ** (1.0 / 0.3)
    else:
        lam = measure.grid[rng.choice(3, size=7, p=measure.weights)]
    s = rng.uniform(0.5, 1.5, size=7) if half_width else np.ones(7)
    X_tr = _stiefel(rng, 30, 7) * np.sqrt(lam * s)
    beta0 = rng.standard_normal(7) * 2.0
    assert np.array_equal(ds.X_tr, X_tr)
    assert np.array_equal(ds.test.H, np.diag(lam))
    assert np.array_equal(ds.beta0, beta0)
    assert np.array_equal(ds.Y_tr, X_tr @ beta0 + 0.5 * rng.standard_normal(30))


@pytest.mark.parametrize("make", [
    lambda: sample_spherical(SphericalGaussianConfig(30, 7, n_test=11), seed=3),
    lambda: sample_diagonal(DiagonalEnsembleConfig(
        30, 7, spectral_density=PowerLaw(0.3)), seed=3),
    lambda: sample_equicorrelated(EquicorrelatedConfig(30, 7, rho=0.4, n_test=11), seed=3),
    lambda: sample_equicorrelated(EquicorrelatedConfig(
        30, 7, rho=0.4, sparse=SparseSpec(n_large=2), n_test=11), seed=3),
], ids=["spherical", "diagonal", "equicorrelated", "equicorrelated-sparse"])
def test_samplers_test_targets_are_the_noiseless_truth(make):
    # A sampled test set is scored against the dataset's own truth: its
    # targets are X_te beta0, with no noise, so beta0 itself scores 0 exactly.
    ds = make()
    assert isinstance(ds.test, GramTestSet) and ds.test.beta0 is ds.beta0
    assert ds.X_te is None and ds.Y_te is None
    assert ds.test.mse(ds.beta0[:, None]) == [0.0]


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
    assert np.array_equal(a.X_tr, b.X_tr) and np.array_equal(a.test.H, b.test.H)
    c = sample_spherical(cfg, seed=10)
    assert not np.array_equal(a.X_tr, c.X_tr)


def test_child_seeds_distinct_and_reproducible():
    s1 = child_seeds(0, 10)
    s2 = child_seeds(0, 10)
    assert s1 == s2 and len(set(s1)) == 10


def test_test_targets_noiseless():
    # sigma = 2 adds noise to Y_tr only: the truth fits the test set exactly.
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=5, sigma=2.0, n_test=50)
    ds = sample_spherical(cfg, seed=4)
    assert ds.test.mse(ds.beta0[:, None]) == [0.0]
    assert ds.test.mse(np.zeros((5, 1)))[0] > 0


def test_noiseless_ols_predicts_the_test_targets():
    cfg = SphericalGaussianConfig(n_obs=30, n_feat=5, sigma=0.0, n_test=100)
    ds = sample_spherical(cfg, seed=6)
    perfect = fit(ds.X_tr, ds.Y_tr, SchattenIndex.FROBENIUS, 0.0)
    assert ds.test.mse(perfect.beta_hat[:, None])[0] < 1e-20

    null = fit(ds.X_tr, np.zeros(30), SchattenIndex.FROBENIUS, 0.0)
    np.testing.assert_array_equal(predict(null, ds.X_tr), np.zeros(30))

    narrow = fit(ds.X_tr[:, :4], ds.Y_tr, SchattenIndex.FROBENIUS, 0.0)
    with pytest.raises(DimensionMismatch):
        predict(narrow, ds.X_tr)


def test_ols_error_matches_thermodynamic_limit():
    # lam = 0.5, sigma = beta = 1: limit error lam sigma^2/(1-lam) = 1.
    cfg = SphericalGaussianConfig(n_obs=100, n_feat=50, beta=1.0, sigma=1.0, n_test=2000)
    errs = []
    for seed in child_seeds(123, 100):
        ds = sample_spherical(cfg, seed=seed)
        model = fit(ds.X_tr, ds.Y_tr, SchattenIndex.FROBENIUS, 0.0)
        errs.append(ds.test.mse(model.beta_hat[:, None])[0])
    errs = np.asarray(errs)
    se = errs.std(ddof=1) / np.sqrt(len(errs))
    assert abs(errs.mean() - 1.0) < 3 * se


def _assert_one_spectrum(ds):
    want = gram_spectrum(ds.X_tr)
    for name in ("eigvals", "eigvecs"):
        assert np.array_equal(getattr(ds.spectrum, name), getattr(want, name)), name


@pytest.mark.parametrize("make", [
    lambda: sample_equicorrelated(
        EquicorrelatedConfig(40, 12, rho=0.4, sparse=SparseSpec(3, 0.1), n_test=30), seed=5),
    lambda: sample_spherical(SphericalGaussianConfig(10, 25, n_test=30), seed=6),  # wide
    lambda: sample_diagonal(DiagonalEnsembleConfig(
        30, 12, PowerLaw(2.0), noise_half_width=0.5), seed=7),
    lambda: make_rff_dataset(RFFBenchConfig(d=3, d_rbf=40, n_obs=15, n_test=20, sigma=0.5),
                             seed=8),
], ids=["equicorrelated-sparse", "spherical-wide", "diagonal", "rff"])
def test_dataset_carries_the_spectrum_of_its_training_set(make):
    _assert_one_spectrum(make())


def test_real_data_split_carries_the_spectrum_of_its_training_set(tmp_path, monkeypatch):
    import schattenreg.cli as cli
    import schattenreg.cv as cv

    rows = np.random.default_rng(9).standard_normal((30, 4))
    path = tmp_path / "table.csv"
    path.write_text("a,b,c,y\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    made, sample = [], cv.sample_ensemble

    def recording(config, seed):
        # Checked as made: the harness then permutes the training rows into
        # fold order in place.
        assert isinstance(config, RealDataConfig)
        made.append(sample(config, seed))
        _assert_one_spectrum(made[-1])
        return made[-1]

    monkeypatch.setattr(cv, "sample_ensemble", recording)
    cli.cmd_real_data(str(path), {"target": "y", "train_size": 20, "n_splits": 2})
    assert len(made) == 2
