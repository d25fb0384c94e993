import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schattenreg import (
    SchattenIndex,
    alpha_to_bias_bound,
    bias_bound_to_alpha,
    estimator_operator,
    fit,
    fit_path,
    gram_spectrum,
    operator_diagnostics,
    predict,
    solve_bias_constrained_numeric,
)
from schattenreg.exceptions import DimensionMismatch, DomainError, NonFinite
from schattenreg.spectrum import EIGVAL_RTOL

FIG1_X = np.diag(np.sqrt(np.arange(1.0, 11.0)))
ALL_P = list(SchattenIndex)


@pytest.mark.parametrize("p", ALL_P)
def test_ols_on_identity_design(p):
    rng = np.random.default_rng(0)
    y = rng.standard_normal(6)
    model = fit(np.eye(6), y, p, 0.0)
    np.testing.assert_allclose(model.beta_hat, y, atol=1e-12)


def test_spectral_is_scalar_shrinkage():
    beta0 = np.arange(1.0, 11.0)
    Y = FIG1_X @ beta0
    model = fit(FIG1_X, Y, SchattenIndex.SPECTRAL, 1.0)
    np.testing.assert_allclose(model.beta_hat, beta0 / 2.0, atol=1e-12)
    # Composition with predict: one test row gives <x, beta0>/2.
    x = np.array([[1.0, -2.0, 0.5, 0, 0, 0, 0, 0, 1, 3]])
    np.testing.assert_allclose(predict(model, x), x @ beta0 / 2.0)


@pytest.mark.parametrize("p", ALL_P)
def test_fit_matches_numeric_oracle(p):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 3))
    sp = gram_spectrum(X)
    alpha = bias_bound_to_alpha(sp, p, 0.5)
    Y = rng.standard_normal(8)
    model = fit(X, Y, p, alpha)
    L = solve_bias_constrained_numeric(X, 0.5, p)
    np.testing.assert_allclose(model.beta_hat, L @ Y, rtol=1e-3, atol=1e-10)


def test_predict_edge_cases():
    model = fit(np.eye(4), np.zeros(4), SchattenIndex.FROBENIUS, 1.0)
    np.testing.assert_array_equal(predict(model, np.eye(4)), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros((2, 5)))


def test_alpha_infinity_sentinel_gives_zero():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 4))
    model = fit(X, rng.standard_normal(10), SchattenIndex.NUCLEAR, np.inf)
    np.testing.assert_array_equal(model.beta_hat, np.zeros(4))


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("shape", [(12, 5), (4, 9)])  # full rank; d > N
def test_fit_path_matches_per_alpha_fits(p, shape):
    rng = np.random.default_rng(3)
    X = rng.standard_normal(shape)
    Y = rng.standard_normal(shape[0])
    alphas = [0.0, 1e-3, 1.0, np.inf]
    B = fit_path(gram_spectrum(X), X.T @ Y, p, alphas)
    assert B.shape == (shape[1], len(alphas))
    for k, a in enumerate(alphas):
        beta = fit(X, Y, p, a).beta_hat
        np.testing.assert_allclose(B[:, k], beta, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(B[:, -1], np.zeros(shape[1]))


@pytest.mark.parametrize("shape", [(12, 5), (5, 12)])  # tall; wide
def test_fit_checks_y(shape):
    rng = np.random.default_rng(3)
    X, Y = rng.standard_normal(shape), rng.standard_normal(shape[0])
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFinite, match="^Y contains NaN or inf$"):
            fit(X, np.where(np.arange(shape[0]) == 2, bad, Y), SchattenIndex.FROBENIUS, 1.0)
    for Y_bad in (Y[:-1], np.append(Y, 1.0), Y[:, None]):
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"Y {Y_bad.shape} must be ({shape[0]},)")):
            fit(X, Y_bad, SchattenIndex.FROBENIUS, 1.0)


@pytest.mark.parametrize("xty_shape", [(4,), (6,), (5, 1), ()])
def test_fit_path_checks_xty(xty_shape):
    # X^T Y of a (12, 5) design is (5,); a 2-D one would broadcast into a
    # (5, 5, n_alpha) array, not raise.
    sp = gram_spectrum(np.random.default_rng(3).standard_normal((12, 5)))
    with pytest.raises(ValueError, match=re.escape(f"xty {xty_shape} must be (5,)")):
        fit_path(sp, np.ones(xty_shape), SchattenIndex.FROBENIUS, [0.1, 1.0])


def _scale_designs():
    rng = np.random.default_rng(8)
    tall = rng.standard_normal((40, 5))
    return {"tall": tall,
            "tall, repeated column": np.hstack([tall, tall[:, :1]]),
            "wide": rng.standard_normal((5, 8))}


@pytest.mark.parametrize("name", list(_scale_designs()))
@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_fit_path_and_rank_are_invariant_to_the_units_of_x(name, c):
    # beta-hat(c X) = beta-hat(X) / c when alpha scales with the Gram matrix,
    # as c^2 for p in {1, 2}; the Spectral filter is a ratio, so alpha stays.
    X = _scale_designs()[name]
    Y = X @ np.arange(1.0, X.shape[1] + 1)
    ref, sp = gram_spectrum(X), gram_spectrum(c * X)
    assert sp.rank == ref.rank == min(X.shape) - (name == "tall, repeated column")
    for p in ALL_P:
        alphas = np.array([0.0, 0.3, 30.0])
        scaled = alphas if p is SchattenIndex.SPECTRAL else alphas * c**2
        want = fit_path(ref, X.T @ Y, p, alphas)
        np.testing.assert_allclose(c * fit_path(sp, (c * X).T @ Y, p, scaled), want,
                                   rtol=1e-9, atol=1e-9 * np.abs(want).max())
        assert (alpha_to_bias_bound(sp, p, 0.0)
                == alpha_to_bias_bound(ref, p, 0.0))
    assert gram_spectrum(0.0 * X).rank == 0


@pytest.mark.parametrize("p", ALL_P)
def test_a_zero_design_has_no_eigenpair_and_every_direction_null(p):
    sp = gram_spectrum(np.zeros((6, 4)))
    assert sp.eigvecs.shape == (4, 0) and sp.eigvals.shape == (0,) and sp.n_feat == 4
    np.testing.assert_array_equal(fit_path(sp, np.zeros(4), p, [0.0, 1.0]), 0.0)
    full = p.identity_norm(4)
    for alpha in (0.0, 1.0, np.inf):
        assert alpha_to_bias_bound(sp, p, alpha) == full
    assert bias_bound_to_alpha(sp, p, full) == np.inf
    with pytest.raises(DomainError, match="4 null directions"):
        bias_bound_to_alpha(sp, p, 0.5 * full)


def _gram_reference_operator(X, p, alpha):
    """L = G-hat^{-1} X^T from an explicit eigh of X^T X, restricted to the
    eigenvalues above the rank tolerance (X^T has no component on the rest)."""
    s, U = np.linalg.eigh(X.T @ X)
    s, U = np.clip(s[::-1], 0.0, None), U[:, ::-1]
    kept = s > EIGVAL_RTOL * s[0]
    if np.isinf(alpha):
        w = np.zeros_like(s)
    else:
        f = {SchattenIndex.NUCLEAR: np.maximum(s, alpha),
             SchattenIndex.FROBENIUS: s + alpha,
             SchattenIndex.SPECTRAL: (1.0 + alpha) * s}[p]
        w = np.where(kept, 1.0 / np.where(kept, f, 1.0), 0.0)
    return (U * w) @ U.T @ X.T


def _rel_dev(a, b):
    scale = np.linalg.norm(b)
    return np.linalg.norm(a - b) / scale if scale else np.linalg.norm(a)


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_wide_route_matches_gram_reference(p, rank_deficient):
    # d > N takes the thin SVD of X; the duplicated rows give rank 20 < N = 40.
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 300))
    if rank_deficient:
        X = np.vstack([X[:20], X[:20]])
    Y = rng.standard_normal(40)
    sp = gram_spectrum(X)
    k = 20 if rank_deficient else 40
    assert sp.eigvecs.shape == (300, k) and sp.eigvals.shape == (k,) and sp.rank == k
    alphas = [0.0, 1e-4, 1.0, np.inf]
    B = fit_path(sp, X.T @ Y, p, alphas)
    for j, a in enumerate(alphas):
        L_ref = _gram_reference_operator(X, p, a)
        assert _rel_dev(B[:, j], L_ref @ Y) <= 1e-10
        assert _rel_dev(estimator_operator(X, p, a), L_ref) <= 1e-10


# ----------------------------------------------------------------------------
# alpha <-> C conversions
# ----------------------------------------------------------------------------

def test_bias_bound_spectral_hand_value():
    sp = gram_spectrum(FIG1_X)
    # alpha/(1+alpha) at alpha=1.
    assert alpha_to_bias_bound(sp, SchattenIndex.SPECTRAL, 1.0) == pytest.approx(0.5)
    assert bias_bound_to_alpha(sp, SchattenIndex.SPECTRAL, 0.5) == pytest.approx(1.0)


def test_bias_bound_nuclear_hand_value():
    sp = gram_spectrum(FIG1_X)  # Gram eigenvalues 1..10
    # sum over eigenvalues below 5 of (1 - s/5) = .8+.6+.4+.2
    assert alpha_to_bias_bound(sp, SchattenIndex.NUCLEAR, 5.0) == pytest.approx(2.0)


@pytest.mark.parametrize("alpha", [-1.0, -1e-300, np.nan])
@pytest.mark.parametrize("p", ALL_P)
def test_bad_alpha_raises_from_every_entry_point(p, alpha):
    # One check, in SchattenIndex.shrinkage, serves every layer.
    from schattenreg import MarchenkoPastur, PowerLaw, error_integrals

    X = np.random.default_rng(0).standard_normal((6, 3))
    Y = X @ np.ones(3)
    sp = gram_spectrum(X)
    calls = [
        lambda: fit(X, Y, p, alpha),
        lambda: fit_path(sp, X.T @ Y, p, [1.0, alpha]),
        lambda: estimator_operator(X, p, alpha),
        lambda: alpha_to_bias_bound(sp, p, alpha),
        lambda: error_integrals((p,), MarchenkoPastur(0.5), [1.0, alpha], 0.5),
        lambda: error_integrals((p,), PowerLaw(2.0), alpha, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            call()


@pytest.mark.parametrize("p", ALL_P)
def test_nan_or_negative_bias_bound_raises(p):
    sp = gram_spectrum(FIG1_X)
    X = np.random.default_rng(1).standard_normal((6, 3))
    for c in (np.nan, -0.5):
        with pytest.raises(ValueError, match="bias bound C"):
            bias_bound_to_alpha(sp, p, c)
        with pytest.raises(ValueError, match="bias bound C"):
            solve_bias_constrained_numeric(X, c, p)


@pytest.mark.parametrize("p", ALL_P)
def test_zero_alpha_zero_bias(p):
    sp = gram_spectrum(FIG1_X)
    assert alpha_to_bias_bound(sp, p, 0.0) == 0.0


@pytest.mark.parametrize("p", ALL_P)
def test_saturated_bias_bound_maps_to_infinity(p):
    sp = gram_spectrum(FIG1_X)
    assert bias_bound_to_alpha(sp, p, p.identity_norm(10)) == np.inf
    assert bias_bound_to_alpha(sp, p, p.identity_norm(10) + 1.0) == np.inf


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
def test_alpha_bias_round_trip(p, alpha):
    # Smallest Gram eigenvalue below every tested alpha, so the nuclear map
    # is on its strictly monotone branch (it is flat at zero below it).
    X = np.diag(np.sqrt(np.logspace(-3, 1, 10)))
    sp = gram_spectrum(X)
    c = alpha_to_bias_bound(sp, p, alpha)
    assert type(c) is float  # the budget is a plain number
    back = bias_bound_to_alpha(sp, p, c)
    assert back == pytest.approx(alpha, rel=1e-9)


@pytest.mark.parametrize("p", ALL_P)
def test_bias_bound_monotone_in_alpha(p):
    sp = gram_spectrum(FIG1_X)
    alphas = np.logspace(-3, 4, 40)
    cs = [alpha_to_bias_bound(sp, p, a) for a in alphas]
    assert np.all(np.diff(cs) >= -1e-12)
    assert np.all(np.asarray(cs) <= p.identity_norm(10) + 1e-12)


def _cmap_designs():
    rng = np.random.default_rng(9)
    tall = rng.standard_normal((12, 6))
    return {
        "full-rank": tall,
        "wide": rng.standard_normal((3, 6)),                    # 3 null directions
        "tall-duplicated-columns": np.hstack([tall[:, :3]] * 2),  # 3 null directions
    }


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("name", ["full-rank", "wide", "tall-duplicated-columns"])
def test_bias_bound_matches_operator_bias_norm(p, name):
    X = _cmap_designs()[name]
    sp = gram_spectrum(X)
    for alpha in [0.0, 1e-6, 1e-3, 0.5, 5.0, 1e3, np.inf]:
        true = operator_diagnostics(estimator_operator(X, p, alpha), X, p)[0]
        assert alpha_to_bias_bound(sp, p, alpha) == pytest.approx(
            true, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("p, floor", [(SchattenIndex.NUCLEAR, 3.0),
                                      (SchattenIndex.FROBENIUS, np.sqrt(3.0)),
                                      (SchattenIndex.SPECTRAL, 1.0)])
@pytest.mark.parametrize("name", ["wide", "tall-duplicated-columns"])
def test_bias_bound_floor_on_rank_deficient_gram(p, floor, name):
    X = _cmap_designs()[name]
    sp = gram_spectrum(X)
    assert sp.rank == 3
    assert alpha_to_bias_bound(sp, p, 0.0) == pytest.approx(floor, rel=1e-15)
    with pytest.raises(DomainError):
        bias_bound_to_alpha(sp, p, 0.5 * floor)
    if p is SchattenIndex.SPECTRAL:
        return  # floor = identity norm: the whole map is flat at 1
    assert bias_bound_to_alpha(sp, p, floor) == 0.0
    c = 0.5 * (floor + p.identity_norm(6))
    alpha = bias_bound_to_alpha(sp, p, c)
    true = operator_diagnostics(estimator_operator(X, p, alpha), X, p)[0]
    assert true == pytest.approx(c, rel=1e-9)


# Properties on full-rank (12 x 5) and wide (5 x 12, rank-deficient G) designs.
_SHAPES = st.sampled_from([(12, 5), (5, 12)])
_P = st.sampled_from(ALL_P)


def _bias_bound_slope(sp, p, alpha):
    """dC/dalpha of `alpha_to_bias_bound`, in closed form."""
    s = sp.eigvals[:sp.rank]
    if p is SchattenIndex.NUCLEAR:
        return float(np.sum(s[s < alpha])) / alpha ** 2
    if p is SchattenIndex.FROBENIUS:
        c = alpha_to_bias_bound(sp, p, alpha)
        return float(np.sum(alpha * s / (s + alpha) ** 3)) / c
    return 0.0 if sp.rank < sp.n_feat else 1.0 / (1.0 + alpha) ** 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), shape=_SHAPES, p=_P, log_alpha=st.floats(-3, 3))
@example(seed=0, shape=(5, 12), p=SchattenIndex.FROBENIUS, log_alpha=-3.0)
def test_alpha_bias_round_trip_property(seed, shape, p, log_alpha):
    sp = gram_spectrum(np.random.default_rng(seed).standard_normal(shape))
    alpha = 10.0 ** log_alpha
    c = alpha_to_bias_bound(sp, p, alpha)
    back = bias_bound_to_alpha(sp, p, c)
    assert alpha_to_bias_bound(sp, p, back) == pytest.approx(c, rel=1e-9, abs=1e-12)
    # C carries the rounding of a sum of d terms, which moves the alpha it
    # pins by the condition number kappa = C / (alpha dC/dalpha) times that.
    # kappa is large just above the floor (Frobenius on a singular G at small
    # alpha: 1.4e7 at seed 0, 5 x 12, alpha = 1e-3) and infinite where no
    # eigenvalue is active: there the map is flat and the inverse returns the
    # end of the flat branch (Nuclear at or below the smallest positive
    # eigenvalue, Spectral on a singular G).
    slope = _bias_bound_slope(sp, p, alpha)
    if slope > 0:
        kappa = c / (alpha * slope)
        eps = np.finfo(float).eps
        assert back == pytest.approx(alpha, rel=1e-9 + sp.n_feat * eps * kappa)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), shape=_SHAPES, p=_P,
       log_alphas=st.lists(st.floats(-6, 6), min_size=2, max_size=10))
def test_bias_bound_nondecreasing_property(seed, shape, p, log_alphas):
    sp = gram_spectrum(np.random.default_rng(seed).standard_normal(shape))
    alphas = [0.0] + sorted(10.0 ** np.array(log_alphas)) + [np.inf]
    cs = np.array([alpha_to_bias_bound(sp, p, a) for a in alphas])
    assert np.all(np.diff(cs) >= -1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), shape=_SHAPES, p=_P, alpha=st.floats(0.0, 1e6),
       log_c=st.floats(-3, 3))
def test_errors_scale_with_sigma_squared_property(seed, shape, p, alpha, log_c):
    # beta-hat is linear in Y, so scaling beta and sigma by c scales every
    # test error by c^2.
    rng = np.random.default_rng(seed)
    N, d = shape
    X, X_te = rng.standard_normal((N, d)), rng.standard_normal((50, d))
    b, noise = rng.standard_normal(d), rng.standard_normal(N)
    alphas = [alpha, np.inf]

    def errors(c):
        B = fit_path(gram_spectrum(X), X.T @ (X @ (c * b) + c * noise), p, alphas)
        return np.mean((X_te @ B - (X_te @ (c * b))[:, None]) ** 2, axis=0)

    c = 10.0 ** log_c
    np.testing.assert_allclose(errors(c), c * c * errors(1.0), rtol=1e-9)


# ----------------------------------------------------------------------------
# operator diagnostics
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("p", ALL_P)
def test_zero_operator_diagnostics(p):
    X = FIG1_X
    bias, var = operator_diagnostics(np.zeros((10, 10)), X, p)
    assert bias == pytest.approx(p.identity_norm(10))
    assert var == 0.0


def test_ols_operator_is_unbiased():
    X = np.random.default_rng(5).standard_normal((12, 4))
    L = np.linalg.inv(X.T @ X) @ X.T
    bias, var = operator_diagnostics(L, X, SchattenIndex.FROBENIUS)
    assert bias == pytest.approx(0.0, abs=1e-10)
    assert var > 0


def test_spectral_operator_bias_half():
    # LX = I/(1+alpha) at alpha=1, so every singular value of LX - I is 1/2.
    L = estimator_operator(FIG1_X, SchattenIndex.SPECTRAL, 1.0)
    bias, _ = operator_diagnostics(L, FIG1_X, SchattenIndex.SPECTRAL)
    assert bias == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("p", ALL_P)
def test_bias_variance_frontier_monotone(p):
    # Along an alpha sweep the bias norm rises and the variance falls.
    alphas = np.logspace(-2, 3, 25)
    biases, variances = [], []
    for a in alphas:
        L = estimator_operator(FIG1_X, p, a)
        b, v = operator_diagnostics(L, FIG1_X, p)
        biases.append(b)
        variances.append(v)
    assert np.all(np.diff(biases) >= -1e-10)
    assert np.all(np.diff(variances) <= 1e-10)


def test_frontier_dominance_at_matched_bias():
    # At equal p=1 bias norm the Nuclear estimator has the smallest variance.
    sp = gram_spectrum(FIG1_X)
    for c_target in (0.5, 1.5, 3.0):
        variances = {}
        for p in ALL_P:
            # Find alpha giving nuclear-norm bias equal to c_target.
            from scipy.optimize import brentq

            def gap(a, p=p):
                L = estimator_operator(FIG1_X, p, a)
                return operator_diagnostics(L, FIG1_X, SchattenIndex.NUCLEAR)[0] - c_target

            a = brentq(gap, 1e-8, 1e8, rtol=1e-12)
            L = estimator_operator(FIG1_X, p, a)
            variances[p] = operator_diagnostics(L, FIG1_X, SchattenIndex.NUCLEAR)[1]
        assert variances[SchattenIndex.NUCLEAR] <= variances[SchattenIndex.FROBENIUS] + 1e-10
        assert variances[SchattenIndex.NUCLEAR] <= variances[SchattenIndex.SPECTRAL] + 1e-10


def test_fit_determinism():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 6))
    Y = rng.standard_normal(20)
    a = fit(X, Y, SchattenIndex.NUCLEAR, 0.7).beta_hat
    b = fit(X, Y, SchattenIndex.NUCLEAR, 0.7).beta_hat
    assert np.array_equal(a, b)
