import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenreg import GramSpectrum, SchattenIndex, estimator_operator, fit, gram_spectrum
from schattenreg.spectrum import EIGVAL_RTOL
from schattenreg.exceptions import DimensionMismatch, InsufficientData

FIG1_X = np.diag(np.sqrt(np.arange(1.0, 11.0)))


def test_nuclear_filter_clips_from_below():
    sp = gram_spectrum(FIG1_X)
    r, q = SchattenIndex.NUCLEAR.shrinkage(sp.eigvals, 5.0)
    np.testing.assert_allclose(sp.eigvals / r, [10, 9, 8, 7, 6, 5, 5, 5, 5, 5])
    np.testing.assert_allclose(q, 1.0 - r)


def test_infinite_alpha_on_rank_deficient_x():
    sp = gram_spectrum(np.random.default_rng(0).standard_normal((3, 5)))
    assert sp.rank == 3 and sp.n_feat - sp.rank == 2
    # The null directions' eigenvalue 0 beside the kept ones.
    s = np.concatenate([sp.eigvals, np.zeros(sp.n_feat - sp.rank)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in SchattenIndex:
            r, q = p.shrinkage(s, np.inf)
            assert np.all(r == 0.0) and np.all(q == 1.0)


def test_shrinkage_limits_at_a_zero_eigenvalue():
    # At x = 0 both shares are their limits from the right: every filter is
    # the identity at alpha = 0, and Ridge and Nuclear keep nothing of x = 0
    # at alpha > 0, however small.
    x = np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in SchattenIndex:
            r, q = p.shrinkage(x, np.array([[0.0], [1e-300], [2.0]]))
            r, q = np.broadcast_to(r, (3, 2)), np.broadcast_to(q, (3, 2))
            np.testing.assert_array_equal(r[0], 1.0)
            np.testing.assert_array_equal(q[0], 0.0)
            if p is not SchattenIndex.SPECTRAL:
                np.testing.assert_array_equal(r[1:, 0], 0.0)
                np.testing.assert_array_equal(q[1:, 0], 1.0)


def test_shrinkage_drop_share_does_not_cancel():
    # q is formed directly: here r rounds to 1, so 1 - r would be 0.
    for p in (SchattenIndex.FROBENIUS, SchattenIndex.SPECTRAL):
        r, q = p.shrinkage(1.0, 1e-20)
        assert r == 1.0
        assert q == pytest.approx(1e-20, rel=1e-15)


def test_schatten_norm_of_singular_values():
    sv = np.array([3.0, 4.0, 0.0])
    assert SchattenIndex.NUCLEAR.norm(sv) == 7.0
    assert SchattenIndex.FROBENIUS.norm(sv) == 5.0
    assert SchattenIndex.SPECTRAL.norm(sv) == 4.0
    for p in SchattenIndex:
        assert p.norm(np.zeros(0)) == 0.0
        assert p.identity_norm(9) == pytest.approx(9.0 ** (1.0 / p.p))


@pytest.mark.parametrize("p", list(SchattenIndex))
def test_alpha_zero_is_identity(p):
    sp = gram_spectrum(np.random.default_rng(0).standard_normal((12, 5)))
    r, q = p.shrinkage(sp.eigvals, 0.0)
    assert np.all(r == 1.0) and np.all(q == 0.0)


def test_frobenius_filter_is_additive():
    sp = gram_spectrum(np.diag(np.sqrt([2.0, 1.0])))
    r, q = SchattenIndex.FROBENIUS.shrinkage(sp.eigvals, 0.5)
    np.testing.assert_allclose(sp.eigvals / r, [2.5, 1.5])
    np.testing.assert_allclose(q, [0.5 / 2.5, 0.5 / 1.5])


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.one_of(st.floats(0.0, 1e6), st.just(np.inf)),
    p=st.sampled_from(list(SchattenIndex)),
    shape=st.sampled_from([(8, 4), (4, 8)]),  # full rank; d > N, singular G
)
def test_filtered_eigvals_dominate(seed, alpha, p, shape):
    # The regularized Gram matrix dominates G in the PSD order: they share
    # eigenvectors, so G-hat >= G is eigenvalue by eigenvalue, 0 <= r <= 1.
    rng = np.random.default_rng(seed)
    sp = gram_spectrum(rng.standard_normal(shape))
    r, q = p.shrinkage(sp.eigvals, alpha)
    assert np.all((0.0 <= r) & (r <= 1.0))
    assert np.all((0.0 <= q) & (q <= 1.0))
    np.testing.assert_allclose(r + q, 1.0, rtol=0, atol=1e-15)
    assert np.broadcast_shapes(r.shape, q.shape, sp.eigvals.shape) == sp.eigvals.shape


def test_spectrum_validation():
    X = np.random.default_rng(3).standard_normal((6, 3))
    sp = gram_spectrum(X)
    assert sp.n_obs == 6 and sp.n_feat == 3
    assert np.all(np.diff(sp.eigvals) <= 0)
    assert sp.rank == 3

    for p in SchattenIndex:
        for alpha in (-1.0, np.nan, [1.0, -1e-300]):
            with pytest.raises(ValueError, match="alpha"):
                p.shrinkage(sp.eigvals, alpha)


def test_rank_deficient_spectrum():
    X = np.random.default_rng(4).standard_normal((3, 6))
    sp = gram_spectrum(X)
    assert sp.rank == 3 and sp.n_feat == 6
    assert sp.eigvecs.shape == (6, 3) and sp.eigvals.shape == (3,)
    assert np.all(sp.eigvals > EIGVAL_RTOL * sp.eigvals[0])
    # A duplicated column adds a null direction of G, which the spectrum drops.
    sp = gram_spectrum(np.column_stack([X.T, X.T[:, 0]]))
    assert sp.n_feat == 4 and sp.rank == 3 and sp.eigvecs.shape == (4, 3)


def _route_designs():
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((40, 300))
    return {
        "wide": wide,
        "wide-duplicated-rows": np.vstack([wide[:20], wide[:20]]),  # rank 20 < N
        "tall": rng.standard_normal((300, 40)),
    }


@pytest.mark.parametrize("name", ["wide", "wide-duplicated-rows", "tall"])
def test_spectrum_route_invariants(name):
    X = _route_designs()[name]
    N, d = X.shape
    k = 20 if name == "wide-duplicated-rows" else min(N, d)
    sp = gram_spectrum(X)
    U = sp.eigvecs
    assert U.shape == (d, k) and sp.eigvals.shape == (k,) and sp.rank == k
    np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-12)
    G = X.T @ X
    ref = np.clip(np.sort(np.linalg.eigvalsh(G))[::-1], 0.0, None)
    # The dropped eigenvalues are G's near-zero ones.
    np.testing.assert_allclose(sp.eigvals, ref[:k], rtol=0, atol=1e-10 * ref[0])
    np.testing.assert_allclose(ref[k:], 0.0, rtol=0, atol=1e-10 * ref[0])
    np.testing.assert_allclose((U * sp.eigvals) @ U.T, G, rtol=0, atol=1e-12 * ref[0])


def test_spectrum_rejects_misshaped_eigvecs_and_eigvals_at_the_rank_tolerance():
    X = np.random.default_rng(6).standard_normal((3, 5))
    sp = gram_spectrum(X)
    U, s = sp.eigvecs, sp.eigvals
    assert U.shape == (5, 3)
    GramSpectrum(eigvecs=U, eigvals=s, n_obs=3)
    bad = [
        (np.hstack([np.eye(5), np.zeros((5, 1))]), np.ones(6)),   # k > d
        (U, s[:2]),                                       # eigvals not length k
        (U[0], s),                                        # eigvecs not 2-d
        (U, s.reshape(3, 1)),                             # eigvals not 1-d
        (U, s[::-1]),                                     # not sorted descending
        (U, np.array([s[0], s[1], EIGVAL_RTOL * s[0]])),  # at the rank tolerance
        (U, np.array([s[0], s[1], 0.0])),                 # an eigenvalue of 0
        (U, -s[::-1]),                                    # negative
        (U * 1.1, s),                                     # columns not orthonormal
        (U * [1 + 1e-6, 1, 1], s),                        # one norm off by 1e-6
    ]
    for eigvecs, eigvals in bad:
        with pytest.raises(ValueError):
            GramSpectrum(eigvecs=eigvecs, eigvals=eigvals, n_obs=3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), N=st.integers(1, 30), d=st.integers(1, 30))
def test_spectrum_invariants_on_both_sides_of_d_equals_n(seed, N, d):
    X = np.random.default_rng(seed).standard_normal((N, d))
    sp = gram_spectrum(X)
    k = min(N, d)
    assert sp.eigvecs.shape == (d, k) and sp.eigvals.shape == (k,)
    np.testing.assert_allclose(sp.eigvecs.T @ sp.eigvecs, np.eye(k), atol=1e-12)
    assert np.all(np.diff(sp.eigvals) <= 0)
    assert sp.rank == k
    G = X.T @ X
    top = max(sp.eigvals[0], 1.0)
    np.testing.assert_allclose((sp.eigvecs * sp.eigvals) @ sp.eigvecs.T, G,
                               rtol=0, atol=1e-12 * top)


@pytest.mark.parametrize("shape", [(0, 4), (0, 0)])
def test_a_design_with_no_rows_is_rejected_naming_its_shape(shape):
    with pytest.raises(InsufficientData, match=re.escape(str(shape))):
        gram_spectrum(np.empty(shape))


def test_a_design_with_no_columns_is_rejected_naming_its_shape():
    # Before the check, a factored (5, 0) design reached the row blocks of
    # a test set with rows of 0 bytes and divided by zero.
    with pytest.raises(InsufficientData, match=r"^X \(5, 0\) has no columns to factor$"):
        gram_spectrum(np.empty((5, 0)))


@pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
@pytest.mark.parametrize("call", [
    gram_spectrum,
    lambda X: fit(X, np.ones(X.shape[0]), SchattenIndex.FROBENIUS, 1.0),
    lambda X: estimator_operator(X, SchattenIndex.NUCLEAR, 1.0),
], ids=["gram_spectrum", "fit", "estimator_operator"])
def test_a_design_that_is_not_2d_is_rejected_naming_its_shape(call, shape):
    # A (5,) X used to fail unpacking its shape ("not enough values to
    # unpack"), and a (2, 3, 4) X with "too many values to unpack".
    with pytest.raises(DimensionMismatch, match=f"^X {re.escape(str(shape))} must be 2-d"):
        call(np.ones(shape))
