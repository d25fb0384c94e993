import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenreg import GramSpectrum, SchattenIndex, filtered_gram_eigvals, gram_spectrum

FIG1_X = np.diag(np.sqrt(np.arange(1.0, 11.0)))


def test_nuclear_filter_clips_from_below():
    sp = gram_spectrum(FIG1_X)
    out = filtered_gram_eigvals(sp, SchattenIndex.NUCLEAR, 5.0)
    np.testing.assert_allclose(out, [10, 9, 8, 7, 6, 5, 5, 5, 5, 5])


def test_infinite_alpha_on_rank_deficient_x():
    sp = gram_spectrum(np.random.default_rng(0).standard_normal((3, 5)))
    assert np.any(sp.eigvals == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in SchattenIndex:
            out = filtered_gram_eigvals(sp, p, np.inf)
            assert not np.any(np.isnan(out))
            assert np.all(out >= sp.eigvals)


@pytest.mark.parametrize("p", list(SchattenIndex))
def test_alpha_zero_is_identity(p):
    sp = gram_spectrum(np.random.default_rng(0).standard_normal((12, 5)))
    np.testing.assert_array_equal(filtered_gram_eigvals(sp, p, 0.0), sp.eigvals)


def test_frobenius_filter_is_additive():
    sp = gram_spectrum(np.diag(np.sqrt([2.0, 1.0])))
    np.testing.assert_allclose(
        filtered_gram_eigvals(sp, SchattenIndex.FROBENIUS, 0.5), [2.5, 1.5]
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.one_of(st.floats(0.0, 1e6), st.just(np.inf)),
    p=st.sampled_from(list(SchattenIndex)),
    shape=st.sampled_from([(8, 4), (4, 8)]),  # full rank; d > N, singular G
)
def test_filtered_eigvals_dominate(seed, alpha, p, shape):
    # The regularized Gram matrix dominates G in the PSD order: they share
    # eigenvectors, so G-hat >= G is eigenvalue by eigenvalue.
    rng = np.random.default_rng(seed)
    sp = gram_spectrum(rng.standard_normal(shape))
    out = filtered_gram_eigvals(sp, p, alpha)
    assert np.all(out >= sp.eigvals - 1e-12)
    assert out.shape == sp.eigvals.shape


def test_spectrum_validation():
    X = np.random.default_rng(3).standard_normal((6, 3))
    sp = gram_spectrum(X)
    assert sp.n_obs == 6 and sp.n_feat == 3
    assert np.all(np.diff(sp.eigvals) <= 0)
    assert sp.rank == 3

    with pytest.raises(ValueError):
        filtered_gram_eigvals(sp, SchattenIndex.NUCLEAR, -1.0)


def test_rank_deficient_spectrum():
    X = np.random.default_rng(4).standard_normal((3, 6))
    sp = gram_spectrum(X)
    assert sp.rank == 3
    assert np.all(sp.eigvals[3:] <= sp.rank_tol)


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
    k = min(N, d)
    sp = gram_spectrum(X)
    U = sp.eigvecs
    assert U.shape == (d, k) and sp.eigvals.shape == (d,)
    np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-12)
    assert np.all(sp.eigvals[k:] == 0.0)
    G = X.T @ X
    ref = np.clip(np.sort(np.linalg.eigvalsh(G))[::-1], 0.0, None)
    np.testing.assert_allclose(sp.eigvals, ref, rtol=0, atol=1e-10 * ref[0])
    np.testing.assert_allclose((U * sp.eigvals[:k]) @ U.T, G, rtol=0,
                               atol=1e-12 * ref[0])


def test_spectrum_rejects_misshaped_eigvecs_and_nonzero_trailing_eigvals():
    X = np.random.default_rng(6).standard_normal((3, 5))
    sp = gram_spectrum(X)
    U, s = sp.eigvecs, sp.eigvals
    assert U.shape == (5, 3)
    bad = [
        (np.vstack([U, np.zeros((1, 3))]), s),            # d + 1 rows
        (np.hstack([np.eye(5), np.zeros((5, 1))]), s),    # k > d
        (U, s[:4]),                                       # eigvals not length d
        (U, np.concatenate([s[:3], [1e-300, 0.0]])),      # trailing eigval not 0
        (U * 1.1, s),                                     # columns not orthonormal
        (U * [1 + 1e-6, 1, 1], s),                        # one norm off by 1e-6
    ]
    for eigvecs, eigvals in bad:
        with pytest.raises(ValueError):
            GramSpectrum(eigvecs=eigvecs, eigvals=eigvals, n_obs=3, n_feat=5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), N=st.integers(1, 30), d=st.integers(1, 30))
def test_spectrum_invariants_on_both_sides_of_d_equals_n(seed, N, d):
    X = np.random.default_rng(seed).standard_normal((N, d))
    sp = gram_spectrum(X)
    k = min(N, d)
    assert sp.eigvecs.shape == (d, k)
    np.testing.assert_allclose(sp.eigvecs.T @ sp.eigvecs, np.eye(k), atol=1e-12)
    assert np.all(sp.eigvals[k:] == 0.0) and np.all(np.diff(sp.eigvals) <= 0)
    assert sp.rank == k
    G = X.T @ X
    top = max(sp.eigvals[0], 1.0)
    np.testing.assert_allclose((sp.eigvecs * sp.eigvals[:k]) @ sp.eigvecs.T, G,
                               rtol=0, atol=1e-12 * top)
