import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenreg import GramSpectrum, SchattenIndex, gram_spectrum
from schattenreg.exceptions import InsufficientData
from schattenreg.spectrum import gram_matrix

FIG1_X = np.diag(np.sqrt(np.arange(1.0, 11.0)))


def test_nuclear_filter_clips_from_below():
    sp = gram_spectrum(FIG1_X)
    r, q = SchattenIndex.NUCLEAR.shrinkage(sp.eigvals, 5.0)
    np.testing.assert_allclose(sp.eigvals / r, [10, 9, 8, 7, 6, 5, 5, 5, 5, 5])
    np.testing.assert_allclose(q, 1.0 - r)


def test_infinite_alpha_on_rank_deficient_x():
    sp = gram_spectrum(np.random.default_rng(0).standard_normal((3, 5)))
    assert np.any(sp.eigvals == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in SchattenIndex:
            r, q = p.shrinkage(sp.eigvals, np.inf)
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


def test_gram_matrix_of_row_blocks_is_the_stack_gram():
    # 300 columns make three slabs; the blocks are uneven and made one at a
    # time.  The sum matches one product over the stack to rounding, and the
    # result is exactly symmetric.
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((m, 300)) for m in (150, 7, 1, 90)]
    X = np.concatenate(blocks)
    G = gram_matrix(b for b in blocks)
    np.testing.assert_allclose(G, X.T @ X, rtol=0, atol=1e-13 * np.abs(X.T @ X).max())
    assert np.array_equal(G, G.T)
    assert np.array_equal(gram_matrix([X]), X.T @ X)  # one block: one product


@pytest.mark.parametrize("shape", [(0, 4), (0, 0)])
def test_a_design_with_no_rows_is_rejected_naming_its_shape(shape):
    with pytest.raises(InsufficientData, match=re.escape(str(shape))):
        gram_spectrum(np.empty(shape))


def test_a_design_with_no_columns_is_rejected_naming_its_shape():
    # Before the check, a factored (5, 0) design reached the row blocks of
    # a test set with rows of 0 bytes and divided by zero.
    with pytest.raises(InsufficientData, match=r"^X \(5, 0\) has no columns to factor$"):
        gram_spectrum(np.empty((5, 0)))
