import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, hyp2f1, roots_jacobi, roots_legendre

from schattenreg import (
    Atoms,
    DiagonalEnsembleConfig,
    MarchenkoPastur,
    PowerLaw,
    SchattenIndex,
    SphericalGaussianConfig,
    appell_f1,
    child_seeds,
    err_nuclear_closed,
    err_spectral_closed,
    error_integrals,
    estimator_operator,
    fit,
    gram_spectrum,
    mp_cdf,
    mp_partial_moment,
    mp_pdf,
    oracle_ridge_alpha,
    sample_diagonal,
    sample_spherical,
)
from schattenreg import theory
from schattenreg.exceptions import DomainError, InvalidConfig, QuadratureFailure


def err_mp(p, alpha, lam, beta, sigma):
    """Error of estimator p against the MP law at aspect ratio lam."""
    (q,) = error_integrals((p,), MarchenkoPastur(lam), alpha, lam)
    return q.error(beta, sigma)


def err_density(p, alpha, lam, beta, sigma, density):
    """Error of estimator p against a spectral density, prefactor lam."""
    (q,) = error_integrals((p,), density, alpha, lam)
    return q.error(beta, sigma)


# ---------------------------------------------------------------------------
# Independent oracles (direct quadrature on the unsubstituted density; the
# truncated double series for F1)
# ---------------------------------------------------------------------------

def mp_moment_direct(mp: MarchenkoPastur, r: float, lo=None, hi=None) -> float:
    lo = mp.support_lo if lo is None else lo
    hi = mp.support_hi if hi is None else hi
    val, _ = quad(lambda x: x**r * mp_pdf(mp, x), lo, hi, limit=400,
                  epsabs=1e-12, epsrel=1e-12)
    return val


def f1_series(a, b, bp, c, x, y, tol=1e-14, max_order=400):
    """Truncated double hypergeometric series; converges for |x|, |y| < 1."""
    total = 0.0
    for s in range(max_order):
        block = 0.0
        for m in range(s + 1):
            n = s - m
            log_mag = (
                gammaln(a + s) - gammaln(a)
                + gammaln(c) - gammaln(c + s)
                - gammaln(m + 1) - gammaln(n + 1)
            )
            # Pochhammer (b)_m and (bp)_n by direct product (b may be <= 0).
            pb = np.prod([b + i for i in range(m)]) if m else 1.0
            pbp = np.prod([bp + i for i in range(n)]) if n else 1.0
            block += np.exp(log_mag) * pb * pbp * x**m * y**n
        total += block
        if s > 5 and abs(block) < tol * max(1.0, abs(total)):
            return total
    raise RuntimeError("series did not converge")


# Closed forms that check the Gauss-rule engine without sharing its code:
# the diagonal-ensemble Nuclear and Spectral errors under a power law
# (polynomial integrals), and the spherical Ridge error through the MP
# Stieltjes transform m0(a) = int 1/(x + a) dMP and its derivative in a
# (Dobriban & Wager 2018), in a rationalized form that keeps full precision
# at large a.

def diagonal_nuclear_closed(alpha, lam, beta, sigma, g):
    b2, s2, m = beta**2, sigma**2, min(alpha, 1.0)
    return lam * (g * (b2 * (m**(g + 1) / (g + 1) - 2 * m**(g + 2) / ((g + 2) * alpha)
                             + m**(g + 3) / ((g + 3) * alpha**2))
                       + s2 * m**(g + 2) / ((g + 2) * alpha**2))
                  + s2 * (1 - m**g))


def diagonal_spectral_closed(alpha, lam, beta, sigma, g):
    b2, s2 = beta**2, sigma**2
    return lam * (b2 * (alpha / (1 + alpha))**2 * g / (g + 1) + s2 / (1 + alpha)**2)


def spherical_ridge_stieltjes(a, lam, beta, sigma):
    b2, s2 = beta**2, sigma**2
    D = np.sqrt((1 + lam + a)**2 - 4 * lam)
    den = D + 1 - lam + a
    m0 = 2 / den
    dm0 = -2 * ((1 + lam + a) / D + 1) / den**2
    return lam * (b2 * a * a * (-dm0) + s2 * (m0 + a * dm0))


# ---------------------------------------------------------------------------
# Marchenko-Pastur density and CDF
# ---------------------------------------------------------------------------

def test_mp_pdf_zero_at_endpoints_and_outside():
    mp = MarchenkoPastur(0.5)
    assert mp_pdf(mp, mp.support_lo) == 0.0
    assert mp_pdf(mp, mp.support_hi) == 0.0
    assert mp_pdf(mp, mp.support_lo - 0.01) == 0.0
    assert mp_pdf(mp, mp.support_hi + 0.01) == 0.0
    assert mp_pdf(mp, 1.0) > 0.0


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_mp_moments_by_quadrature(lam):
    mp = MarchenkoPastur(lam)
    assert mp_moment_direct(mp, 0) == pytest.approx(1.0, abs=1e-8)
    assert mp_moment_direct(mp, 1) == pytest.approx(1.0, abs=1e-8)
    assert mp_moment_direct(mp, -1) == pytest.approx(1.0 / (1.0 - lam), abs=1e-8)
    assert mp_moment_direct(mp, 2) == pytest.approx(1.0 + lam, abs=1e-8)


def test_mp_cdf_limits_and_midpoint():
    mp = MarchenkoPastur(0.5)
    assert mp_cdf(mp, mp.support_lo - 1.0) == 0.0
    assert mp_cdf(mp, mp.support_hi + 1.0) == 1.0
    oracle = mp_moment_direct(mp, 0, hi=1.0)
    assert mp_cdf(mp, 1.0) == pytest.approx(oracle, abs=1e-8)


def test_mp_cdf_monotone():
    mp = MarchenkoPastur(0.3)
    xs = np.linspace(mp.support_lo, mp.support_hi, 30)
    cdf = [mp_cdf(mp, x) for x in xs]
    assert np.all(np.diff(cdf) >= -1e-12)


@pytest.mark.parametrize("r", [-1, 1, 2])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_partial_moments_match_direct_quadrature(r, lam):
    mp = MarchenkoPastur(lam)
    for frac in (0.25, 0.5, 0.9):
        alpha = mp.support_lo + frac * (mp.support_hi - mp.support_lo)
        oracle = mp_moment_direct(mp, r, hi=alpha)
        assert mp_partial_moment(mp, r, alpha) == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# Spherical-ensemble error curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", list(SchattenIndex))
def test_alpha_zero_is_ols_error(p):
    assert err_mp(p, 0.0, 0.5, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_spectral_quadrature_matches_closed_form():
    for alpha in np.logspace(-2, 3, 12):
        q = err_mp(SchattenIndex.SPECTRAL, alpha, 0.5, 1.0, 1.0)
        assert q == pytest.approx(err_spectral_closed(alpha, 0.5, 1.0, 1.0), abs=1e-6)


def test_spectral_closed_hand_values():
    assert err_spectral_closed(0.0, 0.5, 1.0, 1.0) == pytest.approx(1.0)
    assert err_spectral_closed(1.0, 0.5, 1.0, 1.0) == pytest.approx(0.375)
    assert err_spectral_closed(np.inf, 0.5, 1.0, 1.0) == pytest.approx(0.5)
    assert err_spectral_closed(1e9, 0.5, 2.0, 1.0) == pytest.approx(0.5 * 4.0, rel=1e-6)


@pytest.mark.parametrize("closed", [err_spectral_closed, err_nuclear_closed])
@pytest.mark.parametrize("alpha", [-0.5, np.nan])
def test_closed_forms_reject_bad_alpha(closed, alpha):
    # Checked by the closed forms themselves: -0.5 would give 4.5 (Spectral)
    # or the OLS value (Nuclear), NaN a NaN after a quadrature warning.
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        closed(alpha, 0.5, 1.0, 1.0)


def test_nuclear_inactive_below_support():
    mp = MarchenkoPastur(0.5)
    alpha = mp.support_lo / 2.0
    assert err_nuclear_closed(alpha, 0.5, 1.0, 1.0) == pytest.approx(1.0)
    assert err_mp(SchattenIndex.NUCLEAR, alpha, 0.5, 1.0, 1.0) == \
        pytest.approx(1.0, abs=1e-9)


def test_nuclear_closed_matches_quadrature_inside_support():
    q = err_mp(SchattenIndex.NUCLEAR, 1.2, 0.5, 1.0, 1.0)
    assert err_nuclear_closed(1.2, 0.5, 1.0, 1.0) == pytest.approx(q, abs=1e-6)


def test_nuclear_null_model_limit():
    for lam in (0.2, 0.7):
        assert err_nuclear_closed(1e9, lam, 1.0, 1.0) == pytest.approx(lam, rel=1e-6)
        assert err_nuclear_closed(np.inf, lam, 1.0, 1.0) == pytest.approx(lam)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_nuclear_branch_continuity(lam):
    mp = MarchenkoPastur(lam)
    for edge in (mp.support_lo, mp.support_hi):
        below = err_nuclear_closed(edge * (1 - 1e-9), lam, 1.0, 1.0)
        above = err_nuclear_closed(edge * (1 + 1e-9), lam, 1.0, 1.0)
        at = err_nuclear_closed(edge, lam, 1.0, 1.0)
        assert abs(below - at) < 1e-8 and abs(above - at) < 1e-8


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------

def test_f1_at_origin():
    assert appell_f1(1.5, 2.0, 1.0, 2.5, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_f1_reduces_to_gauss_2f1():
    val = appell_f1(1.5, 2.0, 0.0, 2.5, 0.3, 0.9)
    assert val == pytest.approx(hyp2f1(1.5, 2.0, 2.5, 0.3), rel=1e-10)


def test_f1_matches_double_series():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.uniform(0.5, 3.0)
        c = a + rng.uniform(0.5, 2.0)
        b, bp = rng.uniform(-2.0, 2.0, size=2)
        x, y = rng.uniform(-0.4, 0.4, size=2)
        assert appell_f1(a, b, bp, c, x, y) == pytest.approx(
            f1_series(a, b, bp, c, x, y), abs=1e-10, rel=1e-10
        )


def test_f1_domain_errors():
    with pytest.raises(DomainError):
        appell_f1(-0.5, 1.0, 1.0, 2.0, 0.1, 0.1)  # a <= 0
    with pytest.raises(DomainError):
        appell_f1(1.0, 1.0, 1.0, 1.5, 1.2, 0.1)  # pole at u = 1/x


# ---------------------------------------------------------------------------
# Diagonal-ensemble error curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", list(SchattenIndex))
def test_spherical_quadrature_large_sigma_returns(p):
    # The error estimate grows with sigma^2, so a fixed absolute failure
    # bound rejected this accurate integral.
    err = err_mp(p, 1.0, 0.5, 1.0, 1e3)
    if p is SchattenIndex.SPECTRAL:
        assert err == pytest.approx(err_spectral_closed(1.0, 0.5, 1.0, 1e3), rel=1e-10)
    assert np.isfinite(err) and err > 0


@pytest.mark.parametrize("lam", [1 - 1e-6, 1 - 1e-7, 1 - 1e-8, 1 - 1e-9])
def test_spherical_quadrature_near_lam_one_returns(lam):
    # The error grows like sigma^2 / (1 - lam): up to 1e9 here, where a bound
    # fixed at 1e-9 max(beta^2, sigma^2) rejected a gap of 6e-16 relative.
    alphas = np.array([1e-3, 1e-2, 1.0])
    q = err_mp(SchattenIndex.SPECTRAL, alphas, lam, 1.0, 1.0)
    closed = [err_spectral_closed(a, lam, 1.0, 1.0) for a in alphas]
    # Holds only if the MP support end (1 - sqrt(lam))^2 is computed without
    # cancelling 1 - sqrt(lam), whose rounding is eps / (1 - sqrt(lam)) relative.
    np.testing.assert_allclose(q, closed, rtol=1e-12)



def test_mp_rule_near_lam_one_still_fails_for_nuclear():
    # The MP rule does not converge here (a gap of 3.3e-9 at alpha = 5.18 on
    # values of order 1): combining the bias and variance integrals must not
    # loosen the n-vs-2n check that reports it.
    with pytest.raises(QuadratureFailure, match="at alpha = 5.1"):
        err_mp(SchattenIndex.NUCLEAR, np.logspace(-4, 3, 50),
                                 1 - 1e-7, 1.0, 1.0)


def test_quadrature_failure_names_the_estimator():
    # One call integrates every estimator, so the message must say which one
    # failed: here Nuclear, on the same non-converging MP rule as above.
    integrals = error_integrals(tuple(SchattenIndex), MarchenkoPastur(1 - 1e-7),
                                np.logspace(-4, 3, 50), 1 - 1e-7)
    assert [q.p for q in integrals] == list(SchattenIndex)
    with pytest.raises(QuadratureFailure, match=r"^NUCLEAR MP quadrature .* at alpha = 5\.1"):
        integrals[0].error(1.0, 1.0)


def _frobenius_integrals(measure, lam):
    return error_integrals((SchattenIndex.FROBENIUS,), measure, 1.0, lam)


POWER_LAW = PowerLaw(2.0)


@pytest.mark.parametrize("call, match", [
    # lam = d/N is the error's prefactor: -0.5 gave -0.193, NaN a NaN and
    # 3.0 a value, all without an error.
    *[(lambda lam=lam: _frobenius_integrals(POWER_LAW, lam), "lam must be finite")
      for lam in (-0.5, 0.0, np.nan, np.inf, 3.0)],
    (lambda: _frobenius_integrals(MarchenkoPastur(0.5), 0.3), "differs from the MP law"),
    # A NaN gap slipped past the n-vs-2n check; an inf one overflowed.
    *[(lambda b=b, s=s: _frobenius_integrals(POWER_LAW, 0.5)[0].error(b, s),
       f"^{field} must be finite, got ")
      for b, s, field in ((np.nan, 1.0, "beta"), (1.0, np.inf, "sigma"),
                          (-np.inf, 1.0, "beta"), (1.0, np.nan, "sigma"))],
], ids=["lam--0.5", "lam-0", "lam-nan", "lam-inf", "lam-3", "mp-lam-mismatch",
        "beta-nan", "sigma-inf", "beta--inf", "sigma-nan"])
def test_theory_rejects_bad_lam_beta_and_sigma(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# Longer than one alpha block, with both ends of the filter range.
SHARED_RULE_GRID = np.concatenate([[0.0], np.logspace(-4, 4, theory._BLOCK + 13), [np.inf]])


@pytest.mark.parametrize("lam, measure", [
    *[(lam, theory.MarchenkoPastur(lam)) for lam in (0.1, 0.5, 0.9)],
    *[(0.5, PowerLaw(gamma)) for gamma in (0.5, 2.0)],
    (0.5, Atoms([0.0, 0.2, 0.7, 1.0], [0.25, 0.25, 0.3, 0.2])),
], ids=["mp-0.1", "mp-0.5", "mp-0.9", "powerlaw-0.5", "powerlaw-2", "tabulated-atom-0"])
def test_shared_rule_sums_equal_one_model_sums(lam, measure):
    # The rule is built once for all estimators; each one's sums must be those
    # of a call for it alone, bit for bit.
    shared = error_integrals(tuple(SchattenIndex), measure, SHARED_RULE_GRID, lam)
    for p, q in zip(SchattenIndex, shared):
        (alone,) = error_integrals((p,), measure, SHARED_RULE_GRID, lam)
        assert q.p is p and alone.p is p
        assert np.array_equal(q.sums, alone.sums)


@pytest.mark.parametrize("p", list(SchattenIndex))
@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_quadrature_errors_scale_with_beta_and_sigma_squared(p, c):
    dens = PowerLaw(2.0)
    for alpha, lam, beta, sigma in [(1.0, 0.5, 1.0, 1.0), (0.5, 0.3, 1.0, 2.0),
                                    (3.0, 0.9, 0.7, 0.4)]:
        base = err_mp(p, alpha, lam, beta, sigma)
        assert err_mp(p, alpha, lam, c * beta, c * sigma) == \
            pytest.approx(c * c * base, rel=1e-9)
        base = err_density(p, alpha, lam, beta, sigma, dens)
        assert err_density(p, alpha, lam, c * beta, c * sigma, dens) == \
            pytest.approx(c * c * base, rel=1e-9)


@pytest.mark.parametrize("p", list(SchattenIndex))
def test_diagonal_alpha_zero(p):
    dens = PowerLaw(2.0)
    assert err_density(p, 0.0, 0.5, 1.0, 0.7, dens) == \
        pytest.approx(0.5 * 0.49, abs=1e-9)


@pytest.mark.parametrize("p", [SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS])
def test_diagonal_null_model_limit(p):
    # alpha -> inf error tends to lam beta^2 E[x] = lam beta^2 gamma/(gamma+1).
    dens = PowerLaw(2.0)
    target = 0.5 * (2.0 / 3.0)
    assert err_density(p, 1e8, 0.5, 1.0, 1.0, dens) == \
        pytest.approx(target, rel=1e-5)
    assert err_density(p, np.inf, 0.5, 1.0, 1.0, dens) == \
        pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, 7.0])
@pytest.mark.parametrize("p", [SchattenIndex.NUCLEAR, SchattenIndex.SPECTRAL])
def test_diagonal_quadrature_matches_closed_forms(p, gamma):
    oracle = {SchattenIndex.NUCLEAR: diagonal_nuclear_closed,
              SchattenIndex.SPECTRAL: diagonal_spectral_closed}[p]
    alphas = np.logspace(-10, 5, 31)
    dens = PowerLaw(gamma)
    for beta, sigma in [(1.0, 0.5), (1.0, 3.5)]:
        got = err_density(p, alphas, 0.5, beta, sigma, dens)
        want = [oracle(a, 0.5, beta, sigma, gamma) for a in alphas]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9, 0.99])
def test_spherical_ridge_matches_stieltjes_closed_form(lam):
    alphas = np.logspace(-3, 5, 41)
    for sigma in (0.5, 3.5):
        got = err_mp(SchattenIndex.FROBENIUS, alphas, lam, 1.0, sigma)
        want = [spherical_ridge_stieltjes(a, lam, 1.0, sigma) for a in alphas]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # A float in gives a float out, equal to the array entry.
    one = err_mp(SchattenIndex.FROBENIUS, alphas[7], lam, 1.0, 3.5)
    assert type(one) is float and one == got[7]


def test_diagonal_theory_matches_simulation():
    # Monte-Carlo oracle at modest size: mean empirical error within 3 SE.
    dens = PowerLaw(2.0)
    cfg = DiagonalEnsembleConfig(
        n_obs=100, n_feat=50, spectral_density=dens, beta=1.0, sigma=0.5
    )
    p, alpha = SchattenIndex.FROBENIUS, 0.1
    errs = []
    for seed in child_seeds(7, 100):
        ds = sample_diagonal(cfg, seed=seed)
        errs.append(ds.test.mse(fit(ds.X_tr, ds.Y_tr, p, alpha).beta_hat[:, None])[0])
    errs = np.asarray(errs)
    se = errs.std(ddof=1) / np.sqrt(len(errs))
    theory = err_density(p, alpha, 0.5, 1.0, 0.5, dens)
    assert abs(errs.mean() - theory) < 3 * se


def test_tabulated_density_quadrature_is_weighted_sum():
    dens = Atoms([0.25, 1.0], [0.5, 0.5])
    val = err_density(SchattenIndex.FROBENIUS, 1.0, 0.5, 1.0, 0.0, dens)
    expected = 0.5 * 0.5 * (0.25 * (1.0 / 1.25) ** 2 + 1.0 * (1.0 / 2.0) ** 2)
    assert val == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", list(SchattenIndex))
def test_tabulated_density_atom_at_zero(p):
    # An atom at x = 0 carries no error for any p and alpha: the estimator
    # gives its direction weight 0 and the test features vanish there
    # (test_diagonal_theory_is_exact_on_the_empirical_measure checks this
    # against the exact error of the estimator).
    dens = Atoms([0.0, 0.5], [0.5, 0.5])
    lam, b2, s2, alpha, x = 0.5, 1.0, 0.49, 0.3, 0.5
    if p is SchattenIndex.SPECTRAL:
        at_x = b2 * x * (alpha / (1 + alpha)) ** 2 + s2 / (1 + alpha) ** 2
    elif p is SchattenIndex.FROBENIUS:
        at_x = b2 * x * (alpha / (x + alpha)) ** 2 + s2 * (x / (x + alpha)) ** 2
    else:
        at_x = s2  # x >= alpha: the filter leaves x alone
    assert err_density(p, alpha, lam, 1.0, 0.7, dens) == \
        pytest.approx(lam * 0.5 * at_x, rel=1e-14)
    assert err_density(p, np.inf, lam, 1.0, 0.7, dens) == \
        pytest.approx(lam * b2 * 0.25, rel=1e-14)
    # At alpha = 0 every filter is the identity: OLS, with sigma^2 from the
    # atom at 0.5 alone.
    assert err_density(p, 0.0, lam, 1.0, 0.7, dens) == \
        pytest.approx(lam * 0.5 * s2, rel=1e-14)


@pytest.mark.parametrize("low_atom", [0.0, 0.1])
@pytest.mark.parametrize("p", list(SchattenIndex))
def test_diagonal_theory_is_exact_on_the_empirical_measure(p, low_atom):
    # The diagonal ensemble's train and test Gram matrices are both diag(lam),
    # so the expected test error of L = estimator_operator(X_tr, p, alpha),
    # (beta^2 ||X_te (L X_tr - I)||_F^2 + sigma^2 ||X_te L||_F^2) / N, is the
    # theory on the empirical measure of the sampled atoms, with no Monte
    # Carlo noise, an atom at 0 included.  The test set is H = X_te^T X_te,
    # so ||X_te A||_F^2 = tr(A^T H A) and the column sums of X_te^2 are
    # diag(H).
    N, d, beta, sigma = 60, 30, 1.0, 0.7
    dens = Atoms([low_atom, 0.25, 1.0], [0.3, 0.3, 0.4])
    ds = sample_diagonal(DiagonalEnsembleConfig(N, d, dens, beta=beta, sigma=sigma), seed=3)
    H = ds.test.H
    assert ds.test.n == N
    lam_sampled = np.diag(H)
    atoms = np.array([low_atom, 0.25, 1.0])
    counts = np.array([np.sum(np.isclose(lam_sampled, a, rtol=0, atol=1e-12)) for a in atoms])
    assert counts.sum() == d and counts[0] > 0
    empirical = Atoms(atoms, counts / d)
    for alpha in (0.0, 0.3, 3.0):
        L = estimator_operator(ds.X_tr, p, alpha)
        bias = L @ ds.X_tr - np.eye(d)
        exact = (beta ** 2 * np.sum(bias * (H @ bias)) + sigma ** 2 * np.sum(L * (H @ L))) / N
        theory = err_density(p, alpha, d / N, beta, sigma, empirical)
        assert theory == pytest.approx(exact, rel=1e-12)


class SpectrumAtoms:
    """A measure duck-typed to the engine: atoms at the d eigenvalues s_i of a
    Gram matrix, with bias weights 1/d and variance weights 1/(d s_i)."""

    label = "empirical"

    def __init__(self, s):
        self.s = s

    def rule(self, alpha, n):
        d = self.s.size
        return self.s, np.full(d, 1.0 / d), 1.0 / (d * self.s)


@pytest.mark.parametrize("p", list(SchattenIndex))
def test_spherical_theory_is_exact_on_the_empirical_measure(p):
    # Spherical test rows have covariance I / N (rows scaled as the training
    # rows), so the expected test error of L = estimator_operator(X, p, alpha)
    # over beta0 ~ N(0, beta^2 I) and the noise is
    # (beta^2 ||L X - I||_F^2 + sigma^2 ||L||_F^2) / N.  With s_i the
    # eigenvalues of X^T X and (r_i, q_i) their shrinkage, the two norms are
    # sum q_i^2 and sum r_i^2 / s_i: lam = d/N times the sums of q^2 against
    # the bias weights 1/d and of r^2 against the variance weights 1/(d s_i).
    N, d, beta, sigma = 60, 30, 1.0, 0.7
    X = sample_spherical(SphericalGaussianConfig(N, d, n_test=1), seed=3).X_tr
    s = gram_spectrum(X).eigvals
    assert s[-1] > 1e-3 * s[0]  # full rank: every atom carries its variance weight
    for alpha in (0.0, 0.5 * (s[0] + s[-1]), 1e3 * s[0]):
        L = estimator_operator(X, p, alpha)
        bias = L @ X - np.eye(d)
        exact = (beta ** 2 * np.sum(bias * bias) + sigma ** 2 * np.sum(L * L)) / N
        theory = err_density(p, alpha, d / N, beta, sigma, SpectrumAtoms(s))
        assert theory == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# Oracle ridge strength and curve-level properties
# ---------------------------------------------------------------------------

def test_oracle_ridge_alpha():
    assert oracle_ridge_alpha(1.0, 1.0) == 1.0
    assert oracle_ridge_alpha(1.0, 0.0) == 0.0
    assert oracle_ridge_alpha(2.0, 1.0) == 0.25
    with pytest.raises(ZeroDivisionError):
        oracle_ridge_alpha(0.0, 1.0)


def test_oracle_ridge_dominates_on_grid():
    alphas = np.logspace(-3, 3, 80)
    mins = {}
    for p in SchattenIndex:
        errs = [err_mp(p, a, 0.5, 1.0, 1.0) for a in alphas]
        mins[p] = min(errs)
    assert mins[SchattenIndex.FROBENIUS] <= mins[SchattenIndex.NUCLEAR] + 1e-8
    assert mins[SchattenIndex.FROBENIUS] <= mins[SchattenIndex.SPECTRAL] + 1e-8


@pytest.mark.parametrize("measure, lam, rtol", [
    (MarchenkoPastur(0.1), 0.1, 1e-9), (MarchenkoPastur(0.5), 0.5, 1e-9),
    (MarchenkoPastur(0.9), 0.9, 1e-9), (PowerLaw(0.5), 0.5, 1e-9), (PowerLaw(2.0), 0.5, 1e-9),
    (Atoms([0.0, 0.3, 1.0], [0.2, 0.5, 0.3]), 0.5, 1e-12),
], ids=["mp-0.1", "mp-0.5", "mp-0.9", "power-law-0.5", "power-law-2", "atoms"])
def test_no_model_at_any_alpha_beats_oracle_ridge(measure, lam, rtol):
    # The Bayes floor: at each eigenvalue x the error beta^2 w_b q^2 + sigma^2
    # w_v r^2 with w_b / w_v = x is least at r = x / (x + sigma^2 / beta^2),
    # ridge's filter at the oracle alpha, so no filter of any p does better.
    # The rules differ with alpha, so the bound is the engine's own 1e-9
    # (exact sums on atoms, so 1e-12 there).
    alphas = np.r_[0.0, np.logspace(-4, 4, 300), np.inf]
    for beta, sigma in ((1.0, 0.5), (1.0, 1.0), (2.0, 1.0), (0.5, 2.0)):
        (ridge,) = error_integrals((SchattenIndex.FROBENIUS,), measure,
                                   oracle_ridge_alpha(beta, sigma), lam)
        floor = ridge.error(beta, sigma)
        slack = rtol * max(beta * beta, sigma * sigma, floor)
        for q in error_integrals(tuple(SchattenIndex), measure, alphas, lam):
            assert np.all(q.error(beta, sigma) >= floor - slack), (q.p, beta, sigma)


def test_error_integrals_grid_matches_spectral_closed_form():
    alphas = np.logspace(-2, 2, 9)
    (q,) = error_integrals((SchattenIndex.SPECTRAL,), MarchenkoPastur(0.5), alphas, 0.5)
    errors = q.error(1.0, 1.0)
    assert errors.shape == alphas.shape and np.all(errors >= 0)
    closed = [err_spectral_closed(a, 0.5, 1.0, 1.0) for a in alphas]
    np.testing.assert_allclose(errors, closed, atol=1e-8)


# ---------------------------------------------------------------------------
# Gauss rules (Golub-Welsch) against scipy's, and the Radau rule's moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [32, 64])
def test_legendre_rule_matches_scipy(n):
    t, w = theory._legendre(n)
    t_ref, w_ref = roots_legendre(n)
    np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w, w_ref, rtol=1e-11)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, 7.0, 20.0])
@pytest.mark.parametrize("n", [31, 63])  # the interior nodes of the Radau rules
def test_gauss_jacobi_rule_matches_scipy(n, gamma):
    t, w = theory._gauss_jacobi(n, 0.0, gamma)
    t_ref, w_ref = roots_jacobi(n, 0.0, gamma)
    np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w, w_ref, rtol=1e-11)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, 7.0, 20.0])
@pytest.mark.parametrize("n", [32, 64])
def test_radau_rule_integrates_moments_exactly(n, gamma):
    # An n-node Radau rule is exact for degree 2n - 2: the k-th moment of
    # gamma s^(gamma-1) ds on [0, 1] is gamma / (gamma + k).
    s, w = theory._radau(n, gamma)
    assert s[0] == 0.0
    for k in range(2 * n - 1):
        assert abs(np.sum(w * s ** k) - gamma / (gamma + k)) <= 1e-14, k


# ---------------------------------------------------------------------------
# Rule rows: edge rows built once against a construction per alpha
# ---------------------------------------------------------------------------

def mp_rule_per_alpha(mp, alpha, n):
    """The MP rule row of one alpha, built whole: both base panels split at
    theta(alpha) and every node mapped to (x, w_b, w_v), the weights of dMP
    and x^-1 dMP."""
    lo, span = mp.support_lo, mp.support_hi - mp.support_lo
    theta_e = min(0.5 * np.pi, 4.0 * np.sqrt(lo / span))
    theta_alpha = np.arcsin(np.sqrt(np.clip((np.array([[alpha]]) - lo) / span, 0.0, 1.0)))
    thetas, weights = [], []
    for a, b, log in ((0.0, theta_e, False), (theta_e, 0.5 * np.pi, True)):
        cut = np.clip(theta_alpha, a, b)
        for lo_, hi_ in ((a, cut), (cut, b)):
            th, w = theory._legendre_panel(lo_, hi_, n, log)
            thetas.append(th)
            weights.append(w)
    s, c = np.sin(np.hstack(thetas)), np.cos(np.hstack(thetas))
    x = lo + span * s * s
    w_b = np.hstack(weights) * span * span * (s * c) ** 2 / (np.pi * mp.lam * x)
    return x[0], w_b[0], w_b[0] / x[0]


def power_law_rule_per_alpha(pl, alpha, n):
    """The power-law rule row of one alpha, built whole: nodes x, bias weights
    x w and variance weights w."""
    gamma, alpha = pl.gamma, np.array([[alpha]])
    floor = max(np.exp(-50.0 / gamma), np.finfo(float).tiny)
    m = np.where(alpha > 0.0, np.clip(alpha, floor, 1.0), 1.0)
    s, ws = theory._radau(n, gamma)
    x_low, w_low = m * s, m ** gamma * ws
    x_high, w_high = theory._legendre_panel(m, 1.0, n, log=True)
    w_high = w_high * gamma * x_high ** (gamma - 1.0)
    x, w = np.hstack([x_low, x_high])[0], np.hstack([w_low, w_high])[0]
    return x, x * w, w


class TwoPanels(theory._PanelRule):
    """A test-only measure defined by its panels, its cut and its split alone:
    two Gauss-Legendre panels in x, on [0, 0.25] and [0.25, 1], cut at alpha;
    bias weights x w and variance weights w."""

    label = "two-panels"

    def _panels(self):
        return ((0.0, 0.25), (0.25, 1.0))

    def _cut(self, alpha):
        return alpha

    def _split(self, panel, t, n):
        a, b = panel
        halves = [theory._legendre_panel(p, q, n, log=False) for p, q in ((a, t), (t, b))]
        x, w = (np.hstack(h) for h in zip(*halves))
        return x, x * w, w


def two_panels_rule_per_alpha(measure, alpha, n):
    """The TwoPanels row of one alpha, built whole: each panel split at alpha
    clipped to it."""
    nodes, weights = [], []
    for a, b in measure._panels():
        cut = np.clip(np.array([[alpha]]), a, b)
        for lo, hi in ((a, cut), (cut, b)):
            x, w = theory._legendre_panel(lo, hi, n, log=False)
            nodes.append(x)
            weights.append(w)
    x, w = np.hstack(nodes)[0], np.hstack(weights)[0]
    return x, x * w, w


def _with_neighbours(a):
    return [np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)]


def _assert_rows_equal_per_alpha(measure, alphas, n, per_alpha):
    # All alphas in one column, so that edge rows and cut rows share a block,
    # and each alone, so that an alpha at an edge is an all-edge block, whose
    # rule is that edge row, (1, K).
    together = measure.rule(np.array(alphas)[:, None], n)
    assert len(together) == 3
    for k, a in enumerate(alphas):
        refs = per_alpha(measure, a, n)
        alone = measure.rule(np.array([[a]]), n)
        for rows in ([row[k] for row in together], [row[0] for row in alone]):
            assert all(np.array_equal(row, ref) for row, ref in zip(rows, refs, strict=True)), a


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("lam", [0.01, 0.1, 0.5, 0.9, 1 - 1e-6])
def test_mp_rule_rows_equal_the_per_alpha_construction(lam, n):
    mp = MarchenkoPastur(lam)
    lo, span = mp.support_lo, mp.support_hi - mp.support_lo
    theta_e = min(0.5 * np.pi, 4.0 * np.sqrt(lo / span))
    # The alpha at theta_e: the boundary between the base panels, or the top
    # of the support when theta_e = pi/2 (lam 0.01 and 0.1).
    at_e = lo + span * np.sin(theta_e) ** 2
    assert np.arcsin(np.sqrt((at_e - lo) / span)) == theta_e
    alphas = [0.0, *_with_neighbours(lo), *_with_neighbours(at_e),
              lo + 0.5 * (at_e - lo), lo + 0.5 * span, mp.support_hi, 2 * mp.support_hi,
              np.inf]
    _assert_rows_equal_per_alpha(mp, alphas, n, mp_rule_per_alpha)


@pytest.mark.parametrize("n", [32, 64])
# At gamma 0.01, e^(-50/gamma) underflows to 0: the floor is the smallest normal float.
@pytest.mark.parametrize("gamma", [0.01, 0.1, 2.0, 20.0])
def test_power_law_rule_rows_equal_the_per_alpha_construction(gamma, n):
    floor = max(np.exp(-50.0 / gamma), np.finfo(float).tiny)
    alphas = [0.0, *_with_neighbours(floor), 1e-3, 0.5, np.nextafter(1.0, 0.0), 1.0, 2.0,
              np.inf]
    _assert_rows_equal_per_alpha(PowerLaw(gamma), alphas, n, power_law_rule_per_alpha)


@pytest.mark.parametrize("n", [32, 64])
def test_panel_rule_rows_equal_the_per_alpha_construction(n):
    # _PanelRule alone, on a measure that declares only _panels, _cut and _split.
    alphas = [0.0, np.nextafter(0.0, 1.0), 0.1, *_with_neighbours(0.25), 0.5,
              *_with_neighbours(1.0), np.inf]
    _assert_rows_equal_per_alpha(TwoPanels(), alphas, n, two_panels_rule_per_alpha)


def test_cached_rule_rows_are_read_only_and_rules_return_copies():
    measures = (MarchenkoPastur(0.5), PowerLaw(2.0), TwoPanels())
    for measure in measures:
        assert len(measure._edge_rows(32)) == 3
        for cached in measure._edge_rows(32):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0
    alpha = np.array([[0.0], [np.inf]])
    for measure in measures:
        before = [a.copy() for a in measure.rule(alpha, 32)]
        for a in measure.rule(alpha, 32):
            a[...] = np.nan
        assert all(np.array_equal(a, b) for a, b in zip(measure.rule(alpha, 32), before))


@pytest.mark.parametrize("measure", [MarchenkoPastur(0.5), PowerLaw(2.0)], ids=["mp", "power-law"])
def test_nan_alpha_is_rejected_by_the_shrinkage_check(measure):
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        error_integrals(tuple(SchattenIndex), measure, [0.5, np.nan, 2.0], 0.5)


# ---------------------------------------------------------------------------
# The engine against its per-block loop
# ---------------------------------------------------------------------------

PER_ALPHA = {MarchenkoPastur: mp_rule_per_alpha, PowerLaw: power_law_rule_per_alpha,
             TwoPanels: two_panels_rule_per_alpha}


def reference_sums(models, measure, alphas):
    """error_integrals' sums, as its per-block loop computed them before the
    one alpha check per call: each block's (k, K) rule rows built alpha by
    alpha (Atoms' one row as it is), each shrinkage checked on its own, each
    weighted square a new array."""
    flat = np.asarray(alphas, dtype=float).ravel()
    sums = np.empty((len(models), 2, 2, flat.size))
    for start in range(0, flat.size, theory._BLOCK):
        a = flat[start:start + theory._BLOCK, None]
        for i, n in enumerate((theory._NODES, 2 * theory._NODES)):
            if isinstance(measure, Atoms):
                x, w_b, w_v = measure.rule(a, n)
            else:
                rows = [PER_ALPHA[type(measure)](measure, v, n) for v in a[:, 0]]
                x, w_b, w_v = (np.array(r) for r in zip(*rows))
            for m, p in enumerate(models):
                r, q = p.shrinkage(x, a)
                for j, (w, f) in enumerate(((w_b, q), (w_v, r))):
                    sums[m, i, j, start:start + theory._BLOCK] = np.sum(w * np.square(f), axis=1)
    return sums


def _block_grid(low, high):
    """Whole blocks of alphas all at the low edge (t at the first panel's
    start: alpha up to `low`), all at the high edge (alpha from `high`, inf
    included), half at each, and all cut; then a part block with 0 and inf."""
    b = theory._BLOCK
    lows = low * np.linspace(1.0 / b, 1.0, b) if low > 0 else np.zeros(b)
    highs = np.append(high * np.linspace(1.0, 2.0, b - 1), np.inf)
    cuts = np.linspace(low, high, b + 2)[1:-1]
    part = [0.0, np.inf, low, high, 0.5 * (low + high), *cuts[::5]]
    return np.concatenate([lows, highs, np.ravel([lows[::2], highs[::2]], order="F"), cuts,
                           part])


def _mp_grid(lam):
    mp = MarchenkoPastur(lam)
    return mp, _block_grid(mp.support_lo, mp.support_hi)


def _power_law_grid(gamma):
    pl = PowerLaw(gamma)
    return pl, _block_grid(pl._panels()[0][0], 1.0)


@pytest.mark.parametrize("measure, grid", [
    *[_mp_grid(lam) for lam in (0.1, 0.5, 0.9, 1 - 1e-6)],
    *[_power_law_grid(gamma) for gamma in (0.01, 0.5, 2.0, 20.0)],
    (Atoms([0.0, 0.2, 0.7, 1.0], [0.25, 0.25, 0.3, 0.2]), _block_grid(0.2, 1.0)),
    (TwoPanels(), _block_grid(0.0, 1.0)),
], ids=["mp-0.1", "mp-0.5", "mp-0.9", "mp-1-1e-6", "power-law-0.01", "power-law-0.5",
        "power-law-2", "power-law-20", "atoms-at-0", "two-panels"])
def test_error_integrals_sums_equal_the_per_block_reference(measure, grid):
    assert grid.size % theory._BLOCK != 0
    lam = measure.lam if isinstance(measure, MarchenkoPastur) else 0.5
    models = tuple(SchattenIndex)
    got = np.array([q.sums for q in error_integrals(models, measure, grid, lam)])
    assert np.array_equal(got, reference_sums(models, measure, grid))


class RuleSpy:
    """A measure that counts its rule calls and passes them to `measure`."""

    label = "spy"

    def __init__(self, measure):
        self.measure, self.calls = measure, 0

    def rule(self, alpha, n):
        self.calls += 1
        return self.measure.rule(alpha, n)


@pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf], ids=["nan", "-1", "-inf"])
@pytest.mark.parametrize("measure", [MarchenkoPastur(0.5), PowerLaw(2.0)], ids=["mp", "power-law"])
def test_a_bad_alpha_in_the_last_block_is_rejected_before_any_rule(measure, bad):
    # The engine checks the whole grid once, before its first block.
    spy = RuleSpy(measure)
    grid = np.append(np.logspace(-3, 3, 2 * theory._BLOCK + 5), bad)
    with pytest.raises(ValueError, match="^alpha must be nonnegative$"):
        error_integrals(tuple(SchattenIndex), spy, grid, 0.5)
    assert spy.calls == 0


@pytest.mark.parametrize("measure", [
    MarchenkoPastur(0.5), PowerLaw(2.0), Atoms([0.0, 0.2, 1.0], [0.3, 0.3, 0.4])],
    ids=["mp", "power-law", "atoms-at-0"])
def test_a_grid_holding_0_and_inf_warns_of_nothing_and_keeps_the_error_state(measure):
    # 0/0 and inf/inf are read only at alpha = 0 and inf, whose entries are
    # then set to their limits.
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrals = error_integrals(tuple(SchattenIndex), measure, [0.0, 0.5, np.inf], 0.5)
    assert np.geterr() == before
    assert all(np.isfinite(q.sums).all() for q in integrals)


@pytest.mark.parametrize("gamma", [1034, 2000, 1e6, 1e300])
def test_power_law_rule_beyond_its_largest_exponent_is_rejected_naming_gamma(gamma):
    # These raised OverflowError from math.exp, and 1e300 "Eigenvalues did not
    # converge" after RuntimeWarnings; sampling the measure still works.
    measure = PowerLaw(gamma)
    with pytest.raises(InvalidConfig, match=f"^gamma must be at most 1033 .*got {re.escape(repr(gamma))}$"):
        error_integrals(tuple(SchattenIndex), measure, [0.5, 2.0], 0.5)
    assert np.all(measure.sample(10, np.random.default_rng(0)) <= 1.0)


def test_power_law_rule_at_its_largest_exponent_is_built():
    (q,) = error_integrals((SchattenIndex.FROBENIUS,), PowerLaw(1033.0), [1e-3, 0.5, 2.0], 0.5)
    assert np.isfinite(q.error(1.0, 1.0)).all()


def test_a_nan_gap_fails_the_quadrature_check():
    # gap > bound is False for NaN, so a NaN gap used to pass as converged.
    sums = np.ones((2, 2, 3))
    sums[1, 0, 1] = np.nan
    integrals = theory.ErrorIntegrals(np.array([0.1, 1.0, 10.0]), 0.5, SchattenIndex.FROBENIUS,
                                      sums, "MP")
    with pytest.raises(QuadratureFailure, match="estimate nan above .* at alpha = 1$"):
        integrals.error(1.0, 1.0)


@pytest.mark.parametrize("beta, sigma, field", [
    (1e200, 1.0, "beta"), (-1e200, 1.0, "beta"), (1.0, 1e155, "sigma")])
def test_a_scale_whose_square_overflows_is_rejected_naming_it(beta, sigma, field):
    # beta^2 = inf times a zero sum made NaN, which the gap check let through.
    (q,) = _frobenius_integrals(MarchenkoPastur(0.5), 0.5)
    with pytest.raises(InvalidConfig, match=f"^{field} must be small enough that its square "):
        q.error(beta, sigma)
