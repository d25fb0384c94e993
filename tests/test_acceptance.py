"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints a
single pass/fail line, so the full checklist is visible in the test log:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest
from scipy.special import gammaln, hyp2f1

from schattenreg import (
    AlphaGrid,
    CVConfig,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    MarchenkoPastur,
    NoiseDensity,
    PowerLaw,
    SchattenIndex,
    SphericalGaussianConfig,
    appell_f1,
    bias_bound_to_alpha,
    child_seeds,
    err_nuclear_closed,
    err_spectral_closed,
    error_integrals,
    estimator_operator,
    expected_cv_minimum,
    fit_path,
    geometry_table,
    gram_spectrum,
    monte_carlo_parabola_min,
    operator_diagnostics,
    oracle_ridge_alpha,
    run_benchmark,
    sample_diagonal,
    sample_spherical,
    solve_bias_constrained_numeric,
)
from schattenreg.basin import DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_N

ALL_P = (SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS, SchattenIndex.SPECTRAL)


def err_mp(p, alpha, lam, beta, sigma):
    """Error of estimator p against the MP law at aspect ratio lam."""
    (q,) = error_integrals((p,), MarchenkoPastur(lam), alpha, lam)
    return q.error(beta, sigma)


def err_density(p, alpha, lam, beta, sigma, density):
    """Error of estimator p against a spectral density, prefactor lam."""
    (q,) = error_integrals((p,), density, alpha, lam)
    return q.error(beta, sigma)


def _report(capsys, num, label, ok):
    with capsys.disabled():
        print(f"\nacceptance {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


# ---------------------------------------------------------------------------
# 1. Numeric oracle matches the closed-form estimator
# ---------------------------------------------------------------------------

def test_acceptance_1_oracle_equivalence(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for p in ALL_P:
        for _ in range(20):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(2, 5))
            X = rng.standard_normal((n, d))
            spectrum = gram_spectrum(X)
            for c in (0.2, 0.5, 0.9 * d ** (1.0 / p.p)):
                alpha = bias_bound_to_alpha(spectrum, p, c)
                L_closed = estimator_operator(X, p, alpha)
                L_num = solve_bias_constrained_numeric(X, c, p)
                _, var_c = operator_diagnostics(L_closed, X, p)
                _, var_n = operator_diagnostics(L_num, X, p)
                scale = max(1.0, np.max(np.abs(L_closed)))
                worst = max(
                    worst,
                    np.max(np.abs(L_num - L_closed)) / scale,
                    abs(var_n - var_c) / max(1.0, var_c),
                )
    _report(capsys, 1, "oracle equivalence", worst <= 1e-3)


# ---------------------------------------------------------------------------
# 2. Closed forms agree with direct quadrature
# ---------------------------------------------------------------------------

def test_acceptance_2_closed_form_consistency(capsys):
    alphas = np.logspace(-3, 5, 100)
    worst = 0.0
    for lam in (0.1, 0.5, 0.9):
        for sigma in (0.5, 1.0):
            for a in alphas:
                q_spec = err_mp(SchattenIndex.SPECTRAL, a, lam, 1.0, sigma)
                q_nuc = err_mp(SchattenIndex.NUCLEAR, a, lam, 1.0, sigma)
                worst = max(
                    worst,
                    abs(err_spectral_closed(a, lam, 1.0, sigma) - q_spec),
                    abs(err_nuclear_closed(a, lam, 1.0, sigma) - q_nuc),
                )
    ok = worst <= 1e-6

    # Branch continuity of the Nuclear closed form at the support edges.
    jump = 0.0
    eps = 1e-9
    for lam in (0.1, 0.5, 0.9):
        for sigma in (0.5, 1.0):
            for edge in ((1 - np.sqrt(lam)) ** 2, (1 + np.sqrt(lam)) ** 2):
                lo = err_nuclear_closed(edge * (1 - eps), lam, 1.0, sigma)
                hi = err_nuclear_closed(edge * (1 + eps), lam, 1.0, sigma)
                jump = max(jump, abs(hi - lo))
    _report(capsys, 2, "closed-form consistency", ok and jump <= 1e-8)


# ---------------------------------------------------------------------------
# 3. Theory curves match simulation for both ensembles
# ---------------------------------------------------------------------------

def _simulation_check(sample_fn, theory_fn, n_datasets=100, seed=1234):
    alphas = np.logspace(-3, 5, 30)
    mses = np.zeros((len(ALL_P), len(alphas), n_datasets))
    for j, s in enumerate(child_seeds(seed, n_datasets)):
        ds = sample_fn(s)
        spectrum, xty = gram_spectrum(ds.X_tr), ds.X_tr.T @ ds.Y_tr
        for i, p in enumerate(ALL_P):
            for k, a in enumerate(alphas):
                beta = fit_path(spectrum, xty, p, [a])[:, 0]
                mses[i, k, j] = ds.test.mse(beta[:, None])[0]
    fracs = []
    for i, p in enumerate(ALL_P):
        theory = theory_fn(p, alphas)
        mean = mses[i].mean(axis=1)
        se = mses[i].std(axis=1, ddof=1) / np.sqrt(n_datasets)
        fracs.append(np.mean(np.abs(mean - theory) <= 3 * se))
    return min(fracs)


def test_acceptance_3_simulation_vs_theory(capsys):
    sph_cfg = SphericalGaussianConfig(n_obs=100, n_feat=50, beta=1.0, sigma=1.0)
    frac_sph = _simulation_check(
        lambda s: sample_spherical(sph_cfg, seed=s),
        lambda p, alphas: err_mp(p, alphas, 0.5, 1.0, 1.0),
    )
    density = PowerLaw(2.0)
    diag_cfg = DiagonalEnsembleConfig(
        n_obs=100, n_feat=50, spectral_density=density,
        noise_density=NoiseDensity(), beta=1.0, sigma=1.0,
    )
    frac_diag = _simulation_check(
        lambda s: sample_diagonal(diag_cfg, seed=s),
        lambda p, alphas: err_density(p, alphas, 0.5, 1.0, 1.0, density),
    )
    _report(capsys, 3, "simulation matches theory",
            frac_sph >= 0.9 and frac_diag >= 0.9)


# ---------------------------------------------------------------------------
# 4. Oracle ridge strength and grid dominance
# ---------------------------------------------------------------------------

def test_acceptance_4_oracle_ridge(capsys):
    grid = AlphaGrid(1e-3, 1e5, 500).values()
    log_step = np.log(grid[1] / grid[0])
    ok = True
    for beta, sigma in ((1.0, 0.5), (1.0, 1.0), (2.0, 1.0)):
        curves = {
            p: np.array([err_mp(p, a, 0.5, beta, sigma) for a in grid])
            for p in ALL_P
        }
        ridge = curves[SchattenIndex.FROBENIUS]
        a_hat = grid[int(np.argmin(ridge))]
        target = oracle_ridge_alpha(beta, sigma)
        ok &= abs(np.log(a_hat) - np.log(target)) <= log_step * (1 + 1e-9)
        for p in (SchattenIndex.NUCLEAR, SchattenIndex.SPECTRAL):
            ok &= ridge.min() <= curves[p].min() + 1e-8
    _report(capsys, 4, "oracle ridge optimality", bool(ok))


# ---------------------------------------------------------------------------
# 5. Monte-Carlo check of the cross-validation minimum rule of thumb
# ---------------------------------------------------------------------------

def test_acceptance_5_cv_minimum_rule(capsys):
    mu, delta = 0.3, 1.0
    ok = True
    for n in (1, 3, 10):
        for kappa in (0.5, 2.0):
            mean, stderr = monte_carlo_parabola_min(
                mu, kappa, delta, n, reps=1_000_000, seed=n * 10 + int(kappa)
            )
            ok &= abs(mean - expected_cv_minimum(mu, kappa, delta, n)) <= 3 * stderr
    _report(capsys, 5, "cv minimum rule of thumb", bool(ok))


# ---------------------------------------------------------------------------
# 6. Appell F1 evaluation
# ---------------------------------------------------------------------------

def _f1_series(a, b, bp, c, x, y, tol=1e-14, max_order=400):
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
            pb = np.prod([b + i for i in range(m)]) if m else 1.0
            pbp = np.prod([bp + i for i in range(n)]) if n else 1.0
            block += np.exp(log_mag) * pb * pbp * x**m * y**n
        total += block
        if s > 5 and abs(block) < tol * max(1.0, abs(total)):
            return total
    raise RuntimeError("series did not converge")


def test_acceptance_6_appell_f1(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-2.0, 2.0)
        bp = rng.uniform(-2.0, 2.0)
        c = a + rng.uniform(0.5, 3.0)
        x, y = rng.uniform(-0.4, 0.4, size=2)
        worst = max(worst, abs(appell_f1(a, b, bp, c, x, y) - _f1_series(a, b, bp, c, x, y)))
    for _ in range(10):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-2.0, 2.0)
        c = a + rng.uniform(0.5, 3.0)
        x = rng.uniform(-0.4, 0.4)
        worst = max(worst, abs(appell_f1(a, b, 0.0, c, x, 0.3) - hyp2f1(a, b, c, x)))
    _report(capsys, 6, "appell f1", worst <= 1e-10)


# ---------------------------------------------------------------------------
# 7. Cross-validated Nuclear beats Ridge on win probability, similar averages
# ---------------------------------------------------------------------------

def test_acceptance_7_cv_benchmark_pattern(capsys):
    ens = EquicorrelatedConfig(n_obs=100, n_feat=50, rho=0.0, sigma=2.0, n_test=5000)
    cfg = CVConfig(
        folds=3, grid=AlphaGrid(1e-4, 1e6, 9), models=ALL_P,
        n_datasets=100, seed=2024,
    )
    report = run_benchmark(ens, cfg)
    nuc, rid = report.avg_error["nuclear"], report.avg_error["ridge"]
    ok = (report.win_prob["nuclear"] > report.win_prob["ridge"]
          and abs(nuc - rid) / rid < 0.1)
    _report(capsys, 7, "cv benchmark pattern", bool(ok))


# ---------------------------------------------------------------------------
# 8. Ridge does not get worse as the alpha grid is refined
# ---------------------------------------------------------------------------

def test_acceptance_8_grid_refinement(capsys):
    ens = EquicorrelatedConfig(n_obs=100, n_feat=50, rho=0.0, sigma=2.0, n_test=5000)
    errs = {}
    for count in (9, 50):
        cfg = CVConfig(
            folds=3, grid=AlphaGrid(1e-4, 1e6, count),
            models=(SchattenIndex.FROBENIUS,), n_datasets=100, seed=77,
        )
        errs[count] = run_benchmark(ens, cfg).errors[0]
    diff = errs[50] - errs[9]  # same seed -> same datasets, paired comparison
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    _report(capsys, 8, "grid refinement trend", diff.mean() <= se)


# ---------------------------------------------------------------------------
# 9. Basin geometry: Nuclear minimum slightly higher, basin flatter
# ---------------------------------------------------------------------------

def test_acceptance_9_basin_signs(capsys):
    grid = AlphaGrid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_N).values()
    curves = {
        (name, 1.0, 0.5): err_mp(p, grid, 0.5, 1.0, 1.0)
        for name, p in (("ridge", SchattenIndex.FROBENIUS),
                        ("nuclear", SchattenIndex.NUCLEAR))
    }
    cell = next(c for c in geometry_table(curves, grid) if c.estimator == "nuclear")
    _report(capsys, 9, "basin geometry signs",
            0.0 < cell.depth_pct < 10.0 and cell.curvature_pct < 0.0)
