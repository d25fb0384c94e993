"""Predicted versus empirical test error for both random-matrix ensembles.

For each estimator, compares the closed-form / quadrature error curve with
the mean test error over simulated datasets, on a short grid of
regularization strengths.  Mirrors the library's validation protocol at a
demo-friendly replicate count.
"""

import numpy as np

from schattenreg import (
    DiagonalEnsembleConfig,
    NoiseDensity,
    SchattenIndex,
    SpectralDensity,
    SphericalGaussianConfig,
    err_diagonal_quadrature,
    err_spherical_quadrature,
    simulate_path_errors,
)

N, D = 100, 50
LAM = D / N
N_DATASETS = 30
ALPHAS = np.logspace(-2, 2, 9)


def run(name, ensemble_config, theory_fn):
    print(f"--- {name} ensemble (lambda = {LAM}) ---")
    print(f"{'alpha':>8} {'estimator':>9} {'theory':>8} {'empirical':>10} {'se':>8}")
    mses = simulate_path_errors(ensemble_config, tuple(SchattenIndex), ALPHAS,
                                N_DATASETS, seed=0)
    for i, p in enumerate(SchattenIndex):
        theory = theory_fn(p, ALPHAS)
        for k, a in enumerate(ALPHAS):
            mean = mses[i, k].mean()
            se = mses[i, k].std(ddof=1) / np.sqrt(N_DATASETS)
            print(f"{a:>8.3f} {p.name.lower():>9} {theory[k]:>8.4f}"
                  f" {mean:>10.4f} {se:>8.4f}")
        print()


sph = SphericalGaussianConfig(n_obs=N, n_feat=D, beta=1.0, sigma=1.0, n_test=2000)
run("spherical", sph,
    lambda p, alphas: err_spherical_quadrature(p, alphas, LAM, 1.0, 1.0))

density = SpectralDensity.power_law(2.0)
diag = DiagonalEnsembleConfig(n_obs=N, n_feat=D, spectral_density=density,
                              noise_density=NoiseDensity(kind="point"),
                              beta=1.0, sigma=1.0)
run("diagonal power-law", diag,
    lambda p, alphas: err_diagonal_quadrature(p, alphas, LAM, 1.0, 1.0, density))
