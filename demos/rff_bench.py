"""Nuclear versus Ridge on nonlinear targets via random Fourier features.

Generates data whose targets are a fixed nonlinear (cosine series) function
of the raw inputs, maps inputs through a random Fourier feature expansion,
and benchmarks cross-validated Nuclear and Ridge fits in feature space.
The Spectral estimator runs too when asked, but is left out here: with more
features than rows (d_rbf > N) it is min-norm OLS / (1 + alpha), one uniform
shrinkage of the interpolator.
"""

from schattenreg import (
    AlphaGrid,
    CVConfig,
    RFFBenchConfig,
    SchattenIndex,
    run_benchmark,
)

cfg = CVConfig(
    folds=3,
    grid=AlphaGrid(1e-4, 1e6, 9),
    models=(SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS),
    n_datasets=30,
    seed=0,
)

for sigma in (0.5, 1.0, 2.0):
    rff_cfg = RFFBenchConfig(d=10, d_rbf=100, n_obs=100, n_test=500, sigma=sigma)
    report = run_benchmark(rff_cfg, cfg)
    print(f"sigma = {sigma}")
    for name in report.models:
        ratio = report.ridge_ratio[name]
        print(f"  {name:>7}: avg error {report.avg_error[name]:8.4f}"
              f"  ratio to ridge {ratio:6.3f}"
              f"  win prob {report.win_prob[name]:.2f}")
    print()
