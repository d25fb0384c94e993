"""Cross-validated model comparison on correlated Gaussian predictors.

Runs the 3-fold cross-validation benchmark on the equicorrelated ensemble
and prints average test error, win counts, and win probabilities.  The
Nuclear estimator's flat loss basin makes it the most frequent per-dataset
winner on coarse grids, even when average errors are close to Ridge.
"""

from schattenreg import (
    AlphaGrid,
    CVConfig,
    EquicorrelatedConfig,
    SchattenIndex,
    aggregate_wins,
    run_benchmark,
)

ens = EquicorrelatedConfig(n_obs=100, n_feat=50, rho=0.0, sigma=2.0, n_test=2000)
cfg = CVConfig(
    folds=3,
    grid=AlphaGrid(1e-4, 1e6, 9),
    models=(SchattenIndex.NUCLEAR, SchattenIndex.FROBENIUS, SchattenIndex.SPECTRAL),
    n_datasets=50,
    seed=0,
)

report = run_benchmark(ens, cfg)
print(f"{'model':>9} {'avg error':>10} {'wins':>5} {'win prob':>9}")
for name in report.models:
    print(f"{name:>9} {report.avg_error[name]:>10.4f}"
          f" {report.win_count[name]:>5d} {report.win_prob[name]:>9.2f}")

best_avg, best_mode = aggregate_wins(report)
print(f"\nbest average error: {best_avg}")
print(f"most frequent winner: {best_mode}")
