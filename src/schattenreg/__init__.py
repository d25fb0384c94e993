"""Schatten-norm bias-constrained linear estimators and their error theory.

Three estimators arise from bounding the Schatten-p norm of the bias
operator LX - I: Nuclear (p=1, eigenvalue clipping), Frobenius (p=2, ridge
regression), and Spectral (p=inf, scalar shrinkage).  The package provides
the closed-form fits, a numeric convex-optimization oracle, exact
generalization-error curves under two random-matrix ensembles, loss-basin
geometry analysis, and a reproducible cross-validation benchmark harness.
"""

from .basin import (
    BasinGeometry,
    expected_cv_minimum,
    geometry_table,
    locate_min_and_curvature,
    monte_carlo_parabola_min,
)
from .cv import (
    AlphaGrid,
    BenchReport,
    CVConfig,
    aggregate_wins,
    kfold_select_alpha,
    run_benchmark,
    simulate_path_errors,
)
from .ensembles import (
    Dataset,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    GramTestSet,
    RealDataConfig,
    RowTestSet,
    SparseSpec,
    SphericalGaussianConfig,
    child_seeds,
    haar_stiefel,
    sample_diagonal,
    sample_equicorrelated,
    sample_real_data,
    sample_spherical,
)
from .estimators import (
    FittedModel,
    alpha_to_bias_bound,
    bias_bound_to_alpha,
    estimator_operator,
    fit,
    fit_path,
    operator_diagnostics,
    predict,
)
from .oracle import project_schatten_ball, solve_bias_constrained_numeric
from .rff import (
    NonlinearTarget,
    RFFBenchConfig,
    RFFMap,
    RFFRows,
    apply_rff,
    eval_target,
    make_rff_dataset,
    sample_nonlinear_target,
    sample_rff_map,
)
from .spectrum import GramSpectrum, SchattenIndex, gram_spectrum
from .theory import (
    Atoms,
    ErrorIntegrals,
    MarchenkoPastur,
    PowerLaw,
    appell_f1,
    err_nuclear_closed,
    err_spectral_closed,
    error_integrals,
    mp_cdf,
    mp_partial_moment,
    mp_pdf,
    oracle_ridge_alpha,
)

__version__ = "0.1.0"
