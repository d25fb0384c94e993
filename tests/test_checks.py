"""Every number the library takes goes through exceptions._check_reals or
_check_counts, and every scale whose square an error takes through
_check_scales: a bool, a string, NaN, an infinity or an out-of-range number
raises InvalidConfig naming the field, as does a model argument that is not a
SchattenIndex.  Every array it takes goes through
exceptions._check_array: wrong dimensions raise DimensionMismatch and a NaN
or an infinity NonFinite, each naming the argument.  All three are
ValueErrors."""

import numpy as np
import pytest

from schattenreg import (
    AlphaGrid,
    Atoms,
    CVConfig,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    MarchenkoPastur,
    NonlinearTarget,
    PowerLaw,
    RealDataConfig,
    RFFBenchConfig,
    RFFMap,
    SchattenIndex,
    SparseSpec,
    SphericalGaussianConfig,
    apply_rff,
    alpha_to_bias_bound,
    bias_bound_to_alpha,
    child_seeds,
    err_nuclear_closed,
    err_spectral_closed,
    error_integrals,
    estimator_operator,
    eval_target,
    expected_cv_minimum,
    fit,
    fit_path,
    gram_spectrum,
    haar_stiefel,
    kfold_select_alpha,
    make_rff_dataset,
    locate_min_and_curvature,
    monte_carlo_parabola_min,
    operator_diagnostics,
    oracle_ridge_alpha,
    predict,
    project_schatten_ball,
    sample_diagonal,
    sample_equicorrelated,
    sample_nonlinear_target,
    sample_real_data,
    sample_spherical,
    solve_bias_constrained_numeric,
)
from schattenreg.exceptions import (DimensionMismatch, InvalidConfig, NonFinite,
                                    SchattenRegError)
from schattenreg.rff import sample_rff_map


def _integrals(lam=0.5):
    return error_integrals((SchattenIndex.FROBENIUS,), PowerLaw(2.0), 1.0, lam)


def _diagonal(**fields):
    return DiagonalEnsembleConfig(**{"n_obs": 20, "n_feat": 5,
                                     "spectral_density": PowerLaw(1.0), **fields})


# Per case: the name a message starts with, a call taking the value, and the
# out-of-range numbers that the field rejects besides NaN and the infinities.
_FIELDS = {
    **{f"spherical.{f}": (f, lambda v, f=f: SphericalGaussianConfig(
        **{"n_obs": 20, "n_feat": 5, f: v}), (0, 2.5)) for f in ("n_obs", "n_feat", "n_test")},
    # A scale's square must be finite too: the test errors are quadratic in it.
    **{f"spherical.{f}": (f, lambda v, f=f: SphericalGaussianConfig(20, 5, **{f: v}),
                          (1e200, -1e155, -1.0)) for f in ("beta", "sigma")},
    **{f"diagonal.{f}": (f, lambda v, f=f: _diagonal(**{f: v}), (0, 2.5))
       for f in ("n_obs", "n_feat")},
    **{f"diagonal.{f}": (f, lambda v, f=f: _diagonal(**{f: v}), (1e200, -1e155, -1.0))
       for f in ("beta", "sigma")},
    "diagonal.noise_half_width": ("noise_half_width",
                                  lambda v: _diagonal(noise_half_width=v), (-0.1, 1.5)),
    **{f"equicorrelated.{f}": (f, lambda v, f=f: EquicorrelatedConfig(
        **{"n_obs": 20, "n_feat": 5, f: v}), (0, 2.5)) for f in ("n_obs", "n_feat", "n_test")},
    "equicorrelated.rho": ("rho", lambda v: EquicorrelatedConfig(20, 5, rho=v), (-0.1, 1.0)),
    "equicorrelated.sigma": ("sigma", lambda v: EquicorrelatedConfig(20, 5, sigma=v),
                             (1e200, -1e155, -1.0)),
    "sparse.n_large": ("n_large", lambda v: SparseSpec(n_large=v), (-1, 2.5)),
    "sparse.small_scale": ("small_scale", lambda v: SparseSpec(small_scale=v),
                           (1e200, -1e155, -0.1)),
    "real.n_obs": ("n_obs", lambda v: RealDataConfig(np.ones((5, 2)), np.ones(5), v), (0, 5, 2.5)),
    **{f"rff.{f}": (f, lambda v, f=f: RFFBenchConfig(**{f: v}), (0, 2.5))
       for f in ("d", "d_rbf", "n_obs", "n_test")},
    "rff.sigma": ("sigma", lambda v: RFFBenchConfig(sigma=v), (1e200, -1e155, -1.0)),
    "rff.bandwidth": ("bandwidth", lambda v: RFFBenchConfig(bandwidth=v), (0.0, -1.0)),
    "grid.lo": ("lo", lambda v: AlphaGrid(lo=v), (0.0, -1.0)),
    "grid.hi": ("hi", lambda v: AlphaGrid(lo=0.5, hi=v), (0.5, 0.1)),
    "grid.count": ("count", lambda v: AlphaGrid(count=v), (0, 2.5)),
    "cv.folds": ("folds", lambda v: CVConfig(folds=v), (1, 2.5)),
    "cv.n_datasets": ("n_datasets", lambda v: CVConfig(n_datasets=v), (0, 2.5)),
    "cv.seed": ("seed", lambda v: CVConfig(seed=v), (-1, 2.5)),
    "power-law.gamma": ("gamma", lambda v: PowerLaw(v), (0.0, -1.0)),
    "mp.lam": ("lam", lambda v: MarchenkoPastur(v), (0.0, 1.0)),
    "bias-bound-to-alpha.C": ("bias bound C", lambda v: bias_bound_to_alpha(
        gram_spectrum(np.eye(3)), SchattenIndex.FROBENIUS, v), (-0.5,)),
    "numeric-oracle.C": ("bias bound C", lambda v: solve_bias_constrained_numeric(
        np.eye(3), v, SchattenIndex.FROBENIUS), (-0.5,)),
    "rff-map.d": ("d", lambda v: sample_rff_map(v, 10), (0, 2.5)),
    "rff-map.d_rbf": ("d_rbf", lambda v: sample_rff_map(2, v), (0, 2.5)),
    "rff-map.bandwidth": ("bandwidth", lambda v: sample_rff_map(2, 10, bandwidth=v), (0.0,)),
    **{f"schatten-ball.radius-{p.name.lower()}": ("radius", lambda v, p=p: project_schatten_ball(
        np.eye(3), p, v), (-1.0,)) for p in SchattenIndex},
    "error-integrals.lam": ("lam", _integrals, (0.0, 1.5)),
    # The error is quadratic in beta and sigma, which are nonnegative, as
    # every sampler has them, and whose squares must be finite.
    "error.beta": ("beta", lambda v: _integrals()[0].error(v, 1.0), (1e200, -1e155, -1.0)),
    "error.sigma": ("sigma", lambda v: _integrals()[0].error(1.0, v), (1e200, -1e155, -1.0)),
    # The closed forms and the oracle ridge strength take them as it does.
    **{f"{call.__name__}.{f}": (f, lambda v, call=call, args=args, f=f: call(
        *args, **{"beta": 1.0, "sigma": 1.0, f: v}), (1e200, -1e155, -1.0))
       for call, args in ((err_spectral_closed, (1.0, 0.5)), (err_nuclear_closed, (1.0, 0.5)),
                          (oracle_ridge_alpha, ())) for f in ("beta", "sigma")},
    "child-seeds.master_seed": ("master_seed", lambda v: child_seeds(v, 3), (-1, 2.5)),
    "child-seeds.n": ("n", lambda v: child_seeds(0, v), (0, 2.5)),
    "haar-stiefel.n": ("n", lambda v: haar_stiefel(v, 1, np.random.default_rng(0)), (0, 2.5)),
    "haar-stiefel.d": ("d", lambda v: haar_stiefel(5, v, np.random.default_rng(0)), (0, 2.5, 6)),
    **{f"nonlinear-target.{f}": (f, lambda v, f=f: sample_nonlinear_target(
        **{"d": 3, "n_terms": 8, f: v}, rng=np.random.default_rng(0)), (0, 2.5))
       for f in ("d", "n_terms")},
    "cv-minimum.n": ("n", lambda v: expected_cv_minimum(0.0, 1.0, 1.0, v), (0, 2.5)),
    "cv-minimum.delta": ("delta", lambda v: expected_cv_minimum(0.0, 1.0, v, 3), (0.0, -1.0)),
    "parabola-min.n": ("n", lambda v: monte_carlo_parabola_min(0, 1, 1, v, reps=1000), (0, 2.5)),
    "parabola-min.delta": ("delta", lambda v: monte_carlo_parabola_min(0, 1, v, 3, reps=1000),
                           (0.0,)),
    "parabola-min.reps": ("reps", lambda v: monte_carlo_parabola_min(0, 1, 1, 3, reps=v),
                          (999, 1000.5)),
    # Every seed is checked before any draw.
    **{f"{call.__name__}.seed": ("seed", lambda v, call=call, config=config: call(
        config, seed=v), (-1, 2.5))
       for call, config in ((sample_spherical, SphericalGaussianConfig(20, 5)),
                            (sample_diagonal, _diagonal()),
                            (sample_equicorrelated, EquicorrelatedConfig(20, 5)),
                            (sample_real_data, RealDataConfig(np.ones((5, 2)), np.ones(5), 3)),
                            (make_rff_dataset, RFFBenchConfig(d_rbf=10, n_obs=5, n_test=5)))},
    "rff-map.seed": ("seed", lambda v: sample_rff_map(2, 10, seed=v), (-1, 2.5)),
    "parabola-min.seed": ("seed", lambda v: monte_carlo_parabola_min(0, 1, 1, 3, reps=1000,
                                                                     seed=v), (-1, 2.5)),
}


@pytest.mark.parametrize("field, make, value", [
    pytest.param(field, make, value, id=f"{key}-{value!r}")
    for key, (field, make, out) in _FIELDS.items()
    for value in (True, False, "0.5", "1", np.nan, np.inf, -np.inf, *out)
])
def test_every_number_the_library_takes_is_rejected_naming_its_field(field, make, value):
    # MarchenkoPastur("0.5") used to raise a bare TypeError from a comparison,
    # sample_rff_map(2, 10, bandwidth=True) was built, bias_bound_to_alpha read
    # C = "0.5" as 0.5 and True as 1.0, and sample_rff_map(2.5, 10),
    # error_integrals' lam="0.5" and reps=1000.5 failed inside Python or numpy;
    # project_schatten_ball returned NaN for a NaN radius at p = 2 and inf, and
    # failed in numpy for -1 at p = 1; haar_stiefel(5, 6) returned a (5, 5)
    # frame, child_seeds(0, -1) raised OverflowError, and the closed forms
    # returned NaN for a NaN beta.  The samplers admitted a beta, sigma or
    # small_scale of 1e200, whose errors overflow, and passed seed to numpy
    # unchecked: -1 and 2.5 failed there unnamed, and True drew seed 1.
    with pytest.raises(InvalidConfig) as info:
        make(value)
    assert str(info.value).startswith(f"{field} must be ")


_EYE = np.eye(3)

# Per entry that takes one model p, a call taking it.
_ONE_MODEL = {
    "fit": lambda p: fit(_EYE, np.ones(3), p, 1.0),
    "fit_path": lambda p: fit_path(gram_spectrum(_EYE), np.ones(3), p, [1.0]),
    "estimator_operator": lambda p: estimator_operator(_EYE, p, 1.0),
    "alpha_to_bias_bound": lambda p: alpha_to_bias_bound(gram_spectrum(_EYE), p, 1.0),
    "bias_bound_to_alpha": lambda p: bias_bound_to_alpha(gram_spectrum(_EYE), p, 0.5),
    "operator_diagnostics": lambda p: operator_diagnostics(_EYE, _EYE, p),
    "project_schatten_ball": lambda p: project_schatten_ball(_EYE, p, 1.0),
    "numeric-oracle": lambda p: solve_bias_constrained_numeric(_EYE, 0.5, p),
}


def _engine(models):
    return error_integrals(models, PowerLaw(2.0), 1.0, 0.5)


@pytest.mark.parametrize("make, value, want", [
    *(pytest.param(make, p, "p must be a SchattenIndex", id=f"{key}-{p!r}")
      for key, make in _ONE_MODEL.items() for p in ("ridge", 2, None)),
    *(pytest.param(_engine, models, "models: need distinct models, at least one",
                   id=f"error_integrals-{models!r}")
      for models in (("ridge",), (2,), (None,), (), (SchattenIndex.FROBENIUS,) * 2)),
])
def test_every_model_argument_is_rejected_naming_it(make, value, want):
    # fit, fit_path, error_integrals and the oracle's callers raised an
    # AttributeError for a string model, project_schatten_ball projected
    # onto the spectral ball for any p that was not an index, and
    # error_integrals returned () for no models and two integrals for a
    # repeated one.
    with pytest.raises(InvalidConfig) as info:
        make(value)
    assert str(info.value).startswith(want)


@pytest.mark.parametrize("error", [InvalidConfig, DimensionMismatch, NonFinite])
def test_input_errors_are_value_errors(error):
    # cli.main and callers that catch ValueError keep catching a bad input.
    assert issubclass(error, ValueError)
    assert issubclass(error, SchattenRegError)


_X = np.random.default_rng(0).standard_normal((6, 3))
_ONES = np.ones(6)
_GRID = np.linspace(0.1, 2.0, 20)
_CURVE = (_GRID - 1.0) ** 2
_FROBENIUS = SchattenIndex.FROBENIUS
_RFF = sample_rff_map(3, 8, seed=0)
_TARGET = sample_nonlinear_target(3, 8, np.random.default_rng(0))
_CV = CVConfig(grid=AlphaGrid(count=3))

# Per (function, argument): the name a message starts with, a call taking the
# value, a value it accepts, whose last entry the NaN and inf cases replace,
# and values of the wrong dimensions: first of the wrong number, then, where
# another argument fixes a length, of a wrong length.
_ARRAYS = {
    "gram_spectrum.X": ("X", gram_spectrum, _X, [_ONES]),
    "numeric-oracle.X": ("X", lambda v: solve_bias_constrained_numeric(v, 0.5, _FROBENIUS),
                         _X, [_ONES]),
    "kfold.X": ("X", lambda v: kfold_select_alpha(v, _ONES, _CV), _X, [_ONES]),
    "kfold.Y": ("Y", lambda v: kfold_select_alpha(_X, v, _CV), _ONES,
                [_ONES[:, None], _ONES[:5]]),
    "fit.Y": ("Y", lambda v: fit(_X, v, _FROBENIUS, 1.0), _ONES, [_ONES[:, None], _ONES[:5]]),
    "real.X": ("X", lambda v: RealDataConfig(v, _ONES, 3), _X, [_ONES]),
    "real.y": ("y", lambda v: RealDataConfig(_X, v, 3), _ONES, [_ONES[:, None], _ONES[:5]]),
    "apply_rff.X-rows": ("X", lambda v: apply_rff(_RFF, v), _X,
                         [_X[:, :, None], _X[:, :2]]),
    "apply_rff.X-point": ("X", lambda v: apply_rff(_RFF, v), _X[0], [_X[0, 0], _X[0, :2]]),
    "eval_target.x-rows": ("x", lambda v: eval_target(_TARGET, v), _X,
                           [_X[:, :, None], _X[:, :2]]),
    "eval_target.x-point": ("x", lambda v: eval_target(_TARGET, v), _X[0],
                            [_X[0, 0], _X[0, :2]]),
    "fit_path.xty": ("xty", lambda v: fit_path(gram_spectrum(_X), v, _FROBENIUS, [1.0]),
                     _X[0], [_X[:1].T, _ONES]),
    "predict.beta": ("beta", lambda v: predict(v, _X), _X[0], [_X]),
    "predict.X_test": ("X_test", lambda v: predict(fit(_X, _ONES, _FROBENIUS, 1.0), v), _X,
                       [_X[0], _X[:, :2]]),
    "operator_diagnostics.L": ("L", lambda v: operator_diagnostics(v, _X, _FROBENIUS), _X.T,
                               [_X[0], _X]),
    "operator_diagnostics.X": ("X", lambda v: operator_diagnostics(_X.T, v, _FROBENIUS), _X,
                               [_ONES]),
    "project_schatten_ball.B": ("B", lambda v: project_schatten_ball(v, _FROBENIUS, 1.0),
                                _X, [_ONES]),
    "locate_min.values": ("values", lambda v: locate_min_and_curvature(v, _GRID), _CURVE,
                          [_CURVE[:, None], _CURVE[:19]]),
    "locate_min.grid": ("grid", lambda v: locate_min_and_curvature(_CURVE, v), _GRID,
                        [_GRID[:, None]]),
    "atoms.grid": ("grid", lambda v: Atoms(v, [0.5, 0.5]), [0.2, 0.8], [0.5, [[0.2, 0.8]]]),
    "atoms.weights": ("weights", lambda v: Atoms([0.2, 0.8], v), [0.5, 0.5],
                      [[[0.5, 0.5]], [1.0]]),
    "rff-map.weights": ("weights", lambda v: RFFMap(v, _RFF.offsets), _RFF.weights,
                        [_RFF.weights[0]]),
    "rff-map.offsets": ("offsets", lambda v: RFFMap(_RFF.weights, v), _RFF.offsets,
                        [_RFF.offsets[:, None], _RFF.offsets[:2]]),
    "nonlinear-target.directions": ("directions", NonlinearTarget, _TARGET.directions,
                                    [_TARGET.directions[0]]),
}


def _with(value, bad):
    """value with its last entry set to bad."""
    out = np.array(value, dtype=float)
    out.flat[-1] = bad
    return out


@pytest.mark.parametrize("name, make, value, error", [
    *(pytest.param(name, make, bad, DimensionMismatch, id=f"{key}-{np.shape(bad)}")
      for key, (name, make, good, shapes) in _ARRAYS.items() for bad in shapes),
    *(pytest.param(name, make, _with(good, bad), NonFinite, id=f"{key}-{bad}")
      for key, (name, make, good, shapes) in _ARRAYS.items()
      for bad in (np.nan, np.inf, -np.inf)),
])
def test_every_array_the_library_takes_is_rejected_naming_its_argument(name, make, value,
                                                                       error):
    # predict returned NaN for a NaN X_test, operator_diagnostics let numpy's
    # "SVD did not converge" escape, project_schatten_ball scaled a 1-d or
    # NaN B, and fit and fit_path raised a bare ValueError for a wrong shape;
    # Atoms read a NaN grid as out of [0, 1], RFFMap took a NaN weight or
    # offsets of the wrong length, and NonlinearTarget read a NaN direction
    # as not a unit vector.
    with pytest.raises(error) as info:
        make(value)
    want = (f"{name} contains NaN or inf" if error is NonFinite
            else f"{name} {np.shape(value)} must be ")
    assert str(info.value).startswith(want)

