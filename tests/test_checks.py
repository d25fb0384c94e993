"""Every number the library takes goes through exceptions._check_reals or
_check_counts: a bool, a string, NaN, an infinity or an out-of-range number
raises InvalidConfig naming the field, and InvalidConfig is a ValueError."""

import numpy as np
import pytest

from schattenreg import (
    AlphaGrid,
    BiasBound,
    CVConfig,
    DiagonalEnsembleConfig,
    EquicorrelatedConfig,
    MarchenkoPastur,
    PowerLaw,
    RealDataConfig,
    RFFBenchConfig,
    SchattenIndex,
    SparseSpec,
    SphericalGaussianConfig,
    bias_bound_to_alpha,
    error_integrals,
    expected_cv_minimum,
    gram_spectrum,
    monte_carlo_parabola_min,
    solve_bias_constrained_numeric,
)
from schattenreg.exceptions import InvalidConfig, SchattenRegError
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
    **{f"spherical.{f}": (f, lambda v, f=f: SphericalGaussianConfig(20, 5, **{f: v}), (-1.0,))
       for f in ("beta", "sigma")},
    **{f"diagonal.{f}": (f, lambda v, f=f: _diagonal(**{f: v}), (0, 2.5))
       for f in ("n_obs", "n_feat")},
    **{f"diagonal.{f}": (f, lambda v, f=f: _diagonal(**{f: v}), (-1.0,))
       for f in ("beta", "sigma")},
    "diagonal.noise_half_width": ("noise_half_width",
                                  lambda v: _diagonal(noise_half_width=v), (-0.1, 1.5)),
    **{f"equicorrelated.{f}": (f, lambda v, f=f: EquicorrelatedConfig(
        **{"n_obs": 20, "n_feat": 5, f: v}), (0, 2.5)) for f in ("n_obs", "n_feat", "n_test")},
    "equicorrelated.rho": ("rho", lambda v: EquicorrelatedConfig(20, 5, rho=v), (-0.1, 1.0)),
    "equicorrelated.sigma": ("sigma", lambda v: EquicorrelatedConfig(20, 5, sigma=v), (-1.0,)),
    "sparse.n_large": ("n_large", lambda v: SparseSpec(n_large=v), (-1, 2.5)),
    "sparse.small_scale": ("small_scale", lambda v: SparseSpec(small_scale=v), (-0.1,)),
    "real.n_obs": ("n_obs", lambda v: RealDataConfig(np.ones((5, 2)), np.ones(5), v), (0, 5, 2.5)),
    **{f"rff.{f}": (f, lambda v, f=f: RFFBenchConfig(**{f: v}), (0, 2.5))
       for f in ("d", "d_rbf", "n_obs", "n_test")},
    "rff.sigma": ("sigma", lambda v: RFFBenchConfig(sigma=v), (-1.0,)),
    "rff.bandwidth": ("bandwidth", lambda v: RFFBenchConfig(bandwidth=v), (0.0, -1.0)),
    "grid.lo": ("lo", lambda v: AlphaGrid(lo=v), (0.0, -1.0)),
    "grid.hi": ("hi", lambda v: AlphaGrid(lo=0.5, hi=v), (0.5, 0.1)),
    "grid.count": ("count", lambda v: AlphaGrid(count=v), (0, 2.5)),
    "cv.folds": ("folds", lambda v: CVConfig(folds=v), (1, 2.5)),
    "cv.n_datasets": ("n_datasets", lambda v: CVConfig(n_datasets=v), (0, 2.5)),
    "cv.seed": ("seed", lambda v: CVConfig(seed=v), (-1, 2.5)),
    "power-law.gamma": ("gamma", lambda v: PowerLaw(v), (0.0, -1.0)),
    "mp.lam": ("lam", lambda v: MarchenkoPastur(v), (0.0, 1.0)),
    "bias-bound.value": ("bias bound C", lambda v: BiasBound(v), (-0.5,)),
    "bias-bound-to-alpha.C": ("bias bound C", lambda v: bias_bound_to_alpha(
        gram_spectrum(np.eye(3)), SchattenIndex.FROBENIUS, v), (-0.5,)),
    "numeric-oracle.C": ("bias bound C", lambda v: solve_bias_constrained_numeric(
        np.eye(3), v, SchattenIndex.FROBENIUS), (-0.5,)),
    "rff-map.d": ("d", lambda v: sample_rff_map(v, 10), (0, 2.5)),
    "rff-map.d_rbf": ("d_rbf", lambda v: sample_rff_map(2, v), (0, 2.5)),
    "rff-map.bandwidth": ("bandwidth", lambda v: sample_rff_map(2, 10, bandwidth=v), (0.0,)),
    "error-integrals.lam": ("lam", _integrals, (0.0, 1.5)),
    # The error is quadratic in beta and sigma, so every finite number is in range.
    "error.beta": ("beta", lambda v: _integrals()[0].error(v, 1.0), ()),
    "error.sigma": ("sigma", lambda v: _integrals()[0].error(1.0, v), ()),
    "cv-minimum.n": ("n", lambda v: expected_cv_minimum(0.0, 1.0, 1.0, v), (0, 2.5)),
    "cv-minimum.delta": ("delta", lambda v: expected_cv_minimum(0.0, 1.0, v, 3), (0.0, -1.0)),
    "parabola-min.n": ("n", lambda v: monte_carlo_parabola_min(0, 1, 1, v, reps=1000), (0, 2.5)),
    "parabola-min.delta": ("delta", lambda v: monte_carlo_parabola_min(0, 1, v, 3, reps=1000),
                           (0.0,)),
    "parabola-min.reps": ("reps", lambda v: monte_carlo_parabola_min(0, 1, 1, 3, reps=v),
                          (999, 1000.5)),
}


@pytest.mark.parametrize("field, make, value", [
    pytest.param(field, make, value, id=f"{key}-{value!r}")
    for key, (field, make, out) in _FIELDS.items()
    for value in (True, "0.5", np.nan, np.inf, -np.inf, *out)
])
def test_every_number_the_library_takes_is_rejected_naming_its_field(field, make, value):
    # MarchenkoPastur("0.5") and BiasBound("1") used to raise a bare TypeError
    # from a comparison, BiasBound(True) and sample_rff_map(2, 10, bandwidth=True)
    # were built, bias_bound_to_alpha read C = "0.5" as 0.5 and True as 1.0, and
    # sample_rff_map(2.5, 10), error_integrals' lam="0.5" and reps=1000.5
    # failed inside Python or numpy.
    with pytest.raises(InvalidConfig) as info:
        make(value)
    assert str(info.value).startswith(f"{field} must be ")


def test_invalid_config_is_a_value_error():
    # cli.main and callers that catch ValueError keep catching a bad number.
    assert issubclass(InvalidConfig, ValueError)
    assert issubclass(InvalidConfig, SchattenRegError)
