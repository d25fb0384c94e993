"""Exception hierarchy shared across the package, and the checks every input
goes through: _check_reals and _check_counts for every number, _check_scales
for every scale an error squares (its square times 2^64 finite),
_check_array for every array.  Each error names the argument or field at
fault, and InvalidConfig, DimensionMismatch and NonFinite are ValueErrors too."""

import math
import numbers

import numpy as np


class SchattenRegError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SchattenRegError, ValueError):
    """An array argument does not have the dimensions it must have."""


class NonFinite(SchattenRegError, ValueError):
    """An input contains NaN or Inf entries."""


class InvalidConfig(SchattenRegError, ValueError):
    """A configuration object or a numeric argument violates its constraints;
    a ValueError too, so callers that catch ValueError keep catching it."""


class DidNotConverge(SchattenRegError):
    """Iterative solver exhausted its iteration budget."""


class QuadratureFailure(SchattenRegError):
    """A quadrature error estimate exceeds its bound."""


class DomainError(SchattenRegError):
    """Function arguments outside the supported domain."""


class DegenerateFit(SchattenRegError):
    """Quadratic fit window has too few distinct points."""


class InsufficientData(SchattenRegError):
    """Not enough observations for the requested procedure."""


class ParseError(SchattenRegError):
    """Malformed input file."""


class MissingTarget(SchattenRegError):
    """Requested target column absent from a tabular dataset."""


def _check_reals(config, *names: str, admits=lambda v: 0.0 <= v < math.inf,
                 what: str = "finite and nonnegative") -> None:
    """Raise InvalidConfig("<name> must be <what>, got <value!r>") for the first
    field of `names` whose value is not a Python or numpy real number (a bool
    and a string are not) for which admits(value) holds.  `config` is an object
    with those fields or a dict of those values, all of whose keys are checked
    when no name is given.  admits is written as the values it admits, so NaN
    fails it."""
    for name in names or config:
        value = config[name] if isinstance(config, dict) else getattr(config, name)
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and admits(value)):
            raise InvalidConfig(f"{name} must be {what}, got {value!r}")


def _check_counts(config, *names: str, least: int = 1) -> None:
    """_check_reals for integers (Python or numpy ones) of at least `least`."""
    _check_reals(config, *names, admits=lambda v: isinstance(v, numbers.Integral) and v >= least,
                 what=f"an integer >= {least}")


def _check_scales(config, *names: str) -> None:
    """_check_reals for the scales an error squares (beta, sigma, small_scale):
    finite, then small enough that its square times 2^64 is finite (|v| below
    about 3.1e144), so that the errors' sums of squares over rows and features
    stay finite too, then nonnegative, checked in that order."""
    _check_reals(config, *names, admits=math.isfinite, what="finite")
    _check_reals(config, *names, admits=lambda v: math.isfinite(float(v) * float(v) * 2.0 ** 64),
                 what="small enough that its square times 2^64 is finite")
    _check_reals(config, *names)


def _check_array(value, name: str, shape: tuple) -> np.ndarray:
    """value as a float array, not copied when it is one already.  Raises
    DimensionMismatch("<name> <its shape> must be <shape>") unless it has
    len(shape) dimensions with the lengths that shape fixes (an int fixes a
    length, None leaves it free), and NonFinite("<name> contains NaN or inf")
    for a NaN or inf entry."""
    array = np.asarray(value, dtype=float)
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        want = (f"{len(shape)}-d" if all(n is None for n in shape) else
                str(tuple("*" if n is None else n for n in shape)).replace("'", ""))
        raise DimensionMismatch(f"{name} {array.shape} must be {want}")
    if not np.isfinite(array).all():
        raise NonFinite(f"{name} contains NaN or inf")
    return array
