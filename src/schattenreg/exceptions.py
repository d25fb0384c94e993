"""Exception hierarchy shared across the package, and the two checks every
number the package takes goes through: _check_reals and _check_counts."""

import math
import numbers


class SchattenRegError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SchattenRegError):
    """Operands have incompatible shapes."""


class NonFinite(SchattenRegError):
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


class ConfigError(SchattenRegError):
    """Malformed experiment configuration."""


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
