"""Exception hierarchy shared across the package, and the number test of its checks."""

import numbers


def _is_real(value) -> bool:
    """True for a Python or numpy real number other than a bool: a config check
    tests it first, so a bool or a string raises InvalidConfig naming the field."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class SchattenRegError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SchattenRegError):
    """Operands have incompatible shapes."""


class NonFinite(SchattenRegError):
    """An input contains NaN or Inf entries."""


class InvalidConfig(SchattenRegError):
    """A configuration object violates its constraints."""


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
