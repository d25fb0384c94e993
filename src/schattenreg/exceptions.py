"""Exception hierarchy shared across the package."""


class SchattenRegError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SchattenRegError):
    """Operands have incompatible shapes."""


class NonFinite(SchattenRegError):
    """An input contains NaN or Inf entries."""


class SingularGram(SchattenRegError):
    """Rank-deficient Gram matrix in a mode that requires invertibility."""


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
