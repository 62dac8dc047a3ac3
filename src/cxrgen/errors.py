"""Exception taxonomy shared across the package."""


class CxrgenError(Exception):
    """Base class for every package-specific error."""


class DimensionError(CxrgenError):
    """Tensor shapes are incompatible with the requested operation."""


class ContractError(CxrgenError):
    """A documented precondition was violated by the caller."""


class DataError(CxrgenError):
    """A record or data file is malformed, missing, or inconsistent."""


class ConfigurationError(CxrgenError):
    """A configuration value is invalid or degenerate."""


class EvaluationError(CxrgenError):
    """Metric evaluation failed, e.g. an embedding provider error."""


class TrainingError(CxrgenError):
    """Optimization failed, e.g. non-finite gradients."""


class NonFiniteGradientError(TrainingError):
    """A gradient holds NaN or infinity: the run diverged."""
