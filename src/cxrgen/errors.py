"""Exception taxonomy shared across the package, and the config field check."""

import math
from functools import cache
from typing import Mapping, get_args, get_type_hints


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


field_types = cache(get_type_hints)  # resolving string annotations costs ~20 us a field


def check_fields(cls, values: Mapping) -> None:
    """Check ``values`` against the annotated fields of the dataclass ``cls``:
    an ``int`` field takes an int of at least 1, as each counts something, or
    0 for a ``seed``; a ``float`` field a finite int or float; neither a bool;
    ``Optional[X]`` also None. The ConfigurationError names the key or field."""
    if not isinstance(values, Mapping):
        raise ConfigurationError(f"expected a mapping of field names to values, got "
                                 f"{type(values).__name__}")
    kinds = field_types(cls)
    for key, value in values.items():
        if key not in kinds:
            raise ConfigurationError(f"unknown key {key!r}; known keys are {sorted(kinds)}")
        kind, *optional = get_args(kinds[key]) or (kinds[key],)  # Optional[X]: X, None
        if value is None and optional:
            continue
        wanted, types = ("a number", (int, float)) if kind is float else ("an integer", int)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigurationError(f"{key!r} must be {wanted}{' or None' * bool(optional)}, "
                                     f"got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ConfigurationError(f"{key!r} must be finite, got {value!r}")
        least = 0 if key == "seed" else 1
        if kind is int and value < least:
            raise ConfigurationError(f"{key!r} must be at least {least}, got {value!r}")


class EvaluationError(CxrgenError):
    """Metric evaluation failed, e.g. an embedding provider error."""


class TrainingError(CxrgenError):
    """Optimization failed, e.g. non-finite gradients."""


class NonFiniteGradientError(TrainingError):
    """A gradient holds NaN or infinity: the run diverged."""
