"""Exception types raised across the package, and the validators for
real, positive, finite inputs such as power and noise variance and for
integer sizes and seeds."""

import math
import sys

import numpy as np


class PrecodesimError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PrecodesimError, ValueError):
    """Shapes or index ranges are inconsistent with the requested operation."""


class NumericalError(PrecodesimError, RuntimeError):
    """A numerical routine failed to produce a usable result."""


class NotHpdError(NumericalError):
    """A matrix expected to be Hermitian positive definite is not."""


class SingularGramError(NumericalError):
    """The Gram matrix of the precoding basis is numerically singular."""


class RankDeficiencyError(PrecodesimError, ValueError):
    """A user channel does not support the requested number of layers."""


class SelectionError(PrecodesimError, RuntimeError):
    """No user subset satisfying the correlation threshold could be found."""


class ZeroMatrixError(PrecodesimError, ValueError):
    """An all-zero matrix was passed where a nonzero one is required."""


class ZeroSinrError(PrecodesimError, ValueError):
    """A nonpositive SINR reached a geometric-mean aggregation."""


class ConfigError(PrecodesimError, ValueError):
    """Invalid configuration values."""


def check_real(name: str, value) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a real number in the
    float range: a Python or numpy integer or float, and not a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ConfigError(f"{name} must be a real number in the float range, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a real number that is
    positive and finite."""
    check_real(name, value)
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def check_integer(name: str, value) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer and not a
    bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
