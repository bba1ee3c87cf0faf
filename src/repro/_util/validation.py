"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations

import numbers

from repro.exceptions import ConfigurationError


def require_integer(value: object, name: str) -> int:
    """Return ``value`` as ``int``; raise :class:`ConfigurationError` otherwise.

    Booleans are rejected even though they are ``int`` subclasses, because a
    ``True`` slipping in where an item count is expected is always a bug.
    """
    # Exact ``int`` is the case every bit-accounting call is in; the ABC walk
    # below is only needed to tell numpy integers from floats and strings.
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_positive(value: object, name: str) -> int:
    """Return ``value`` as a strictly positive ``int``."""
    as_int = require_integer(value, name)
    if as_int <= 0:
        raise ConfigurationError(f"{name} must be positive, got {as_int}")
    return as_int


def require_non_negative(value: object, name: str) -> int:
    """Return ``value`` as a non-negative ``int``."""
    as_int = require_integer(value, name)
    if as_int < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {as_int}")
    return as_int


def require_probability(value: object, name: str) -> float:
    """Return ``value`` as a float in the closed interval ``[0, 1]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    as_float = float(value)
    if not 0.0 <= as_float <= 1.0:
        raise ConfigurationError(
            f"{name} must lie in [0, 1], got {as_float}"
        )
    return as_float
