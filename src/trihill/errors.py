"""Exception types shared across the package, and the input contract.

Every public entry point checks its numbers here, and each rule is written
once: ``check_finite`` (a finite real number), ``check_positive`` (a finite
real number above 0), ``check_triple`` (three finite real numbers),
``check_unit`` (a finite unit 3-vector) and ``check_index`` (an integer in a
range).  Each returns Python numbers, so a bool or a float32 that passes
is read as the number it holds, and each refuses what breaks its rule with
a ``DomainError`` (a ``TrihillError`` and a ``ValueError``): None, a
string, a complex number, NaN or an infinity, and for a vector a wrong
count, a nested list or a bare number.
"""

import math
import operator


class TrihillError(Exception):
    """Base class for package errors."""


class DomainError(TrihillError, ValueError):
    """Raised when an input is non-finite or outside the domain it must lie in."""


class TripleCollisionError(TrihillError, ValueError):
    """Raised when an operation needs a nonzero configuration size."""


class CollinearError(TrihillError, ValueError):
    """Raised at collinear configurations, where the rotational reduction is singular."""


class UnsupportedFamilyError(TrihillError, ValueError):
    """Raised when a closed-form critical-value family does not apply to a system."""


def check_finite(name: str, value) -> float:
    """``value`` as a Python float: reject one that is not a finite real
    number, which no comparison or formula can use."""
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not finite:
        raise DomainError(f"{name} must be finite, got {value}")
    return float(value)


def check_positive(name: str, value) -> float:
    """``value`` as a Python float: reject one that is not a finite real
    number above 0."""
    if not check_finite(name, value) > 0.0:
        raise DomainError(f"{name} must be positive, got {value}")
    return float(value)


def check_triple(name: str, vector) -> tuple[float, float, float]:
    """``vector`` as three Python floats: reject one that is not three
    finite real numbers (a string, a nested list or a bare number
    included)."""
    try:
        x, y, z = vector
        return check_finite(name, x), check_finite(name, y), check_finite(name, z)
    except (TypeError, ValueError):  # DomainError is a ValueError
        raise DomainError(f"{name} must hold three finite values, got {vector!r}") from None


def check_unit(name: str, vector) -> tuple[float, float, float]:
    """``vector`` as three Python floats: reject one that is not three finite
    values of unit length (to 1e-12)."""
    components = check_triple(name, vector)
    if not abs(math.hypot(*components) - 1.0) <= 1e-12:
        raise DomainError(f"{name} must be a unit 3-vector, got {components}")
    return components


def check_index(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int, read with ``operator.index``: reject a value that
    is not an integer (a float included) or lies outside [lo, hi]."""
    try:
        index = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if index < lo or (hi is not None and index > hi):
        span = f"at least {lo}" if hi is None else f"from {lo} to {hi}"
        raise DomainError(f"{name} must be {span}, got {index}")
    return index
