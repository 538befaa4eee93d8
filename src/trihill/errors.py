"""Exception types shared across the package, and the input checks."""

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


def check_finite(name: str, value: float) -> None:
    """Reject an input that is not a finite real number, which no comparison
    or formula can use."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not finite:
        raise DomainError(f"{name} must be finite, got {value}")


def check_unit(name: str, vector) -> tuple[float, float, float]:
    """``vector`` as three Python floats: reject a direction that does not
    have three components or is not a finite unit vector (to 1e-12).  A NaN
    component fails the comparison as well as an infinite or zero one."""
    components = tuple(map(float, vector))
    if len(components) != 3 or not abs(math.hypot(*components) - 1.0) <= 1e-12:
        raise DomainError(f"{name} must be a finite unit 3-vector, got {components}")
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
