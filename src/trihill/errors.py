"""Exception types shared across the package, and the input checks."""

import math


class TrihillError(Exception):
    """Base class for package errors."""


class DomainError(TrihillError, ValueError):
    """Raised when an input is non-finite or outside the domain it must lie in."""


class TripleCollisionError(TrihillError, ValueError):
    """Raised when an operation needs a nonzero configuration size."""


class CollinearError(TrihillError, ValueError):
    """Raised at collinear configurations, where the rotational reduction is singular."""


class InternalConsistencyError(TrihillError, RuntimeError):
    """Raised when intermediate values violate an internal bound (beyond rounding)."""


class UnsupportedFamilyError(TrihillError, ValueError):
    """Raised when a closed-form critical-value family does not apply to a system."""


def check_finite(name: str, value: float) -> None:
    """Reject a non-finite input, which no comparison or formula can use."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def check_unit(name: str, vector) -> None:
    """Reject a direction that is not a finite unit vector (to 1e-12): a NaN
    component fails the comparison as well as an infinite or zero one."""
    norm = math.hypot(*map(float, vector))
    if not abs(norm - 1.0) <= 1e-12:
        raise DomainError(f"{name} must be a finite unit vector, got norm {norm}")
