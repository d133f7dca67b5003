"""Exception types shared across the package, and the parameter check."""

import math


class RangePolymerError(Exception):
    """Base class for errors raised by this package."""


class DomainError(RangePolymerError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SolverError(RangePolymerError, ArithmeticError):
    """A root solve failed; the message carries the diagnostic bracket."""


class ResourceCapError(RangePolymerError, ValueError):
    """A size parameter exceeds the configured cap for exact computation."""


def check_positive(name: str, value: float, allow_zero: bool = False) -> None:
    """Raise DomainError unless ``value`` is finite and positive (or zero).

    Every public function taking beta or t calls this first, so NaN and
    infinite parameters stop at the API boundary instead of reaching a solver.
    """
    if not ((value >= 0.0 if allow_zero else value > 0.0) and value < math.inf):
        sign = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"{name} must be finite and {sign}, got {value!r}")
