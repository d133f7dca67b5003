"""Exception types shared across the package, and the parameter checks."""

import math

import numpy as np

__all__ = ["RangePolymerError", "DomainError", "SolverError", "ResourceCapError"]


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


def check_range_energy(beta: float, n: int) -> None:
    """Raise DomainError where beta n^2 overflows the double range.

    Both walk laws, exact and sampled, weight by exp(-beta n^2 / R_n); past
    the double range every log-weight is -inf, so they call this before any
    build or draw.
    """
    if not math.isfinite(beta * float(n) * float(n)):
        raise DomainError(f"beta * n^2 overflows the double range: beta={beta!r}, n={n}")


def as_float_array(name: str, values) -> np.ndarray:
    """``values`` as a float array; DomainError naming ``name`` where numpy
    cannot make one (ragged nesting, a string that is not a number)."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be numbers in a rectangular array: {exc}") from None


def check_grid(name: str, values) -> list[float]:
    """``values`` as a list of floats; DomainError unless 1-D and all finite.

    The grid-valued functions (CLT levels, LDP rate curves) call this before
    they solve anything, so a scalar, a ragged list or a NaN stops at the API
    boundary.
    """
    arr = as_float_array(name, values)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-D sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {values!r}")
    return arr.tolist()
