"""Bracketed root finding for strictly monotone targets.

The solver is bisection with a Newton polish: bisection guarantees
convergence on a sign-changing bracket of a monotone function, Newton
finishes to the residual tolerance in a handful of steps.  All speed and
auxiliary-root equations in this package are strictly monotone on their
brackets, so no safeguarding beyond the bracket itself is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import SolverError


@dataclass(frozen=True)
class RootResult:
    """Solver output for a scalar root.

    value      : the root
    residual   : target function evaluated at ``value``
    iterations : bisection plus Newton steps taken
    bracket    : interval known to contain the root
    """

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def bisect_newton(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    fprime: Callable[[float], float],
) -> RootResult:
    """Root of a strictly monotone ``f`` with a sign change on ``[lo, hi]``.

    Starts at the midpoint.  Each step shrinks the bracket to the side that
    keeps the sign change, then takes the Newton step, or bisects where that
    step is undefined or would leave the bracket.  Stops when
    ``|f(x)| <= 1e-13``, after 200 steps, or when the bracket is at
    floating-point resolution; the achieved residual is reported either way.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0, (lo, hi))
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0, (lo, hi))
    if flo * fhi > 0.0:
        raise SolverError(
            f"no sign change on bracket ({lo!r}, {hi!r}): f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    increasing = fhi > 0.0
    a, b = lo, hi
    x = 0.5 * (a + b)
    fx = f(x)
    iters = 0
    while iters < 200:
        iters += 1
        if (fx > 0.0) == increasing:
            b = x
        else:
            a = x
        if abs(fx) <= 1e-13:
            break
        d = fprime(x)
        nxt = x - fx / d if d != 0.0 else 0.5 * (a + b)
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if nxt == x or not (a < nxt < b):
            # bracket exhausted at float resolution
            break
        x = nxt
        fx = f(x)
    return RootResult(x, fx, iters, (a, b))
