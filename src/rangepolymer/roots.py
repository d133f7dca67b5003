"""Bracketed root finding for strictly monotone targets.

Every root in the package (the discrete speed, threshold and interior LDP
roots, the continuous cubic, the exact-radius tilt's peak) comes from
``bisect_newton`` on a bracket whose ends are closed forms.  The target is
one callable that returns its value and slope at a point, so each point is
evaluated once.  Bisection guarantees convergence, Newton finishes in a
handful of steps, and with no tolerance it runs to the last bit; each
caller checks its own residual.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import SolverError


class RootResult(NamedTuple):
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


def bisect_newton(f: Callable[[float], tuple[float, float]], lo: float,
                  hi: float) -> RootResult:
    """Root of a strictly monotone target with a sign change on ``[lo, hi]``.

    ``f(x)`` returns the target's (value, slope) at x and is called once per
    point: both ends, the midpoint and each new iterate.  Starts at the
    midpoint.  Each step shrinks the bracket to the side that keeps the sign
    change, then takes the Newton step, or bisects where that step is
    undefined or would leave the bracket.  Stops at a zero value, at a
    Newton step that no longer moves x, at a bracket at float resolution, or
    after 200 steps; the achieved residual is reported either way.
    """
    flo, fhi = f(lo)[0], f(hi)[0]
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
    fx, d = f(x)
    iters = 0
    while iters < 200 and fx != 0.0:
        iters += 1
        if (fx > 0.0) == increasing:
            b = x
        else:
            a = x
        nxt = x - fx / d if d != 0.0 else 0.5 * (a + b)
        if nxt == x:  # a Newton step below the spacing of x
            break
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
            if not a < nxt < b:  # the bracket at float resolution
                break
        x = nxt
        fx, d = f(x)
    return RootResult(x, fx, iters, (a, b))
