"""Closed-form constants of the continuous (Brownian) range-penalized model.

The Brownian path is tilted by exp(-beta * t^2 / R), R being the range (or
the unit sausage volume R + 2).  Every constant is explicit:

    J(x)        = x^2 / 2                       range rate function
    c**(beta)   = beta^(1/3)                    endpoint speed
    g**(beta)   = -(3/2) beta^(2/3)             free energy
    sigma**     = 1/sqrt(3)                     CLT spread
    prefactor   = 8/sqrt(3)                     in Z_t ~ prefactor * e^{g** t}
    beta~_d     = (beta / w_{d-1})^(1/3) / 2    small-range cutoff, w = unit-ball volume

plus the two-branch endpoint-velocity rate function J^beta, whose auxiliary
root solves the cubic 4 r^3 - 2 theta r^2 = beta.  Every cube root is
``math.cbrt`` (Python 3.11+), as is ``density``'s window centre.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, SolverError, check_grid, check_positive
from .roots import RootResult, bisect_newton

__all__ = [
    "ContinuousConstants",
    "rate_J",
    "unit_ball_volume",
    "continuous_constants",
    "positive_cubic_root",
    "ldp_rate_continuous_info",
]

class ContinuousConstants(NamedTuple):
    """Explicit constants of the continuous model at one beta.

    For d >= 2 only ``beta_tilde_d`` and ``free_energy_bound`` (the
    d-dimensional free-energy lower-bound exponent -(3/2)(beta/w_{d-1})^{2/3})
    carry meaning; the remaining fields are the d = 1 constants.
    """

    beta: float
    c_dstar: float
    g_dstar: float
    sigma_dstar: float
    prefactor: float
    beta_tilde_d: float
    free_energy_bound: float


def rate_J(x: float) -> float:
    """Brownian range rate function J(x) = x^2 / 2 for x >= 0."""
    if x < 0.0:
        raise DomainError(f"rate_J is defined on [0, inf), got {x!r}")
    return 0.5 * x * x


def unit_ball_volume(k: int) -> float:
    """Volume of the unit ball in k dimensions; w_0 = 1 by convention.

    Loops the recurrence w_k = w_{k-2} * 2 pi / k and stops once w
    underflows to 0.0 (from k = 453 on), so any k costs at most ~230 steps.
    """
    if k < 0:
        raise DomainError(f"dimension must be nonnegative, got {k!r}")
    w = 2.0 if k % 2 else 1.0
    for j in range(2 + k % 2, k + 1, 2):
        w = w * 2.0 * math.pi / j
        if w == 0.0:
            break
    return w


def continuous_constants(beta: float, d: int = 1) -> ContinuousConstants:
    """All explicit constants at one beta (see the type docstring for d >= 2);
    DomainError where beta/w_{d-1} or any of them is not finite."""
    check_positive("beta", beta)
    if d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    c = math.cbrt(beta)
    w = unit_ball_volume(d - 1)
    scaled = beta / w if w > 0.0 else math.inf
    ratio = math.cbrt(scaled)
    consts = ContinuousConstants(
        beta=beta,
        c_dstar=c,
        g_dstar=-1.5 * c * c,
        sigma_dstar=1.0 / math.sqrt(3.0),
        prefactor=8.0 / math.sqrt(3.0),
        beta_tilde_d=0.5 * ratio,
        free_energy_bound=-1.5 * ratio * ratio,
    )
    if not all(math.isfinite(v) for v in (scaled, *consts)):
        raise DomainError(f"beta/w_(d-1) = {scaled!r} is not finite at d={d!r}")
    return consts


def positive_cubic_root(beta: float, theta: float = 0.0) -> RootResult:
    """Unique positive root of p(r) = 4 r^3 - 2 theta r^2 - beta = 0.

    One ``bisect_newton`` solve on [theta/2, max(theta, beta^(1/3))]:
    p(theta/2) = -beta, and at the upper end p >= 2 r^3 - beta >= beta, as
    2 r^2 (2r - theta) >= 2 r^3 for r >= theta.  (The end (beta/2)^(1/3)
    would also bracket the root, but there p >= 0 holds with no margin, so
    for theta a few units of the last place below it, rounding picks the
    sign.)  p increases on r > theta/3.  SolverError unless the residual is
    at most 1e-12 of the terms 4 r^3 + 2 theta r^2.
    """
    check_positive("beta", beta)
    if theta < 0.0:
        raise DomainError(f"theta must be nonnegative, got {theta!r}")
    res = bisect_newton(lambda r: (((4.0 * r - 2.0 * theta) * r) * r - beta,
                                   (12.0 * r - 4.0 * theta) * r),
                        0.5 * theta, max(theta, math.cbrt(beta)))
    r = res.value
    if not abs(res.residual) <= 1e-12 * (4.0 * r + 2.0 * theta) * r * r:
        raise SolverError(f"cubic root residual {res.residual!r} at r={r!r} "
                          f"(beta={beta!r}, theta={theta!r})")
    return res


def ldp_rate_continuous_info(beta: float, thetas) -> list[tuple[float, str, float]]:
    """Two-branch endpoint-velocity rate J^beta(theta) over a grid of theta >= 0.

    Returns one (rate, branch id, auxiliary root) per theta, in input order.
    beta/theta + J(theta) + g**(beta) for theta >= (beta/2)^(1/3) on the
    "boundary" branch; below the threshold the positive cubic root r of
    beta = 2 r^2 (2r - theta) replaces theta on the "interior" branch,
    giving beta/r + J(2r - theta) + g**(beta).  Zero exactly at the speed
    beta^(1/3).  A scalar theta raises DomainError, as does a theta whose
    rate overflows (theta^2/2 does from theta ~ 1.9e154).
    """
    check_positive("beta", beta)
    thetas = check_grid("theta", thetas)
    for theta in thetas:
        if theta < 0.0:
            raise DomainError(f"theta must be nonnegative, got {theta!r}")
    if not thetas:
        return []
    g = continuous_constants(beta).g_dstar
    threshold = math.cbrt(0.5 * beta)
    if threshold == 0.0:
        raise DomainError(f"beta={beta!r} is too small: (beta/2)^(1/3) underflows to 0")
    out = []
    for theta in thetas:
        if theta >= threshold:
            row = (beta / theta + 0.5 * theta * theta + g, "boundary", theta)
        else:
            r = positive_cubic_root(beta, theta).value
            x = 2.0 * r - theta
            row = (beta / r + 0.5 * x * x + g, "interior", r)
        if not math.isfinite(row[0]):
            raise DomainError(f"the rate at theta={theta!r} overflows the double range "
                              f"(beta={beta!r})")
        out.append(row)
    return out
