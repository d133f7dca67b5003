"""Closed-form constants of the discrete range-penalized walk in one dimension.

The model tilts the simple random walk by exp(-beta * n^2 / R_n), where R_n
counts the sites visited by the first n positions.  Everything here is a
function of the repelling strength beta:

    I(x)      = (1+x)/2 log(1+x) + (1-x)/2 log(1-x)   range rate function
    c*(beta)  : root of beta = c^2 I'(c)              endpoint speed
    g*(beta)  = -(beta/c* + I(c*))                    free energy
              = -c* log((1+c*)/(1-c*)) - log(1-c*^2)/2
    sigma*    : 1/sigma*^2 = 2 beta/c*^3 + 1/(1-c*^2) CLT spread
    I^beta    : two-branch rate function of the endpoint velocity under the
                tilted measure conditioned on a positive endpoint

For large beta the speed approaches 1 like 1 - c* ~ 2 exp(-2 beta), far below
the double-precision spacing near 1.  All solves therefore run in the gap
variable u = 1 - c (bisection on log u, then Newton), and every downstream
formula is evaluated in a form that stays accurate as u -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SolverError, check_grid, check_positive
from .roots import RootResult, bisect_newton

__all__ = [
    "PolymerConstants",
    "rate_I",
    "rate_I_prime",
    "speed_c_star",
    "free_energy_g_star",
    "ldp_rate_discrete_info",
    "tilde_c_d",
]


@dataclass(frozen=True)
class PolymerConstants:
    """Speed, free energy and spread at one beta."""

    beta: float
    c_star: float
    g_star: float
    sigma_star: float


def _I(x: float) -> float:
    # conventions 0*log 0 = 0 at both endpoints
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.log(2.0)
    u = 1.0 - x  # exact for x in [0.5, 1]; accurate enough below
    return 0.5 * (1.0 + x) * math.log1p(x) + 0.5 * u * math.log(u)


def _I_from_gap(u: float) -> float:
    """I(1-u) evaluated stably for tiny gaps u."""
    if u == 0.0:
        return math.log(2.0)
    return 0.5 * (2.0 - u) * math.log(2.0 - u) + 0.5 * u * math.log(u)


def _L_from_gap(u: float) -> float:
    """log((1+x)/(1-x)) = 2 I'(x) at x = 1-u."""
    return math.log(2.0 - u) - math.log(u)


def rate_I(x: float) -> float:
    """Rate function of the range of the simple walk, I(x) on [0, 1].

    I(0) = 0, I(1) = log 2, convex and strictly increasing in between;
    arguments above 1 are impossible range fractions and rejected.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"rate_I is defined on [0, 1], got {x!r}")
    return _I(float(x))


def rate_I_prime(x: float) -> float:
    """I'(x) = log((1+x)/(1-x)) / 2, finite only for x < 1."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"rate_I_prime is defined on [0, 1), got {x!r}")
    return 0.5 * (math.log1p(x) - math.log1p(-x))


def tilde_c_d(beta: float, d: int = 1) -> float:
    """Range-fraction threshold beta / (beta + log 2d) in dimension d."""
    check_positive("beta", beta)
    if d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    return beta / (beta + math.log(2 * d))


def _solve_gap(target_beta: float, scale, scale_prime, u_hi: float) -> tuple[float, RootResult]:
    """Solve scale(u) * L(u)/2 = target_beta for the gap u in (0, u_hi).

    ``scale(u)`` is the positive, decreasing-in-u prefactor multiplying
    I'(x) = L(u)/2 (c^2 for the speed equation, (theta+x)^2/2 for the
    auxiliary LDP root).  The left side is strictly decreasing in u, so the
    root is bracketed by (u_lo, u_hi) once the endpoint signs differ.
    Works on w = log u to keep relative precision for exponentially small
    gaps.  At w_lo = w_hi - 16 (1 + beta), L(u) >= 16 (1 + beta), so f(w_lo)
    > 0 for both scales unless the clamp at w = -700 binds (beta above about
    350 for the speed, 175 for the interior root at theta = 0); there
    ``bisect_newton`` finds no sign change and raises SolverError.
    """

    def f(w: float) -> float:
        u = math.exp(w)
        return scale(u) * 0.5 * _L_from_gap(u) - target_beta

    def fp(w: float) -> float:
        u = math.exp(w)
        d_du = scale_prime(u) * 0.5 * _L_from_gap(u) + scale(u) * 0.5 * (
            -1.0 / (2.0 - u) - 1.0 / u
        )
        return d_du * u

    w_hi = math.log(u_hi)
    w_lo = max(-700.0, w_hi - 16.0 * (1.0 + target_beta))
    res = bisect_newton(f, w_lo, w_hi, fp)
    u = math.exp(res.value)
    bracket = (math.exp(res.bracket[0]), math.exp(res.bracket[1]))
    return u, RootResult(u, res.residual, res.iterations, bracket)


def _speed_gap(beta: float) -> tuple[float, RootResult]:
    """Gap u* = 1 - c*(beta) of the speed equation beta = c^2 I'(c).

    The residual is the speed equation at the returned gap and must be at
    most 1e-12; the bracket is in u coordinates.
    """
    u_hi = 1.0 - tilde_c_d(beta, 1)  # c_tilde < c* < 1, so u* < u_hi
    if u_hi == 0.0:
        raise DomainError(
            f"beta={beta!r} is too large: the threshold beta/(beta + log 2) "
            "rounds to 1, so the speed gap 1 - c* cannot be bracketed"
        )
    scale = lambda u: (1.0 - u) ** 2
    scale_p = lambda u: -2.0 * (1.0 - u)
    u, res = _solve_gap(beta, scale, scale_p, u_hi)
    if abs(res.residual) > 1e-12:
        raise SolverError(
            f"speed solve residual {res.residual!r} above 1e-12 on bracket {res.bracket!r}"
        )
    return u, res


def speed_c_star(beta: float) -> RootResult:
    """Endpoint speed c*(beta): unique root in (0, 1) of beta = c^2 I'(c).

    The residual is that of ``_speed_gap``; the bracket is in c coordinates.
    """
    check_positive("beta", beta)
    u, res = _speed_gap(beta)
    c = 1.0 - u
    return RootResult(c, res.residual, res.iterations, (1.0 - res.bracket[1], 1.0 - res.bracket[0]))


def _constants_from_gap(beta: float, u: float) -> PolymerConstants:
    c = 1.0 - u
    L = _L_from_gap(u)
    log_one_minus_c2 = math.log(u) + math.log(2.0 - u)  # log(1 - c^2)
    g_closed = -c * L - 0.5 * log_one_minus_c2
    inv_sigma2 = 2.0 * beta / c**3 + 1.0 / (u * (2.0 - u))
    return PolymerConstants(
        beta=beta,
        c_star=c,
        g_star=g_closed,
        sigma_star=1.0 / math.sqrt(inv_sigma2),
    )


def free_energy_g_star(beta: float) -> PolymerConstants:
    """All one-beta constants of the discrete model.

    ``g_star`` is the closed form -c* log((1+c*)/(1-c*)) - log(1-c*^2)/2 of
    the variational free energy -(beta/c* + I(c*)).
    """
    check_positive("beta", beta)
    u, _ = _speed_gap(beta)
    return _constants_from_gap(beta, u)


def ldp_rate_discrete_info(beta: float, thetas) -> list[tuple[float, str, float]]:
    """Two-branch endpoint-velocity rate I^beta(theta) over a grid of theta in [0, 1].

    Returns one (rate, branch id, auxiliary root) per theta, in input order.
    For theta at or above c*(beta/2) the rate is beta/theta + I(theta) +
    g*(beta) on the "boundary" branch, with theta as its own root; below,
    the auxiliary root r of beta = 2 r^2 I'(2r - theta) replaces theta on
    the "interior" branch.  Nonnegative, with its unique zero at c*(beta).
    theta = 0 is handled by the interior branch directly (a limit, with
    beta/r finite since r > 0).  g*(beta) and the threshold are solved once
    per call, so a curve costs 2 solves plus one per interior theta; a
    scalar theta raises DomainError.
    """
    check_positive("beta", beta)
    thetas = check_grid("theta", thetas)
    for theta in thetas:
        if not 0.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {theta!r}")
    if not thetas:
        return []
    if 0.5 * beta == 0.0:
        raise DomainError(f"beta={beta!r} is too small: beta/2 underflows to 0")
    g = free_energy_g_star(beta).g_star
    threshold = 1.0 - _speed_gap(0.5 * beta)[0]  # c*(beta/2)
    out = []
    for theta in thetas:
        if theta >= threshold:
            out.append((beta / theta + _I(theta) + g, "boundary", theta))
            continue
        # interior branch: beta = 2 r^2 I'(2r - theta) with x = 2r - theta in (0, 1);
        # at u = 1 - x -> 1 the target tends to -beta < 0, so the full gap range brackets
        scale = lambda u: 0.5 * (1.0 + theta - u) ** 2  # 2 r^2 at x = 1 - u
        scale_p = lambda u: -(1.0 + theta - u)
        u, _ = _solve_gap(beta, scale, scale_p, 1.0 - 1e-16)
        r = 0.5 * (theta + (1.0 - u))
        out.append((beta / r + _I_from_gap(u) + g, "interior", r))
    return out
