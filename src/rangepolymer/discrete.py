"""Closed-form constants of the discrete range-penalized walk in one dimension.

The model tilts the simple random walk by exp(-beta * n^2 / R_n), where R_n
counts the sites visited by the first n positions.  Everything here is a
function of the repelling strength beta:

    I(x)      = (1+x)/2 log(1+x) + (1-x)/2 log(1-x)   range rate function
    c*(beta)  : root of beta = c^2 I'(c)              endpoint speed
    g*(beta)  = -(beta/c* + I(c*))                    free energy
              = -2 c* artanh c* - log(1-c*^2)/2
    sigma*    : 1/sigma*^2 = 2 beta/c*^3 + 1/(1-c*^2) CLT spread
    I^beta    : two-branch rate function of the endpoint velocity under the
                tilted measure conditioned on a positive endpoint

The speed, the branch threshold and the interior LDP roots solve one
equation, (theta + x)^2 artanh x = target, in ``_logit_root``.  The speed
runs from c* ~ beta^(1/3) as beta -> 0 to 1 - c* ~ 2 exp(-2 beta), far
below the double spacing near 1, as beta grows; so the solve works in
s = logit x, where both ends keep full relative precision, and every
downstream formula is read off s (``_at_logit``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class PolymerConstants(NamedTuple):
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


def _logit(p: float) -> float:  # log(p/(1 - p)): -inf at 0, inf from 1 on
    return -math.inf if p == 0.0 else math.log(p) - math.log1p(-p) if p < 1.0 else math.inf


def _at_logit(s: float) -> tuple[float, float, float]:
    """x = sigma(s), artanh x = log1p(2 e^s)/2 and log(1 - x^2) at s = logit x,
    each to full relative precision as x -> 0 and as 1 - x -> 0: log(1 - x^2)
    is log1p(-x^2) for x <= 1/2 and log1p(x) - softplus(s) above."""
    if s > 0.0:
        e = math.exp(-s)
        x = 1.0 / (1.0 + e)
        return x, 0.5 * (s + math.log(2.0 + e)), math.log1p(x) - s - math.log1p(e)
    e = math.exp(s)
    x = e / (1.0 + e)
    return x, 0.5 * math.log1p(2.0 * e), math.log1p(-x * x)


def _logit_root(theta: float, target: float) -> tuple[float, float, float, RootResult]:
    """Root x in (0, 1) of (theta + x)^2 artanh x = target, in s = logit x.

    One equation gives every root of the model: theta = 0 and target beta
    is the speed c*(beta), target beta/2 the threshold c*(beta/2), and
    x = 2r - theta at target 2 beta the interior LDP root r.  It is solved
    on the log residual F(s) = 2 log(theta + x) + log artanh x - log target,
    which increases in s, and returns (x, artanh x, log(1 - x^2), the solve
    in s coordinates).  Needs theta = 0 or 4 theta^2 artanh theta < target.

    The bracket's ends are closed forms.  Below, with sigma(s) <= e^s and
    artanh sigma(s) <= e^s: at s = log(target)/3 - 1, theta <= 2 e^s gives
    F <= log(9/e^3) < 0, and theta > 2 e^s puts logit(theta/2) above s; at
    x = theta/2, artanh(theta/2) <= artanh(theta)/2 (convexity) gives a left
    side at most (9/32) 4 theta^2 artanh theta < target.  Above, with
    sigma(s)^2 >= 1 - 2 e^-s and artanh sigma(s) >= (s + log 2)/2: at
    s = 2 target + 1 the left side is at least target + 0.85 - 2 e^(-2 target
    - 1)(target + 0.85) > target; at x = (2 target)^(1/3) < 1 it is at least
    x^3 = 2 target.  The solve fails with DomainError only where the upper
    end overflows (target above ~9e307).
    """
    log_target = math.log(target)

    def f(s: float) -> tuple[float, float]:  # dx/ds = x (1 - x), d artanh x/ds = x/(1 + x)
        x, artanh, _ = _at_logit(s)
        return (2.0 * math.log(theta + x) + math.log(artanh) - log_target,
                2.0 * x * (1.0 - x) / (theta + x) + x / ((1.0 + x) * artanh))

    hi = min(2.0 * target + 1.0, _logit((2.0 * target) ** (1.0 / 3.0)))
    if hi == math.inf:
        raise DomainError(f"target {target!r} is too large (beta for the speed, 2 beta "
                          "for an interior LDP root): logit x, about twice it, overflows")
    res = bisect_newton(f, max(_logit(0.5 * theta), log_target / 3.0 - 1.0), hi)
    return (*_at_logit(res.value), res)


def _speed(beta: float) -> tuple[float, float, float, RootResult]:
    """``_logit_root`` at theta = 0 and target beta, the speed equation
    beta = c^2 I'(c); SolverError unless its log residual is at most 1e-12."""
    check_positive("beta", beta)
    solved = _logit_root(0.0, beta)
    res = solved[3]
    if not abs(res.residual) <= 1e-12:
        raise SolverError(
            f"speed solve log residual {res.residual!r} above 1e-12 on bracket "
            f"{res.bracket!r} in logit c")
    return solved


def speed_c_star(beta: float) -> RootResult:
    """Endpoint speed c*(beta): unique root in (0, 1) of beta = c^2 I'(c).

    The residual is the log residual log(c^2 artanh c / beta); the bracket is
    in c coordinates.
    """
    c, _, _, res = _speed(beta)
    return RootResult(c, res.residual, res.iterations,
                      (_at_logit(res.bracket[0])[0], _at_logit(res.bracket[1])[0]))


def free_energy_g_star(beta: float) -> PolymerConstants:
    """All one-beta constants of the discrete model.

    ``g_star`` is the closed form -2 c* artanh c* - log(1 - c*^2)/2 of the
    variational free energy -(beta/c* + I(c*)); ``sigma_star`` is
    sqrt((1 - c*^2)/(1 + q)), q = 2 beta (1 - c*^2)/c*^3, formed as one exp
    of logs, so it underflows to 0 from beta ~ 745 on where 1/(1 - c*^2)
    would overflow.
    """
    c, artanh, log_1mc2, _ = _speed(beta)
    q = 2.0 * (beta / c) / c / c * math.exp(log_1mc2)  # c^3 is subnormal below beta ~ 1e-308
    return PolymerConstants(
        beta=beta,
        c_star=c,
        g_star=-2.0 * c * artanh - 0.5 * log_1mc2,
        sigma_star=math.exp(0.5 * (log_1mc2 - math.log1p(q))),
    )


def _minus(a: float, a_gap: float, b: float, b_gap: float) -> float:
    """a - b, as (1 - b) - (1 - a) where both lie above 1/2."""
    return b_gap - a_gap if a > 0.5 and b > 0.5 else a - b


# (k - 1)/k!, k = 13 .. 2: phi(e^l) = l e^l - e^l + 1 = sum_{k>=2} (k - 1) l^k/k!
_PHI_SERIES = tuple((k - 1) / math.factorial(k) for k in range(13, 1, -1))


def _kl_side(p: float, q: float, log_ratio: float) -> float:
    """p log(p/q) - p + q >= 0 at l = log(p/q) = log_ratio (0 log 0 = 0).

    It is q phi(e^l).  For |l| < 1/4 the series of phi is summed by Horner's
    rule, whose partial sums stay positive (each coefficient is at least 3/2
    the next) and whose first omitted term is below 2^-55 of l^2/2; above,
    the value is at least 2.6 % of q and is formed as written."""
    if p == 0.0:
        return q
    if abs(log_ratio) >= 0.25:
        return p * log_ratio - p + q
    acc = 0.0
    for a in _PHI_SERIES:
        acc = a + log_ratio * acc
    return q * log_ratio * log_ratio * acc


def _split_rate(beta: float, theta: tuple, x: tuple, c: tuple) -> float:
    """beta/r + I(x) + g*, r = (theta + x)/2, from (value, log(1 - value)) of
    theta, x and c = c*, with its terms of size beta cancelled.

    By g* = -(beta/c + I(c)) and I'(c) = beta/c^2 it is beta/c^2 ((x - theta)/2
    + (r - c)^2/r) plus the Bregman divergence of I, the sum over +- of
    (1 +- x)/2 log((1 +- x)/(1 +- c)): nonnegative parts, the last two from
    ``_kl_side``, with differences above 1/2 taken between gaps (``_minus``).
    """
    (t, log_ut), (x, log_ux), (c, log_w) = theta, x, c
    ut, ux, w = math.exp(log_ut), math.exp(log_ux), math.exp(log_w)
    r, x_c = 0.5 * (t + x), _minus(x, ux, c, w)
    log_ux_w = math.log1p(-x_c / w) if abs(x_c) < 0.5 * w else log_ux - log_w
    return (beta / c / c * (0.5 * _minus(x, ux, t, ut) + _minus(r, 0.5 * (ut + ux), c, w) ** 2 / r)
            + _kl_side(0.5 * (1.0 + x), 0.5 * (1.0 + c), math.log1p(x_c / (1.0 + c)))
            + _kl_side(0.5 * ux, 0.5 * w, log_ux_w))


def ldp_rate_discrete_info(beta: float, thetas) -> list[tuple[float, str, float]]:
    """Two-branch endpoint-velocity rate I^beta(theta) over a grid of theta in [0, 1].

    Returns one (rate, branch id, auxiliary root) per theta, in input order.
    The rate is beta/r + I(x) + g*(beta).  For theta at or above c*(beta/2)
    it is on the "boundary" branch, with x = r = theta; below, on the
    "interior" branch, r is the auxiliary root of beta = 2 r^2 I'(2r - theta)
    and x = 2r - theta; ``_split_rate`` forms it.  Nonnegative, with its
    unique zero at c*(beta).  theta = 0 is handled by the interior branch
    directly (a limit, with beta/r finite since r > 0).  c*(beta) and the
    threshold are solved once per call, so a curve costs 2 solves plus one
    per interior theta; a scalar theta raises DomainError.
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
    c, _, log_1mc2, _ = _speed(beta)
    c = (c, log_1mc2 - math.log1p(c))
    threshold = _logit_root(0.0, 0.5 * beta)[0]  # c*(beta/2)
    out = []
    for theta in thetas:
        t = (theta, math.log1p(-theta) if theta < 1.0 else -math.inf)
        if theta >= threshold:
            x, branch = t, "boundary"
        else:
            # interior branch: beta = 2 r^2 I'(2r - theta), x = 2r - theta in (0, 1)
            x, _, log_1mx2, _ = _logit_root(theta, 2.0 * beta)
            x, branch = (x, log_1mx2 - math.log1p(x)), "interior"
        out.append((_split_rate(beta, t, x, c), branch, 0.5 * (theta + x[0])))
    return out
