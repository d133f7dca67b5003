"""Brownian range densities and the quadratures built on them.

The range R_t = max B - min B over [0, t] has the classical alternating
series density

    f(r) = (8/sqrt(t)) sum_{k>=1} (-1)^(k-1) k^2 phi(k r / sqrt(t)),

summed below u = r/sqrt(t) = sqrt(pi) through its Jacobi dual

    f(r) = (8/sqrt(t)) sum_{j odd} (j^2 pi^2/u^5 - 1/u^3) exp(-j^2 pi^2 / 2u^2);

callers must stay above the floor r >= DEFAULT_FLOOR sqrt(t).  The joint
density of (B_t, R_t) on {0 < x < r, B_t > 0} is the two-sum expression
obtained from the mixed derivative of the two-barrier corridor probability;
every term carries a Gaussian factor phi(2ku +- v), u = r/sqrt(t) and
v = x/sqrt(t).  The density and its x-integral A(x; r), closed-form term by
term, both sum the blocks of one generator, ``_joint_blocks``.

Z_t and both CLTs are calls of one tilted r-quadrature, ``_tilted_mass``:
an r-integrand times exp(-beta t^2 / rho) on composite Gauss-Legendre
panels (width sqrt(t)/4 near the saddle beta^(1/3) t).  The CLTs share one
window and its range mass; below its clip the endpoint CDF reads the wedge
mass f_R/2 from the range kernel, above it A(x_cut; r) - A(0; r).
rho = r + 2 is the exact unit-sausage radius; rho = r is the surrogate used
by the free-energy computation - the two free energies agree in the limit
while the partition functions themselves keep a constant ratio
exp(2 beta^(1/3)).  Integrands are assembled in log space: the leading
Gaussian e^{-r^2/2t} is folded into the tilt exponent together with
exp(-g** t), so no factor overflows or underflows at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .continuous import continuous_constants
from .errors import DomainError, ResourceCapError, check_grid, check_positive
from .gaussian import SQRT2PI

__all__ = [
    "SeriesEval",
    "QuadratureResult",
    "DEFAULT_FLOOR",
    "range_density",
    "range_density_grid",
    "joint_density",
    "joint_density_grid",
    "partition_function_continuous",
    "range_second_order_cdf",
    "endpoint_clt_continuous",
    "small_range_weight_bound",
]

DEFAULT_FLOOR = 0.05

# Gauss-Legendre nodes per panel of every production quadrature.
_ORDER = 16

# Most nodes one composite Gauss-Legendre layout may hold.  The quadratures
# here use at most a few thousand per layout at the documented sizes.
PANEL_NODE_CAP = 10**6

@dataclass(frozen=True)
class SeriesEval:
    """Series value with a rigorous truncation bound and the term count."""

    value: float
    truncation_bound: float
    terms_used: int


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, error estimate from panel refinement, and the domain.

    ``log_value`` stays finite when ``value`` itself would underflow (the
    partition function decays like exp(g** t)).
    """

    value: float
    abs_error_estimate: float
    nodes: int
    domain: tuple[float, float]
    log_value: float


def _check_floor(t: float, r: float) -> None:
    check_positive("t", t)
    check_positive("r", r)
    if r < DEFAULT_FLOOR * math.sqrt(t):
        raise DomainError(
            f"r={r!r} below the uniform-convergence floor {DEFAULT_FLOOR!r}*sqrt(t); "
            "restrict the integration domain instead of evaluating here"
        )


def range_density(t: float, r: float) -> SeriesEval:
    """Density of the Brownian range at r, with a truncation bound.

    A one-point call of ``_range_series_scaled``, so it is bitwise
    ``range_density_grid`` at r; the bound is the kernel's, scaled alike.
    Where the Gaussian factor exp(-u^2/2) is already 0.0 the density and its
    bound are returned as 0.0 at once, before u^2 can overflow.
    """
    _check_floor(t, r)
    sqrt_t = math.sqrt(t)
    u = r / sqrt_t
    if math.exp(-0.5 * u * u) == 0.0:
        return SeriesEval(value=0.0, truncation_bound=0.0, terms_used=1)
    rs = np.array([r])
    series, bound, terms = _range_series_scaled(t, rs)
    damp = (8.0 / sqrt_t * np.exp(-0.5 * np.square(rs / sqrt_t)))[0]
    return SeriesEval(value=float(damp * series[0]), truncation_bound=float(damp * bound),
                      terms_used=terms)


def _range_series_scaled(t: float, r: np.ndarray) -> tuple[np.ndarray, float, int]:
    """f_R(r) * exp(r^2 / 2t) * sqrt(t) / 8, a truncation bound, terms used.

    With u = r/sqrt(t) and q = u^2/2 (formed from u, so q cannot underflow
    while u is in range), term k of Feller's alternating series is
    k^2 exp(-(k^2 - 1) q) / sqrt(2 pi): the k = 1 Gaussian has been pulled
    out so the caller can fold it into a larger exponent.  Below
    u = sqrt(pi) that series cancels to noise, so there the Jacobi dual is
    summed instead: term j = 1, 3, 5, ... is (j^2 pi^2/u^2 - 1) u^-3
    exp(q - j^2 pi^2/4q), every one positive.  On its own side of sqrt(pi)
    every exponent is <= 0 and each term is at most 0.036 (primal) or
    4.5e-5 (dual) of the one before, so the remainder is at most the last
    term added times 0.036 (alternating) or 4.5e-5/(1 - 4.5e-5) (a
    geometric tail); the bound returned is the largest of those over r.
    A point stops once its term is at most 1e-13 of max(1, |partial sum|).
    """
    q = 0.5 * np.square(np.asarray(r, dtype=float) / math.sqrt(t))
    dual = q < 0.5 * math.pi
    primal = ~dual
    qp, qd = q[primal], q[dual]
    a = math.pi ** 2 / (4.0 * qd)
    u3 = (2.0 * qd) ** 1.5
    sign = np.where(dual, 1.0, -1.0)
    total = np.zeros_like(q)
    term = np.zeros_like(q)
    last = np.zeros_like(q)
    active = np.ones(q.shape, dtype=bool)
    k = 0
    while active.any() and k < 100000:
        k += 1
        j2 = (2 * k - 1) ** 2
        term[primal] = k * k * np.exp(-(k * k - 1.0) * qp) / SQRT2PI
        term[dual] = (2.0 * j2 * a - 1.0) * np.exp(qd - j2 * a) / u3
        term[~active] = 0.0
        total += term if k % 2 else sign * term
        last[active] = term[active]
        active &= ~(term <= 1e-13 * np.maximum(1.0, np.abs(total)))
    last *= np.where(dual, 4.5e-5 / (1.0 - 4.5e-5), 0.036)
    return total, float(last.max(initial=0.0)), k


def range_density_grid(t: float, r: np.ndarray) -> np.ndarray:
    """Vectorized range density; caller is responsible for the domain floor."""
    r = np.asarray(r, dtype=float)
    return 8.0 / math.sqrt(t) * np.exp(-0.5 * np.square(r / math.sqrt(t))) \
        * _range_series_scaled(t, r)[0]


def _joint_blocks(t: float, x: np.ndarray, r: np.ndarray):
    """Yield (k, u - v, z-, z+, e-, e+) for blocks k = 1, 2, ... of the joint
    series: z-+ = 2ku -+ v, and e-+ = exp(u^2/2) phi(z-+) is formed as
    exp(-(z-+ - u)(z-+ + u)/2)/sqrt(2 pi), so no square of a large argument
    is subtracted.  Where 4 ((2u + |v|)^2 + 1) is not finite (a non-finite
    argument, or a u whose block-1 z+^2 overflows) the terms would be
    inf * 0 = NaN: that input raises DomainError, with no warning.
    """
    st = math.sqrt(t)
    u = np.asarray(r, dtype=float) / st
    v = np.asarray(x, dtype=float) / st
    a1 = 2.0 * float(np.abs(u).max()) + float(np.abs(v).max())
    if not 4.0 * (a1 * a1 + 1.0) < math.inf:
        raise DomainError(f"joint series overflows at t={t!r}: x or r out of range")
    gap = u - v
    for k in range(1, 100001):
        lo, mid, hi = (2 * k - 1) * u, 2 * k * u, (2 * k + 1) * u
        em = np.exp(-0.5 * (lo - v) * (hi - v)) / SQRT2PI
        ep = np.exp(-0.5 * (lo + v) * (hi + v)) / SQRT2PI
        yield k, gap, mid - v, mid + v, em, ep


def _joint_series_scaled(t: float, x: np.ndarray, r: np.ndarray):
    """h(x, r) exp(u^2/2) = ((u - v) S + T)/t, a truncation bound, terms used.

    S = sum 4k^2 [(z-^2 - 1) e- + (z+^2 - 1) e+] and T = sum [4k(k - 1) z- e-
    - 4k(k + 1) z+ e+] over ``_joint_blocks``; on 0 < x < r every z-+ >= u,
    so the blocks decay geometrically.  Summing stops once a block's envelope
    4k^2 (z-^2 + 1) e- is at most 1e-13 of max(1, |S|).  No term of S or T
    exceeds its branch's envelope, so the bound, scaled as the value is, is
    10 (1 + |u - v|)/t times the last one.  A NaN block raises DomainError.
    """
    s_sym = s_asym = 0.0
    for k, gap, zm, zp, em, ep in _joint_blocks(t, x, r):
        s_sym += 4.0 * k * k * ((zm * zm - 1.0) * em + (zp * zp - 1.0) * ep)
        s_asym += (4.0 * k * (k - 1) * zm * em - 4.0 * k * (k + 1) * zp * ep)
        block_max = float(np.max(4.0 * k * k * (zm * zm + 1.0) * em))
        if block_max <= 1e-13 * max(1.0, float(np.max(np.abs(s_sym)))):
            break
        if block_max != block_max:
            raise DomainError(f"joint series is NaN at t={t!r}: x or r out of range")
    bound = 10.0 * (1.0 + float(np.max(np.abs(gap)))) * block_max / t
    return (gap * s_sym + s_asym) / t, bound, k


def _joint_cdf_series_scaled(t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """A(x; r) times exp(r^2 / 2t), where dA/dx is the joint density h(x, r).

    Each block of ``_joint_blocks`` integrates in x term by term, since
    phi'' = (z^2 - 1) phi and phi' = -z phi:

        A = (4/sqrt(t)) sum_k k { phi(z-) [k (u - v) z- + 2k - 1]
                                 + phi(z+) [2k + 1 - k (u - v) z+] },

    and A(r; r) - A(0; r) = f_R(r)/2, the range density's share on B_t > 0.
    Summing stops once a block is at most 1e-13 of max(1, |partial sum|).
    """
    st = math.sqrt(t)
    total = 0.0
    for k, gap, zm, zp, em, ep in _joint_blocks(t, x, r):
        block = 4.0 * k / st * (em * (k * gap * zm + (2 * k - 1))
                                + ep * ((2 * k + 1) - k * gap * zp))
        total += block
        if np.max(np.abs(block)) <= 1e-13 * max(1.0, float(np.max(np.abs(total)))):
            break
    return total


def joint_density(t: float, x: float, r: float) -> SeriesEval:
    """Joint density of (B_t in dx, R_t in dr, B_t > 0) at 0 < x < r.

    The damping exp(-u^2/2) is formed from u = r/sqrt(t).  Below u ~ 0.6 the
    series cancels: against a 60-digit sum the value is up to 4e-9 off
    (relative) at u = 0.5, 3e-4 at u = 0.4 and 2e5 at u = 0.3, and it can be
    negative (-2.8e-11 at u = 0.05, t = 1); the bound exceeded every error seen.
    """
    if not 0.0 < x < r:
        raise DomainError(f"need 0 < x < r, got x={x!r}, r={r!r}")
    _check_floor(t, r)
    val, bound, terms = _joint_series_scaled(t, np.array([x]), np.array([r]))
    u = r / math.sqrt(t)
    damp = math.exp(-0.5 * u * u)
    return SeriesEval(value=float(val[0]) * damp, truncation_bound=bound * damp,
                      terms_used=terms)


def joint_density_grid(t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized joint density (shapes broadcast); the kernel refuses a
    non-finite x or r, and points off the wedge 0 < x < r are evaluated."""
    check_positive("t", t)
    val, _, _ = _joint_series_scaled(t, x, r)
    return val * np.exp(-0.5 * np.square(np.asarray(r, dtype=float) / math.sqrt(t)))


@lru_cache(maxsize=32)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panels(a: float, b: float, max_width: float, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b].

    Raises ResourceCapError when the layout would pass PANEL_NODE_CAP nodes.
    """
    xs, ws = _leggauss(order)
    panels = (b - a) / max(max_width, 1e-300)
    if not panels <= PANEL_NODE_CAP // order:  # NaN and +inf fail too
        raise ResourceCapError(
            f"{panels * order:.3g} quadrature nodes on [{a:.6g}, {b:.6g}] exceed "
            f"the cap of {PANEL_NODE_CAP:.0e}")
    count = max(1, int(math.ceil(panels)))
    edges = np.linspace(a, b, count + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (half[:, None] * xs[None, :] + mid[:, None]).ravel(), \
        (half[:, None] * ws[None, :]).ravel()


def small_range_weight_bound(beta: float, t: float,
                             use_exact_radius: bool = False) -> float:
    """Upper bound on the tilt weight over the excluded region r < cutoff.

    The weight is monotone in r, so the whole small-range contribution to the
    partition function is at most exp(-beta t^2 / rho(cutoff)), which equals
    exp(-2 beta^(2/3) t) for the surrogate radius.
    """
    cut = 0.5 * continuous_constants(beta).c_dstar * t
    rho = cut + 2.0 if use_exact_radius else cut
    return math.exp(-beta * t * t / rho)


def _z_domain(beta: float, t: float) -> tuple[float, float, float, float]:
    """Saddle window (r_lo, r_hi) = (c** t/2, 4 c** t), c** and g** at beta."""
    check_positive("t", t)
    consts = continuous_constants(beta)
    c = consts.c_dstar
    r_lo = 0.5 * c * t
    if r_lo < DEFAULT_FLOOR * math.sqrt(t):
        raise DomainError(
            f"cutoff {r_lo!r} below the series floor {DEFAULT_FLOOR!r}*sqrt(t); "
            "increase t or beta"
        )
    return r_lo, 4.0 * c * t, c, consts.g_dstar


def _tilt_exponent(beta: float, t: float, r: np.ndarray, g: float,
                   use_exact_radius: bool) -> np.ndarray:
    """-beta t^2/rho - r^2/2t - g** t: nonpositive near the saddle, bounded."""
    rho = r + 2.0 if use_exact_radius else r
    return -beta * t * t / rho - np.square(r) / (2.0 * t) - g * t


def _tilted_mass(beta: float, t: float, g: float, use_exact_radius: bool,
                 width: float, f, a: float, b: float,
                 tol: float | None = None) -> tuple[float, float, int]:
    """Integral of f(r) exp(_tilt_exponent) over [a, b] on ``_ORDER``-node
    Gauss-Legendre panels of width ``width``, the one tilted r-quadrature.

    With a ``tol``, chunks past b are added until two in a row each add at
    most tol of the total, or the limit reaches a + 60 (b - a).  Returns the
    integral, the final upper limit and the number of nodes used.
    """
    nodes = 0

    def chunk(lo: float, hi: float) -> float:
        nonlocal nodes
        R, W = _panels(lo, hi, width, _ORDER)
        nodes += len(R)
        return math.fsum(W * f(R) * np.exp(_tilt_exponent(beta, t, R, g, use_exact_radius)))

    acc = chunk(a, b)
    step = max(width * 4.0, 0.25 * (b - a))
    quiet = 0
    hi = b
    while tol is not None and quiet < 2 and hi < a + 60.0 * (b - a):
        extra = chunk(hi, hi + step)
        acc += extra
        hi += step
        quiet = quiet + 1 if abs(extra) <= tol * abs(acc) else 0
    return acc, hi, nodes


def _scaled_range(t: float):
    """The range integrand r -> f_R(r) exp(r^2/2t) sqrt(t)/8."""
    return lambda r: _range_series_scaled(t, r)[0]


def partition_function_continuous(beta: float, t: float,
                                  use_exact_radius: bool = False) -> QuadratureResult:
    """Quadrature of the tilted range density: Z_t = E exp(-beta t^2 / rho).

    Integrates from the cutoff beta^(1/3) t / 2 and extends the upper limit
    until the tail contributes below 1e-9 relative to the total.  The
    error estimate is the change under halving the panel width.  The omitted
    small-range region is bounded by ``small_range_weight_bound``.
    """
    check_positive("beta", beta)
    r_lo, r_hi, _, g = _z_domain(beta, t)
    mass = partial(_tilted_mass, beta, t, g, use_exact_radius)
    coarse, hi1, n1 = mass(0.25 * math.sqrt(t), _scaled_range(t), r_lo, r_hi, 1e-9)
    fine, hi2, n2 = mass(0.125 * math.sqrt(t), _scaled_range(t), r_lo, r_hi, 1e-9)
    fine, coarse = 8.0 / math.sqrt(t) * fine, 8.0 / math.sqrt(t) * coarse
    return QuadratureResult(
        value=fine * math.exp(g * t),
        abs_error_estimate=abs(fine - coarse) * math.exp(g * t),
        nodes=n1 + n2,
        domain=(r_lo, max(hi1, hi2)),
        log_value=math.log(fine) + g * t if fine > 0.0 else -math.inf,
    )


def _clt_window(beta: float, t: float, C, use_exact_radius: bool):
    """What both CLTs share: the checked levels, the centre c** t, and one
    window [r_lo, hi] with its range mass ``den``.

    The window starts at the cutoff beta^(1/3) t / 2 and is extended past
    4 c** t until the tail adds at most 1e-10 of the total.  ``mass(f, a, b)``
    integrates f against the tilt on the window's panel width sqrt(t)/4.
    """
    check_positive("beta", beta)
    levels = check_grid("C", C)
    r_lo, r_hi, c, g = _z_domain(beta, t)
    mass = partial(_tilted_mass, beta, t, g, use_exact_radius, 0.25 * math.sqrt(t))
    den, hi, _ = mass(_scaled_range(t), r_lo, r_hi, 1e-10)
    if not den > 0.0:
        raise DomainError("empty quadrature window; increase t")
    return levels, c * t, r_lo, hi, den, mass


def range_second_order_cdf(beta: float, t: float, C,
                           use_exact_radius: bool = False) -> list[float]:
    """Tail probability of the normalized range under the tilted measure.

    Returns P(C < (R_t - beta^(1/3) t) / (sqrt(t)/sqrt(3))), which tends to
    1 - Phi(C); exactly 1.0 when the threshold falls below the integration
    cutoff and 0.0 when it lies at or beyond the window's upper limit.
    ``C`` is a sequence of finite levels; the tails come back as a list in
    input order.  Each is the range mass over [threshold, hi] of the window
    ``_clt_window`` shares with the endpoint CLT, over the whole window's.
    """
    levels, centre, r_lo, hi, den, mass = _clt_window(beta, t, C, use_exact_radius)
    tails = []
    for level in levels:
        thr = centre + level * math.sqrt(t) / math.sqrt(3.0)
        tails.append(1.0 if thr <= r_lo else 0.0 if thr >= hi else
                     min(mass(_scaled_range(t), thr, hi)[0] / den, 1.0))
    return tails


def endpoint_clt_continuous(beta: float, t: float, C,
                            use_exact_radius: bool = False) -> list[float]:
    """Conditional CDF P((B_t - c** t)/(sigma** sqrt(t)) <= C | B_t > 0).

    The x-integral of the joint density is closed-form
    (``_joint_cdf_series_scaled``), so each CDF is a ratio of 1-D
    quadratures in r against the tilt, over the window ``_clt_window``
    shares with the range CLT.  Below r = x_cut the whole wedge 0 < x < r
    counts, and its mass is f_R(r)/2, since P(B_t > 0 | R_t = r) = 1/2;
    above it the numerator integrates A(x_cut; r) - A(0; r), with a panel
    edge at x_cut, where the integrand has a kink.  The denominator is the
    window's range mass, halved.

    ``C`` is a sequence of finite levels; the CDFs come back as a list in
    input order, each computed as a one-level call would.
    """
    levels, centre, r_lo, hi, den, mass = _clt_window(beta, t, C, use_exact_radius)
    st = math.sqrt(t)
    cdfs = []
    for level in levels:
        x_cut = centre + level * st / math.sqrt(3.0)
        if x_cut >= hi:
            cdfs.append(1.0)
            continue
        edge, clip = max(x_cut, r_lo), max(x_cut, 0.0)
        below, _, _ = mass(_scaled_range(t), r_lo, edge)
        above, _, _ = mass(lambda r: _joint_cdf_series_scaled(t, clip, r)
                           - _joint_cdf_series_scaled(t, 0.0, r), edge, hi)
        cdfs.append(min((below + 0.25 * st * above) / den, 1.0))
    return cdfs
