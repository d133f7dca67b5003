"""Brownian range densities and the quadratures built on them.

The range R_t = max B - min B over [0, t] has the classical alternating
series density

    f(r) = (8/sqrt(t)) sum_{k>=1} (-1)^(k-1) k^2 phi(k r / sqrt(t)),

which converges uniformly only away from r = 0; callers must stay above the
floor r >= DEFAULT_FLOOR sqrt(t).  The joint density of (B_t, R_t) on
{0 < x < r, B_t > 0} is the two-sum expression obtained from the mixed
derivative of the two-barrier corridor probability; both series terminate
quickly because every term carries a Gaussian factor phi((2kr +- x)/sqrt(t)).

The tilt exp(-beta t^2 / rho) is integrated against these densities with
composite Gauss-Legendre panels (width ~ sqrt(t)/4 near the saddle
beta^(1/3) t).  rho = r + 2 is the exact unit-sausage radius; rho = r is the
surrogate used by the free-energy computation - the two free energies agree
in the limit while the partition functions themselves keep a constant ratio
exp(2 beta^(1/3)).  Quadrature integrands are assembled in log space: the
leading Gaussian e^{-r^2/2t} is folded into the tilt exponent together with
exp(-g** t), so no factor overflows or underflows at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .continuous import continuous_constants
from .errors import DomainError, ResourceCapError, check_positive
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

# np.exp returns exactly 0.0 for every argument below -745.1332 (the
# smallest subnormal's log, rounded); an argument at or below this is "dead".
_EXP_ZERO = -750.0


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
    """Density of the Brownian range at r, with an alternating-tail bound.

    Terms are summed until they have started to decrease and drop below
    1e-12 relative to the running sum; the reported truncation bound is
    the first omitted term (valid for alternating series once the terms
    decrease monotonically).  Where the first term is already 0.0 the loop
    would stop at once with value and bound 0.0; that result is returned
    before (k u)^2 can overflow.
    """
    _check_floor(t, r)
    sqrt_t = math.sqrt(t)
    u = r / sqrt_t
    if -0.5 * u * u <= _EXP_ZERO:
        return SeriesEval(value=0.0, truncation_bound=0.0, terms_used=1)
    scale = 8.0 / sqrt_t
    total = 0.0
    prev = math.inf
    k = 0
    while True:
        k += 1
        term = k * k * math.exp(-0.5 * (k * u) ** 2) / SQRT2PI
        total += term if k % 2 else -term
        if term < prev and term <= 1e-12 * max(1.0, abs(total)):
            break
        if k >= 100000:
            break
        prev = term
    nxt = (k + 1) ** 2 * math.exp(-0.5 * ((k + 1) * u) ** 2) / SQRT2PI
    return SeriesEval(value=scale * total, truncation_bound=scale * nxt, terms_used=k)


def _range_series_scaled(t: float, r: np.ndarray) -> np.ndarray:
    """f_R(r) * exp(r^2 / 2t) * sqrt(t) / 8: every term is bounded by k^2.

    Term k is k^2 exp(-(k^2 - 1) r^2 / 2t) / sqrt(2 pi); the k = 1 Gaussian
    has been pulled out so the caller can fold it into a larger exponent.
    """
    r = np.asarray(r, dtype=float)
    q = np.square(r) / (2.0 * t)
    total = np.zeros_like(q)
    prev = np.full_like(q, np.inf)
    active = np.ones(q.shape, dtype=bool)
    k = 0
    while active.any() and k < 100000:
        k += 1
        term = np.where(active, k * k * np.exp(-(k * k - 1.0) * q) / SQRT2PI, 0.0)
        total += term if k % 2 else -term
        done = (term < prev) & (term <= 1e-13 * np.maximum(1.0, np.abs(total)))
        active &= ~done
        prev = term
    return total


def range_density_grid(t: float, r: np.ndarray) -> np.ndarray:
    """Vectorized range density; caller is responsible for the domain floor."""
    r = np.asarray(r, dtype=float)
    return 8.0 / math.sqrt(t) * np.exp(-np.square(r) / (2.0 * t)) \
        * _range_series_scaled(t, r)


def _joint_series_scaled(t: float, x: np.ndarray, r: np.ndarray,
                         tol: float = 1e-13):
    """Joint density times exp(r^2 / 2t), term exponents all nonpositive.

    For 0 < x < r every Gaussian argument satisfies (2kr -+ x)^2 >= r^2, so
    scaling by exp(r^2/2t) keeps each term bounded; the k = 1 contribution is
    O(1) and the blocks decay geometrically.  Returns (value, remainder
    bound with a conservative factor 10, terms used).  Block 1's largest
    |a| is at most a1 = 2 max|r| + max|x|; where 4 (a1^2/t + 1) is not
    finite (a NaN argument, or an r so large that a^2 overflows), its terms
    would be inf * 0 = NaN, so that input raises DomainError before the
    loop, with no numpy warning.  A NaN block max further on can never meet
    the stop test, so it raises DomainError too.

    Nearly all the cost is np.exp on arguments that underflow: a result that
    rounds to 0.0 costs ~10x a normal one.  Dead arguments (<= _EXP_ZERO)
    are masked out of the exp and keep the 0.0 their slot was filled with,
    which is what exp returns for them, so every term is bitwise the plain
    evaluation's.  A block k >= 2 whose arguments are all dead is not
    computed: each of its terms is then a signed zero, and the sums start at
    +0.0, so they never hold -0.0 and adding a zero leaves them as they are;
    the block's max is 0.0.  That holds while no factor multiplying a zero
    exp is infinite and t^(3/2) > 0 (else a term is NaN), which the guard
    checks on the largest a^2, the products being monotone in it.  Every
    other expression keeps the plain evaluation's association.
    """
    st = math.sqrt(t)
    t32 = t * st
    two_t = 2.0 * t
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    a1 = 2.0 * float(np.abs(r).max()) + float(np.abs(x).max())
    if not 4.0 * (a1 * a1 / t + 1.0) < math.inf:
        raise DomainError(f"joint series overflows at t={t!r}: x or r out of range")
    base = np.square(r) / two_t
    shape = np.broadcast(x, r).shape
    s_sym = np.zeros(shape)
    s_asym = np.zeros(shape)
    am, ap, zm2, zp2, em, ep, tm, tp = (np.empty(shape) for _ in range(8))
    k = 0
    block_max = math.inf
    while k < 100000:
        k += 1
        kr = 2.0 * k * r
        np.subtract(kr, x, out=am)
        np.add(kr, x, out=ap)
        np.square(am, out=zm2)
        np.square(ap, out=zp2)
        # exp arguments base - a^2/2t; zm2, zp2 still hold a^2
        np.subtract(base, np.divide(zm2, two_t, out=tm), out=tm)
        np.subtract(base, np.divide(zp2, two_t, out=tp), out=tp)
        if (k >= 2 and tm.max() <= _EXP_ZERO and tp.max() <= _EXP_ZERO
                and t32 > 0.0 and float(zp2.max()) / t < math.inf
                and 4.0 * k * k * (float(zm2.max()) / t + 1.0) < math.inf):
            block_max = 0.0  # an all-dead block: every term is a signed zero
        else:
            zm2 /= t
            zp2 /= t
            for arg, e in ((tm, em), (tp, ep)):
                e.fill(0.0)
                np.exp(arg, out=e, where=~(arg <= _EXP_ZERO))  # NaN stays live
                e /= SQRT2PI
            c = 4.0 * k * k
            # s_sym += c * ((zm2 - 1.0) * em + (zp2 - 1.0) * ep)
            np.subtract(zm2, 1.0, out=tm)
            tm *= em
            np.subtract(zp2, 1.0, out=tp)
            tp *= ep
            tm += tp
            tm *= c
            s_sym += tm
            # s_asym += (4k(k-1) * am * em - 4k(k+1) * ap * ep) / t32
            am *= 4.0 * k * (k - 1)
            am *= em
            ap *= 4.0 * k * (k + 1)
            ap *= ep
            am -= ap
            am /= t32
            s_asym += am
            # block_max = max(c * (zm2 + 1.0) * em)
            zm2 += 1.0
            zm2 *= c
            zm2 *= em
            block_max = float(zm2.max())
        if block_max <= tol * max(1.0, float(np.abs(s_sym, out=tm).max())):
            break
        if block_max != block_max:
            raise DomainError(f"joint series is NaN at t={t!r}: x or r out of range")
    value = (r - x) / t32 * s_sym + s_asym
    return value, 10.0 * block_max, k


def joint_density(t: float, x: float, r: float) -> SeriesEval:
    """Joint density of (B_t in dx, R_t in dr, B_t > 0) at 0 < x < r."""
    if not 0.0 < x < r:
        raise DomainError(f"need 0 < x < r, got x={x!r}, r={r!r}")
    _check_floor(t, r)
    val, bound, terms = _joint_series_scaled(t, np.array([x]), np.array([r]), 1e-12)
    damp = math.exp(-r * r / (2.0 * t))
    return SeriesEval(value=float(val[0]) * damp, truncation_bound=bound * damp,
                      terms_used=terms)


def joint_density_grid(t: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized joint density (shapes broadcast).

    Checks only that t is finite and positive and that x and r are finite
    (a NaN would keep the series from ever meeting its stop test); points
    off the wedge 0 < x < r are evaluated as they are.
    """
    check_positive("t", t)
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(r).all()):
        raise DomainError("x and r must be finite")
    val, _, _ = _joint_series_scaled(t, x, r)
    return val * np.exp(-np.square(r) / (2.0 * t))


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


def _tilted_range_integral(beta: float, t: float, r_lo: float, r_hi: float,
                           g: float, use_exact_radius: bool, width: float,
                           order: int, tol: float) -> tuple[float, int, float]:
    """Integral of f_R(r) exp(-beta t^2/rho - g t) dr, extending r_hi."""
    nodes_used = 0

    def chunk(a: float, b: float) -> float:
        nonlocal nodes_used
        X, W = _panels(a, b, width, order)
        nodes_used += len(X)
        series = _range_series_scaled(t, X)
        ex = np.exp(_tilt_exponent(beta, t, X, g, use_exact_radius))
        return 8.0 / math.sqrt(t) * float(np.dot(W, series * ex))

    acc = chunk(r_lo, r_hi)
    step = max(width * 4.0, 0.25 * (r_hi - r_lo))
    quiet = 0
    hi = r_hi
    while quiet < 2 and hi < r_lo + 60.0 * (r_hi - r_lo):
        extra = chunk(hi, hi + step)
        acc += extra
        hi += step
        quiet = quiet + 1 if abs(extra) <= tol * abs(acc) else 0
    return acc, nodes_used, hi


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
    width = 0.25 * math.sqrt(t)
    coarse, n1, hi1 = _tilted_range_integral(
        beta, t, r_lo, r_hi, g, use_exact_radius, width, _ORDER, 1e-9)
    fine, n2, hi2 = _tilted_range_integral(
        beta, t, r_lo, r_hi, g, use_exact_radius, 0.5 * width, _ORDER, 1e-9)
    log_value = math.log(fine) + g * t if fine > 0.0 else -math.inf
    err_scaled = abs(fine - coarse)
    return QuadratureResult(
        value=fine * math.exp(g * t),
        abs_error_estimate=err_scaled * math.exp(g * t),
        nodes=n1 + n2,
        domain=(r_lo, max(hi1, hi2)),
        log_value=log_value,
    )


def _levels(C) -> list[float]:
    """CLT levels as a list of floats; ``C`` is a 1-D sequence of finite values."""
    arr = np.asarray(C, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"C must be a 1-D sequence of levels, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"CLT levels must be finite, got {C!r}")
    return arr.tolist()


def range_second_order_cdf(beta: float, t: float, C,
                           use_exact_radius: bool = False) -> list[float]:
    """Tail probability of the normalized range under the tilted measure.

    Returns P(C < (R_t - beta^(1/3) t) / (sqrt(t)/sqrt(3))), which tends to
    1 - Phi(C); exactly 1.0 when the threshold falls below the integration
    cutoff and 0.0 when it lies at or beyond the denominator's upper limit.
    ``C`` is a sequence of finite levels; the tails come back as a list in
    input order.  The C-independent denominator is integrated once per call,
    so each level costs one numerator integral only.
    """
    check_positive("beta", beta)
    levels = _levels(C)
    r_lo, r_hi, c, g = _z_domain(beta, t)
    width = 0.125 * math.sqrt(t)
    den, _, hi = _tilted_range_integral(beta, t, r_lo, r_hi, g, use_exact_radius,
                                        width, _ORDER, 1e-10)
    tails = []
    for level in levels:
        thr = c * t + level * math.sqrt(t) / math.sqrt(3.0)
        if thr <= r_lo:
            tails.append(1.0)
        elif thr >= hi:
            tails.append(0.0)
        else:
            num, _, _ = _tilted_range_integral(
                beta, t, thr, max(r_hi, thr + math.sqrt(t)), g,
                use_exact_radius, width, _ORDER, 1e-10)
            tails.append(min(num / den, 1.0))
    return tails


# A row term at most 2^-60 of a sum is far below half an ulp of that sum.
_ABSORBED = 2.0 ** 60


def _joint_series_bound(t: float, r: float) -> float:
    """H(r, t) >= |_joint_series_scaled(t, x, r)| for every 0 < x < r.

    With q = r^2/t, block k of the series has a-+ = 2kr -+ x in
    ((2k-1) r, (2k+1) r), so each Gaussian factor exp(r^2/2t - a^2/2t) is at
    most exp(-2k(k-1) q) <= rho^(k-1), rho = exp(-4q); |a-^2/t - 1| <=
    4k^2 q + 1, |a+^2/t - 1| <= (2k+1)^2 q + 1 and 0 < r - x < r.  The
    block's share of (r - x)/t^(3/2) s_sym + s_asym is therefore at most

        r/(sqrt(2 pi) t^(3/2)) rho^(k-1) [4k^2((8k^2 + 4k + 1) q + 2)
                                          + 8k^2(k-1) + 4k(k+1)(2k+1)]
        <= r (52 q + 32)/(sqrt(2 pi) t^(3/2)) k^4 rho^(k-1),

    comparing coefficients (32k^4 + 16k^3 + 4k^2 <= 52k^4 and 16k^3 + 12k^2
    + 4k <= 32k^4).  Summing, sum_k k^4 rho^(k-1) = (1 + 11 rho + 11 rho^2
    + rho^3)/(1 - rho)^5 bounds every partial sum the kernel can stop at.
    The factor 2 in front is the rounding margin.  The kernel's few dozen
    roundings and np.exp's ulp-level error per term, the row's s-weights
    (whose float sum is s_max to ~1e-15) and the roundings of weight * H *
    s_max and of the row sums use up a negligible part of it.
    """
    q = r * r / t
    rho = math.exp(-4.0 * q)
    tail = (1.0 + rho * (11.0 + rho * (11.0 + rho))) / (-math.expm1(-4.0 * q)) ** 5
    return 2.0 * r * (52.0 * q + 32.0) / (SQRT2PI * t * math.sqrt(t)) * tail


def endpoint_clt_continuous(beta: float, t: float, C,
                            use_exact_radius: bool = False) -> list[float]:
    """Conditional CDF P((B_t - c** t)/(sigma** sqrt(t)) <= C | B_t > 0).

    Two-dimensional weighted quadrature of the joint density against the
    tilt, over the saddle window in r; the x integral runs over the gap
    s = r - x, where the joint mass concentrates on the scale t/r.  The
    numerator clips x at the CLT threshold; the denominator is unclipped.

    ``C`` is a sequence of finite levels; the CDFs come back as a list in
    input order.  Only the clip depends on C, so every level is read off one
    sweep over the nodes.  The s-panels differ per r node, so the sweep walks
    the r nodes in ascending order and each level's sum is accumulated
    exactly as a one-level call would.

    A row r whose term every sum it can touch would absorb is skipped
    before its panels are built.  Its term, and each level's part of it, is
    at most B = weight * H * s_max with H = ``_joint_series_bound``
    (|h_scaled| <= H/2 up to rounding; the s-weights sum to s_max).  Its
    nodes x = r - s lie in [r - s_max, r), so it touches num_i only if
    r - s_max <= x_cut_i.  If B * 2^60 <= A for den and every such num_i,
    the computed term is at most about 2^-61 A: under half an ulp of A when
    A is normal, and rounded to a signed zero when A is subnormal or 0.0
    (the sums start at +0.0, so they never hold -0.0).  Every sum, hence
    every CDF, is then bitwise what the full sweep gives.  A row of weight
    0.0 has B = 0.0 and is skipped at once.  Past the saddle the tilt weight
    falls as a Gaussian in r, so the test skips most of the tail rows.
    """
    check_positive("beta", beta)
    levels = _levels(C)
    r_lo, r_hi, c, g = _z_domain(beta, t)
    if not levels:
        return []
    st = math.sqrt(t)
    x_cuts = [c * t + level * st / math.sqrt(3.0) for level in levels]
    R, WR = _panels(r_lo, r_hi, 0.25 * st, _ORDER)
    num = [0.0] * len(x_cuts)
    den = 0.0
    for r_val, w_r in zip(R, WR):
        weight = w_r * math.exp(
            float(_tilt_exponent(beta, t, np.float64(r_val), g, use_exact_radius)))
        s_max = min(r_val, 30.0 * t / r_val + 4.0 * st)
        scaled = weight * (_joint_series_bound(t, r_val) * s_max) * _ABSORBED
        if scaled <= den and all(scaled <= n for n, x_cut in zip(num, x_cuts)
                                 if r_val - s_max <= x_cut):
            continue
        gap_scale = min(t / r_val, st)
        S, WS = _panels(0.0, s_max, 0.5 * gap_scale, _ORDER)
        xv = r_val - S
        keep = xv > 0.0
        if not keep.any():
            continue
        xk = xv[keep]
        h_scaled, _, _ = _joint_series_scaled(t, xk, np.float64(r_val))
        contrib = h_scaled * WS[keep]
        den += weight * float(contrib.sum())
        for i, x_cut in enumerate(x_cuts):
            below = xk <= x_cut
            if below.any():
                num[i] += weight * float(contrib[below].sum())
    if den <= 0.0:
        raise DomainError("empty quadrature window; increase t")
    return [float(n / den) for n in num]
