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

Z_t and both CLTs are calls of one tilted quadrature in u = r/sqrt(t),
``_tilted_mass``, on the one window of ``_window``, off which the tilt
exp(-beta t^2 / rho) e^(-u^2/2) lies 40 nats below its peak.  The CLTs share
its range mass; below its clip the endpoint CDF reads the wedge mass f_R/2
from the range kernel, above it A(x_cut; r) - A(0; r).  rho = r + 2 is the
exact unit-sausage radius; rho = r is the surrogate used by the free-energy
computation - the two free energies agree in the limit while the partition
functions themselves keep a constant ratio exp(2 beta^(1/3)).  The tilt
exponent is taken relative to its value at the saddle, so no factor
overflows or underflows at any t.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, ResourceCapError, as_float_array, check_grid,
                     check_positive)
from .gaussian import SQRT2PI
from .roots import bisect_newton

__all__ = [
    "SeriesEval",
    "QuadratureResult",
    "range_density",
    "joint_density",
    "partition_function_continuous",
    "range_second_order_cdf",
    "endpoint_clt_continuous",
]

DEFAULT_FLOOR = 0.05

# The 16 Gauss-Legendre nodes and weights on [-1, 1] of every quadrature
# here: bitwise np.polynomial.legendre.leggauss(16).
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])

# Most nodes one composite Gauss-Legendre layout may hold.  The quadratures
# here use at most a few thousand per layout at the documented sizes.
PANEL_NODE_CAP = 10**6

class SeriesEval(NamedTuple):
    """Series value with a rigorous truncation bound and the term count;
    value and bound are arrays when the series is evaluated at an array."""

    value: float | np.ndarray
    truncation_bound: float | np.ndarray
    terms_used: int


class QuadratureResult(NamedTuple):
    """Integral value, error estimate from panel refinement, and the domain.

    ``log_value`` stays finite when ``value`` itself would underflow (the
    partition function decays like exp(g** t)).
    """

    value: float
    abs_error_estimate: float
    nodes: int
    domain: tuple[float, float]
    log_value: float


def _check_floor(t: float, r: np.ndarray) -> None:
    """DomainError at the first r, in input order, not finite or below the floor."""
    check_positive("t", t)
    bad = ~((r >= DEFAULT_FLOOR * math.sqrt(t)) & (r < math.inf)).ravel()
    if bad.any():
        first = float(r.flat[bad.argmax()])
        check_positive("r", first)
        raise DomainError(
            f"r={first!r} below the uniform-convergence floor {DEFAULT_FLOOR!r}*sqrt(t); "
            "restrict the integration domain instead of evaluating here"
        )


def range_density(t: float, r) -> SeriesEval:
    """Density of the Brownian range at r, with an error bound.

    ``r`` is a scalar or an array: every point is checked against the floor
    in input order, and the points are summed in one ``_range_series_scaled``
    call, so each value and bound is bitwise a one-point call's.  A scalar r
    gives float fields, an array r arrays of its shape; ``terms_used`` is the
    call's term count.  Where the Gaussian factor exp(-u^2/2) is already 0.0
    the density and its bound are 0.0, set before u^2 can overflow.

    The bound is the kernel's truncation bound plus 2^-52 (16 + 5X) |f| for
    rounding, where X = max(u^2/2, pi^2/2u^2) is the size of the exponent
    summed: exp(-u^2/2) and Feller's terms above u = sqrt(pi), the first
    dual term's net exp(-pi^2/2u^2) below it.  u = r/sqrt(t) and u^2/2
    carry at most about 5 units of 2^-53, and pi^2/4q about 9, so an
    exponent of size X is off by at most 4.5X units of 2^-52; the exps,
    prefactors, products and sum add under 16.  It holds where no term
    underflows to a subnormal.
    """
    r = as_float_array("r", r)
    _check_floor(t, r)
    sqrt_t = math.sqrt(t)
    u = r.ravel() / sqrt_t
    live = np.array([math.exp(-0.5 * x * x) != 0.0 for x in u.tolist()], dtype=bool)
    value, error = np.zeros(u.size), np.zeros(u.size)
    u = u[live]
    series, bound, terms = _range_series_scaled(u)
    damp = 8.0 / sqrt_t * np.exp(-0.5 * np.square(u))
    value[live] = damp * series
    size = np.maximum(0.5 * np.square(u), math.pi ** 2 / np.square(u) / 2.0)
    error[live] = damp * bound + 2.0 ** -52 * (16.0 + 5.0 * size) * np.abs(value[live])
    if r.ndim == 0:
        return SeriesEval(float(value[0]), float(error[0]), max(terms, 1))
    return SeriesEval(value.reshape(r.shape), error.reshape(r.shape), max(terms, 1))


def _range_series_scaled(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """S(u) = f_R(r) * exp(r^2 / 2t) * sqrt(t) / 8 at u = r/sqrt(t), each
    point's truncation bound, terms used.

    With q = u^2/2 (formed from u, so q cannot underflow while u is in
    range), term k of Feller's alternating series is
    k^2 exp(-(k^2 - 1) q) / sqrt(2 pi): the k = 1 Gaussian has been pulled
    out so the caller can fold it into a larger exponent.  Below
    u = sqrt(pi) that series cancels to noise, so there the Jacobi dual is
    summed instead: term j = 1, 3, 5, ... is (j^2 pi^2/u^2 - 1) u^-3
    exp(q - j^2 pi^2/4q), every one positive.  On its own side of sqrt(pi)
    every exponent is <= 0 and each term is at most 0.036 (primal) or
    4.5e-5 (dual) of the one before, so a point's remainder is at most its
    last term added times 0.036 (alternating) or 4.5e-5/(1 - 4.5e-5) (a
    geometric tail).  A point stops once its term is at most 1e-13 of
    max(1, |partial sum|); a stopped point adds nothing more, so each
    point's sum and bound do not depend on the other points.
    """
    q = 0.5 * np.square(np.asarray(u, dtype=float))
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
    return total, last, k


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
    a1 = 2.0 * float(np.abs(u).max(initial=0.0)) + float(np.abs(v).max(initial=0.0))
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
        block_max = float(np.max(4.0 * k * k * (zm * zm + 1.0) * em, initial=0.0))
        if block_max <= 1e-13 * max(1.0, float(np.max(np.abs(s_sym), initial=0.0))):
            break
        if block_max != block_max:
            raise DomainError(f"joint series is NaN at t={t!r}: x or r out of range")
    bound = 10.0 * (1.0 + float(np.max(np.abs(gap), initial=0.0))) * block_max / t
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


def joint_density(t: float, x, r) -> SeriesEval:
    """Joint density of (B_t in dx, R_t in dr, B_t > 0) at 0 < x < r.

    x and r are scalars or arrays that broadcast together; a scalar pair
    gives float fields.  Every point is checked, in input order, for
    0 < x < r and then the floor before any term is summed, and all are
    summed in one ``_joint_series_scaled`` call.  Each bound is the call's
    kernel bound, set by its largest block, times the point's damping
    exp(-u^2/2), u = r/sqrt(t): an array value agrees with a one-point
    call's within it, not bitwise.  Below u ~ 0.6 the series cancels:
    against a 60-digit sum the value is up to 4e-9 off (relative) at
    u = 0.5, 3e-4 at u = 0.4 and 2e5 at u = 0.3, and it can be negative
    (-2.8e-11 at u = 0.05, t = 1); the bound exceeded every error seen.
    """
    x, r = as_float_array("x", x), as_float_array("r", r)
    try:
        x, r = np.broadcast_arrays(x, r)
    except ValueError:
        raise DomainError(f"x and r must broadcast together, got shapes "
                          f"{x.shape} and {r.shape}") from None
    off = np.flatnonzero(~((0.0 < x) & (x < r)))  # NaN included
    first = int(off[0]) if off.size else r.size
    _check_floor(t, r.ravel()[:first])  # the points before the first off the wedge
    if first < r.size:
        raise DomainError(f"need 0 < x < r, got x={float(x.flat[first])!r}, "
                          f"r={float(r.flat[first])!r}")
    val, bound, terms = _joint_series_scaled(t, x, r)
    damp = np.exp(-0.5 * np.square(r / math.sqrt(t)))
    if damp.ndim == 0:
        return SeriesEval(float(val * damp), float(bound * damp), terms)
    return SeriesEval(val * damp, bound * damp, terms)


def _panels(a: float, b: float, max_width: float):
    """Composite 16-node Gauss-Legendre nodes and weights on [a, b], on the
    fewest equal panels no wider than ``max_width``.

    Raises ResourceCapError when the layout would pass PANEL_NODE_CAP nodes.
    """
    order = len(_GL_NODES)
    panels = (b - a) / max(max_width, 1e-300)
    if not panels <= PANEL_NODE_CAP // order:  # NaN and +inf fail too
        raise ResourceCapError(
            f"{panels * order:.3g} quadrature nodes on [{a:.6g}, {b:.6g}] exceed "
            f"the cap of {PANEL_NODE_CAP:.0e}")
    count = max(1, int(math.ceil(panels)))
    edges = np.linspace(a, b, count + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (half[:, None] * _GL_NODES[None, :] + mid[:, None]).ravel(), \
        (half[:, None] * _GL_WEIGHTS[None, :]).ravel()


# Nats below its peak that the tilt lies everywhere outside the window.
_TAIL_NATS = 40.0


class _Window(NamedTuple):
    """The tilt of ``_window`` in u and the one u-window it is integrated on."""

    b: float
    a: float
    centre: float
    c: float
    lo: float
    hi: float
    shift: float
    residue: float


def _window(beta: float, t: float, use_exact_radius: bool) -> _Window:
    """The tilt in u = r/sqrt(t) and the one window Z and both CLTs use.

    With b = beta t^(3/2) and a = 2/sqrt(t) (0 for the surrogate radius),
    exp(-beta t^2/rho - r^2/2t) = exp(phi(u)), phi(u) = -u^2/2 - b/(u + a),
    and the centre c** t is b^(1/3) sqrt(t); so the surrogate depends on
    (beta, t) through b alone.  The peak solves u (u + a)^2 = b: b^(1/3) for
    the surrogate, and far below it at small t and large beta.  For a > 0
    and b^(1/3) > 0.05, c is the end of the final ``bisect_newton`` bracket,
    on [max(0, b^(1/3) - a), b^(1/3)] in y = 1 - u/b^(1/3), where
    u (u + a)^2 >= b: phi'(c) <= 0; there k = a/b^(1/3) is below ~5e105, as
    beta is finite, so (1 + k)^2 cannot overflow.  For b^(1/3) <= 0.05 the
    floor is c: phi'(0.05) <= -0.05 + b/0.05^2 <= 0 with no solve.
    With c floored at 0.05 and L = ``_TAIL_NATS``,
    phi <= phi(c) - L <= max phi - L off the window
    [lo, hi] = [max(0.05, b/(L - phi(c)) - a), c + sqrt(2L)]: right of c,
    phi'' <= -1 and phi'(c) <= 0 give phi(u) <= phi(c) - (u - c)^2/2; left
    of lo, phi(u) <= -b/(u + a) <= phi(c) - L.
    The integrands are bounded there: S(u) = f_R(r) exp(u^2/2) sqrt(t)/8 <=
    1/sqrt(2 pi), as above sqrt(pi) the alternating series is below its
    first term, and below it the positive dual terms fall 4.5e-5-fold from
    a first one that increases in u (u d/du of its log is w + pi^2/w - 5 -
    2/(w - 1) > 0 for w = pi^2/u^2 >= pi) to 0.385; and A(x_cut; r) -
    A(0; r) <= f_R/2.  So int S exp(phi - phi(c)) du off the window is at
    most e^(-L) (lo + 1/sqrt(2L))/sqrt(2 pi), by the Gaussian tail bound
    e^(-s^2/2)/s at s = sqrt(2L); below u = 0.05, S < e^(-1950), which adds
    under e^(-1900) to Z_t.

    phi(c) = num/den is formed exactly in integers, from the floats'
    ``as_integer_ratio``, and split into the float ``shift`` and a
    ``residue``, each an int true division and so correctly rounded; the
    tilt exponent is taken in the factored form
    phi(u) - phi(c) = (c - u)((u + c)/2 - b/(u + a)/(c + a)),
    so no exponent of size |phi(c)| is rounded.  ResourceCapError where the
    double spacing at max(b^(1/3), 0.05) exceeds a 1/8 panel (b = inf too).
    """
    check_positive("beta", beta)
    check_positive("t", t)
    st = math.sqrt(t)
    b = beta * t * st
    a = 2.0 / st if use_exact_radius else 0.0
    centre = math.cbrt(b)
    if not math.ulp(max(centre, DEFAULT_FLOOR)) <= 0.125:
        raise ResourceCapError(
            f"the window at b = beta t^(3/2) = {b:.3g} is finer than the double "
            f"spacing near its centre: its quadrature nodes exceed the cap of "
            f"{PANEL_NODE_CAP:.0e}")
    y = 0.0
    if a > 0.0 and centre > DEFAULT_FLOOR:
        k = a / centre
        y = bisect_newton(lambda y: ((1.0 - y) * (1.0 + k - y) ** 2 - 1.0,
                                     -(1.0 + k - y) * (3.0 + k - 3.0 * y)),
                          0.0, min(1.0, k)).bracket[0]
    c = max(centre * (1.0 - y), DEFAULT_FLOOR)
    (nc, dc), (nb, db), (na, da) = c.as_integer_ratio(), b.as_integer_ratio(), \
        a.as_integer_ratio()
    s = nc * da + na * dc  # (c + a) dc da
    num, den = -(nc * nc * db * s + 2 * nb * dc ** 3 * da), 2 * dc * dc * db * s
    shift = num / den
    ns, ds = shift.as_integer_ratio()
    lo = max(DEFAULT_FLOOR, b / (_TAIL_NATS - shift) - a)
    return _Window(b, a, centre, c, lo, c + math.sqrt(2.0 * _TAIL_NATS), shift,
                   (num * ds - ns * den) / (den * ds))


def _tilted_mass(win: _Window, width: float, lo: float, hi: float,
                 f=None) -> tuple[float, int]:
    """Integral of f(u) exp(phi(u) - shift) over [lo, hi] on ``_panels`` of
    width ``width``, the one tilted u-quadrature, and its node count.  f
    defaults to the scaled range kernel S(u).
    """
    U, W = _panels(lo, hi, width)
    vals = _range_series_scaled(U)[0] if f is None else f(U)
    b, a, c = win.b, win.a, win.c
    tilt = np.exp((c - U) * (0.5 * (U + c) - b / (U + a) / (c + a)) + win.residue)
    return math.fsum(W * vals * tilt), len(U)


def partition_function_continuous(beta: float, t: float,
                                  use_exact_radius: bool = False) -> QuadratureResult:
    """Z_t = E exp(-beta t^2 / rho) = 8 int S(u) exp(phi(u)) du on ``_window``.

    Panel widths are 1/4 and 1/8 in u.  The error estimate adds their
    difference, the bound on the mass off the window, and 4 + c +
    3b/(lo + a) units of 2^-52 of the value for rounding: a few units in the
    kernel, weights and exp, about c in the factored exponent, and 3 per
    unit of b/(u + a) <= b/(lo + a) from the roundings of b and a.
    """
    win = _window(beta, t, use_exact_radius)
    coarse, n1 = _tilted_mass(win, 0.25, win.lo, win.hi)
    fine, n2 = _tilted_mass(win, 0.125, win.lo, win.hi)
    fine, coarse = 8.0 * fine, 8.0 * coarse
    tail = 8.0 / SQRT2PI * math.exp(-_TAIL_NATS) * (
        win.lo + 1.0 / math.sqrt(2.0 * _TAIL_NATS))
    rounding = 2.0 ** -52 * (4.0 + win.c + 3.0 * win.b / (win.lo + win.a)) * fine
    scale, st = math.exp(win.shift), math.sqrt(t)
    return QuadratureResult(
        value=fine * scale,
        abs_error_estimate=(abs(fine - coarse) + tail + rounding) * scale,
        nodes=n1 + n2,
        domain=(win.lo * st, win.hi * st),
        log_value=math.log(fine) + win.shift if fine > 0.0 else -math.inf,
    )


def range_second_order_cdf(beta: float, t: float, C,
                           use_exact_radius: bool = False) -> list[float]:
    """Tail probability of the normalized range under the tilted measure.

    Returns P(C < (R_t - beta^(1/3) t) / (sqrt(t)/sqrt(3))), which tends to
    1 - Phi(C); exactly 1.0 when the threshold falls below the window of
    ``_window`` and 0.0 when it lies at or beyond its upper end.  ``C`` is a
    sequence of finite levels; the tails come back as a list in input order.
    Each is the range mass over [threshold, hi] over the whole window's, at
    u-panel width 1/4.  The exact radius keeps the surrogate's centre: at
    small t and large beta its mass lies far below it, and every tail reads
    0.0 (beta = 1.25e11, t = 4e-4).
    """
    win = _window(beta, t, use_exact_radius)
    levels = check_grid("C", C)
    den, _ = _tilted_mass(win, 0.25, win.lo, win.hi)
    tails = []
    for level in levels:
        thr = win.centre + level / math.sqrt(3.0)
        tails.append(1.0 if thr <= win.lo else 0.0 if thr >= win.hi else
                     min(_tilted_mass(win, 0.25, thr, win.hi)[0] / den, 1.0))
    return tails


def endpoint_clt_continuous(beta: float, t: float, C,
                            use_exact_radius: bool = False) -> list[float]:
    """Conditional CDF P((B_t - c** t)/(sigma** sqrt(t)) <= C | B_t > 0).

    The x-integral of the joint density is closed-form
    (``_joint_cdf_series_scaled``), so each CDF is a ratio of 1-D
    quadratures in u against the tilt, over the window of ``_window`` at
    u-panel width 1/4, as for the range CLT.  Below u = x_cut/sqrt(t) the
    whole wedge 0 < x < r counts, and its mass is f_R(r)/2, since
    P(B_t > 0 | R_t = r) = 1/2; above it the numerator integrates
    A(x_cut; r) - A(0; r), with a panel edge at x_cut, where the integrand
    has a kink.  The denominator is the window's range mass, halved.

    ``C`` is a sequence of finite levels; the CDFs come back as a list in
    input order, each computed as a one-level call would.  The exact radius
    keeps the surrogate's centre c** t: at small t and large beta its mass
    lies far below it, and every CDF reads 1.0 (beta = 1.25e11, t = 4e-4).
    """
    win = _window(beta, t, use_exact_radius)
    levels = check_grid("C", C)
    den, _ = _tilted_mass(win, 0.25, win.lo, win.hi)
    cdfs = []
    for level in levels:
        x_cut = win.centre + level / math.sqrt(3.0)
        if x_cut >= win.hi:
            cdfs.append(1.0)
            continue
        edge, clip = max(x_cut, win.lo), max(x_cut, 0.0)
        below, _ = _tilted_mass(win, 0.25, win.lo, edge)
        above, _ = _tilted_mass(win, 0.25, edge, win.hi,
                                lambda u: _joint_cdf_series_scaled(1.0, clip, u)
                                - _joint_cdf_series_scaled(1.0, 0.0, u))
        cdfs.append(min((below + 0.25 * above) / den, 1.0))
    return cdfs
