"""Independent routes that the tests check the production code against.

None of these is on a CLI or library path; each recomputes a quantity that
``rangepolymer`` computes another way:

  * ``enumerate_joint_law``  - brute force over all 2^(n-1) prefixes (n <= 24)
  * ``joint_law_dp``         - (position, min, max) dynamic program, small n
  * ``reflection_min_max_endpoint`` - four-corridor reflection count of
                               P(min, max, endpoint)
  * ``endpoint_variance_conditional`` - exact Var(S_n | S_n > 0) of a tilted law
  * ``g_star_infimum``       - the variational free energy -(beta/c* + I(c*)),
                               by golden-section minimization
  * ``speed_reference``      - c*, log(1 - c*), g* and sigma* at 80 digits
  * ``logit_root_reference`` - the root x of (theta + x)^2 artanh x = target
                               at 80 digits, the interior LDP roots among them
  * ``rate_reference``       - the discrete LDP rate I^beta(theta) at 80
                               digits, as written and with its beta-size
                               terms cancelled
  * ``gauss_legendre_panels`` - composite Gauss-Legendre nodes and weights
                               at any order, from numpy's ``leggauss``
  * ``window_by_fractions``  - the quadrature window of ``density._window``
                               with its peak formed as a ``Fraction``
  * ``range_marginal``       - P(R_n = r) of a law table, summed in storage
                               order by its own ``np.bincount``; no library
                               path reads it
  * ``_oracle_law_csv``      - ``law.csv`` written one f-string per entry

The joint-law routes build the same (endpoint, range) table as
``joint_law_exact`` with the same range convention: the law is built at
time m = n - 1 and convolved with one final +-1 step.
"""

import math
from fractions import Fraction

import numpy as np

from rangepolymer.density import DEFAULT_FLOOR, PANEL_NODE_CAP, _TAIL_NATS, _Window
from rangepolymer.errors import DomainError, ResourceCapError, check_positive
from rangepolymer.exact import JointEndpointRangeLaw, PolymerLaw
from rangepolymer.roots import bisect_newton

ENUMERATION_CAP = 24


def _law_from_counts(n: int, counts: dict[tuple[int, int], int]) -> JointEndpointRangeLaw:
    """Sorted law table from exact path counts out of 2^n."""
    keys = sorted(counts)  # (x, r) ascending
    xs = np.array([k[0] for k in keys], dtype=np.int64)
    rs = np.array([k[1] for k in keys], dtype=np.int64)
    ps = np.array([math.ldexp(float(counts[k]), -n) for k in keys], dtype=float)
    return JointEndpointRangeLaw(n=n, xs=xs, rs=rs, ps=ps)


def range_marginal(law: JointEndpointRangeLaw) -> dict[int, float]:
    """P(R_n = r) for each r in the table, each summed in storage order.

    One ``np.bincount`` over r adds the entries in the order of a running
    sum over ``law.entries()``, as ``endpoint_marginal`` does over x.
    """
    probs = np.bincount(law.rs, weights=law.ps)
    present = np.flatnonzero(np.bincount(law.rs))
    return dict(zip(present.tolist(), probs[present].tolist()))


def _oracle_law_csv(law: JointEndpointRangeLaw, path) -> None:
    """The per-entry writer that ``JointEndpointRangeLaw.to_csv`` replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,r,probability\n")
        for x, r, p in law.entries():
            fh.write(f"{x},{r},{p:.17g}\n")


def _convolve_final_step(prefix: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    law: dict[tuple[int, int], int] = {}
    for (r, X), c in prefix.items():
        for x in (X - 1, X + 1):
            key = (x, r)
            law[key] = law.get(key, 0) + c
    return law


def enumerate_joint_law(n: int) -> JointEndpointRangeLaw:
    """Brute-force oracle: walk all 2^(n-1) prefixes, then one final step.

    Refuses n > 24; exact integer counts throughout.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if n > ENUMERATION_CAP:
        raise ResourceCapError(
            f"enumeration over 2^{n - 1} paths refused (n > {ENUMERATION_CAP})"
        )
    m = n - 1
    if m == 0:
        return _law_from_counts(1, {(1, 1): 1, (-1, 1): 1})
    prefix: dict[tuple[int, int], int] = {}
    chunk = 1 << min(m, 18)
    offsets = np.arange(m, dtype=np.uint32)
    for start in range(0, 1 << m, chunk):
        idx = np.arange(start, start + chunk, dtype=np.uint64)
        steps = ((idx[:, None] >> offsets) & 1).astype(np.int32) * 2 - 1
        S = np.cumsum(steps, axis=1)
        mn = np.minimum(S.min(axis=1), 0)
        mx = np.maximum(S.max(axis=1), 0)
        r = mx - mn + 1
        e = S[:, -1]
        keys = (e + m) // 2 * (m + 2) + r
        binc = np.bincount(keys, minlength=(m + 1) * (m + 2))
        for key in np.nonzero(binc)[0]:
            X = int(key) // (m + 2) * 2 - m
            rr = int(key) % (m + 2)
            prefix[(rr, X)] = prefix.get((rr, X), 0) + int(binc[key])
    return _law_from_counts(n, _convolve_final_step(prefix))


def joint_law_dp(n: int) -> JointEndpointRangeLaw:
    """Third route: dynamic program over (position, running min, running max)."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if n > ENUMERATION_CAP:
        raise ResourceCapError(f"DP oracle limited to n <= {ENUMERATION_CAP}")
    states: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for _ in range(n - 1):
        nxt: dict[tuple[int, int, int], int] = {}
        for (pos, mn, mx), c in states.items():
            for step in (-1, 1):
                q = pos + step
                key = (q, min(mn, q), max(mx, q))
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
    law: dict[tuple[int, int], int] = {}
    for (pos, mn, mx), c in states.items():
        r = mx - mn + 1
        for x in (pos - 1, pos + 1):
            law[(x, r)] = law.get((x, r), 0) + c
    return _law_from_counts(n, law)


def _strict_corridor_count(n: int, L: int, U: int, X: int) -> int:
    """Paths of length n ending at X with L < min and max < U, exact count.

    Standard two-barrier reflection: sum over images with period 2(U - L),
    truncated exactly once the shifted endpoint leaves [-n, n].
    """
    if (X - n) % 2 or not -n <= X <= n:
        return 0
    D = U - L
    acc = 0
    k = -((n + X) // (2 * D))
    top = (n - X) // (2 * D)
    while k <= top:
        y = X + 2 * k * D
        if -n <= y <= n:
            acc += math.comb(n, (n + y) // 2)
        k += 1
    ref = 2 * U - X
    k = -((n + ref) // (2 * D))
    top = (n - ref) // (2 * D)
    while k <= top:
        y = ref + 2 * k * D
        if -n <= y <= n:
            acc -= math.comb(n, (n + y) // 2)
        k += 1
    return acc


def reflection_min_max_endpoint(n: int, L: int, U: int, X: int) -> float:
    """P(min S = L, max S = U, S_n = X) over the walk S_0 .. S_n, exactly.

    Inclusion-exclusion of four strict-corridor counts; zero whenever X and n
    have opposite parity.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (L <= 0 <= U and L < U):
        raise DomainError(f"need L <= 0 <= U and L < U, got L={L!r}, U={U!r}")
    if not L <= X <= U:
        raise DomainError(f"endpoint X={X!r} outside [L, U] = [{L!r}, {U!r}]")
    count = (
        _strict_corridor_count(n, L - 1, U + 1, X)
        - _strict_corridor_count(n, L, U + 1, X)
        - _strict_corridor_count(n, L - 1, U, X)
        + _strict_corridor_count(n, L, U, X)
    )
    return math.ldexp(float(count), -n)


def endpoint_variance_conditional(law: PolymerLaw) -> float:
    xs, ps = law.endpoint_conditional_positive()
    mu = float(np.dot(ps, xs))
    return float(np.dot(ps, (xs - mu) ** 2))


def g_star_infimum(beta: float) -> float:
    """Variational form -inf_c (beta/c + I(c)) of the free energy g*(beta).

    The infimum is found by golden section on c in (0, 1), where beta/c +
    I(c) is strictly convex: 200 steps shrink the bracket to the double
    spacing, and the minimum value is then off by about psi'' (c - c*)^2/2,
    far below the spacing of the value.  It agrees with
    ``free_energy_g_star(beta).g_star``, the closed form at the solved speed,
    to a few units of the last place.
    """
    def psi(c):
        return beta / c + 0.5 * ((1.0 + c) * math.log1p(c) + (1.0 - c) * math.log1p(-c))

    a, b = 0.0, 1.0
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        m1, m2 = b - golden * (b - a), a + golden * (b - a)
        if psi(m1) < psi(m2):
            b = m2
        else:
            a = m1
    return -psi(0.5 * (a + b))


def logit_root_reference(theta, target, dps: int = 80):
    """Root x of (theta + x)^2 artanh x = target at ``dps`` digits, as
    (x, log(1 - x)) mpmath numbers.

    Plain bisection in s = logit x on [log(target)/3 - 2, 3 target + 2], with
    artanh x = log1p(2 e^s)/2 formed at the working precision, until the
    bracket is within 2^-(prec - 8) of s: a few hundred halvings, with no
    derivative and no stop on the residual.
    """
    import mpmath as mp

    with mp.workdps(dps):
        theta, target = mp.mpf(theta), mp.mpf(target)

        def f(s):
            x = 1 / (1 + mp.exp(-s))
            return (theta + x) ** 2 * mp.log1p(2 * mp.exp(s)) / 2 - target

        lo, hi = mp.log(target) / 3 - 2, 3 * target + 2
        assert f(lo) < 0 < f(hi), (theta, target)
        while hi - lo > max(abs(lo), abs(hi)) * mp.mpf(2) ** (8 - mp.mp.prec):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        s = (lo + hi) / 2
        return 1 / (1 + mp.exp(-s)), -mp.log1p(mp.exp(s))


def speed_reference(beta, dps: int = 80):
    """(c*, log(1 - c*), g*, sigma*) at ``dps`` digits, from the speed root
    of ``logit_root_reference``, g* = -(beta/c* + I(c*)) with I(c) =
    c artanh c + log(1 - c^2)/2 (no cancellation at either end), and 1/sigma*^2
    = 2 beta/c*^3 + 1/(1 - c*^2)."""
    import mpmath as mp

    with mp.workdps(dps):
        beta = mp.mpf(beta)
        c, log_1mc = logit_root_reference(0, beta, dps)
        # log(1 - c^2) without cancellation: c rounds to 1 at 80 digits past beta ~ 90
        log_1mc2 = mp.log1p(-c * c) if c < 0.5 else log_1mc + mp.log1p(c)
        rate = c * (mp.log1p(c) - log_1mc) / 2 + log_1mc2 / 2
        inv_var = 2 * beta / c**3 + mp.exp(-log_1mc2)
        return c, log_1mc, -(beta / c + rate), 1 / mp.sqrt(inv_var)


def rate_reference(beta, theta, dps: int = 80):
    """I^beta(theta) at ``dps`` digits from the roots of
    ``logit_root_reference``, in two forms: (direct, split).

    direct = beta/r + I(x) + g* as the rate is defined, with x = r = theta
    on the boundary branch (theta >= c*(beta/2)) and the interior root r,
    x = 2r - theta, below; its terms of size beta cancel, so it keeps only
    about dps - log10(beta/rate) digits.  split = beta/c^2 ((x - theta)/2 +
    (r - c)^2/r) + KL(x | c) at c = c*(beta), the same value by
    I'(c) = beta/c^2, with every difference of two values above 1/2 taken
    between their gaps 1 - x, 1 - c and 1 - theta.  Its KL is second order
    in x - c ~ beta^(1/3) as beta -> 0, so the work carries a third of
    -log10(beta) digits beyond ``dps``.
    """
    import mpmath as mp

    dps += max(0, -math.floor(math.log10(beta)) // 3)
    with mp.workdps(dps):
        beta, theta = mp.mpf(beta), mp.mpf(theta)
        c, log_gc = logit_root_reference(0, beta, dps)
        g = speed_reference(beta, dps)[2]
        c_half, _ = logit_root_reference(0, beta / 2, dps)
        x, gt = theta, 1 - theta
        gx, log_gx = gt, (mp.log(gt) if gt > 0 else -mp.inf)
        if theta < c_half:
            x, log_gx = logit_root_reference(theta, 2 * beta, dps)
            gx = mp.exp(log_gx)
        r, gr, gc = (theta + x) / 2, (gt + gx) / 2, mp.exp(log_gc)

        def minus(a, ga, b, gb):
            return gb - ga if min(a, b) > 0.5 else a - b

        # I(x) with its (1 - x) log(1 - x) part from the gap: no cancellation near 1
        rate_i = ((1 + x) * mp.log1p(x) + (gx * log_gx if gx > 0 else 0)) / 2
        direct = beta / r + rate_i + g
        kl = (1 + x) / 2 * mp.log1p(minus(x, gx, c, gc) / (1 + c))
        if gx > 0:
            kl += gx / 2 * (log_gx - log_gc)
        split = beta / c**2 * (minus(x, gx, theta, gt) / 2 + minus(r, gr, c, gc) ** 2 / r) + kl
        return direct, split


def gauss_legendre_panels(a: float, b: float, max_width: float, order: int):
    """Composite ``order``-node Gauss-Legendre nodes and weights on [a, b],
    laid out as ``density._panels`` lays out its 16 nodes, with the nodes
    solved by ``np.polynomial.legendre.leggauss``.
    """
    xs, ws = np.polynomial.legendre.leggauss(order)
    panels = (b - a) / max(max_width, 1e-300)
    if not panels <= PANEL_NODE_CAP // order:
        raise ResourceCapError(f"{panels * order:.3g} quadrature nodes exceed the cap")
    count = max(1, int(math.ceil(panels)))
    edges = np.linspace(a, b, count + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (half[:, None] * xs[None, :] + mid[:, None]).ravel(), \
        (half[:, None] * ws[None, :]).ravel()


def window_by_fractions(beta: float, t: float, use_exact_radius: bool) -> _Window:
    """``density._window`` with the peak phi(c) = -c^2/2 - b/(c + a) formed
    as a ``Fraction`` of the floats, ``shift`` its float and ``residue`` the
    float of the rest: each is correctly rounded by ``Fraction.__float__``.
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
    peak = -Fraction(c) ** 2 / 2 - Fraction(b) / (Fraction(c) + Fraction(a))
    shift = float(peak)
    lo = max(DEFAULT_FLOOR, b / (_TAIL_NATS - shift) - a)
    return _Window(b, a, centre, c, lo, c + math.sqrt(2.0 * _TAIL_NATS), shift,
                   float(peak - Fraction(shift)))
