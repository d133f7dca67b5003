"""Independent routes that the tests check the production code against.

None of these is on a CLI or library path; each recomputes a quantity that
``rangepolymer`` computes another way:

  * ``enumerate_joint_law``  - brute force over all 2^(n-1) prefixes (n <= 24)
  * ``joint_law_dp``         - (position, min, max) dynamic program, small n
  * ``reflection_min_max_endpoint`` - four-corridor reflection count of
                               P(min, max, endpoint)
  * ``endpoint_variance_conditional`` - exact Var(S_n | S_n > 0) of a tilted law
  * ``g_star_infimum``       - the variational free energy -(beta/c* + I(c*))

The joint-law routes build the same (endpoint, range) table as
``joint_law_exact`` with the same range convention: the law is built at
time m = n - 1 and convolved with one final +-1 step.
"""

import math

import numpy as np

from rangepolymer.discrete import _I_from_gap, _speed_gap
from rangepolymer.errors import DomainError, ResourceCapError
from rangepolymer.exact import JointEndpointRangeLaw, PolymerLaw

ENUMERATION_CAP = 24


def _law_from_counts(n: int, counts: dict[tuple[int, int], int]) -> JointEndpointRangeLaw:
    """Sorted law table from exact path counts out of 2^n."""
    keys = sorted(counts)  # (x, r) ascending
    xs = np.array([k[0] for k in keys], dtype=np.int64)
    rs = np.array([k[1] for k in keys], dtype=np.int64)
    ps = np.array([math.ldexp(float(counts[k]), -n) for k in keys], dtype=float)
    return JointEndpointRangeLaw(n=n, xs=xs, rs=rs, ps=ps)


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
    """Variational form -(beta/c* + I(c*)) of the free energy g*(beta).

    It agrees with ``free_energy_g_star(beta).g_star``, the closed form, up
    to (residual of the speed solve)/c*.
    """
    u, _ = _speed_gap(beta)
    c = 1.0 - u
    return -(beta / c + _I_from_gap(u))
