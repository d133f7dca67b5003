"""Exact finite-n laws of the one-dimensional walk and its range tilt.

Range convention: R_n counts the distinct sites among S_0 .. S_{n-1} while
the endpoint is S_n, matching the energy n^2 / R_n evaluated jointly with
the endpoint.  The joint law is therefore built at time m = n - 1 and
convolved with one final +-1 step that does not update the range.

Three independent routes produce the same table:

  * ``enumerate_joint_law``  - brute force over all 2^(n-1) prefixes (n <= 24)
  * ``joint_law_exact``      - reflection-series aggregation streamed row by
                               row, exact integer counts, up to n = 1033
  * ``joint_law_dp``         - (position, min, max) dynamic program, small n

The aggregation collapses the sum of two-barrier reflection counts over all
windows [-a, b] with a + b = s into

    G_s(X) = (s - |X| + 1) B_s(X) + T_s(|X|) - 2^m,

where B_s(y) = sum_k N_m(y + 2k(s+2)) is a lattice comb of binomial counts
and T_s is the symmetric prefix sum of B_s; the count of paths with range
r = s + 1 and endpoint X is the second difference of G in s.  The builder
walks s = 0 .. m once over dense numpy object rows of exact Python ints,
keeping only the current G row and its first difference, and converts each
finished count row to correctly rounded doubles at once, so the alternating
reflection series suffers no cancellation and no big-integer table is held.
Above n = 1033 a count exceeds the double range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discrete import free_energy_g_star
from .errors import DomainError, ResourceCapError, check_positive
from .gaussian import norm_cdf

__all__ = [
    "JointEndpointRangeLaw",
    "PolymerLaw",
    "enumerate_joint_law",
    "joint_law_dp",
    "joint_law_exact",
    "reflection_min_max_endpoint",
    "polymer_law",
    "free_energy_sequence",
    "clt_check",
    "ldp_empirical",
    "ENUMERATION_CAP",
    "EXACT_LAW_CAP",
]

ENUMERATION_CAP = 24
EXACT_LAW_CAP = 600


@dataclass(frozen=True)
class JointEndpointRangeLaw:
    """Probability table over (endpoint x, range r) at fixed n.

    Entries are stored sorted by x ascending then r ascending; ``ps`` holds
    the probabilities.  Supports |x| <= n, 1 <= r <= n, x = n (mod 2).
    """

    n: int
    xs: np.ndarray
    rs: np.ndarray
    ps: np.ndarray

    def prob(self, x: int, r: int) -> float:
        """Probability of (endpoint, range) = (x, r); 0.0 off support."""
        x, r = int(x), int(r)
        lo, hi = np.searchsorted(self.xs, [x, x + 1])
        i = lo + int(np.searchsorted(self.rs[lo:hi], r))
        return float(self.ps[i]) if i < hi and self.rs[i] == r else 0.0

    def entries(self):
        """Iterate (x, r, p) in the deterministic storage order."""
        return zip(self.xs.tolist(), self.rs.tolist(), self.ps.tolist())

    def _marginal(self, keys: np.ndarray) -> dict[int, float]:
        # bincount adds in storage order, as a running dict sum would
        uq, inv = np.unique(keys, return_inverse=True)
        return dict(zip(uq.tolist(), np.bincount(inv, weights=self.ps).tolist()))

    def endpoint_marginal(self) -> dict[int, float]:
        return self._marginal(self.xs)

    def range_marginal(self) -> dict[int, float]:
        return self._marginal(self.rs)

    def total_mass(self) -> float:
        return float(math.fsum(self.ps.tolist()))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,r,probability\n")
            for x, r, p in self.entries():
                fh.write(f"{x},{r},{p:.17g}\n")

    def to_json(self, path) -> None:
        payload = {
            "n": self.n,
            "entries": [
                {"x": x, "r": r, "probability": p} for x, r, p in self.entries()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


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


@lru_cache(maxsize=12)
def _exact_law_cached(n: int) -> JointEndpointRangeLaw:
    """Stream the range rows r = 1 .. n of the law over dense endpoint rows.

    Rows are numpy object arrays of exact ints indexed by the half-index
    h = (X + m) / 2.  Only the current G row and its first difference in s
    stay alive; each finished count row is converted straight to doubles.
    """
    m = n - 1
    half = np.arange(m + 1)
    absx = np.abs(2 * half - m)
    binom = np.zeros(2 * m + 2, dtype=object)  # padded for the residue sums
    binom[: m + 1] = [math.comb(m, j) for j in range(m + 1)]
    # G + 2^m: the constant cancels in the second difference and the row
    # reads 2^m off the support |X| <= s, where G itself is 0.
    g = np.full(m + 1, 1 << m, dtype=object)
    dg = np.zeros(m + 1, dtype=object)
    seen = np.zeros((n, n + 1), dtype=bool)
    ps = np.zeros((n, n + 1))
    for s in range(m + 1):
        W = s + 2
        F = binom[: -(-(m + 1) // W) * W].reshape(-1, W).sum(axis=0)
        a, b = (m - s + 1) // 2, (m + s) // 2 + 1  # the support |X| <= s
        B = F[half[a:b] % W]  # the comb: residue sums of N_m modulo W
        k = (b - a + 1) // 2  # entries with X >= 0
        pairs = B[b - a - k:] + B[k - 1::-1]  # B(q) + B(-q), q >= 0
        if (b - a) % 2:
            pairs[0] = B[k - 1]  # X = 0 counts once
        ax = absx[a:b]
        g_s = (s - ax + 1) * B + np.cumsum(pairs)[ax // 2]
        d = g_s - g[a:b]
        c = d - dg[a:b]  # paths with range s + 1 ending at X
        g[a:b], dg[a:b] = g_s, d
        row = np.append(c, 0)  # one final +-1 step: x = X - 1 and X + 1
        row[1:] += c
        seen[s, a:b + 1] = row != 0
        try:
            ps[s, a:b + 1] = np.ldexp(row.astype(float), -n)
        except OverflowError as exc:
            raise ResourceCapError(
                f"n={n}: an exact path count exceeds the double range "
                "(2^1024), so its probability cannot be formed as count * "
                "2^-n; raising the cap does not help"
            ) from exc
    hx, ri = np.nonzero(seen.T)  # x ascending, then r ascending
    return JointEndpointRangeLaw(n=n, xs=2 * hx - n, rs=ri + 1, ps=ps[ri, hx])


def joint_law_exact(n: int, cap: int = EXACT_LAW_CAP) -> JointEndpointRangeLaw:
    """Exact joint law of (S_n, R_n), streamed one range row at a time.

    O(n^2) exact-integer operations on numpy object rows; only a few rows of
    n ints and the float64 (r, x) table (8 MB at n = 1000) are held.  Raises
    ResourceCapError above the cap and when a count exceeds the double range
    (first at n = 1034).  Results are cached per n.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if n > cap:
        raise ResourceCapError(
            f"n={n} exceeds the exact-law cap ({cap}); raise the cap "
            "(--cap-override) to override"
        )
    return _exact_law_cached(n)


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


@dataclass(frozen=True)
class PolymerLaw:
    """The walk's joint law reweighted by exp(-beta n^2 / r) and normalized.

    ``log_partition`` is exact up to rounding; ``partition_value`` underflows
    to 0.0 once log Z < -745, which the log form avoids.
    """

    beta: float
    n: int
    tilted: JointEndpointRangeLaw
    log_partition: float

    @property
    def partition_value(self) -> float:
        return math.exp(self.log_partition)

    def endpoint_conditional_positive(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms and probabilities of S_n given S_n > 0 (S_n = 0 excluded).

        The table is stored x ascending, so the masked endpoints are already
        sorted and each atom's entries are contiguous.
        """
        mask = self.tilted.xs > 0
        xs = self.tilted.xs[mask]
        ps = self.tilted.ps[mask]
        uq, start = np.unique(xs, return_index=True)
        sums = np.add.reduceat(ps, start)
        return uq, sums / sums.sum()

    def endpoint_mean_conditional(self) -> float:
        xs, ps = self.endpoint_conditional_positive()
        return float(np.dot(ps, xs))

    def endpoint_variance_conditional(self) -> float:
        xs, ps = self.endpoint_conditional_positive()
        mu = float(np.dot(ps, xs))
        return float(np.dot(ps, (xs - mu) ** 2))

    def range_mean(self) -> float:
        return float(np.dot(self.tilted.ps, self.tilted.rs))


def polymer_law(beta: float, n: int, cap: int = EXACT_LAW_CAP) -> PolymerLaw:
    """Tilt the exact joint law by exp(-beta n^2 / r), in log space.

    beta = 0 returns the untilted law bit-for-bit with Z = 1.
    """
    check_positive("beta", beta, allow_zero=True)
    base = joint_law_exact(n, cap=cap)
    if beta == 0.0:
        return PolymerLaw(beta=0.0, n=n, tilted=base, log_partition=0.0)
    logw = np.log(base.ps) - beta * float(n) * float(n) / base.rs
    shift = float(logw.max())
    w = np.exp(logw - shift)
    total = float(w.sum())
    log_z = shift + math.log(total)
    tilted = JointEndpointRangeLaw(n=n, xs=base.xs, rs=base.rs, ps=w / total)
    return PolymerLaw(beta=beta, n=n, tilted=tilted, log_partition=log_z)


def free_energy_sequence(
    beta: float, n_list, cap: int = EXACT_LAW_CAP
) -> list[tuple[int, float]]:
    """Per-n free-energy estimates (n, log(Z_n)/n), converging to g*(beta)."""
    return [(int(n), polymer_law(beta, int(n), cap=cap).log_partition / n) for n in n_list]


def _ks_distance(atoms: np.ndarray, probs: np.ndarray, center: float,
                 scale: float) -> float:
    """Sup distance of the right-continuous lattice CDF from the normal CDF."""
    z = (atoms - center) / scale
    targets = np.array([norm_cdf(v) for v in z])
    cum = np.cumsum(probs)
    prev = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(np.maximum(np.abs(cum - targets), np.abs(targets - prev))))


def clt_check(beta: float, n: int, cap: int = EXACT_LAW_CAP) -> float:
    """KS distance of the normalized conditional endpoint law from the normal.

    For beta > 0 the endpoint given S_n > 0 is centered at c*(beta) n and
    scaled by sigma*(beta) sqrt(n).  beta = 0 is the plain-walk sanity case:
    unconditioned, centered at 0 with unit diffusive scale.  The distance is
    the supremum over both one-sided limits of the right-continuous CDF.

    The distance of a lattice law from any continuous CDF is at
    least half its largest atom, whatever the centring and scale.  At finite
    n the distance also carries an O(n^{-1/2}) centring term: for beta > 0
    the conditional mean sits an O(1) number of sites from c*(beta) n.
    """
    if beta == 0.0:
        base = joint_law_exact(n, cap=cap)
        marg = base.endpoint_marginal()
        atoms = np.array(sorted(marg), dtype=float)
        probs = np.array([marg[int(a)] for a in atoms])
        return _ks_distance(atoms, probs, 0.0, math.sqrt(n))
    consts = free_energy_g_star(beta)
    law = polymer_law(beta, n, cap=cap)
    atoms, probs = law.endpoint_conditional_positive()
    return _ks_distance(
        atoms.astype(float), probs, consts.c_star * n,
        consts.sigma_star * math.sqrt(n),
    )


def _window_site(theta: float, n: int) -> int:
    """Nearest lattice site to theta*n with the parity of n (width-2 window)."""
    par = n % 2
    x0 = par + 2 * round((theta * n - par) / 2.0)
    lowest = 2 - par  # smallest positive site of the right parity
    return max(int(x0), lowest)


def ldp_empirical(beta: float, n: int, theta_grid,
                  cap: int = EXACT_LAW_CAP) -> list[tuple[float, float]]:
    """Empirical decay rates -(1/n) log P(S_n in window(theta) | S_n > 0).

    Windows are single parity-consistent lattice sites (width 2/n on the
    velocity scale).  Empty windows report an infinite rate.
    """
    law = polymer_law(beta, n, cap=cap)
    atoms, probs = law.endpoint_conditional_positive()
    table = {int(a): float(p) for a, p in zip(atoms, probs)}
    out: list[tuple[float, float]] = []
    for theta in theta_grid:
        if not 0.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {theta!r}")
        x0 = _window_site(float(theta), n)
        p = table.get(x0, 0.0)
        rate = math.inf if p == 0.0 else -math.log(p) / n
        out.append((float(theta), rate))
    return out
