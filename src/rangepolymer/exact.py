"""Exact finite-n laws of the one-dimensional walk and its range tilt.

Range convention: R_n counts the distinct sites among S_0 .. S_{n-1} while
the endpoint is S_n, matching the energy n^2 / R_n evaluated jointly with
the endpoint.  The joint law is therefore built at time m = n - 1 and
convolved with one final +-1 step that does not update the range.

``joint_law_exact`` builds the table by reflection-series aggregation: it
collapses the sum of two-barrier reflection counts over all windows [-a, b]
with a + b = s into

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
    "joint_law_exact",
    "polymer_law",
    "clt_check",
    "ldp_empirical",
    "EXACT_LAW_CAP",
]

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
        try:
            ps[s, a:b + 1] = np.ldexp(row.astype(float), -n)
        except OverflowError as exc:
            raise ResourceCapError(
                f"n={n}: an exact path count exceeds the double range "
                "(2^1024), so its probability cannot be formed as count * "
                "2^-n; raising the cap does not help"
            ) from exc
    # a count c >= 1 gives c 2^-n >= 2^-1033 > 0, so ps != 0 is the support
    hx, ri = np.nonzero(ps.T)  # x ascending, then r ascending
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


def _ks_distance(atoms: np.ndarray, probs: np.ndarray, center: float,
                 scale: float) -> float:
    """Sup distance of the right-continuous lattice CDF from the normal CDF."""
    z = (atoms - center) / scale
    targets = np.array([norm_cdf(v) for v in z])
    cum = np.cumsum(probs)
    prev = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(np.maximum(np.abs(cum - targets), np.abs(targets - prev))))


def clt_check(law: PolymerLaw) -> float:
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
    n = law.n
    if law.beta == 0.0:
        marg = law.tilted.endpoint_marginal()
        atoms = np.array(sorted(marg), dtype=float)
        probs = np.array([marg[int(a)] for a in atoms])
        return _ks_distance(atoms, probs, 0.0, math.sqrt(n))
    consts = free_energy_g_star(law.beta)
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


def ldp_empirical(law: PolymerLaw, theta_grid) -> list[tuple[float, float]]:
    """Empirical decay rates -(1/n) log P(S_n in window(theta) | S_n > 0).

    Windows are single parity-consistent lattice sites (width 2/n on the
    velocity scale).  Empty windows report an infinite rate.
    """
    n = law.n
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
