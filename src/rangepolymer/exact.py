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
keeping only the current G row and its first difference.  N_m, and so B_s,
G_s and every count, is even in X, so the rows cover only X >= 0 and each
big-integer operation serves a +-X pair.  Each finished half row of counts
is converted to correctly rounded doubles at once and mirrored to x < 0 as
doubles, so the alternating reflection series suffers no cancellation and
no big-integer table is held.  Above n = 1033 a count exceeds the double
range; from n = 1045 on a counting bound proves that before any build, and
``joint_law_exact`` fails at once.  The ``exact`` command's cap is in ``cli``.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .discrete import free_energy_g_star
from .errors import DomainError, ResourceCapError, check_positive, check_range_energy
from .gaussian import norm_cdf

__all__ = [
    "JointEndpointRangeLaw",
    "PolymerLaw",
    "joint_law_exact",
    "polymer_law",
    "clt_check",
    "ldp_empirical",
]


_CSV_SLICE = 1 << 14  # law.csv rows per join and write
_DEKKER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_TIE_BAND = 2.0**-46  # bound on the error of the scaled value p 10^(16 - E)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact split a = hi + lo, each half of at most 26 bits."""
    t = _DEKKER * a
    hi = t - (t - a)
    return hi, a - hi


@cache
def _g17_tables():
    """The tables of ``_format_17g``, built on first use.

    For q = 16 - E with E = -5 .. -324 (index -5 - E), 10^q = (th + tl) 2^b
    with th in [1, 2) correctly rounded, tl the correctly rounded rest and
    (t1, t2) Dekker's split of th; ten[k + 325] = fl(10^k).  The text
    tables hold native-order uint32 words of 4 NUL-padded ASCII bytes: "d."
    per leading digit and "d" for a value with no fraction digits; the
    4-digit chunks, then the same with trailing zeros as NUL for the last
    nonzero chunk; per exponent "e-" with two digits, then the third digit,
    if any, and the row's end.
    """
    th, tl, b = [], [], []
    ten_q = 10**20
    for _ in range(320):
        ten_q *= 10
        e = ten_q.bit_length() - 1
        hi = ten_q / (1 << e)  # int / int rounds correctly
        th.append(hi)
        tl.append((ten_q - (int(hi * 2.0**52) << (e - 52))) / (1 << e))
        b.append(e)
    th = np.array(th)
    ten = np.array([1 / 10**k for k in range(325, 2, -1)])
    four = np.indices((10,) * 4).reshape(4, -1).T + 48  # "0000" .. "9999"
    zeros = np.logical_and.accumulate(four[:, ::-1] == 48, axis=1)[:, ::-1]
    four = np.concatenate([four, np.where(zeros, 0, four)]).astype(np.uint8, order="C")
    lead = "".join([f"{d}.\0\0" for d in range(10)] + [f"{d}\0\0\0" for d in range(10)])
    expo = "".join(f"e-{e:02d}\n\0\0\0" if e < 100 else f"e-{e}\n\0\0" for e in range(325))
    expo = np.frombuffer(expo.encode("ascii"), dtype=np.uint32).reshape(325, 2)
    tables = (th, *_split(th), np.array(tl), np.array(b, dtype=np.int32), ten,
              np.frombuffer(lead.encode("ascii"), dtype=np.uint32),
              four.view(np.uint32).ravel(), expo[:, 0].copy(), expo[:, 1].copy())
    for table in tables:  # shared by every call: read-only
        table.flags.writeable = False
    return tables


def _format_17g(values: np.ndarray) -> np.ndarray:
    """``f"{p:.17g}"`` of every value, as an object array of str.

    Values in (0, 1e-4) are printed from the scaled product that
    ``JointEndpointRangeLaw.to_csv`` describes; every other value, and any
    whose rounding that product leaves open, goes through ``format``.
    """
    v = np.asarray(values, dtype=float)
    th_t, t1_t, t2_t, tl_t, b_t, ten, lead, four, ex1, ex2 = _g17_tables()
    ok = (v > 0.0) & (v < 1e-4)
    p = np.where(ok, v, 1e-5)
    E = np.floor(np.log10(p)).astype(np.intp)  # off by at most one
    E -= p < ten[E + 325]
    E += p >= ten[E + 326]
    np.clip(E, -324, -5, out=E)
    i = -5 - E
    # p 10^(16 - E) = f (th + tl) 2^(k + b), f in [0.5, 1): f th = ph + pl
    # exactly by Dekker's two-product, and f tl joins the low part
    f, k = np.frexp(p)
    ph = f * th_t[i]
    f1, f2 = _split(f)
    t1, t2 = t1_t[i], t2_t[i]
    pl = ((f1 * t1 - ph) + f1 * t2 + f2 * t1) + f2 * t2
    K = k + b_t[i]
    xh = np.ldexp(ph, K)  # an even integer once xh > 2^53
    xl = np.ldexp(pl + f * tl_t[i], K)
    below = np.floor(xl)
    frac = xl - below
    D = xh.astype(np.int64) + (below + (frac > 0.5)).astype(np.int64)
    fall = ~ok | (np.abs(frac - 0.5) <= _TIE_BAND) | (D <= 10**16) | (D >= 10**17)
    D[fall] = 10**16 + 1  # keeps the table indices in range
    chunks = []  # the leading digit, then four chunks of 4 fraction digits
    for scale in (10**16, 10**12, 10**8, 10**4):
        top = D // scale
        D -= top * scale
        chunks.append(top)
    chunks.append(D)
    W = np.empty((len(v), 7), dtype=np.uint32)
    zero_after = np.ones(len(v), dtype=bool)  # every later fraction digit is 0
    for j in (4, 3, 2, 1):
        W[:, j] = four[chunks[j] + 10000 * zero_after]
        zero_after &= chunks[j] == 0
    W[:, 0] = lead[chunks[0] + 10 * zero_after]
    W[:, 5] = ex1[-E]
    W[:, 6] = ex2[-E]
    text = W.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    text.pop()
    idx = np.flatnonzero(fall)
    for j, x in zip(idx.tolist(), v[idx].tolist()):
        text[j] = f"{x:.17g}"
    return np.array(text, dtype=object)


class JointEndpointRangeLaw(NamedTuple):
    """Probability table over (endpoint x, range r) at fixed n.

    Entries are stored sorted by x ascending then r ascending; ``ps`` holds
    the probabilities.  Supports |x| <= n, 1 <= r <= n, x = n (mod 2).
    ``endpoint_marginal`` adds each atom's entries in this storage order,
    the order of a running sum over ``entries()``.
    """

    n: int
    xs: np.ndarray
    rs: np.ndarray
    ps: np.ndarray

    def entries(self):
        """Iterate (x, r, p) in the deterministic storage order."""
        return zip(self.xs.tolist(), self.rs.tolist(), self.ps.tolist())

    def endpoint_marginal(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of the atoms x = -n, -n + 2, .., n and of P(S_n = x).

        Each such site is in the support, so (x + n) / 2 keys one bincount.
        """
        n = self.n
        probs = np.bincount((self.xs + n) >> 1, weights=self.ps, minlength=n + 1)
        return np.arange(-n, n + 1, 2), probs

    def to_csv(self, path) -> None:
        """Write ``x,r,probability`` rows in storage order, 17 digits each.

        Each distinct probability is formatted once and the ``x,``/``r,``
        fields come from string tables over -n..n and 0..n, so the digits
        are formed per value, not per row.  The bytes are those of one
        f-string per entry: ``.17g`` depends only on a double's value, and a
        law table holds no -0.0 (equal to +0.0 but printed apart) and no
        NaN.  Rows are joined and written in slices of ``_CSV_SLICE``, which
        bounds the text held at once.

        ``_format_17g`` prints the distinct values in one vectorized pass.
        For p in (0, 1e-4), which ``.17g`` prints as ``d.dddde-XX``, the
        decimal exponent E comes from log10(p), corrected by comparing p
        with fl(10^E) and fl(10^(E + 1)), and the digits are
        D = round-half-even(p 10^(16 - E)).  With p = f 2^k, f in [0.5, 1),
        and 10^(16 - E) = (th + tl) 2^b from exact integers (th in [1, 2)
        and tl both correctly rounded), Dekker's two-product gives f th =
        ph + pl exactly; rounding tl, f tl and pl + f tl adds less than
        2^-104 to f (th + tl), and the scale 2^(k + b) < 2^58 makes that
        less than 2^-46 on p 10^(16 - E).  So xh = ph 2^(k + b), an integer
        above 2^53, plus the rounding of xl = (pl + f tl) 2^(k + b) gives D
        unless the fraction of xl lies within 2^-46 of 1/2.  Such values
        (exact ties among them), a D outside (10^16, 10^17) (a carry to
        10^17 or an exponent off by one), 0.0 and the values that ``.17g``
        prints in fixed notation (1e-4 <= p < 1e17) fall back to
        ``format``.  The argument uses only IEEE double arithmetic, so the
        platform can change how many values fall back, never a byte.
        """
        n = self.n
        uq, inv = np.unique(self.ps, return_inverse=True)
        ptxt = _format_17g(uq)
        xtxt = np.array([f"{x}," for x in range(-n, n + 1)], dtype=object)
        rtxt = np.array([f"{r}," for r in range(n + 1)], dtype=object)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,r,probability\n")
            for i in range(0, len(inv), _CSV_SLICE):
                j = slice(i, i + _CSV_SLICE)
                rows = xtxt[self.xs[j] + n] + rtxt[self.rs[j]] + ptxt[inv[j]]
                fh.write("\n".join(rows.tolist()) + "\n")

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


def _past_double_range(n: int) -> ResourceCapError:
    return ResourceCapError(
        f"n={n}: an exact path count exceeds the double range "
        "(2^1024), so its probability cannot be formed as count * "
        "2^-n; raising the cap does not help"
    )


def _check_size(n: int) -> None:
    """The checks on n that ``joint_law_exact`` runs before any build."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if n - (n * (n + 1)).bit_length() >= 1024:
        raise _past_double_range(n)


@lru_cache(maxsize=12)
def _exact_law_cached(n: int) -> JointEndpointRangeLaw:
    """Stream the range rows r = 1 .. n of the law over half endpoint rows.

    B_s, G_s and the counts are even in X, because N_m is, so every row of
    exact ints covers only X >= 0: the half-index h = (X + m) / 2 runs from
    ceil(m / 2).  Only the current G row and its first difference in s stay
    alive.  Each finished half row of counts after the final +-1 step is
    converted to doubles once and written to both x and -x.
    """
    m = n - 1
    h0 = (m + 1) // 2  # the first h with X >= 0
    ints = np.arange(m + 2).astype(object)  # exact factors s + 3 - |X|
    binom = np.zeros(2 * m + 2, dtype=object)  # padded for the residue sums
    row = [1]
    for j in range(m // 2):  # C(m, j + 1) = C(m, j) (m - j) / (j + 1)
        row.append(row[-1] * (m - j) // (j + 1))
    binom[: m // 2 + 1] = row
    binom[m - m // 2 : m + 1] = row[::-1]
    # G + 2^m: the constant cancels in the second difference and the row
    # reads 2^m off the support |X| <= s, where G itself is 0.
    g = np.full(m + 1 - h0, 1 << m, dtype=object)
    dg = np.zeros(m + 1 - h0, dtype=object)
    H0 = (n + 1) // 2  # the first final half-index with x >= 0
    pt = np.zeros((n + 1, n))  # x-major, so the support reads in storage order
    for s in range(m + 1):
        k = (m + s) // 2 + 1 - h0  # entries with 0 <= X <= s
        if k == 0:  # s = 0 with m odd: no X has |X| <= 0
            continue
        W = s + 2
        # the comb: residue sums of N_m modulo W, for the residues h mod W.
        # k <= s / 2 + 1 < W, so the residues of h0 .. h0 + k - 1 are one
        # contiguous run of columns that wraps past W - 1 at most once.
        cols = binom[: -(-(m + 1) // W) * W].reshape(-1, W)
        r0 = h0 % W
        B = cols[:, r0:r0 + k].sum(axis=0)
        if r0 + k > W:
            B = np.concatenate((B, cols[:, :r0 + k - W].sum(axis=0)))
        # g(X) - g(X - 2) = (s + 3 - X)(B(X) - B(X - 2)), and g = (s + 2) B
        # at the first X = m % 2; s + 3 - X for X = m % 2 + 2, ... is a view
        g_s = np.empty(k, dtype=object)
        g_s[0] = (s + 2) * B[0]
        np.subtract(B[1:], B[:-1], out=g_s[1:])
        g_s[1:] *= ints[s + 1 - m % 2::-2][:k - 1]
        np.cumsum(g_s, out=g_s)
        d = g_s - g[:k]
        c = d - dg[:k]  # paths with range s + 1 ending at X
        g[:k], dg[:k] = g_s, d
        # one final +-1 step: x = X - 1 and X + 1, with c(-1) = c(1) at x = 0
        ext = np.concatenate((c[:1], c, [0])) if m % 2 else np.append(c, 0)
        try:
            p = np.ldexp((ext[:-1] + ext[1:]).astype(float), -n)
        except OverflowError as exc:
            raise _past_double_range(n) from exc
        pt[H0:H0 + len(p), s] = p
        pt[n + 1 - H0 - len(p):n + 1 - H0, s] = p[::-1]
    # a count c >= 1 gives c 2^-n >= 2^-1033 > 0, so pt != 0 is the support
    hx, ri = np.nonzero(pt)  # x ascending, then r ascending
    return JointEndpointRangeLaw(n=n, xs=2 * hx - n, rs=ri + 1, ps=pt[hx, ri])


def joint_law_exact(n: int) -> JointEndpointRangeLaw:
    """Exact joint law of (S_n, R_n), streamed one range row at a time.

    About n^2 / 4 exact-integer row operations on numpy object rows over the
    X >= 0 half, each done once per +-X pair; only a few half rows of ints
    and the float64 (x, r) table (8 MB at n = 1000) are held.  Raises
    ResourceCapError when a count exceeds the double range (first at
    n = 1034).  From n = 1045 on the overflow is certain before any build:
    the 2^n paths fall into at most n (n + 1) cells (x, r), so some count
    exceeds 2^(n - L) with L the bit length of n (n + 1), and n - L reaches
    1024 there.  Results are cached per n.
    """
    _check_size(n)
    return _exact_law_cached(n)


class PolymerLaw(NamedTuple):
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
        """Atoms and probabilities of S_n given S_n > 0 (S_n = 0 excluded)."""
        atoms, probs = self.tilted.endpoint_marginal()
        pos = atoms > 0
        return atoms[pos], probs[pos] / probs[pos].sum()

    def endpoint_mean_conditional(self) -> float:
        xs, ps = self.endpoint_conditional_positive()
        return float(np.dot(ps, xs))

    def range_mean(self) -> float:
        return float(np.dot(self.tilted.ps, self.tilted.rs))


def _log_tilt(base: JointEndpointRangeLaw, beta: float) -> np.ndarray:
    """log of each untilted cell's mass times exp(-beta n^2 / r)."""
    return np.log(base.ps) - beta * float(base.n) * float(base.n) / base.rs


def polymer_law(beta: float, n: int) -> PolymerLaw:
    """Tilt the exact joint law by exp(-beta n^2 / r), in log space.

    beta = 0 returns the untilted law bit-for-bit with Z = 1.  A beta n^2
    past the double range, which makes every log-weight -inf, is a
    DomainError after the checks on n and before any build.
    """
    check_positive("beta", beta, allow_zero=True)
    _check_size(n)
    check_range_energy(beta, n)
    base = joint_law_exact(n)
    if beta == 0.0:
        return PolymerLaw(beta=0.0, n=n, tilted=base, log_partition=0.0)
    logw = _log_tilt(base, beta)
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
    scaled by sigma*(beta) sqrt(n), a DomainError where sigma* underflows to
    0 (from beta ~ 745).  beta = 0 is the plain-walk sanity case:
    unconditioned, centered at 0 with unit diffusive scale.  The distance is
    the supremum over both one-sided limits of the right-continuous CDF.

    The distance of a lattice law from any continuous CDF is at
    least half its largest atom, whatever the centring and scale.  At finite
    n the distance also carries an O(n^{-1/2}) centring term: for beta > 0
    the conditional mean sits an O(1) number of sites from c*(beta) n.
    """
    n = law.n
    if law.beta == 0.0:
        atoms, probs = law.tilted.endpoint_marginal()
        return _ks_distance(atoms.astype(float), probs, 0.0, math.sqrt(n))
    consts = free_energy_g_star(law.beta)
    if consts.sigma_star == 0.0:
        raise DomainError(f"beta={law.beta!r} is too large: sigma*(beta) underflows to 0")
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
    velocity scale).  Every such site is reachable, so every rate is finite:
    where its tilted probability is below the normal doubles (n = 50,
    theta = 0 from beta ~ 16.7 on), keeping a few bits or none, its log is
    formed from the log tilt of the untilted law instead.
    """
    n = law.n
    atoms, probs = law.endpoint_conditional_positive()  # every other site from atoms[0]
    logw = None  # log tilted weights of the positive endpoints, formed on first need
    out: list[tuple[float, float]] = []
    for theta in theta_grid:
        if not 0.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {theta!r}")
        x0 = _window_site(float(theta), n)
        p = float(probs[(x0 - atoms[0]) // 2])
        if p >= sys.float_info.min:
            log_p = math.log(p)
        else:
            if logw is None:
                base = joint_law_exact(n)
                pos = base.xs > 0
                xs, logw = base.xs[pos], _log_tilt(base, law.beta)[pos]
                log_total = np.logaddexp.reduce(logw)
            log_p = float(np.logaddexp.reduce(logw[xs == x0]) - log_total)
        out.append((float(theta), -log_p / n))
    return out
