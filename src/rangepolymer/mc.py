"""Seeded Monte Carlo for the range-penalized walk and Brownian range.

Reproducibility contract: ``_map_blocks`` alone turns (seed, samples) into
fixed-size sample blocks, each drawn from its own counter-based Philox
stream keyed by (seed, block index), and returns the blocks' results in
block order for every reduction.  Results are therefore bit-identical for a
given (seed, samples) regardless of the number of worker threads, and a
sampler is a plain kernel fn(stream, count).

The workhorse estimator is self-normalized importance sampling from the
exponentially tilted proposal: a drifted walk with up-step probability
(1 + c)/2, c = c*(beta), which is the member of the exponential family the
tilted measure concentrates on.  Log-weights combine the energy
-beta n^2 / R_n with the likelihood ratio of the drift and never leave log
space until the final normalization.
"""

from __future__ import annotations

import functools
import math
import os
from typing import NamedTuple

import numpy as np

from .discrete import free_energy_g_star, tilde_c_d
from .errors import DomainError, ResourceCapError, check_positive, check_range_energy

__all__ = [
    "McEstimate",
    "CorollaryBoundReport",
    "BrownianRangeHistograms",
    "polymer_estimate_tilted",
    "corollary_bound_check",
    "brownian_range_mc",
]

WALK_BLOCK = 4096
PATH_BLOCK = 512
TIME_CHUNK = 2048  # Brownian increments drawn per chunk; fixes the stream order
LOW_ESS_FRACTION = 0.01
PATH_STEP_CAP = 10**10  # most path steps (samples * t/dt) brownian_range_mc takes
# Most walk steps _weighted_walks takes, a walk charged n d + 8: a step peaks
# at ~9 B (d = 1: a uint64 raw word and its bool) or ~16 B (d >= 2), a walk's
# own arrays at ~80 B.  1.1e8 admits 1e5 walks of n = 1000; peak RSS was
# 0.99 GB at n = 1 (1.2e7 walks), 1.0 GB and 1.8 GB at 2 walks of n d = 5.5e7
# in d = 1 and d = 2.
WALK_STEP_CAP = 11 * 10**7


class McEstimate(NamedTuple):
    """Estimate with standard error, sample count and effective sample size.

    ``low_ess`` flags effective sample sizes below 1% of the nominal count;
    the estimate is still reported but should be treated with suspicion.
    """

    mean: float
    std_error: float
    samples: int
    effective_sample_size: float
    low_ess: bool = False


def _check_seed(seed: int) -> None:
    """DomainError unless seed is an integer in [0, 2^64), one Philox key word.

    Reducing it mod 2^64 instead would give distinct seeds one stream.
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _stream(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform
    has one, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn, seed: int, samples: int, block: int, threads: int) -> list:
    """fn(_stream(seed, b), count) for every block b of ``samples``, in order.

    The samples split into blocks of ``block``, the last one short, and the
    results come back in block order whatever the thread count.  Workers
    number at most ``threads``, the blocks and the usable cores: a thread
    past the cores cannot speed anything up, yet holds its block's buffers
    (8 MiB of increments for a Brownian block).  The thread pool is imported
    here, on demand: ``concurrent.futures`` pulls in ``logging``, ``queue``
    and ``traceback``, which a one-worker run never needs.
    """
    nblocks = (samples + block - 1) // block

    def job(b: int):
        return fn(_stream(seed, b), min(block, samples - b * block))

    workers = min(threads, nblocks, _usable_cores())
    if workers <= 1:
        return [job(b) for b in range(nblocks)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(nblocks)))


@functools.cache
def _walk_tables():
    """(net, low, high) int16 tables over the 2^16 codes of 16 walk steps.

    A code holds its steps' up-bits first step first; low and high are the
    extremes of 0 and the 16 partial sums.  Built from the 8-bit tables, on
    first use, since only the walk sampler reads them.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    pos = np.cumsum(bits.astype(np.int16) * 2 - 1, axis=1, dtype=np.int16)
    net = pos[:, -1]
    low = np.minimum(pos.min(axis=1), 0)
    high = np.maximum(pos.max(axis=1), 0)
    # code = first byte, then second: the second byte's walk starts at net[first]
    tables = (np.add.outer(net, net).ravel(),
              np.minimum(low[:, None], np.add.outer(net, low)).ravel(),
              np.maximum(high[:, None], np.add.outer(net, high)).ravel())
    for table in tables:  # shared by every call: read-only
        table.flags.writeable = False
    return tables


def _up_threshold(c: float) -> int:
    """Largest raw Philox word of an up-step at drift c, -1 when there is none.

    ``random()`` is (raw >> 11) 2^-53, so with p = (1 + c)/2 it is below p
    exactly when raw >> 11 < ceil(p 2^53), that is raw <= ceil(p 2^53) 2^11 - 1;
    the - 1 keeps p = 1 inside uint64.
    """
    return (math.ceil(0.5 * (1.0 + c) * 2.0**53) << 11) - 1


def _walk_block_1d(rng: np.random.Generator, count: int, n: int, c: float):
    """(endpoints, ranges) of ``count`` drifted 1-d walks drawn from rng.

    A step goes up when its raw Philox word is at most ``_up_threshold(c)``,
    exactly when ``random() < (1 + c)/2`` on the same stream.  A
    nearest-neighbour walk on Z visits every site between its extremes, so
    the range over S_0..S_{n-1} is max - min + 1, the origin included.  The
    first 16 floor((n - 1)/16) steps are packed into 16-step codes: a code
    starts where the net steps of the codes before it lead, and adds its
    ``_walk_tables`` low and high to that.  The fewer than 16 steps left
    before the final one move the position and extremes a step at a time,
    and the final step moves the position only.  The tests count the
    distinct sites of sampler blocks by sorting and require them equal.
    """
    up = (rng.bit_generator.random_raw(count * n) <= _up_threshold(c)).reshape(count, n)
    net, low, high = _walk_tables()
    full = 16 * ((n - 1) // 16)
    # row j holds steps 16 j .. 16 j + 15 of every walk
    codes = np.packbits(up[:, :full], axis=1).view(">u2").T.astype(np.intp)
    moves = net.take(codes)
    before = np.cumsum(moves, axis=0, dtype=np.int32)
    before -= moves  # the position each code starts from
    lo = np.add(before, low.take(codes)).min(axis=0, initial=0)
    hi = np.add(before, high.take(codes)).max(axis=0, initial=0)
    s = moves.sum(axis=0, dtype=np.int32)
    steps = np.ascontiguousarray(up[:, full:].T).view(np.int8) * 2 - 1
    for step in steps[:-1]:
        s += step
        np.minimum(lo, s, out=lo)
        np.maximum(hi, s, out=hi)
    s += steps[-1]
    return s.astype(np.int64), (hi - lo + 1).astype(np.int64)


def _walk_block_nd(rng: np.random.Generator, count: int, n: int, d: int):
    """(endpoint norms, ranges) of ``count`` undrifted d-dim walks drawn from rng."""
    span = 2 * n + 1
    dirs = np.repeat(np.eye(d, dtype=np.int64), 2, axis=0)
    dirs[1::2] *= -1  # +e1, -e1, +e2, -e2, ...
    coords = dirs[rng.integers(0, 2 * d, size=(count, n))]
    np.cumsum(coords, axis=1, out=coords)  # (count, n, d), summed in place
    visited = coords[:, : n - 1, :]
    packed = np.zeros((count, visited.shape[1] + 1), dtype=np.int64)
    stride = 1
    for axis in range(d):
        packed[:, 1:] += (visited[:, :, axis] + n) * stride
        packed[:, 0] += n * stride  # origin
        stride *= span
    packed.sort(axis=1)
    ranges = 1 + np.count_nonzero(np.diff(packed, axis=1), axis=1)
    norms = np.sqrt(np.sum(np.square(coords[:, -1, :].astype(float)), axis=1))
    return norms, ranges.astype(np.int64)


def _weighted_walks(beta, n, d, seed, samples, drift, threads):
    """(endpoints, ranges, weights, ESS) of ``samples`` walks under the proposal.

    The proposal is the 1-d walk with up-step probability (1 + drift)/2 for
    d = 1 and the plain walk for d >= 2 (drift must then be 0.0).  The
    endpoints are S_n in d = 1 and |S_n| otherwise, joined in block order.
    The weights are exp(-beta n^2 / R_n) over the drift's likelihood ratio,
    self-normalized: this is the one place where walk log-weights are formed.
    A seed outside [0, 2^64) and a beta n^2 past the double range (every
    log-weight -inf) are DomainErrors before any draw.
    """
    _check_seed(seed)
    if n < 1:
        raise DomainError(f"need walk length n >= 1, got {n!r}")
    # 2n + 1 >= 3, so every d >= 62 overflows; below that the power is small
    if d >= 2 and (d >= 62 or (2 * n + 1)**d >= 2**62):
        raise DomainError(f"coordinate packing overflows for d={d}, n={n}")
    if samples * (n * d + 8) > WALK_STEP_CAP:
        raise ResourceCapError(f"samples * (n d + 8) = {samples} * {n * d + 8} walk "
                               f"steps exceeds the cap of {WALK_STEP_CAP:.1e}")
    check_range_energy(beta, n)
    kernel, arg = (_walk_block_1d, drift) if d == 1 else (_walk_block_nd, d)
    parts = _map_blocks(lambda rng, count: kernel(rng, count, n, arg),
                        seed, samples, WALK_BLOCK, threads)
    f, r = (np.concatenate([p[k] for p in parts]) for k in (0, 1))
    # the likelihood-ratio term is exactly 0.0 at drift 0, so logw keeps its bits
    logw = -beta * float(n) * float(n) / r - ((n + f) * 0.5 * math.log1p(drift)
                                              + (n - f) * 0.5 * math.log1p(-drift))
    if not np.all(np.isfinite(logw)):
        raise AssertionError("non-finite log-weight on valid inputs")
    w = np.exp(logw - float(logw.max()))
    w /= w.sum()
    return f, r, w, 1.0 / float(np.sum(np.square(w)))


def _ratio_estimate(w, f, samples, ess, indicator=None) -> McEstimate:
    """Self-normalized conditional mean sum(w f 1_A)/sum(w 1_A) with its
    linearized standard error; no indicator means A is everything."""
    wa = w if indicator is None else w * indicator
    denom = float(wa.sum())
    if denom <= 0.0:
        raise DomainError("conditioning event has zero sampled mass")
    mu = math.fsum(wa * f) / denom  # correctly rounded: no BLAS, no CPU dependence
    se = math.sqrt(float(np.sum(np.square(wa * (f - mu))))) / denom
    return McEstimate(
        mean=mu,
        std_error=se,
        samples=samples,
        effective_sample_size=ess,
        low_ess=ess < LOW_ESS_FRACTION * samples,
    )


def polymer_estimate_tilted(beta: float, n: int, observable: str, seed: int,
                            samples: int, threads: int = 1,
                            c_point: float = 0.0) -> McEstimate:
    """Importance-sampling estimate of a tilted-measure observable.

    observable:
      "endpoint_mean"           E[S_n/n]
      "endpoint_mean_positive"  E[S_n/n | S_n > 0]
      "range_mean"              E[R_n/n]
      "endpoint_cdf"            P((S_n - c* n)/(sigma* sqrt(n)) <= c_point | S_n > 0)

    The proposal drift is c*(beta), solved once; at beta = 0 it is 0 and the
    estimator is plain Monte Carlo.  From beta ~ 18.4 c* rounds to 1, a
    DomainError.
    """
    check_positive("beta", beta, allow_zero=True)
    if n < 1 or samples < 2:
        raise DomainError(f"need n >= 1 and samples >= 2, got {n!r}, {samples!r}")
    if not math.isfinite(c_point):
        raise DomainError(f"c_point must be finite, got {c_point!r}")
    consts = free_energy_g_star(beta) if beta > 0.0 else None
    c = consts.c_star if consts else 0.0
    if c == 1.0:
        raise DomainError(f"beta={beta!r} is too large: c*(beta) rounds to 1")
    e, r, w, ess = _weighted_walks(beta, n, 1, seed, samples, c, threads)
    if observable == "endpoint_mean":
        return _ratio_estimate(w, e / n, samples, ess)
    if observable == "endpoint_mean_positive":
        return _ratio_estimate(w, e / n, samples, ess, (e > 0).astype(float))
    if observable == "range_mean":
        return _ratio_estimate(w, r / n, samples, ess)
    if observable == "endpoint_cdf":
        sigma = consts.sigma_star if consts else 1.0
        z = (e - c * n) / (sigma * math.sqrt(n))
        return _ratio_estimate(w, (z <= c_point).astype(float), samples, ess,
                               (e > 0).astype(float))
    raise DomainError(f"unknown observable {observable!r}")


class CorollaryBoundReport(NamedTuple):
    """Soft consistency report of E[R_n/n] against the threshold bound."""

    estimate: McEstimate
    bound: float
    margin: float
    satisfied: bool
    unreliable: bool


def corollary_bound_check(beta: float, d: int, n: int, seed: int,
                          samples: int, threads: int = 1) -> CorollaryBoundReport:
    """Estimate E[R_n/n] in d >= 2 and compare with beta/(beta + log 2d).

    Proposal is the plain walk (no tilted family is available off the line),
    weights exp(-beta n^2 / R_n), self-normalized.  The check is soft, with
    a fixed slack of 0.05: estimate - 3 se >= bound - 0.05.  An ESS collapse
    marks the report unreliable instead of failing.
    """
    if d < 2:
        raise DomainError(f"this check concerns d >= 2, got d={d!r}")
    check_positive("beta", beta, allow_zero=True)
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples!r}")
    _, r, w, ess = _weighted_walks(beta, n, d, seed, samples, 0.0, threads)
    est = _ratio_estimate(w, r / n, samples, ess)
    bound = tilde_c_d(beta, d) if beta > 0.0 else 0.0
    margin = est.mean - 3.0 * est.std_error - (bound - 0.05)
    return CorollaryBoundReport(
        estimate=est,
        bound=bound,
        margin=margin,
        satisfied=margin >= 0.0,
        unreliable=est.low_ess,
    )


class BrownianRangeHistograms(NamedTuple):
    """Histogram densities of the endpoint and range of discretized paths.

    Euler discretization with exact Gaussian increments; the grid range
    misses the true extremes, biasing ranges low by O(sqrt(dt)) (about
    0.012 at dt = 1e-4), which callers must budget for.
    """

    range_edges: np.ndarray
    range_density: np.ndarray
    range_se: np.ndarray
    endpoint_edges: np.ndarray
    endpoint_density: np.ndarray
    endpoint_se: np.ndarray
    joint_x_edges: np.ndarray
    joint_r_edges: np.ndarray
    joint_density: np.ndarray
    joint_se: np.ndarray
    positive_fraction: float
    mean_range: float

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kind,lo,hi,density,std_error\n")
            for kind, edges, density, se in (
                    ("range", self.range_edges, self.range_density, self.range_se),
                    ("endpoint", self.endpoint_edges, self.endpoint_density,
                     self.endpoint_se)):
                for lo, hi, v, s in zip(edges[:-1], edges[1:], density, se):
                    fh.write(f"{kind},{lo:.17g},{hi:.17g},{v:.17g},{s:.17g}\n")


def _path_block(rng: np.random.Generator, count: int, nsteps: int, sd: float):
    """(endpoints, minima, maxima) of ``count`` discretized paths from 0.

    Increments come in (count, L) chunks of at most TIME_CHUNK steps, which
    fixes the stream order; each chunk is drawn into the front of one buffer.
    """
    x = np.zeros(count)
    lo = np.zeros(count)
    hi = np.zeros(count)
    extreme = np.empty(count)
    buf = np.empty(count * min(TIME_CHUNK, nsteps))
    left = nsteps
    while left > 0:
        L = min(TIME_CHUNK, left)
        inc = buf[: count * L].reshape(count, L)
        rng.standard_normal(out=inc)
        inc *= sd  # bitwise rng.normal(0.0, sd)
        np.cumsum(inc, axis=1, out=inc)
        # rounding is monotone, so min_k fl(a_k + x) = fl(min_k a_k + x): the
        # chunk's prefix sums a_k are shifted by x only at their extremes
        np.minimum(lo, np.add(inc.min(axis=1, out=extreme), x, out=extreme), out=lo)
        np.maximum(hi, np.add(inc.max(axis=1, out=extreme), x, out=extreme), out=hi)
        x += inc[:, -1]
        left -= L
    return x, lo, hi


def brownian_range_mc(t: float, dt: float, seed: int, samples: int,
                      threads: int = 1) -> BrownianRangeHistograms:
    """Histogram (B_t, R_t) over discretized Brownian paths.

    The bins are fixed and scale with sqrt(t): the range in 60 equal bins on
    [0, 6 sqrt(t)], the endpoint in 80 on [-4 sqrt(t), 4 sqrt(t)], and the
    joint (B_t, R_t) table in 30 x 40 cells on [0, 3 sqrt(t)] x
    [0, 4 sqrt(t)].  Requires dt <= t / 1e4 so the discretization bias stays
    within the documented allowance, and raises ResourceCapError past
    PATH_STEP_CAP path steps in all.  Per-block Philox streams, keyed by a
    seed in [0, 2^64), make the result reproducible for any thread count.
    """
    check_positive("t", t)
    check_positive("dt", dt)
    _check_seed(seed)
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples!r}")
    if dt > t / 1e4:
        raise DomainError(f"dt={dt!r} too coarse; need dt <= t/1e4")
    if not t / dt < math.inf:
        raise DomainError(f"t/dt overflows: t={t!r}, dt={dt!r}")
    nsteps = int(round(t / dt))
    if samples * nsteps > PATH_STEP_CAP:
        raise ResourceCapError(f"samples * t/dt = {samples} * {nsteps} path steps "
                               f"exceeds the cap of {PATH_STEP_CAP:.0e}")
    st = math.sqrt(t)
    range_edges = np.linspace(0.0, 6.0 * st, 61)
    endpoint_edges = np.linspace(-4.0 * st, 4.0 * st, 81)
    joint_x_edges = np.linspace(0.0, 3.0 * st, 31)
    joint_r_edges = np.linspace(0.0, 4.0 * st, 41)
    sd = math.sqrt(dt)
    parts = _map_blocks(lambda rng, count: _path_block(rng, count, nsteps, sd),
                        seed, samples, PATH_BLOCK, threads)
    spans = [hi - lo for _, lo, hi in parts]
    x, r = np.concatenate([p[0] for p in parts]), np.concatenate(spans)

    def _density(counts, widths):
        p = counts / samples
        se = np.sqrt(p * (1.0 - p) / samples)
        return p / widths, se / widths

    # the counts are integers, so binning the joined paths once equals
    # summing the blocks' histograms
    rd, rse = _density(np.histogram(r, range_edges)[0], np.diff(range_edges))
    bd, bse = _density(np.histogram(x, endpoint_edges)[0], np.diff(endpoint_edges))
    jd, jse = _density(np.histogram2d(x, r, bins=(joint_x_edges, joint_r_edges))[0],
                       np.outer(np.diff(joint_x_edges), np.diff(joint_r_edges)))
    return BrownianRangeHistograms(
        range_edges=range_edges, range_density=rd, range_se=rse,
        endpoint_edges=endpoint_edges, endpoint_density=bd, endpoint_se=bse,
        joint_x_edges=joint_x_edges, joint_r_edges=joint_r_edges,
        joint_density=jd, joint_se=jse,
        positive_fraction=int(np.count_nonzero(x > 0)) / samples,
        mean_range=math.fsum(float(s.sum()) for s in spans) / samples,
    )
