"""Tests for the seeded Monte Carlo estimators.

Statistical assertions use 3-standard-error windows against exact values
from the finite-n law machinery; determinism assertions require bit
equality.  The d = 2 tilt is cross-checked against an exhaustive
direction-sequence enumeration at n = 12.
"""

import concurrent.futures
import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from rangepolymer import (
    CorollaryBoundReport,
    DomainError,
    McEstimate,
    brownian_range_mc,
    corollary_bound_check,
    joint_law_exact,
    polymer_estimate_tilted,
    polymer_law,
)
from rangepolymer.discrete import free_energy_g_star, tilde_c_d
from rangepolymer.mc import (
    PATH_BLOCK,
    TIME_CHUNK,
    WALK_BLOCK,
    _map_blocks,
    _path_block,
    _ratio_estimate,
    _stream,
    _up_threshold,
    _usable_cores,
    _walk_block_1d,
    _walk_block_nd,
    _weighted_walks,
)


def _exact_d2_range_mean(beta: float, n: int) -> float:
    """E[R_n/n] under the tilted measure in d = 2 by full enumeration.

    Walks all 4^(n-1) direction sequences of the prefix in chunks; the range
    counts distinct sites among S_0..S_{n-1} and the final step is
    irrelevant to both R_n and the weight.
    """
    m = n - 1
    assert m <= 11, "enumeration larger than 4^11 refused"
    dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.int64)
    total_w = 0.0
    total_wr = 0.0
    chunk = 1 << 16
    span = 2 * n + 1
    for start in range(0, 4**m, chunk):
        idx = np.arange(start, min(start + chunk, 4**m), dtype=np.int64)
        digits = (idx[:, None] // 4 ** np.arange(m)[None, :]) % 4
        coords = np.cumsum(dirs[digits], axis=1)  # (chunk, m, 2)
        packed = np.zeros((len(idx), m + 1), dtype=np.int64)
        packed[:, 1:] = (coords[:, :, 0] + n) + (coords[:, :, 1] + n) * span
        packed[:, 0] = n + n * span
        packed.sort(axis=1)
        r = 1 + np.count_nonzero(np.diff(packed, axis=1), axis=1)
        w = np.exp(-beta * float(n) * float(n) / r)
        total_w += float(w.sum())
        total_wr += float((w * r).sum())
    return total_wr / total_w / n


def _walk_block_1d_oracle(seed: int, block: int, count: int, n: int, c: float):
    """(endpoints, ranges) of a kernel block, redrawn from its stream with
    int32 steps; the range counts the distinct sites among S_0..S_{n-1} by
    sorting each walk, which holds in any dimension."""
    rng = _stream(seed, block)
    steps = np.where(rng.random((count, n)) < 0.5 * (1.0 + c), 1, -1).astype(np.int32)
    pos = np.cumsum(steps, axis=1)
    walked = np.concatenate([np.zeros((count, 1), dtype=np.int32), pos[:, : n - 1]],
                            axis=1)
    walked.sort(axis=1)
    distinct = 1 + np.count_nonzero(np.diff(walked, axis=1), axis=1)
    return pos[:, -1].astype(np.int64), distinct.astype(np.int64)


def _assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


# c*(18) = 1 - 4.4e-16: nearly every step goes up
_C_NEAR_ONE = free_energy_g_star(18.0).c_star
# (seed, block) pairs, the largest Philox key word among them
_WALK_KEYS = [(11, 3), (0, 0), (9, 1), (2**64 - 1, 24)]


def _path_block_oracle(seed, block, count, nsteps, sd, time_chunk):
    """The Brownian block loop before the reused draw buffer, verbatim."""
    rng = _stream(seed, block)
    x = np.zeros(count)
    lo = np.zeros(count)
    hi = np.zeros(count)
    left = nsteps
    while left > 0:
        L = min(time_chunk, left)
        inc = rng.normal(0.0, sd, size=(count, L))
        np.cumsum(inc, axis=1, out=inc)
        inc += x[:, None]
        np.minimum(lo, inc.min(axis=1), out=lo)
        np.maximum(hi, inc.max(axis=1), out=hi)
        x = inc[:, -1].copy()
        left -= L
    return x, lo, hi


class TestKernelsMatchOracle:
    @pytest.mark.parametrize("c", [0.0, 0.5, -0.3, 0.8,
                                   pytest.param(_C_NEAR_ONE, id="cstar18")])
    # 16..33 steps: no full 16-step code, tails of 0, 1 and 15 steps, two codes
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 18, 32, 33, 200, 1000])
    @pytest.mark.parametrize("count", [WALK_BLOCK, 37])
    def test_walk_block_1d_bitwise(self, n, c, count):
        # the kernel's max - min + 1 against a distinct-site count
        for seed, block in _WALK_KEYS:
            _assert_same_arrays(_walk_block_1d(_stream(seed, block), count, n, c),
                                _walk_block_1d_oracle(seed, block, count, n, c))

    def test_path_block_bitwise(self):
        # 10000 steps in chunks of 2048 leave a last chunk of 1808 steps
        assert TIME_CHUNK == 2048
        sd = math.sqrt(1e-4)
        got = _path_block(_stream(42, 2), 64, 10000, sd)
        want = _path_block_oracle(42, 2, 64, 10000, sd, 2048)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_corrupt_range_fails_the_oracle_comparison(self, monkeypatch):
        # control for test_walk_block_1d_bitwise: a range off by one is caught
        from rangepolymer import mc
        net, low, high = mc._walk_tables()
        with monkeypatch.context() as patch:
            patch.setattr(mc, "_walk_tables", lambda: (net, low, high + 1))
            corrupt = _walk_block_1d(_stream(5, 0), 64, 50, 0.2)
        want = _walk_block_1d_oracle(5, 0, 64, 50, 0.2)
        with pytest.raises(AssertionError):
            _assert_same_arrays(corrupt, want)
        _assert_same_arrays(_walk_block_1d(_stream(5, 0), 64, 50, 0.2), want)

    @pytest.mark.parametrize("c", [-1.0, -0.999, -0.3, -5e-324, 0.0, 5e-324, 0.5,
                                   pytest.param(_C_NEAR_ONE, id="cstar18"),
                                   1.0 - 2.0**-53, 1.0])
    def test_up_threshold_is_random_below_p(self, c):
        p = 0.5 * (1.0 + c)
        threshold = _up_threshold(c)
        k = math.ceil(p * 2.0**53)
        # the last word that goes up and the first that does not, where they exist
        edges = [w for w in ((k - 1) * 2**11 + 2047, k * 2**11) if 0 <= w < 2**64]
        for word in edges:
            assert (word <= threshold) == (Fraction(word >> 11, 2**53) < Fraction(p))
        for seed, block in [(0, 0), (11, 3), (2**64 - 1, 24)]:
            raw = _stream(seed, block).bit_generator.random_raw(200_000)
            want = _stream(seed, block).random(200_000) < p
            assert np.array_equal(raw <= threshold, want)


class TestSampleWalk:
    def test_two_steps_always_two_sites(self):
        for seed in range(12):
            _, r = _walk_block_1d(_stream(seed, 0), 64, 2, 0.0)
            assert np.all(r == 2)

    def test_d1_visited_set_is_an_interval(self):
        # the distinct sites among S_0..S_{n-1}, counted with a Python set on
        # walks redrawn from the kernel's stream, fill [min, max]
        count = 50
        for (seed, block), n, c in itertools.product(
                _WALK_KEYS, [1, 2, 40, 200, 1000], [0.0, 0.3, 0.8, _C_NEAR_ONE]):
            e, r = _walk_block_1d(_stream(seed, block), count, n, c)
            up = _stream(seed, block).random((count, n)) < 0.5 * (1.0 + c)
            pos = np.cumsum(np.where(up, 1, -1), axis=1)
            for k in range(count):
                visited = [0, *pos[k, : n - 1].tolist()]
                assert len(set(visited)) == max(visited) - min(visited) + 1 == r[k]
                assert e[k] == pos[k, -1]

    def test_d1_mean_range_against_exact_law(self):
        n, samples = 300, 20000
        law = joint_law_exact(n)
        exact = math.fsum(r * p for _, r, p in law.entries()) / n
        e, r, _, _ = _weighted_walks(0.0, n, 1, seed=17, samples=samples, drift=0.0,
                                     threads=1)
        mean = float(np.mean(r / n))
        se = float(np.std(r / n, ddof=1)) / math.sqrt(samples)
        assert abs(mean - exact) <= 3.0 * se

    def test_d1_mean_range_at_n1000(self):
        n, samples = 1000, 100000  # full-scale variant
        law = joint_law_exact(n)
        exact = math.fsum(r * p for _, r, p in law.entries()) / n
        _, r, _, _ = _weighted_walks(0.0, n, 1, seed=101, samples=samples, drift=0.0,
                                     threads=2)
        mean = float(np.mean(r / n))
        se = float(np.std(r / n, ddof=1)) / math.sqrt(samples)
        assert abs(mean - exact) <= 3.0 * se

    def test_d2_range_fraction_declines_with_n(self):
        # transience effect, recorded as a trend
        def frac(n):
            rep = corollary_bound_check(0.0, 2, n, seed=3, samples=3000)
            return rep.estimate.mean

        assert frac(400) < frac(50)

    def test_d2_endpoint_shape(self):
        # at n = 1 a walk visits the origin alone: every range is 1
        count = 16
        for n in (1, 64):
            norms, r = _walk_block_nd(_stream(5, 0), count, n, 2)
            assert norms.shape == r.shape == (count,)
            assert np.all((1 <= r) & (r <= n)) and np.all(norms <= n)


def _naive_range_mean(n, seed, samples):
    """E[R_n/n] at beta = 1 from the undrifted proposal."""
    _, r, w, ess = _weighted_walks(1.0, n, 1, seed=seed, samples=samples, drift=0.0,
                                   threads=1)
    return _ratio_estimate(w, r / n, samples, ess)


class TestTiltedEstimator:
    def test_endpoint_matches_exact(self):
        n, samples = 200, 40000
        pl = polymer_law(1.0, n)
        exact = pl.endpoint_mean_conditional() / n
        est = polymer_estimate_tilted(1.0, n, "endpoint_mean_positive", seed=7,
                                      samples=samples)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_range_matches_exact(self):
        n, samples = 200, 40000
        exact = polymer_law(1.0, n).range_mean() / n
        est = polymer_estimate_tilted(1.0, n, "range_mean", seed=7, samples=samples)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_endpoint_cdf_matches_exact(self):
        n = 200
        consts_scale = math.sqrt(n)
        pl = polymer_law(1.0, n)
        from rangepolymer import free_energy_g_star

        pc = free_energy_g_star(1.0)
        xs, ps = pl.endpoint_conditional_positive()
        z = (xs - pc.c_star * n) / (pc.sigma_star * consts_scale)
        exact = float(ps[z <= 0.0].sum())
        est = polymer_estimate_tilted(1.0, n, "endpoint_cdf", seed=11,
                                      samples=40000, c_point=0.0)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_beta_zero_reduces_to_plain_mc(self):
        est = polymer_estimate_tilted(0.0, 150, "endpoint_mean", seed=23,
                                      samples=30000)
        assert est.effective_sample_size == pytest.approx(30000.0)
        assert abs(est.mean) <= 3.0 * est.std_error

    def test_drift_correction_identity(self):
        # a drifted proposal with beta = 0 must still estimate E[S_n/n] = 0
        n, samples = 50, 30000
        e, _, w, ess = _weighted_walks(0.0, n, 1, seed=29, samples=samples, drift=0.1,
                                       threads=1)
        est = _ratio_estimate(w, e / n, samples, ess)
        assert not est.low_ess
        assert abs(est.mean) <= 3.0 * est.std_error

    def test_tilted_vs_naive_agree_where_naive_has_support(self):
        # the naive proposal degenerates (ESS -> 1) beyond n ~ 20 at beta = 1,
        # so the 3-sigma agreement is checked at a size where it can speak,
        # with the exact value as the common referee
        n, samples = 16, 50000
        exact = polymer_law(1.0, n).range_mean() / n
        tilted = polymer_estimate_tilted(1.0, n, "range_mean", seed=31,
                                         samples=samples)
        naive = _naive_range_mean(n, seed=37, samples=samples)
        assert abs(tilted.mean - exact) <= 3.0 * tilted.std_error
        assert abs(naive.mean - exact) <= 3.0 * naive.std_error
        combined = math.hypot(tilted.std_error, naive.std_error)
        assert abs(tilted.mean - naive.mean) <= 3.0 * combined

    def test_tilted_ess_dominates_naive(self):
        n, samples = 60, 20000
        tilted = polymer_estimate_tilted(1.0, n, "range_mean", seed=31,
                                         samples=samples)
        naive = _naive_range_mean(n, seed=37, samples=samples)
        assert tilted.effective_sample_size > 10.0 * naive.effective_sample_size
        assert naive.low_ess

    def test_weights_normalized_and_finite(self):
        e, r, w, ess = _weighted_walks(1.0, 80, 1, seed=41, samples=5000, drift=0.8,
                                       threads=1)
        assert np.all(np.isfinite(w))
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
        assert 1.0 <= ess <= 5000.0

    def test_conditioning_event_without_sampled_mass(self):
        # both one-step walks of seed 5 end at -1, so no walk has S_n > 0
        with pytest.raises(DomainError, match="zero sampled mass"):
            polymer_estimate_tilted(0.0, 1, "endpoint_mean_positive", seed=5, samples=2)

    def test_unknown_observable(self, monkeypatch):
        from rangepolymer import mc

        def no_draw(*args):
            raise AssertionError("walks drawn before the observable check")

        monkeypatch.setattr(mc, "_map_blocks", no_draw)
        with pytest.raises(DomainError, match="unknown observable 'entropy'"):
            polymer_estimate_tilted(1.0, 50, "entropy", seed=1, samples=100)


class TestDeterminism:
    def test_bit_identical_across_runs_and_threads(self):
        kwargs = dict(beta=1.0, n=120, observable="range_mean", seed=99,
                      samples=20000)
        a = polymer_estimate_tilted(**kwargs, threads=1)
        b = polymer_estimate_tilted(**kwargs, threads=1)
        c = polymer_estimate_tilted(**kwargs, threads=4)
        assert a == b == c

    def test_brownian_bit_identical_across_threads(self):
        a = brownian_range_mc(1.0, 1e-4, seed=5, samples=2000, threads=1)
        b = brownian_range_mc(1.0, 1e-4, seed=5, samples=2000, threads=3)
        assert np.array_equal(a.range_density, b.range_density)
        assert np.array_equal(a.joint_density, b.joint_density)
        assert a.mean_range == b.mean_range

    def test_seed_changes_output(self):
        a = polymer_estimate_tilted(1.0, 60, "range_mean", seed=1, samples=4000)
        b = polymer_estimate_tilted(1.0, 60, "range_mean", seed=2, samples=4000)
        assert a.mean != b.mean


class TestCorollaryBound:
    def test_bound_value_and_report(self):
        rep = corollary_bound_check(2.0, 2, 200, seed=13, samples=20000)
        assert rep.bound == pytest.approx(2.0 / (2.0 + math.log(4.0)), rel=1e-12)
        assert rep.bound == pytest.approx(0.5906, abs=5e-4)
        assert isinstance(rep.satisfied, bool)
        assert rep.estimate.samples == 20000

    def test_beta_zero_is_plain_mean(self):
        rep = corollary_bound_check(0.0, 2, 100, seed=19, samples=5000)
        assert rep.estimate.effective_sample_size == pytest.approx(5000.0)
        assert rep.bound == 0.0

    def test_exhaustive_d2_cross_check(self):
        beta, n = 8.0, 12
        exact = _exact_d2_range_mean(beta, n)
        rep = corollary_bound_check(beta, 2, n, seed=43, samples=60000)
        assert abs(rep.estimate.mean - exact) <= 3.0 * rep.estimate.std_error
        assert exact > 0.9  # near-self-avoiding regime

    def test_rejects_d1(self):
        with pytest.raises(DomainError):
            corollary_bound_check(1.0, 1, 50, seed=1, samples=100)


class TestBrownian:
    def test_positive_fraction_and_mean_range(self):
        h = brownian_range_mc(1.0, 1e-4, seed=42, samples=8000, threads=_usable_cores())
        se_frac = math.sqrt(0.25 / 8000)
        assert abs(h.positive_fraction - 0.5) <= 3.0 * se_frac
        # discretization bias ~ -2 * 0.5826 * sqrt(dt) on the mean range
        target = 2.0 * math.sqrt(2.0 / math.pi)
        se_mean = 0.5 / math.sqrt(8000)
        assert abs(h.mean_range - target) <= 3.0 * se_mean + 0.02

    def test_scaling_between_horizons(self):
        # default bin edges scale with sqrt(t), so bin masses must agree
        a = brownian_range_mc(1.0, 1e-4, seed=8, samples=12000, threads=_usable_cores())
        b = brownian_range_mc(4.0, 4e-4, seed=9, samples=12000, threads=_usable_cores())
        pa = a.range_density * np.diff(a.range_edges)
        pb = b.range_density * np.diff(b.range_edges)
        sea = a.range_se * np.diff(a.range_edges)
        seb = b.range_se * np.diff(b.range_edges)
        for i in range(len(pa)):
            if pa[i] > 0.01:
                assert abs(pa[i] - pb[i]) <= 3.0 * (sea[i] + seb[i]) + 0.01

    def test_rejects_coarse_dt(self):
        with pytest.raises(DomainError):
            brownian_range_mc(1.0, 1e-3, seed=1, samples=100)


# The sampling pipeline before the estimators shared one weighted-walk
# sampler, verbatim except that the weighted mean is a correctly rounded
# math.fsum and the blocks run serially from their own streams, apart from
# _map_blocks.  Every estimate must stay bitwise what it gives.

def _walk_blocks_oracle(kernel, seed, samples, n, arg):
    if n < 1:
        raise DomainError(f"need walk length n >= 1, got {n!r}")
    nblocks = (samples + WALK_BLOCK - 1) // WALK_BLOCK
    parts = [kernel(_stream(seed, b), min(WALK_BLOCK, samples - b * WALK_BLOCK), n, arg)
             for b in range(nblocks)]
    return tuple(np.concatenate([p[k] for p in parts]) for k in (0, 1))


def _collect_1d(beta, n, seed, samples, drift):
    e, r = _walk_blocks_oracle(_walk_block_1d, seed, samples, n, drift)
    logw = -beta * float(n) * float(n) / r
    if drift != 0.0:
        logw = logw - (
            (n + e) * 0.5 * math.log1p(drift) + (n - e) * 0.5 * math.log1p(-drift)
        )
    return e, r, logw


def _normalized_weights(logw):
    shift = float(logw.max())
    w = np.exp(logw - shift)
    w /= w.sum()
    ess = 1.0 / float(np.sum(np.square(w)))
    return w, ess


def _ratio_estimate_oracle(w, f, indicator, samples, ess):
    wa = w * indicator
    denom = float(wa.sum())
    if denom <= 0.0:
        raise DomainError("conditioning event has zero sampled mass")
    mu = math.fsum(wa * f) / denom
    se = math.sqrt(float(np.sum(np.square(wa * (f - mu))))) / denom
    return McEstimate(mean=mu, std_error=se, samples=samples,
                      effective_sample_size=ess, low_ess=ess < 0.01 * samples)


def _tilted_oracle(beta, n, observable, seed, samples, c_point=0.0):
    drift = 0.0 if beta == 0.0 else free_energy_g_star(beta).c_star
    e, r, logw = _collect_1d(beta, n, seed, samples, drift)
    w, ess = _normalized_weights(logw)
    ones = np.ones_like(w)
    if observable == "endpoint_mean":
        return _ratio_estimate_oracle(w, e / n, ones, samples, ess)
    if observable == "endpoint_mean_positive":
        return _ratio_estimate_oracle(w, e / n, (e > 0).astype(float), samples, ess)
    if observable == "range_mean":
        return _ratio_estimate_oracle(w, r / n, ones, samples, ess)
    consts = free_energy_g_star(beta)
    z = (e - consts.c_star * n) / (consts.sigma_star * math.sqrt(n))
    return _ratio_estimate_oracle(w, (z <= c_point).astype(float),
                                  (e > 0).astype(float), samples, ess)


def _corollary_oracle(beta, d, n, seed, samples, slack=0.05):
    _, r = _walk_blocks_oracle(_walk_block_nd, seed, samples, n, d)
    logw = -beta * float(n) * float(n) / r
    w, ess = _normalized_weights(logw)
    est = _ratio_estimate_oracle(w, r / n, np.ones_like(w), samples, ess)
    bound = tilde_c_d(beta, d) if beta > 0.0 else 0.0
    margin = est.mean - 3.0 * est.std_error - (bound - slack)
    return CorollaryBoundReport(estimate=est, bound=bound, margin=margin,
                                satisfied=margin >= 0.0, unreliable=est.low_ess)


def _brownian_joint_oracle(t, dt, seed, samples):
    """The joint table of brownian_range_mc with its own density arithmetic,
    summed over serial per-block histograms."""
    st_ = math.sqrt(t)
    joint_x_edges = np.linspace(0.0, 3.0 * st_, 31)
    joint_r_edges = np.linspace(0.0, 4.0 * st_, 41)
    nsteps = int(round(t / dt))
    nblocks = (samples + PATH_BLOCK - 1) // PATH_BLOCK

    def job(b):
        count = min(PATH_BLOCK, samples - b * PATH_BLOCK)
        x, lo, hi = _path_block_oracle(seed, b, count, nsteps, math.sqrt(dt), 2048)
        return np.histogram2d(x, hi - lo, bins=(joint_x_edges, joint_r_edges))[0]

    h_joint = sum(job(b) for b in range(nblocks))
    area = np.outer(np.diff(joint_x_edges), np.diff(joint_r_edges))
    jp = h_joint / samples
    jd = jp / area
    jse = np.sqrt(jp * (1.0 - jp) / samples) / area
    return joint_x_edges, joint_r_edges, jd, jse


def _bits(value):
    """A value with every float replaced by its exact bit pattern."""
    if hasattr(value, "_fields"):  # a record: its type name and its fields
        return (type(value).__name__, _bits(tuple(value)))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    return (type(value).__name__, value)


# three full blocks and a short one, so thread counts and block joins show
_SAMPLES = 3 * WALK_BLOCK + 517


class TestEstimatorsMatchPipelineOracle:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("observable", ["endpoint_mean", "endpoint_mean_positive",
                                            "range_mean", "endpoint_cdf"])
    def test_tilted_bitwise(self, observable, threads):
        got = polymer_estimate_tilted(1.0, 120, observable, 5, _SAMPLES,
                                      threads=threads, c_point=0.25)
        want = _tilted_oracle(1.0, 120, observable, 5, _SAMPLES, c_point=0.25)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_corollary_bitwise(self, d):
        got = corollary_bound_check(1.0, d, 60, 13, _SAMPLES, threads=2)
        want = _corollary_oracle(1.0, d, 60, 13, _SAMPLES)
        assert _bits(got) == _bits(want)

    def test_brownian_joint_table_bitwise(self):
        # 1100 paths fill two full blocks and a short one
        h = brownian_range_mc(1.0, 1e-4, seed=6, samples=1100, threads=2)
        got = (h.joint_x_edges, h.joint_r_edges, h.joint_density, h.joint_se)
        assert _bits(got) == _bits(_brownian_joint_oracle(1.0, 1e-4, 6, 1100))


@pytest.mark.parametrize("threads", [1, 2])
def test_map_blocks_keys_each_block_by_seed_and_index(threads):
    # the plan: blocks of WALK_BLOCK, the last one short, each on the
    # Philox stream keyed (seed, b), returned in block order
    seed = 2**64 - 1

    def key_and_count(rng, count):
        return rng.bit_generator.state["state"]["key"].tolist(), count

    got = _map_blocks(key_and_count, seed, _SAMPLES, WALK_BLOCK, threads)
    assert got == [([seed, b], count)
                   for b, count in enumerate([4096, 4096, 4096, 517])]


@pytest.mark.parametrize("cpu_count, cores", [(3, 3), (None, 1)])
def test_usable_cores_without_an_affinity_set(monkeypatch, cpu_count, cores):
    # a platform without sched_getaffinity falls back to every core, or 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert _usable_cores() == cores


def test_workers_are_capped_at_the_usable_cores(monkeypatch):
    """A thread count far past the cores asks the pool for at most the usable
    cores, and the results keep the one-thread bits.  The stand-in pool runs
    every task inline and starts no thread."""
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    runs = [  # 3 path blocks, 6 walk blocks
        lambda threads: brownian_range_mc(1.0, 1e-4, seed=3, samples=1100,
                                          threads=threads),
        lambda threads: polymer_estimate_tilted(1.0, 40, "range_mean", 4,
                                                5 * WALK_BLOCK + 1, threads=threads),
    ]
    for run in runs:
        assert _bits(run(10**6)) == _bits(run(1))
    assert len(asked) == (2 if cores > 1 else 0)
    assert all(workers <= cores for workers in asked)


@pytest.mark.parametrize("d", [1, 2])
def test_overflowing_beta_n_squared_fails_before_any_draw(monkeypatch, d):
    from rangepolymer import mc

    def no_draw(*args):
        raise AssertionError("drew walks")

    monkeypatch.setattr(mc, "_walk_block_1d", no_draw)
    monkeypatch.setattr(mc, "_walk_block_nd", no_draw)
    with pytest.raises(DomainError, match="overflows"):
        _weighted_walks(1e307, 10, d, seed=1, samples=10, drift=0.0, threads=1)
    if d == 2:
        with pytest.raises(DomainError, match="overflows"):
            corollary_bound_check(1e307, 2, 10, 1, 10)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, -2**70, 1.0])
def test_seed_outside_the_key_word_fails_before_any_draw(monkeypatch, seed):
    # reduced mod 2^64, 2^64 would draw seed 0's stream and -1 that of 2^64 - 1
    from rangepolymer import mc

    def no_draw(*args):
        raise AssertionError("opened a stream")

    monkeypatch.setattr(mc, "_stream", no_draw)
    for run in (lambda: polymer_estimate_tilted(1.0, 20, "range_mean", seed, 100),
                lambda: corollary_bound_check(1.0, 2, 20, seed, 100),
                lambda: brownian_range_mc(1.0, 1e-4, seed, 10)):
        with pytest.raises(DomainError, match="seed"):
            run()


def test_non_finite_log_weight_trips_the_check_in_every_dimension(monkeypatch):
    from rangepolymer import mc

    def zero_ranges(kernel):
        def broken(*args):
            f, r = kernel(*args)
            return f, np.zeros_like(r)
        return broken

    monkeypatch.setattr(mc, "_walk_block_1d", zero_ranges(_walk_block_1d))
    monkeypatch.setattr(mc, "_walk_block_nd", zero_ranges(_walk_block_nd))
    with np.errstate(divide="ignore"):
        with pytest.raises(AssertionError, match="non-finite log-weight"):
            polymer_estimate_tilted(1.0, 20, "range_mean", 1, 100)
        with pytest.raises(AssertionError, match="non-finite log-weight"):
            corollary_bound_check(1.0, 2, 20, 1, 100)
