"""Tests for the Feller-series densities and the tilted quadratures.

The normal CDF used as a comparison target comes from scipy (ndtr), an
implementation independent of the package's erf-based one.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from rangepolymer import (
    DomainError,
    ResourceCapError,
    SeriesEval,
    endpoint_clt_continuous,
    joint_density,
    partition_function_continuous,
    range_density,
    range_second_order_cdf,
)
from rangepolymer.continuous import continuous_constants
from rangepolymer.gaussian import SQRT2PI
from rangepolymer import density
from rangepolymer.density import (
    PANEL_NODE_CAP,
    _EXP_ZERO,
    joint_density_grid,
    range_density_grid,
    small_range_weight_bound,
    _joint_series_bound,
    _joint_series_scaled,
    _levels,
    _panels,
    _tilt_exponent,
    _tilted_range_integral,
    _z_domain,
)

PREFACTOR = 8.0 / math.sqrt(3.0)


def _integrate(fn, a, b, width, order=20):
    xs, ws = _panels(a, b, width, order)
    return float(np.dot(ws, fn(xs)))


def _dense_range_density(u):
    """Feller series at t = 1, summed until a decreasing term is 1e-30 of
    the sum: the scalar evaluator's loop with a tolerance far below its own."""
    total, prev, k = 0.0, math.inf, 0
    while True:
        k += 1
        term = k * k * math.exp(-0.5 * (k * u) ** 2) / SQRT2PI
        total += term if k % 2 else -term
        if term < prev and term <= 1e-30 * max(1.0, abs(total)):
            return 8.0 * total
        prev = term


class TestRangeDensity:
    def test_normalizes_to_one(self):
        total = _integrate(lambda r: range_density_grid(1.0, r), 0.05, 20.0, 0.25)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mean_matches_known_value(self):
        # E[R_1] = 2 sqrt(2/pi); quadrature against the series should nail it
        mean = _integrate(lambda r: r * range_density_grid(1.0, r), 0.05, 20.0, 0.25)
        assert mean == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-8)

    @given(st.floats(min_value=0.25, max_value=16.0),
           st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=40)
    def test_scaling_law(self, t, u):
        lhs = range_density(t, u * math.sqrt(t)).value
        rhs = range_density(1.0, u).value / math.sqrt(t)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_scalar_matches_grid(self):
        # well-conditioned region only; below ~0.5 sqrt(t) the series is all
        # cancellation and the two summation orders differ at noise level
        rs = np.linspace(0.8 * math.sqrt(1.7), 6.0, 23)
        grid = range_density_grid(1.7, rs)
        for r, v in zip(rs, grid):
            assert range_density(1.7, float(r)).value == pytest.approx(v, abs=1e-12)

    def test_alternating_tail_bound(self):
        # for r/sqrt(t) >= 1 the truncation error is below the first omitted
        # term (up to float rounding of the reference sum itself)
        for u in (1.0, 1.5, 2.5):
            se = range_density(1.0, u)
            dense = _dense_range_density(u)
            slack = 4e-16 * max(1.0, abs(dense))
            assert abs(se.value - dense) <= se.truncation_bound + slack
            assert se.terms_used >= 1

    def test_floor_rejected(self):
        with pytest.raises(DomainError):
            range_density(1.0, 0.01)
        with pytest.raises(DomainError):
            range_density(4.0, 0.05)  # floor scales with sqrt(t)
        with pytest.raises(DomainError):
            range_density(4.0, math.inf)

    def test_far_tail_is_zero_without_overflow(self):
        """Once the first term is 0.0 the result is the loop's one-term stop:
        just below the exp threshold (loop) and past it (early return) agree,
        and r whose (k r)^2/t overflows no longer raises."""
        t = 4.0
        below = range_density(t, 38.7 * math.sqrt(t))  # -0.5 u^2 = -748.8
        assert below == SeriesEval(value=0.0, truncation_bound=0.0, terms_used=1)
        for r in (40.0 * math.sqrt(t), 1e154, 1e300):
            assert range_density(t, r) == below


class TestJointDensity:
    def test_wedge_mass_is_half(self):
        acc = 0.0
        R, WR = _panels(0.02, 16.0, 0.2, 16)
        for r, w in zip(R, WR):
            X, WX = _panels(0.0, float(r), 0.2, 16)
            acc += w * float(np.dot(WX, joint_density_grid(1.0, X, float(r))))
        assert acc == pytest.approx(0.5, abs=1e-4)

    def test_marginal_consistency_with_range_density(self):
        # integrate x out and double: must reproduce the range density
        for r in (0.8, 1.2, 2.0, 3.5):
            X, WX = _panels(0.0, r, 0.02, 16)
            marg = 2.0 * float(np.dot(WX, joint_density_grid(1.0, X, r)))
            assert marg == pytest.approx(range_density(1.0, r).value, abs=1e-6)

    def test_vanishes_at_the_diagonal(self):
        for r in (1.0, 2.0):
            assert joint_density_grid(1.0, np.array([r * (1 - 1e-9)]), r)[0] == \
                pytest.approx(0.0, abs=1e-6)

    @given(st.floats(min_value=0.5, max_value=9.0))
    @settings(max_examples=20)
    def test_scaling_law(self, lam):
        x, r = 0.5, 1.2
        lhs = joint_density(lam, x * math.sqrt(lam), r * math.sqrt(lam)).value
        rhs = joint_density(1.0, x, r).value / lam
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_ordering_validation(self):
        with pytest.raises(DomainError):
            joint_density(1.0, 1.5, 1.2)
        with pytest.raises(DomainError):
            joint_density(1.0, -0.1, 1.2)
        with pytest.raises(DomainError):
            joint_density(1.0, 0.5, math.inf)

    @pytest.mark.parametrize("args", [
        (1.0, [0.5, math.nan], 1.0),
        (1.0, [0.5, 0.7], [1.0, math.inf]),
        (1.0, 0.5, math.nan),
        (math.nan, 0.5, 1.0),
        (math.inf, 0.5, 1.0),
    ])
    def test_grid_rejects_non_finite_input(self, args):
        """A NaN used to run the series through all 100000 blocks."""
        with pytest.raises(DomainError):
            joint_density_grid(*args)


def test_panels_refuse_layouts_past_the_node_cap():
    order = 16
    xs, ws = _panels(0.0, PANEL_NODE_CAP // order, 1.0, order)
    assert len(xs) == len(ws) == PANEL_NODE_CAP
    for b in (PANEL_NODE_CAP // order + 1.0, 1e300, math.inf, math.nan):
        with pytest.raises(ResourceCapError, match="exceed the cap"):
            _panels(0.0, b, 1.0, order)


@pytest.mark.parametrize("call", [
    lambda: joint_density(1.0, 0.5, 1e154),
    lambda: _joint_series_scaled(1.0, np.array([0.5]), np.array([1e154])),
], ids=["joint-r1e154", "kernel-r1e154"])
def test_series_inputs_that_used_to_stall_raise_at_once(call):
    """A NaN block max kept the series from its stop test, so it ran all
    100000 blocks (2.6-10 s) and returned NaN or a 0.0 bound."""
    start = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("args", [
    (1.0, 0.5, 1e154),  # (2r)^2 overflows: used to warn five times, then raise
    (1.0, 5e153, 5.5e153),  # only (2r + x)^2 overflows: used to return NaN
    (1e-300, 0.5, 1e5),  # a^2/t overflows, r^2/t too
])
def test_joint_overflow_raises_without_a_warning(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            joint_density(*args)


def _z_at(beta, t, order, tol):
    """Z_t and its panel-halving error estimate at any order and tail tol;
    partition_function_continuous is this at order 16 and tol 1e-9."""
    r_lo, r_hi, _, g = _z_domain(beta, t)
    width = 0.25 * math.sqrt(t)
    coarse, _, _ = _tilted_range_integral(beta, t, r_lo, r_hi, g, False, width,
                                          order, tol)
    fine, _, _ = _tilted_range_integral(beta, t, r_lo, r_hi, g, False, 0.5 * width,
                                        order, tol)
    return fine * math.exp(g * t), abs(fine - coarse) * math.exp(g * t)


class TestPartitionFunction:
    def test_prefactor_ratio_at_t40(self):
        res = partition_function_continuous(1.0, 40.0)
        ratio = math.exp(res.log_value - (math.log(PREFACTOR) - 1.5 * 40.0))
        assert 0.9 <= ratio <= 1.1

    def test_convergence_of_the_ratio(self):
        def ratio(t):
            res = partition_function_continuous(1.0, t)
            return math.exp(res.log_value - (math.log(PREFACTOR) - 1.5 * t))

        assert abs(ratio(60.0) - 1.0) < abs(ratio(30.0) - 1.0)

    def test_excluded_region_bound_is_negligible(self):
        res = partition_function_continuous(1.0, 40.0)
        bound = small_range_weight_bound(1.0, 40.0)
        assert bound == pytest.approx(math.exp(-2.0 * 40.0), rel=1e-12)
        assert bound <= 1e-6 * res.value

    def test_error_estimate_honest_under_refinement(self):
        res = partition_function_continuous(1.0, 30.0)
        assert _z_at(1.0, 30.0, 16, 1e-9) == (res.value, res.abs_error_estimate)
        base, base_err = _z_at(1.0, 30.0, 8, 1e-9)
        fine, _ = _z_at(1.0, 30.0, 16, 1e-12)
        assert abs(base - fine) <= 10.0 * base_err + 1e-30

    def test_exact_radius_free_energy_gap_shrinks(self):
        # Z with rho = r + 2 exceeds the surrogate by about exp(2 beta^{1/3});
        # on the free-energy scale the gap is 2 beta^{1/3}/t -> 0
        gaps = []
        for t in (30.0, 60.0):
            a = partition_function_continuous(1.0, t, use_exact_radius=True)
            b = partition_function_continuous(1.0, t)
            gaps.append((a.log_value - b.log_value) / t)
        assert abs(gaps[1]) < abs(gaps[0])
        assert gaps[0] == pytest.approx(2.0 / 30.0, rel=0.15)

    def test_no_overflow_at_large_t(self):
        res = partition_function_continuous(1.0, 600.0)
        assert math.isfinite(res.log_value)
        assert res.log_value == pytest.approx(
            math.log(PREFACTOR) - 1.5 * 600.0, abs=0.05)
        assert res.value == 0.0  # underflows; the log form carries the value

    def test_floor_conflict_reported(self):
        with pytest.raises(DomainError):
            partition_function_continuous(1e-6, 1.0)


class TestRangeSecondOrder:
    def test_median(self):
        [v] = range_second_order_cdf(1.0, 40.0, [0.0])
        assert abs(v - 0.5) <= 0.03

    def test_deep_left_tail_is_full_mass(self):
        assert range_second_order_cdf(1.0, 40.0, [-8.0]) == [pytest.approx(1.0, abs=1e-3)]

    def test_one_sigma_against_independent_normal(self):
        [v] = range_second_order_cdf(1.0, 40.0, [1.0])
        assert abs(v - (1.0 - float(ndtr(1.0)))) <= 0.03

    def test_monotone_nonincreasing_in_C(self):
        grid = np.linspace(-2.0, 2.0, 9)
        vals = range_second_order_cdf(1.0, 40.0, grid)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_threshold_beyond_the_upper_limit_is_zero(self):
        # 1e308 sqrt(t/3) overflows to inf: no mass lies beyond it
        assert range_second_order_cdf(1.0, 40.0, [1e308]) == [0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
    def test_non_finite_level_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            range_second_order_cdf(1.0, 40.0, np.atleast_1d(bad))


class TestEndpointClt:
    def test_monotone_nondecreasing_in_C(self):
        grid = np.linspace(-2.0, 2.0, 9)
        vals = endpoint_clt_continuous(1.0, 40.0, grid)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_extreme_levels(self):
        lo, hi = endpoint_clt_continuous(1.0, 40.0, [-9.0, 9.0])
        assert lo == pytest.approx(0.0, abs=1e-3)
        assert hi == pytest.approx(1.0, abs=1e-3)

    def test_overflowing_levels_clip_everything_or_nothing(self):
        assert endpoint_clt_continuous(1.0, 10.0, [-1e308, 1e308]) == [0.0, 1.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
    def test_non_finite_level_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            endpoint_clt_continuous(1.0, 40.0, np.atleast_1d(bad))

    def test_median_drifts_toward_half(self):
        # the endpoint sits O(1) inside the range, an O(1/sqrt(t)) CLT shift;
        # the median value must shrink toward 1/2 as t grows
        [v40] = endpoint_clt_continuous(1.0, 40.0, [0.0])
        [v160] = endpoint_clt_continuous(1.0, 160.0, [0.0])
        assert abs(v160 - 0.5) < abs(v40 - 0.5)


@pytest.mark.parametrize("fn", [range_second_order_cdf, endpoint_clt_continuous])
def test_scalar_level_rejected(fn):
    with pytest.raises(DomainError, match="1-D sequence"):
        fn(1.0, 40.0, 0.0)


# Per-level references: the one-level-per-call loops that the level-sequence
# sweeps replaced.  The sweeps must reproduce them bit for bit.

def _range_tail_one_level(beta, t, C, use_exact_radius, order=16):
    r_lo, _, c, _ = _z_domain(beta, t)
    r_hi = 4.0 * c * t
    g = continuous_constants(beta).g_dstar
    width = 0.125 * math.sqrt(t)
    den, _, _ = _tilted_range_integral(beta, t, r_lo, r_hi, g, use_exact_radius,
                                       width, order, 1e-10)
    thr = c * t + C * math.sqrt(t) / math.sqrt(3.0)
    if thr <= r_lo:
        return 1.0
    num, _, _ = _tilted_range_integral(beta, t, thr, max(r_hi, thr + math.sqrt(t)),
                                       g, use_exact_radius, width, order, 1e-10)
    return min(num / den, 1.0)


def _endpoint_cdf_one_level(beta, t, C, use_exact_radius, order=16):
    r_lo, _, c, _ = _z_domain(beta, t)
    r_hi = 4.0 * c * t
    st_ = math.sqrt(t)
    g = continuous_constants(beta).g_dstar
    x_cut = c * t + C * st_ / math.sqrt(3.0)
    R, WR = _panels(r_lo, r_hi, 0.25 * st_, order)
    num = 0.0
    den = 0.0
    for r_val, w_r in zip(R, WR):
        weight = w_r * math.exp(
            float(_tilt_exponent(beta, t, np.float64(r_val), g, use_exact_radius)))
        gap_scale = min(t / r_val, st_)
        s_max = min(r_val, 30.0 * t / r_val + 4.0 * st_)
        S, WS = _panels(0.0, s_max, 0.5 * gap_scale, order)
        xv = r_val - S
        keep = xv > 0.0
        if not keep.any():
            continue
        h_scaled, _, _ = _joint_series_scaled(t, xv[keep], np.float64(r_val))
        contrib = h_scaled * WS[keep]
        den += weight * float(contrib.sum())
        below = xv[keep] <= x_cut
        if below.any():
            num += weight * float(contrib[below].sum())
    return num / den


# unsorted, one duplicate, -4 below the cutoff at t=10 for both betas, +-9
_ORACLE_LEVELS = [0.5, -9.0, 1.0, -4.0, 0.5, 9.0]


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("exact_radius", [False, True])
class TestLevelSweepMatchesPerLevelOracle:
    def test_endpoint_cdf_bitwise(self, beta, exact_radius):
        swept = endpoint_clt_continuous(beta, 10.0, _ORACLE_LEVELS,
                                        use_exact_radius=exact_radius)
        oracle = [_endpoint_cdf_one_level(beta, 10.0, c, exact_radius)
                  for c in _ORACLE_LEVELS]
        assert swept == oracle

    def test_range_tail_bitwise(self, beta, exact_radius):
        swept = range_second_order_cdf(beta, 10.0, _ORACLE_LEVELS,
                                       use_exact_radius=exact_radius)
        oracle = [_range_tail_one_level(beta, 10.0, c, exact_radius)
                  for c in _ORACLE_LEVELS]
        assert swept == oracle
        assert oracle[3] == 1.0  # the below-cutoff branch is exercised


# The plain joint-series kernel and endpoint-CLT sweep that the masked-exp
# kernel replaced, kept verbatim.  The kernel must reproduce every value,
# bound and term count bit for bit.

def _oracle_joint_series_scaled(t, x, r, tol=1e-13):
    st = math.sqrt(t)
    t32 = t * st
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    base = np.square(r) / (2.0 * t)
    shape = np.broadcast(x, r).shape
    s_sym = np.zeros(shape)
    s_asym = np.zeros(shape)
    k = 0
    block_max = math.inf
    while k < 100000:
        k += 1
        am = 2.0 * k * r - x
        ap = 2.0 * k * r + x
        em = np.exp(base - np.square(am) / (2.0 * t)) / SQRT2PI
        ep = np.exp(base - np.square(ap) / (2.0 * t)) / SQRT2PI
        zm2 = np.square(am) / t
        zp2 = np.square(ap) / t
        s_sym += 4.0 * k * k * ((zm2 - 1.0) * em + (zp2 - 1.0) * ep)
        s_asym += (4.0 * k * (k - 1) * am * em - 4.0 * k * (k + 1) * ap * ep) / t32
        block_max = float(np.max(4.0 * k * k * (zm2 + 1.0) * em))
        if block_max <= tol * max(1.0, float(np.max(np.abs(s_sym)))):
            break
    value = (r - x) / t32 * s_sym + s_asym
    return value, 10.0 * block_max, k


def _oracle_endpoint_clt_continuous(beta, t, C, use_exact_radius=False, order=16):
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    levels = _levels(C)
    r_lo, _, c, _ = _z_domain(beta, t)
    if not levels:
        return []
    r_hi = 4.0 * c * t
    st_ = math.sqrt(t)
    g = continuous_constants(beta).g_dstar
    x_cuts = [c * t + level * st_ / math.sqrt(3.0) for level in levels]
    R, WR = _panels(r_lo, r_hi, 0.25 * st_, order)
    num = [0.0] * len(x_cuts)
    den = 0.0
    for r_val, w_r in zip(R, WR):
        weight = w_r * math.exp(
            float(_tilt_exponent(beta, t, np.float64(r_val), g, use_exact_radius)))
        gap_scale = min(t / r_val, st_)
        s_max = min(r_val, 30.0 * t / r_val + 4.0 * st_)
        S, WS = _panels(0.0, s_max, 0.5 * gap_scale, order)
        xv = r_val - S
        keep = xv > 0.0
        if not keep.any():
            continue
        xk = xv[keep]
        h_scaled, _, _ = _oracle_joint_series_scaled(t, xk, np.float64(r_val))
        contrib = h_scaled * WS[keep]
        den += weight * float(contrib.sum())
        for i, x_cut in enumerate(x_cuts):
            below = xk <= x_cut
            if below.any():
                num[i] += weight * float(contrib[below].sum())
    if den <= 0.0:
        raise DomainError("empty quadrature window; increase t")
    return [float(n / den) for n in num]


def _assert_same_series(args):
    got = _joint_series_scaled(*args)
    want = _oracle_joint_series_scaled(*args)
    assert type(got[0]) is type(want[0])
    assert np.shape(got[0]) == np.shape(want[0])
    assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
    assert type(got[1]) is float and got[1] == want[1]
    assert got[2] == want[2]
    return want


def _block_args(t, x, r, k):
    """Exp arguments of both branches of block k, as the kernels form them."""
    base = np.square(r) / (2.0 * t)
    return [base - np.square(2.0 * k * r + sign * x) / (2.0 * t) for sign in (-1.0, 1.0)]


@pytest.mark.parametrize("t", [1.0, 10.0, 40.0, 160.0, 640.0])
class TestJointSeriesMatchesOracle:
    def test_endpoint_nodes_bitwise(self, t):
        """The (x, r) sets of the endpoint sweep, from the cutoff to r where
        the tilt weight is 0.0: live, subnormal-band and all-dead blocks."""
        beta = 1.0
        r_lo, _, c, _ = _z_domain(beta, t)
        g = continuous_constants(beta).g_dstar
        # the weight exp(-beta t^2/r - r^2/2t - g t) is 0.0 once r^2/2t > ~745
        r_top = max(4.0 * c * t, 1.25 * math.sqrt(1500.0 * t))
        R, _ = _panels(r_lo, r_top, 0.25 * math.sqrt(t), 16)
        seen = {"dead_block": 0, "subnormal": 0, "zero_weight": 0}
        for r_val in R[::max(1, len(R) // 60)]:
            gap_scale = min(t / r_val, math.sqrt(t))
            s_max = min(r_val, 30.0 * t / r_val + 4.0 * math.sqrt(t))
            S, _ = _panels(0.0, s_max, 0.5 * gap_scale, 16)
            xk = (r_val - S)[r_val - S > 0.0]
            terms = _assert_same_series((t, xk, np.float64(r_val)))[2]
            args = [a for k in range(1, terms + 1) for a in _block_args(t, xk, r_val, k)]
            seen["subnormal"] += any(np.any((a > _EXP_ZERO) & (np.exp(a) < 2.3e-308))
                                     for a in args)
            seen["dead_block"] += terms >= 2 and max(a.max() for a in args[-2:]) <= _EXP_ZERO
            seen["zero_weight"] += math.exp(float(
                _tilt_exponent(beta, t, np.float64(r_val), g, False))) == 0.0
        assert min(seen.values()) > 0, seen

    def test_broadcast_grids_bitwise(self, t):
        st_ = math.sqrt(t)
        x = np.linspace(0.01 * st_, 3.0 * st_, 37)[:, None]
        r = np.linspace(0.05 * st_, 8.0 * st_, 41)[None, :]
        for args in [(t, x, r), (t, x[:, 0], np.float64(2.0 * st_)),
                     (t, np.array([0.5 * st_]), np.array([st_])), (t, 0.3 * st_, st_),
                     (t, x[:3, 0], np.float64(st_), 1e-6)]:
            _assert_same_series(args)
        want = _oracle_joint_series_scaled(t, x, r)[0] * np.exp(-np.square(r) / (2.0 * t))
        assert joint_density_grid(t, x, r).tobytes() == want.tobytes()


@pytest.mark.parametrize("args", [
    (1.0, np.array([5.0, 9.0, 30.0, 60.0]), np.float64(1.0)),  # x > 2kr: signed zeros
    (1.0, np.array([-5.0, -30.0, 0.2]), np.float64(1.0)),
    (1.0, np.array([0.5, 0.9]), np.array([1.0, -1.0])),
    (2.0, np.array([1e-300, 3.0]), np.float64(3.0)),
    (1e-250, np.array([0.3, 0.5]), np.float64(1.0)),  # t^(3/2) underflows to 0
    (1e-3, np.array([0.01, 0.02]), np.float64(0.03)),
    (1.0, np.array([0.5, 0.7, 39.0]), np.float64(40.0)),  # mostly dead from k = 1
])
def test_joint_series_off_the_wedge_matches_oracle(args):
    """Outside 0 < x < r (joint_density_grid does not check) the skipped
    all-dead blocks must still leave the same signed zeros and NaNs."""
    with np.errstate(all="ignore"):
        _assert_same_series(args)


def test_endpoint_cdf_matches_oracle_at_t160():
    levels = [-1.0, 0.0, 1.0]
    assert endpoint_clt_continuous(1.0, 160.0, levels) == \
        _oracle_endpoint_clt_continuous(1.0, 160.0, levels)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_endpoint_cdf_matches_oracle_other_betas(beta):
    levels = [-2.0, 0.0, 1.5]
    assert endpoint_clt_continuous(beta, 40.0, levels, use_exact_radius=True) == \
        _oracle_endpoint_clt_continuous(beta, 40.0, levels, use_exact_radius=True)


def test_exp_is_exactly_zero_at_and_below_the_dead_threshold():
    sweep = np.linspace(-800.0, _EXP_ZERO, 200001)
    assert sweep[-1] == _EXP_ZERO
    assert not np.exp(sweep).any()
    assert np.exp(np.array([-1e300, -np.inf])).tolist() == [0.0, 0.0]
    assert math.exp(_EXP_ZERO) == 0.0


# The endpoint sweep skips a row when every sum it touches would absorb its
# term.  The audit runs the full sweep beside it, row by row, and checks the
# skipped rows against what computing them would have done.

_AUDIT_LEVELS = [-9.0, -2.0, 0.0, 1.0, 9.0]


@pytest.mark.parametrize("t", [4.0, 10.0, 40.0, 160.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("exact_radius", [False, True])
def test_skipped_endpoint_rows_are_absorbed(t, beta, exact_radius, monkeypatch):
    computed = set()
    kernel = density._joint_series_scaled

    def recording(t_, x, r, *rest):
        computed.add(float(r))
        return kernel(t_, x, r, *rest)

    monkeypatch.setattr(density, "_joint_series_scaled", recording)
    swept = endpoint_clt_continuous(beta, t, _AUDIT_LEVELS, use_exact_radius=exact_radius)
    monkeypatch.undo()

    r_lo, _, c, _ = _z_domain(beta, t)
    st_ = math.sqrt(t)
    g = continuous_constants(beta).g_dstar
    x_cuts = [c * t + level * st_ / math.sqrt(3.0) for level in _AUDIT_LEVELS]
    R, WR = _panels(r_lo, 4.0 * c * t, 0.25 * st_, 16)
    num = [0.0] * len(x_cuts)
    den = 0.0
    skipped = 0
    for r_val, w_r in zip(R, WR):
        weight = w_r * math.exp(
            float(_tilt_exponent(beta, t, np.float64(r_val), g, exact_radius)))
        s_max = min(r_val, 30.0 * t / r_val + 4.0 * st_)
        S, WS = _panels(0.0, s_max, 0.5 * min(t / r_val, st_), 16)
        xv = r_val - S
        keep = xv > 0.0
        if not keep.any():
            continue
        xk = xv[keep]
        h_scaled, _, _ = _joint_series_scaled(t, xk, np.float64(r_val))
        H = _joint_series_bound(t, r_val)
        assert H >= np.abs(h_scaled).max(), (r_val, H, np.abs(h_scaled).max())
        bound = weight * H * s_max
        contrib = h_scaled * WS[keep]
        skip = float(r_val) not in computed
        skipped += skip
        term = weight * float(contrib.sum())
        if skip:
            assert abs(term) <= bound
            assert (den + term).hex() == den.hex()
        den += term
        for i, x_cut in enumerate(x_cuts):
            below = xk <= x_cut
            if r_val - s_max > x_cut:
                assert not below.any()
            if below.any():
                part = weight * float(contrib[below].sum())
                if skip:
                    assert abs(part) <= bound
                    assert (num[i] + part).hex() == num[i].hex()
                num[i] += part
    assert swept == [n / den for n in num]
    if t >= 40.0:  # at small t the weight is not yet small enough anywhere
        assert skipped > len(R) // 3
