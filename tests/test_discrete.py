"""Tests for the discrete-model constants and rate functions.

Frozen reference values were computed with 50-digit mpmath arithmetic: the
closed form of I directly, c* by interval bisection on c^2 I'(c) - beta,
g* and sigma* by substituting that root, and the auxiliary LDP root by
bisection on the second-branch equation.  ``_grid_minimum`` re-derives the
variational quantities by brute force at test time.
"""

import inspect
import math
import re

import pytest
from hypothesis import given, strategies as st

from rangepolymer import (
    DomainError,
    SolverError,
    discrete,
    free_energy_g_star,
    ldp_rate_discrete_info,
    rate_I,
    rate_I_prime,
    speed_c_star,
    tilde_c_d,
)
from rangepolymer.roots import RootResult, bisect_newton

from oracles import g_star_infimum, logit_root_reference, rate_reference, speed_reference


def _rate(beta, theta):
    """Rate at one theta, read off a one-point curve."""
    return ldp_rate_discrete_info(beta, [theta])[0][0]


# 50-digit oracle values
I_HALF = 0.13081203594113695913
C_STAR_1 = 0.86833203774014073374
C_STAR_HALF = 0.73202544103131128406
G_STAR_1 = -1.6020534482122631031
SIGMA_STAR_1 = 0.37477170833168040183
RTILDE_1_03 = 0.59432990104428609111
RATE_1_03 = 0.55877738047457565004


def _I(x):
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.log(2.0)
    return 0.5 * (1 + x) * math.log(1 + x) + 0.5 * (1 - x) * math.log(1 - x)


def _grid_minimum(fn, lo, hi, coarse=20001, refine=12):
    """Brute-force minimizer: dense grid plus golden-section refinement."""
    step = (hi - lo) / (coarse - 1)
    best_i, best = 0, math.inf
    for i in range(coarse):
        v = fn(lo + i * step)
        if v < best:
            best_i, best = i, v
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(refine * 5):
        m1 = b - gr * (b - a)
        m2 = a + gr * (b - a)
        if fn(m1) < fn(m2):
            b = m2
        else:
            a = m1
    return fn(0.5 * (a + b))


class TestRateI:
    def test_endpoints(self):
        assert rate_I(0.0) == 0.0
        assert rate_I(1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_half_against_high_precision_oracle(self):
        assert rate_I(0.5) == pytest.approx(I_HALF, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_I(1.2)
        with pytest.raises(DomainError):
            rate_I(-0.1)
        with pytest.raises(DomainError):
            rate_I_prime(1.0)

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for x in (0.1, 0.4, 0.75):
            fd = (_I(x + h) - _I(x - h)) / (2 * h)
            assert rate_I_prime(x) == pytest.approx(fd, rel=1e-8)

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_log_identity(self, c):
        # I(c) = log(1-c^2)/2 + (c/2) log((1+c)/(1-c))
        rhs = 0.5 * math.log1p(-c * c) + 0.5 * c * (math.log1p(c) - math.log1p(-c))
        assert rate_I(c) == pytest.approx(rhs, abs=1e-12)

    def test_convexity_second_differences(self):
        h = 1e-3
        xs = [i * h for i in range(1, 999)]
        for x in xs:
            d2 = _I(x + h) - 2 * _I(x) + _I(x - h)
            assert d2 >= -1e-9


class TestSpeed:
    def test_beta_one(self):
        res = speed_c_star(1.0)
        assert res.value == pytest.approx(C_STAR_1, abs=1e-12)
        assert abs(res.residual) <= 1e-12
        assert res.bracket[0] <= res.value <= res.bracket[1]

    def test_free_energy_checks_the_speed_residual(self, monkeypatch):
        # g* reads the same speed solve as c*, so it refuses the same residual
        def loose(*args):
            res = bisect_newton(*args)
            return RootResult(res.value, 1e-9, res.iterations, res.bracket)

        monkeypatch.setattr(discrete, "bisect_newton", loose)
        with pytest.raises(SolverError, match="residual"):
            free_energy_g_star(1.0)

    def test_small_beta_cube_root_scaling(self):
        beta = 1e-4
        c = speed_c_star(beta).value
        assert 0.99 <= c * beta ** (-1 / 3) <= 1.01

    def test_large_beta_gap_asymptotics(self):
        c = speed_c_star(6.0).value
        assert 1.9 <= math.exp(12.0) * (1.0 - c) <= 2.1

    def test_strictly_increasing_in_beta(self):
        grid = [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
        values = [speed_c_star(b).value for b in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_log_gap_strictly_decreasing_from_1e_300_to_1e4(self):
        # c* rounds to 1 from beta ~ 18.4 on; log(1 - c*) keeps resolving it
        grid = [10.0 ** (k / 10) for k in range(-3000, 41)]
        logs = [_log_gap(b) for b in grid]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    @pytest.mark.parametrize("beta", [1e-9, 1e-3, 0.1, 1.0, 3.0])
    def test_slope_is_sigma_over_c_squared(self, beta):
        # d beta/dc = 2 beta/c + c^2/(1 - c^2) = c^2/sigma*^2, so dc*/dbeta = sigma*^2/c*^2
        h = 1e-4 * beta
        slope = (speed_c_star(beta + h).value - speed_c_star(beta - h).value) / (2 * h)
        pc = free_energy_g_star(beta)
        assert slope == pytest.approx((pc.sigma_star / pc.c_star) ** 2, rel=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            speed_c_star(0.0)
        with pytest.raises(DomainError):
            speed_c_star(-1.0)

    def test_beta_past_the_logit_range_rejected(self):
        # the bracket's upper end 2 beta + 1 overflows to inf
        with pytest.raises(DomainError, match="too large"):
            free_energy_g_star(1e308)


def _log_gap(beta):
    """log(1 - c*(beta)), read off the solve's log(1 - c*^2)."""
    c, _, log_1mc2, _ = discrete._logit_root(0.0, beta)
    return log_1mc2 - math.log1p(c)


REFERENCE_BETAS = [1e-320, 1e-300, 1e-20, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.0, 20.0, 100.0,
                   300.0, 500.0, 800.0, 1e4]


class TestAgainstHighPrecision:
    """c*, log(1 - c*), g* and sigma* against an 80-digit bisection and the
    two expansions of beta = c^2 artanh c at its ends."""

    @pytest.mark.parametrize("beta", REFERENCE_BETAS)
    def test_constants_match_80_digit_root(self, beta):
        c, log_gap, g, sigma = (float(v) for v in speed_reference(beta))
        pc = free_energy_g_star(beta)
        assert pc.c_star == pytest.approx(c, rel=1e-13)
        assert _log_gap(beta) == pytest.approx(log_gap, rel=1e-13)
        assert pc.g_star == pytest.approx(g, rel=1e-13)
        if sigma >= 2.2250738585072014e-308:  # a normal double
            assert pc.sigma_star == pytest.approx(sigma, rel=1e-13 * max(1.0, beta))
        else:
            assert pc.sigma_star < 2.2250738585072014e-308

    @pytest.mark.parametrize("beta", [1e-300, 1e-20, 1e-12, 1e-9])
    def test_small_beta_expansion(self, beta):
        # c* = b (1 - b^2/9 - 7 b^4/405 + O(b^6)), b = beta^(1/3)
        b = beta ** (1.0 / 3.0)
        assert speed_c_star(beta).value == pytest.approx(
            b * (1.0 - b * b / 9.0 - 7.0 * b**4 / 405.0), rel=1e-13)

    @pytest.mark.parametrize("beta", [20.0, 100.0, 300.0, 500.0, 800.0, 1e4])
    def test_large_beta_expansion(self, beta):
        # 1 - c* = 2 exp(-2 beta) (1 + O(beta exp(-2 beta)))
        assert _log_gap(beta) == pytest.approx(math.log(2.0) - 2.0 * beta, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 175.0, 500.0])
    def test_interior_roots_match_80_digit_root(self, beta):
        thetas = [i / 20 for i in range(21)]
        interior = 0
        for theta, (_, branch, r) in zip(thetas, ldp_rate_discrete_info(beta, thetas)):
            if branch == "interior":
                interior += 1
                x, _ = logit_root_reference(theta, 2 * beta)
                assert r == pytest.approx(float((theta + x) / 2), rel=1e-14)
        assert interior >= 10

    @pytest.mark.parametrize("beta", [1e-6, 1.0, 30.0])
    def test_split_rate_is_the_rate_as_written(self, beta):
        # where beta/r + I(x) + g* keeps its digits, the form that cancels its
        # terms of size beta agrees with it to far below double precision
        for theta in [i / 10 for i in range(11)]:
            direct, split = rate_reference(beta, theta)
            assert abs(direct - split) <= 1e-60 * abs(split) + 1e-70

    @pytest.mark.parametrize("beta", [1e-300, 1e-20, 1e-6, 0.5, 1.0, 3.0, 30.0, 175.0, 500.0,
                                      1e8, 1e300])
    def test_rates_match_80_digit_reference(self, beta):
        # the terms of size beta cancel at large beta, and the KL is second
        # order in x - c* ~ beta^(1/3) at small beta: no rate is negative
        thetas = [i / 10 for i in range(11)]
        for theta, (rate, _, _) in zip(thetas, ldp_rate_discrete_info(beta, thetas)):
            assert rate >= 0.0
            assert rate == pytest.approx(float(rate_reference(beta, theta)[1]), rel=1e-12)


class TestFreeEnergy:
    def test_beta_one_against_oracle(self):
        pc = free_energy_g_star(1.0)
        assert pc.g_star == pytest.approx(G_STAR_1, abs=2e-3)
        assert pc.g_star == pytest.approx(G_STAR_1, abs=1e-12)

    def test_two_forms_agree(self):
        for beta in (0.01, 0.1, 1.0, 10.0):
            pc = free_energy_g_star(beta)
            assert abs(pc.g_star - g_star_infimum(beta)) <= 1e-10

    def test_variational_oracle(self):
        # minimize beta/c + I(c) on a dense grid, independent of the solver
        for beta in (0.3, 1.0, 2.0):
            lo = tilde_c_d(beta, 1)
            oracle = -_grid_minimum(lambda c: beta / c + _I(c), lo, 1.0 - 1e-9)
            assert free_energy_g_star(beta).g_star == pytest.approx(oracle, abs=1e-9)

    def test_small_beta_limit(self):
        beta = 1e-6
        g = free_energy_g_star(beta).g_star
        assert -1.53 <= g * beta ** (-2 / 3) <= -1.47

    def test_large_beta_limit(self):
        g = free_energy_g_star(8.0).g_star
        assert abs(g + 8.0 + math.log(2.0)) <= 0.01

    def test_c_tilde_field(self):
        pc = free_energy_g_star(1.0)
        c_tilde = tilde_c_d(1.0, 1)
        assert c_tilde == pytest.approx(1.0 / (1.0 + math.log(2.0)), rel=1e-15)
        assert c_tilde <= pc.c_star <= 1.0


class TestSigma:
    def test_small_beta_limit(self):
        s = free_energy_g_star(1e-8).sigma_star
        assert 0.576 <= s <= 0.579  # 1/sqrt(3) = 0.5773...

    def test_large_beta_limit(self):
        assert 1.95 <= math.exp(6.0) * free_energy_g_star(6.0).sigma_star <= 2.05

    def test_direct_substitution(self):
        c = C_STAR_1
        expected = 1.0 / math.sqrt(2.0 / c**3 + 1.0 / (1.0 - c * c))
        assert free_energy_g_star(1.0).sigma_star == pytest.approx(expected, rel=1e-12)
        assert free_energy_g_star(1.0).sigma_star == pytest.approx(SIGMA_STAR_1, rel=1e-12)

    def test_matches_second_difference_of_variational_functional(self):
        h = 1e-4
        for beta in (0.2, 1.0, 3.0):
            c = speed_c_star(beta).value
            psi = lambda x: beta / x + _I(x)
            d2 = (psi(c + h) - 2 * psi(c) + psi(c - h)) / (h * h)
            assert 1.0 / free_energy_g_star(beta).sigma_star ** 2 == pytest.approx(d2, rel=1e-4)


class TestLdpRate:
    def test_zero_at_speed(self):
        for beta in (0.1, 1.0, 10.0):
            c = speed_c_star(beta).value
            assert abs(_rate(beta, c)) <= 1e-10

    def test_branch_continuity_at_threshold(self):
        for beta in (0.1, 1.0, 10.0):
            thr = speed_c_star(beta / 2.0).value
            below = _rate(beta, thr * (1.0 - 1e-13))
            at = _rate(beta, thr)
            assert abs(below - at) <= 1e-10

    def test_interior_branch_against_oracle(self):
        rate, branch, root = ldp_rate_discrete_info(1.0, [0.3])[0]
        assert branch == "interior"
        assert root == pytest.approx(RTILDE_1_03, abs=1e-12)
        assert rate == pytest.approx(RATE_1_03, abs=1e-10)

    def test_grid_minimization_oracle(self):
        # I^beta(theta) = min over r in [theta, (1+theta)/2] of beta/r + I(2r-theta), plus g*
        for beta, theta in [(1.0, 0.3), (1.0, 0.5), (2.0, 0.4), (1.0, 0.95)]:
            g = free_energy_g_star(beta).g_star
            lo = max(theta, 1e-9)
            hi = (1.0 + theta) / 2.0 - 1e-12
            oracle = _grid_minimum(lambda r: beta / r + _I(2 * r - theta), lo, hi) + g
            assert _rate(beta, theta) == pytest.approx(oracle, abs=1e-6)

    def test_nonnegative_with_minimum_near_speed(self):
        beta = 1.0
        c = speed_c_star(beta).value
        thetas = [i / 200.0 for i in range(201)]
        rates = [_rate(beta, th) for th in thetas]
        assert all(r >= -1e-12 for r in rates)
        argmin = thetas[min(range(len(rates)), key=rates.__getitem__)]
        assert abs(argmin - c) <= 1.0 / 200.0 + 1e-12

    def test_theta_zero_and_one_are_finite(self):
        assert math.isfinite(_rate(1.0, 0.0))
        rate_at_one = _rate(1.0, 1.0)
        expected = 1.0 + math.log(2.0) + free_energy_g_star(1.0).g_star
        assert rate_at_one == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            _rate(1.0, 1.5)
        with pytest.raises(DomainError):
            _rate(0.0, 0.5)


# The per-theta evaluator that the grid-valued rate function replaced: it
# solved c*(beta) and the threshold c*(beta/2) again at every theta, each
# through the one kernel ``_logit_root``.  The curve must reproduce it bit
# for bit.
def _oracle_ldp_branch(beta, theta):
    c, _, log_1mc2, _ = discrete._logit_root(0.0, beta)
    threshold = discrete._logit_root(0.0, 0.5 * beta)[0]  # c*(beta/2)
    c, t = (c, log_1mc2 - math.log1p(c)), (theta, math.log1p(-theta) if theta < 1.0 else -math.inf)
    if theta >= threshold:
        return discrete._split_rate(beta, t, t, c), "boundary", theta
    # interior branch: (theta + x)^2 artanh x = 2 beta with x = 2r - theta in (0, 1)
    x, _, log_1mx2, _ = discrete._logit_root(theta, 2.0 * beta)
    return discrete._split_rate(beta, t, (x, log_1mx2 - math.log1p(x)), c), "interior", 0.5 * (theta + x)


class TestRateCurve:
    @pytest.mark.parametrize("beta", [1e-6, 0.1, 1.0, 3.0, 30.0])
    def test_matches_per_theta_oracle_bitwise(self, beta):
        threshold = discrete._logit_root(0.0, 0.5 * beta)[0]
        thetas = [i / 2000 for i in range(2001)]
        thetas += [threshold, threshold * (1.0 - 1e-13)]
        curve = ldp_rate_discrete_info(beta, thetas)
        assert [row[1] for row in curve[-2:]] == ["boundary", "interior"]
        for theta, row in zip(thetas, curve):
            rate, branch, root = _oracle_ldp_branch(beta, theta)
            assert row[1] == branch
            assert (row[0], row[2]) == (rate, root)
            assert math.copysign(1.0, row[0]) == math.copysign(1.0, rate)

    def test_one_solve_per_interior_theta_plus_two(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return bisect_newton(*args)

        monkeypatch.setattr(discrete, "bisect_newton", counted)
        curve = ldp_rate_discrete_info(1.0, [i / 2000 for i in range(2001)])
        interior = sum(row[1] == "interior" for row in curve)
        assert 0 < interior < len(curve)
        assert len(calls) == 2 + interior

    @pytest.mark.parametrize("beta", REFERENCE_BETAS)
    def test_every_solve_meets_the_residual_bound(self, monkeypatch, beta):
        # c*(beta), c*(beta/2) and each interior root of a 2001-point curve
        solves = []

        def recorded(*args):
            solves.append(bisect_newton(*args))
            return solves[-1]

        monkeypatch.setattr(discrete, "bisect_newton", recorded)
        curve = ldp_rate_discrete_info(beta, [i / 2000 for i in range(2001)])
        assert len(solves) == 2 + sum(row[1] == "interior" for row in curve)
        assert max(abs(res.residual) for res in solves) <= 1e-12

    @pytest.mark.parametrize("theta, target", [(0.0, 0.5), (0.25, 2.0)])
    def test_each_root_checks_its_own_residual(self, monkeypatch, theta, target):
        # at beta = 1, loosen the threshold c*(1/2) alone, or the interior
        # root at theta = 0.25 alone: the curve names the root that failed
        def loose(f, lo, hi):
            res = bisect_newton(f, lo, hi)
            var = inspect.getclosurevars(f).nonlocals
            if (var["theta"], var["log_target"]) == (theta, math.log(target)):
                return res._replace(residual=1e-9)
            return res

        monkeypatch.setattr(discrete, "bisect_newton", loose)
        with pytest.raises(SolverError, match=re.escape(f"theta={theta!r}, target={target!r}")):
            ldp_rate_discrete_info(1.0, [i / 2000 for i in range(2001)])

    def test_logit_root_reads_each_point_once(self, monkeypatch):
        # value and slope share one _at_logit per point the solver asks for;
        # the root's own x, artanh x and log(1 - x^2) take one more
        at_logit, calls, points = discrete._at_logit, [], []

        def counted(s):
            calls.append(s)
            return at_logit(s)

        def solve(f, lo, hi):
            def recorded(s):
                points.append(s)
                return f(s)
            return bisect_newton(recorded, lo, hi)

        monkeypatch.setattr(discrete, "_at_logit", counted)
        monkeypatch.setattr(discrete, "bisect_newton", solve)
        for theta, target in [(0.0, 1.0), (0.0, 1e-300), (0.3, 2.0)]:
            calls.clear()
            points.clear()
            res = discrete._logit_root(theta, target)[3]
            assert res.iterations > 0
            assert calls == [*points, res.value]

    def test_checks_every_theta_before_solving(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved before the theta check")

        monkeypatch.setattr(discrete, "bisect_newton", refuse)
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            ldp_rate_discrete_info(1.0, [0.5, 1.5])
        with pytest.raises(DomainError, match="finite"):
            ldp_rate_discrete_info(1.0, [0.5, math.nan])
        assert ldp_rate_discrete_info(1.0, []) == []

    @pytest.mark.parametrize("theta", [0.5, math.nan])
    def test_scalar_theta_rejected(self, theta):
        with pytest.raises(DomainError, match="1-D sequence"):
            ldp_rate_discrete_info(1.0, theta)


class TestTildeCd:
    def test_half_identities(self):
        assert tilde_c_d(math.log(2.0), 1) == pytest.approx(0.5, rel=1e-15)
        assert tilde_c_d(math.log(4.0), 2) == pytest.approx(0.5, rel=1e-15)

    def test_large_beta(self):
        v = tilde_c_d(100.0, 1)
        assert 0.993 <= v < 1.0

    @given(st.floats(min_value=1e-6, max_value=1e3),
           st.integers(min_value=1, max_value=6))
    def test_in_unit_interval(self, beta, d):
        assert 0.0 < tilde_c_d(beta, d) < 1.0

    def test_dimension_zero_rejected(self):
        with pytest.raises(DomainError, match="positive integer"):
            tilde_c_d(1.0, 0)

    def test_dimension_past_the_double_range(self):
        """log(2.0 * d) raised OverflowError for an int d above ~1e308."""
        v = tilde_c_d(1.0, 10**400)
        assert math.isfinite(v)
        assert v == pytest.approx(1.0 / (1.0 + math.log(2.0) + 400.0 * math.log(10.0)),
                                  rel=1e-15)
