"""Tests for the discrete-model constants and rate functions.

Frozen reference values were computed with 50-digit mpmath arithmetic: the
closed form of I directly, c* by interval bisection on c^2 I'(c) - beta,
g* and sigma* by substituting that root, and the auxiliary LDP root by
bisection on the second-branch equation.  ``_grid_minimum`` re-derives the
variational quantities by brute force at test time.
"""

import math

import pytest
from hypothesis import given, strategies as st

from rangepolymer import (
    DomainError,
    free_energy_g_star,
    ldp_rate_discrete,
    rate_I,
    rate_I_prime,
    sigma_star,
    speed_c_star,
    tilde_c_d,
)
from rangepolymer.discrete import ldp_rate_discrete_info

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

    def test_domain(self):
        with pytest.raises(DomainError):
            speed_c_star(0.0)
        with pytest.raises(DomainError):
            speed_c_star(-1.0)


class TestFreeEnergy:
    def test_beta_one_against_oracle(self):
        pc = free_energy_g_star(1.0)
        assert pc.g_star == pytest.approx(G_STAR_1, abs=2e-3)
        assert pc.g_star == pytest.approx(G_STAR_1, abs=1e-12)

    def test_two_forms_agree(self):
        for beta in (0.01, 0.1, 1.0, 10.0):
            pc = free_energy_g_star(beta)
            assert abs(pc.g_star - pc.g_star_infimum) <= 1e-10

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
        assert pc.c_tilde == pytest.approx(1.0 / (1.0 + math.log(2.0)), rel=1e-15)
        assert pc.c_tilde <= pc.c_star <= 1.0


class TestSigma:
    def test_small_beta_limit(self):
        s = sigma_star(1e-8)
        assert 0.576 <= s <= 0.579  # 1/sqrt(3) = 0.5773...

    def test_large_beta_limit(self):
        assert 1.95 <= math.exp(6.0) * sigma_star(6.0) <= 2.05

    def test_direct_substitution(self):
        c = C_STAR_1
        expected = 1.0 / math.sqrt(2.0 / c**3 + 1.0 / (1.0 - c * c))
        assert sigma_star(1.0) == pytest.approx(expected, rel=1e-12)
        assert sigma_star(1.0) == pytest.approx(SIGMA_STAR_1, rel=1e-12)

    def test_matches_second_difference_of_variational_functional(self):
        h = 1e-4
        for beta in (0.2, 1.0, 3.0):
            c = speed_c_star(beta).value
            psi = lambda x: beta / x + _I(x)
            d2 = (psi(c + h) - 2 * psi(c) + psi(c - h)) / (h * h)
            assert 1.0 / sigma_star(beta) ** 2 == pytest.approx(d2, rel=1e-4)


class TestLdpRate:
    def test_zero_at_speed(self):
        for beta in (0.1, 1.0, 10.0):
            c = speed_c_star(beta).value
            assert abs(ldp_rate_discrete(beta, c)) <= 1e-10

    def test_branch_continuity_at_threshold(self):
        for beta in (0.1, 1.0, 10.0):
            thr = speed_c_star(beta / 2.0).value
            below = ldp_rate_discrete(beta, thr * (1.0 - 1e-13))
            at = ldp_rate_discrete(beta, thr)
            assert abs(below - at) <= 1e-10

    def test_interior_branch_against_oracle(self):
        rate, branch, root = ldp_rate_discrete_info(1.0, 0.3)
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
            assert ldp_rate_discrete(beta, theta) == pytest.approx(oracle, abs=1e-6)

    def test_nonnegative_with_minimum_near_speed(self):
        beta = 1.0
        c = speed_c_star(beta).value
        thetas = [i / 200.0 for i in range(201)]
        rates = [ldp_rate_discrete(beta, th) for th in thetas]
        assert all(r >= -1e-12 for r in rates)
        argmin = thetas[min(range(len(rates)), key=rates.__getitem__)]
        assert abs(argmin - c) <= 1.0 / 200.0 + 1e-12

    def test_theta_zero_and_one_are_finite(self):
        assert math.isfinite(ldp_rate_discrete(1.0, 0.0))
        rate_at_one = ldp_rate_discrete(1.0, 1.0)
        expected = 1.0 + math.log(2.0) + free_energy_g_star(1.0).g_star
        assert rate_at_one == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ldp_rate_discrete(1.0, 1.5)
        with pytest.raises(DomainError):
            ldp_rate_discrete(0.0, 0.5)


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
