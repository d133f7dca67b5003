"""Tests for the continuous-model constants, cubic root and rate curve."""

import math
import re

import pytest
from hypothesis import given, strategies as st

from rangepolymer import (
    DomainError,
    continuous,
    continuous_constants,
    ldp_rate_continuous_info,
    positive_cubic_root,
    rate_J,
    unit_ball_volume,
)
from rangepolymer.errors import check_positive


def _rate(beta, theta):
    """Rate at one theta, read off a one-point curve."""
    return ldp_rate_continuous_info(beta, [theta])[0][0]


# The per-theta evaluator that the grid-valued rate function replaced; the
# curve must reproduce it bit for bit.
def _oracle_ldp_rate_continuous_info(beta, theta):
    check_positive("beta", beta)
    if theta < 0.0:
        raise DomainError(f"theta must be nonnegative, got {theta!r}")
    g = continuous_constants(beta).g_dstar
    threshold = math.cbrt(0.5 * beta)
    if theta >= threshold:
        return beta / theta + 0.5 * theta * theta + g, "boundary", float(theta)
    r = positive_cubic_root(beta, theta).value
    x = 2.0 * r - theta
    return beta / r + 0.5 * x * x + g, "interior", r


def test_rate_J_values():
    assert rate_J(0.0) == 0.0
    assert rate_J(1.0) == 0.5
    assert rate_J(3.0) == 4.5
    with pytest.raises(DomainError):
        rate_J(-0.5)


def test_unit_ball_volumes():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
    with pytest.raises(DomainError, match="nonnegative"):
        unit_ball_volume(-1)


class TestConstants:
    def test_beta_one(self):
        c = continuous_constants(1.0)
        assert c.c_dstar == pytest.approx(1.0, rel=1e-14)
        assert c.g_dstar == pytest.approx(-1.5, rel=1e-14)
        assert c.sigma_dstar == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        assert c.prefactor == pytest.approx(8.0 / math.sqrt(3.0), rel=1e-15)

    def test_beta_eight(self):
        c = continuous_constants(8.0)
        assert c.c_dstar == pytest.approx(2.0, rel=1e-14)
        assert c.g_dstar == pytest.approx(-6.0, rel=1e-14)

    def test_dimension_three_threshold(self):
        # w_2 = pi, so beta = pi gives a unit ratio and threshold 1/2
        c = continuous_constants(math.pi, d=3)
        assert c.beta_tilde_d == pytest.approx(0.5, rel=1e-14)
        assert c.free_energy_bound == pytest.approx(-1.5, rel=1e-14)

    def test_dimension_one_bound_equals_free_energy(self):
        c = continuous_constants(2.7)
        assert c.free_energy_bound == pytest.approx(c.g_dstar, rel=1e-14)


class TestCubicRoot:
    def test_beta_four_theta_zero(self):
        res = positive_cubic_root(4.0, 0.0)
        assert res.value == pytest.approx(1.0, rel=1e-14)
        assert res.bracket[0] <= res.value <= res.bracket[1]

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_defining_relation_residual(self, beta, theta):
        r = positive_cubic_root(beta, theta).value
        assert abs(2.0 * r * r * (2.0 * r - theta) - beta) <= 1e-12 * max(1.0, beta)

    def test_residual_on_spec_betas(self):
        for beta in (0.1, 1.0, 10.0):
            for theta in (0.0, 0.3 * beta ** (1 / 3)):
                r = positive_cubic_root(beta, theta)
                assert abs(2.0 * r.value**2 * (2.0 * r.value - theta) - beta) <= 1e-12

    def test_negative_theta_rejected(self):
        with pytest.raises(DomainError, match="theta must be nonnegative"):
            positive_cubic_root(1.0, -0.5)


class TestLdpRateContinuous:
    def test_zero_at_speed(self):
        for beta in (0.1, 1.0, 10.0):
            assert abs(_rate(beta, beta ** (1 / 3))) <= 1e-10

    def test_branch_continuity(self):
        for beta in (0.1, 1.0, 10.0):
            thr = (beta / 2.0) ** (1 / 3)
            below = _rate(beta, thr * (1.0 - 1e-13))
            at = _rate(beta, thr)
            assert abs(below - at) <= 1e-10

    def test_theta_zero_beta_four(self):
        rate, branch, root = ldp_rate_continuous_info(4.0, [0.0])[0]
        assert branch == "interior"
        assert root == pytest.approx(1.0, rel=1e-14)
        g = continuous_constants(4.0).g_dstar
        assert rate == pytest.approx(4.0 + 2.0 + g, rel=1e-13)

    def test_nonnegative_with_minimum_near_speed(self):
        beta = 1.0
        thetas = [i * 3.0 / 300.0 for i in range(1, 301)]
        rates = [_rate(beta, th) for th in thetas]
        assert all(r >= -1e-12 for r in rates)
        argmin = thetas[min(range(len(rates)), key=rates.__getitem__)]
        assert abs(argmin - 1.0) <= 3.0 / 300.0 + 1e-12

    def test_grid_minimization_of_free_energy(self):
        # inf over c of beta/c + c^2/2 on [beta_tilde_1, 4 beta^(1/3)] equals 1.5 beta^(2/3)
        for beta in (0.25, 1.0, 5.0):
            cst = continuous_constants(beta)
            lo, hi = cst.beta_tilde_d, 4.0 * cst.c_dstar
            best = min(
                beta / (lo + (hi - lo) * i / 200000.0) + 0.5 * (lo + (hi - lo) * i / 200000.0) ** 2
                for i in range(200001)
            )
            assert best == pytest.approx(1.5 * beta ** (2 / 3), abs=1e-8)


class TestRateCurve:
    @pytest.mark.parametrize("beta", [1e-6, 0.1, 1.0, 3.0, 30.0])
    def test_matches_per_theta_oracle_bitwise(self, beta):
        threshold = math.cbrt(0.5 * beta)
        thetas = [i / 2000 for i in range(2001)]
        thetas += [threshold, threshold * (1.0 - 1e-13)]
        curve = ldp_rate_continuous_info(beta, thetas)
        assert [row[1] for row in curve[-2:]] == ["boundary", "interior"]
        for theta, row in zip(thetas, curve):
            rate, branch, root = _oracle_ldp_rate_continuous_info(beta, theta)
            assert row[1] == branch
            assert (row[0], row[2]) == (rate, root)
            assert math.copysign(1.0, row[0]) == math.copysign(1.0, rate)

    def test_overflowing_rate_is_refused(self):
        # theta^2/2 overflows from theta ~ 1.9e154 on the boundary branch
        assert math.isfinite(ldp_rate_continuous_info(1.0, [1.8e154])[0][0])
        for theta in (1.9e154, 1e300):
            with pytest.raises(DomainError, match=re.escape(f"theta={theta!r}")):
                ldp_rate_continuous_info(1.0, [0.5, theta])

    def test_checks_every_theta_before_solving(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved before the theta check")

        monkeypatch.setattr(continuous, "positive_cubic_root", refuse)
        with pytest.raises(DomainError, match="nonnegative"):
            ldp_rate_continuous_info(1.0, [0.5, -0.5])
        with pytest.raises(DomainError, match="finite"):
            ldp_rate_continuous_info(1.0, [0.5, math.inf])
        assert ldp_rate_continuous_info(1.0, []) == []

    @pytest.mark.parametrize("theta", [0.5, math.nan])
    def test_scalar_theta_rejected(self, theta):
        with pytest.raises(DomainError, match="1-D sequence"):
            ldp_rate_continuous_info(1.0, theta)
