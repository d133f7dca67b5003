"""The paper's speed, spread and monotonicity read off the range law.

The tilt exp(-beta n^2 / R_n) depends on the range alone, so the free
energy's beta-derivatives give both constants from the range, by a route
that shares no code with the logit solve or the endpoint law.  Exactly at
every n,

    (1/n) d log Z_n / d beta     = -E_beta[n/R_n],
    (1/n) d^2 log Z_n / d beta^2 = n Var_beta(n/R_n),

and in the limit these are g*'(beta) = -1/c* and g*''(beta) = sigma*^2/c*^4.
Since d/d beta E_beta[n/R_n] = -n Var_beta(n/R_n) < 0, E_beta[n/R_n]
strictly decreases in beta at every finite n.  The Brownian twin has
E[t/R_t] -> 1/c** = beta^(-1/3) and t Var(t/R_t) -> sigma**^2/c**^4.

Each limit check has a control: the constant under test moved by 1e-4
fails it.
"""

import math

import numpy as np
import pytest

from rangepolymer import continuous_constants, free_energy_g_star, polymer_law
from rangepolymer import density

_BETAS = (0.5, 1.0, 2.0)


def _rel(value, target):
    return abs(value / target - 1.0)


def _range_moments(beta, n):
    """E_beta[n/R_n] and n Var_beta(n/R_n) under the exact tilted law."""
    law = polymer_law(beta, n).tilted
    q = n / law.rs
    mean = float(np.dot(law.ps, q))
    return mean, n * float(np.dot(law.ps, np.square(q - mean)))


@pytest.mark.parametrize("beta", _BETAS)
def test_richardson_range_moments_give_the_speed_and_spread(beta):
    # 2 E_800 - E_400 was 1.9e-7/2.7e-8/1.2e-7 relative off 1/c* and the
    # variance 1.6e-6/7.6e-7/2.3e-6 off sigma*^2/c*^4 at beta = 0.5/1/2;
    # a 1e-4 move of c* shifts 1/c* by ~1e-4 and sigma*^2/c*^4 by ~4e-4
    (m4, v4), (m8, v8) = _range_moments(beta, 400), _range_moments(beta, 800)
    mean, var = 2.0 * m8 - m4, 2.0 * v8 - v4

    def holds(c, sigma):
        return _rel(mean, 1.0 / c) <= 1e-6, _rel(var, sigma**2 / c**4) <= 1e-5

    consts = free_energy_g_star(beta)
    c, sigma = consts.c_star, consts.sigma_star
    assert holds(c, sigma) == (True, True)
    assert holds(c + 1e-4, sigma) == (False, False)
    assert holds(c, sigma + 1e-4) == (True, False)  # the mean has no sigma*


@pytest.mark.parametrize("beta", _BETAS)
def test_log_partition_slope_is_minus_n_squared_mean_inverse_range(beta):
    # the central difference at h = 1e-6 matched to 5.3e-11 relative
    n, h = 200, 1e-6
    slope = (polymer_law(beta + h, n).log_partition
             - polymer_law(beta - h, n).log_partition) / (2.0 * h)
    law = polymer_law(beta, n).tilted
    assert _rel(slope, -n * n * float(np.dot(law.ps, 1.0 / law.rs))) <= 1e-9
    # control: a range counted one site long is ~1/(c* n) off
    assert _rel(slope, -n * n * float(np.dot(law.ps, 1.0 / (law.rs + 1)))) > 1e-3


def test_mean_inverse_range_strictly_decreases_in_beta():
    n, betas, h = 400, (0.25, 0.5, 1.0, 2.0, 4.0), 1e-4
    means = [_range_moments(beta, n)[0] for beta in betas]
    assert means == pytest.approx([1.6658, 1.3661, 1.1517, 1.0294, 1.0007], abs=5e-5)
    assert all(a > b for a, b in zip(means, means[1:]))
    # the cause at every beta: d/d beta E[n/R_n] = -n Var(n/R_n) < 0, here
    # matched by a central difference to 8.7e-8 relative at worst
    for beta in betas:
        slope = (_range_moments(beta + h, n)[0] - _range_moments(beta - h, n)[0]) / (2 * h)
        var = _range_moments(beta, n)[1]
        assert var > 0.0 and _rel(slope, -var) <= 1e-6


def _brownian_range_moments(beta, t):
    """E[t/R_t] and t Var(t/R_t) under the tilt exp(-beta t^2 / R_t), from
    the tilted quadrature in u = R_t/sqrt(t) at panel width 1/8."""
    win = density._window(beta, t, False)

    def mass(weight):
        return density._tilted_mass(
            win, 0.125, win.lo, win.hi,
            lambda u: density._range_series_scaled(u)[0] * weight(u))[0]

    z = mass(lambda u: 1.0)
    mean = mass(lambda u: math.sqrt(t) / u) / z
    return mean, t * (mass(lambda u: t / u**2) / z - mean * mean)


@pytest.mark.parametrize("beta", _BETAS)
def test_brownian_range_moments_give_the_continuous_speed_and_spread(beta):
    # at t = 640 the errors were at most 2.3e-7 (mean) and 1.1e-6 (variance),
    # and each 4x step in t shrank them 15.2-15.9x: O(1/t^2)
    consts = continuous_constants(beta)
    c, sigma = consts.c_dstar, consts.sigma_dstar
    moments = {t: _brownian_range_moments(beta, t) for t in (40.0, 160.0, 640.0)}

    def errors(t, c, sigma):
        mean, var = moments[t]
        return _rel(mean, 1.0 / c), _rel(var, sigma**2 / c**4)

    def holds(c, sigma):
        mean_err, var_err = errors(640.0, c, sigma)
        return mean_err <= 1e-6, var_err <= 5e-6

    assert holds(c, sigma) == (True, True)
    assert holds(c + 1e-4, sigma) == (False, False)
    assert holds(c, sigma + 1e-4) == (True, False)
    for t in (40.0, 160.0):
        for coarse, fine in zip(errors(t, c, sigma), errors(4.0 * t, c, sigma)):
            assert 14.0 <= coarse / fine <= 17.0
