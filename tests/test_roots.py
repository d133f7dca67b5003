"""Tests for the bracketed solver ``bisect_newton``.

The target is one callable returning (value, slope); each test counts the
points it is called at, which must all differ: the ends, the midpoint and
one per Newton or bisection step.
"""

import math

import pytest

from rangepolymer import SolverError
from rangepolymer.roots import RootResult, bisect_newton


def _recorded(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_increasing_and_decreasing_targets(sign):
    f, points = _recorded(lambda x: (sign * (x * x - 2.0), sign * 2.0 * x))
    res = bisect_newton(f, 0.0, 2.0)
    assert res.value == pytest.approx(math.sqrt(2.0), rel=2.3e-16)
    assert abs(res.residual) <= 4.5e-16
    assert 0.0 <= res.bracket[0] <= res.value <= res.bracket[1] <= 2.0
    assert 0 < res.iterations < 10
    assert points[:3] == [0.0, 2.0, 1.0]
    assert len(set(points)) == len(points) <= 3 + res.iterations


@pytest.mark.parametrize("lo, hi, root", [(1.0, 3.0, 1.0), (-1.0, 1.0, 1.0)])
def test_root_at_an_end_takes_no_step(lo, hi, root):
    f, points = _recorded(lambda x: (x - 1.0, 1.0))
    assert bisect_newton(f, lo, hi) == RootResult(root, 0.0, 0, (lo, hi))
    assert points == [lo, hi]


def test_no_sign_change_raises():
    with pytest.raises(SolverError, match="no sign change"):
        bisect_newton(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 2.0)


def test_zero_slope_falls_back_to_bisection():
    # with the true slope one Newton step from 0.5 lands on 0.3 itself
    newton = bisect_newton(lambda x: (x - 0.3, 1.0), 0.0, 1.0)
    assert (newton.value, newton.residual, newton.iterations) == (0.3, 0.0, 1)
    f, points = _recorded(lambda x: (x - 0.3, 0.0))
    res = bisect_newton(f, 0.0, 1.0)
    assert abs(res.value - 0.3) <= math.ulp(0.3)
    assert res.iterations > 50
    a, b = 0.0, 1.0
    for prev, x in zip(points[2:], points[3:]):  # each step halves the bracket
        a, b = (a, prev) if prev > 0.3 else (prev, b)
        assert x == 0.5 * (a + b)
    assert len(set(points)) == len(points)
