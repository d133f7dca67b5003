"""Tests for the Feller-series densities and the tilted quadratures.

The normal CDF used as a comparison target comes from scipy (ndtr), an
implementation independent of the package's erf-based one.
"""

import hashlib
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
from rangepolymer.cli import main
from rangepolymer.continuous import continuous_constants
from rangepolymer.errors import check_grid
from rangepolymer.exact import joint_law_exact, polymer_law
from rangepolymer.gaussian import SQRT2PI
from rangepolymer import density
from rangepolymer.density import (
    DEFAULT_FLOOR,
    PANEL_NODE_CAP,
    _joint_cdf_series_scaled,
    _joint_series_scaled,
    _GL_NODES,
    _GL_WEIGHTS,
    _panels,
    _range_series_scaled,
    _window,
)

from oracles import gauss_legendre_panels, range_marginal, window_by_fractions

PREFACTOR = 8.0 / math.sqrt(3.0)


def _integrate(fn, a, b, width, order=20):
    xs, ws = gauss_legendre_panels(a, b, width, order)
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


def _default_r_grid(t):
    """The ``continuous`` command's default density r-grid."""
    st_ = math.sqrt(t)
    return [0.05 * st_ + (6.0 - 0.05) * st_ * i / 120 for i in range(121)]


def _mp_range_density(t, r, dps=400):
    """Feller's primal series at r, summed in mpmath at ``dps`` digits until
    a term is below 10^-(dps + 20).  Its cancellation costs about
    log10(1/density) digits, ~850 at the floor u = 0.05, where the density
    itself is ~1e-849: at 400 digits the sum there is noise far below 1e-300,
    and every density above 1e-288 keeps more than 100 correct digits."""
    import mpmath as mp

    with mp.workdps(dps):
        u = mp.mpf(r) / mp.sqrt(t)
        total, k, floor = mp.mpf(0), 0, mp.mpf(10) ** (-dps - 20)
        while True:
            k += 1
            term = k * k * mp.exp(-(k * u) ** 2 / 2)
            total += term if k % 2 else -term
            if term < floor:
                return float(8 * total / (mp.sqrt(2 * mp.pi) * mp.sqrt(t)))


def _assert_matches_reference(t, r, value):
    want = _mp_range_density(t, r)
    assert abs(value - want) <= max(1e-12 * abs(want), 1e-300), (t, r, value, want)


class TestRangeDensity:
    def test_normalizes_to_one(self):
        total = _integrate(lambda r: range_density(1.0, r).value, 0.05, 20.0, 0.25)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mean_matches_known_value(self):
        # E[R_1] = 2 sqrt(2/pi); quadrature against the series should nail it
        mean = _integrate(lambda r: r * range_density(1.0, r).value, 0.05, 20.0, 0.25)
        assert mean == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-8)

    @given(st.floats(min_value=0.25, max_value=16.0),
           st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=40)
    def test_scaling_law(self, t, u):
        lhs = range_density(t, u * math.sqrt(t)).value
        rhs = range_density(1.0, u).value / math.sqrt(t)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("u", [0.1, 0.3, 1.0, 2.0, 5.0])
    def test_scaling_law_at_subnormal_t(self, u):
        """At t = 5e-324, r^2 underflowed to 0 in the kernel and every
        density came out NaN; q is now formed from u = r/sqrt(t)."""
        t = 5e-324
        lhs = range_density(t, u * math.sqrt(t)).value * math.sqrt(t)
        assert lhs == range_density(1.0, u).value

    def test_scalar_matches_grid(self):
        """One array call is bitwise a per-point loop, in value and bound,
        over the CLI's whole default r-grid, dual rows included."""
        for t in (1e-4, 1.7, 40.0, 1e4):
            rs = _default_r_grid(t)
            curve = range_density(t, rs)
            grid = range_density(t, np.array(rs)).value
            loop = [range_density(t, r) for r in rs]
            assert curve.value.tobytes() == grid.tobytes()
            assert [v.hex() for v in curve.value.tolist()] == [se.value.hex() for se in loop]
            assert [b.hex() for b in curve.truncation_bound.tolist()] == \
                [se.truncation_bound.hex() for se in loop]
            assert curve.terms_used == max(se.terms_used for se in loop)

    def test_far_tail_curve_matches_a_per_point_loop(self, tmp_path, capfd):
        """The CLI's one call, far-tail rows included, writes what a loop of
        scalar calls gives, and nothing reaches stderr."""
        rs = [0.4, 1.0, 5.0, 100.0, 1e3, 1e200]
        out = tmp_path / "run"
        assert main(["continuous", "--beta", "1", "--t", "40", "--outputs", "density",
                     "--r-grid", "0.4,1,5,100,1e3,1e200", "--out", str(out)]) == 0
        assert capfd.readouterr().err == ""
        lines = (out / "range_density.csv").read_text().strip().splitlines()[1:]
        want = [range_density(40.0, r) for r in rs]
        assert lines == [f"{r:.17g},{se.value:.17g},{se.truncation_bound:.17g}"
                         for r, se in zip(rs, want)]
        assert [se.value for se in want[-2:]] == [0.0, 0.0]

    @pytest.mark.parametrize("u", [0.05, 0.1, 0.149, 0.3, 0.5, 1.0,
                                   math.sqrt(math.pi) - 1e-9, math.sqrt(math.pi) + 1e-9,
                                   2.0, 3.0, 6.0])
    def test_matches_high_precision_primal_series(self, u):
        """Below u = 0.6 the float primal series was all cancellation noise."""
        _assert_matches_reference(1.0, u, range_density(1.0, u).value)

    def test_default_cli_curve_is_nonnegative_and_accurate(self, tmp_path):
        """The t = 40 curve held 5 negative rows and 12 rows off by more
        than 1e-12 relative, all below u = 0.6."""
        out = tmp_path / "run"
        assert main(["continuous", "--beta", "1", "--t", "40", "--outputs", "density",
                     "--out", str(out)]) == 0
        lines = (out / "range_density.csv").read_text().strip().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert [r for r, _, _ in rows] == _default_r_grid(40.0)
        for r, value, bound in rows:
            assert value >= 0.0 and bound >= 0.0
            _assert_matches_reference(40.0, r, value)

    @pytest.mark.parametrize("t", [1e-4, 1.0, 40.0, 1e4])
    def test_error_bound_covers_the_400_digit_value(self, t):
        """Every row of the CLI's default curve.  The bound was truncation
        alone, 1e-23 to 1e-34 of the value: 96 of the 121 rows at t = 40
        were off by more, by a few ulps, and up to 188 ulps below u = 0.2."""
        rs = _default_r_grid(t)
        se = range_density(t, rs)
        for r, value, bound in zip(rs, se.value.tolist(), se.truncation_bound.tolist()):
            assert abs(value - _mp_range_density(t, r)) <= bound, (t, r, value, bound)

    def test_alternating_tail_bound(self):
        # the truncation error is below the reported bound (up to float
        # rounding of the reference sum itself); u = 1 and 1.5 take the dual
        for u in (1.0, 1.5, 2.5):
            se = range_density(1.0, u)
            dense = _dense_range_density(u)
            slack = 4e-16 * max(1.0, abs(dense))
            assert abs(se.value - dense) <= se.truncation_bound + slack
            assert se.terms_used >= 1

    def test_bound_is_relative_where_one_term_is_summed(self):
        """Below u ~ 0.36 the dual stops after one term; its bound used to be
        that term, the whole value, and is now the next-term ratio times it."""
        se = range_density(1.0, 0.3)
        assert se.terms_used == 1
        assert 0.0 < se.truncation_bound <= 1e-4 * se.value

    def test_floor_rejected(self):
        with pytest.raises(DomainError):
            range_density(1.0, 0.01)
        with pytest.raises(DomainError):
            range_density(4.0, 0.05)  # floor scales with sqrt(t)
        with pytest.raises(DomainError):
            range_density(4.0, math.inf)

    @pytest.mark.parametrize("r, first", [
        ([1.0, 0.01, -1.0], 1),
        ([1.0, -1.0, 0.01], 1),
        ([1.0, math.nan, 0.01], 1),
        ([1.0, 2.0, math.inf], 2),
        ([[1.0, 0.2], [0.0, 0.01]], (1, 0)),
    ])
    def test_floor_names_the_first_failing_point(self, r, first):
        """At t = 4 the floor is 0.1; the array check raises the message of
        the one-point call at the first point, in input order, that fails."""
        r = np.asarray(r)
        with pytest.raises(DomainError) as one:
            range_density(4.0, float(r[first]))
        with pytest.raises(DomainError) as many:
            range_density(4.0, r)
        assert str(many.value) == str(one.value)

    def test_scaled_kernel_is_at_most_its_first_term(self):
        """S(u) <= 1/sqrt(2 pi), the bound the quadrature window's tail
        bound rests on; the dual side peaks at 0.385 by u = sqrt(pi)."""
        u = np.concatenate([np.linspace(0.05, 6.0, 4001),
                            math.sqrt(math.pi) + np.linspace(-1e-3, 1e-3, 201)])
        scaled = _range_series_scaled(u)[0]
        assert float(scaled.max()) <= 1.0 / SQRT2PI
        assert float(scaled[u < math.sqrt(math.pi)].max()) <= 0.385

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
        R, WR = _panels(0.05, 16.0, 0.2)  # from the floor: below it the mass is < e^-1900
        for r, w in zip(R, WR):
            X, WX = _panels(0.0, float(r), 0.2)
            acc += w * float(np.dot(WX, joint_density(1.0, X, float(r)).value))
        assert acc == pytest.approx(0.5, abs=1e-4)

    def test_marginal_consistency_with_range_density(self):
        # integrate x out and double: must reproduce the range density
        for r in (0.8, 1.2, 2.0, 3.5):
            X, WX = _panels(0.0, r, 0.02)
            marg = 2.0 * float(np.dot(WX, joint_density(1.0, X, r).value))
            assert marg == pytest.approx(range_density(1.0, r).value, abs=1e-6)

    def test_vanishes_at_the_diagonal(self):
        for r in (1.0, 2.0):
            assert joint_density(1.0, r * (1 - 1e-9), r).value == pytest.approx(0.0, abs=1e-6)

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
        with pytest.raises(DomainError):
            joint_density(*args)

    @pytest.mark.parametrize("args", [
        (1.0, [0.5, math.nan], 1.0),
        (1.0, [0.5, 0.7], [1.0, math.inf]),
        (1.0, 0.5, math.nan),
    ])
    def test_kernel_rejects_non_finite_input(self, args):
        """A NaN used to run the series through all 100000 blocks."""
        with pytest.raises(DomainError):
            _joint_series_scaled(*args)

    @pytest.mark.parametrize("t", [1e-4, 1.0, 40.0])
    def test_array_matches_one_point_calls_within_the_bound(self, t):
        """The array call stops on its largest block, so most of its points
        sum more blocks than a one-point call; each value is within both
        calls' bounds of the other."""
        st_ = math.sqrt(t)
        r = np.array([0.05, 0.3, 0.7, 1.0, 2.5, 6.0, 12.0]) * st_
        x = np.outer([0.01, 0.3, 0.6, 0.999], r)
        got = joint_density(t, x, r)
        terms = set()
        for (i, j), value in np.ndenumerate(got.value):
            one = joint_density(t, float(x[i, j]), float(r[j]))
            terms.add(one.terms_used)
            assert abs(value - one.value) <= got.truncation_bound[i, j] + one.truncation_bound
        assert min(terms) < got.terms_used

    @pytest.mark.parametrize("x, r, shape", [
        (0.5, 1.0, ()),
        ([0.5], 1.0, (1,)),
        (0.5, [1.0, 2.0, 3.0], (3,)),
        ([[0.1], [0.2]], [0.5, 1.0, 2.0], (2, 3)),
        (np.full((2, 1, 4), 0.3), np.ones((3, 1)), (2, 3, 4)),
        (np.zeros((0, 2)), 1.0, (0, 2)),
    ])
    def test_broadcast_shapes(self, x, r, shape):
        got = joint_density(1.0, x, r)
        if shape == ():
            assert type(got.value) is float and type(got.truncation_bound) is float
        else:
            assert got.value.shape == got.truncation_bound.shape == shape

    @pytest.mark.parametrize("x, r, first", [
        ([0.5, 0.01, 1.5], [1.0, 0.03, 1.2], 1),  # below the floor, then off the wedge
        ([0.5, 1.5, 0.01], [1.0, 1.2, 0.03], 1),  # off the wedge, then below the floor
        ([0.5, math.nan, 1.5], [1.0, 1.0, 1.2], 1),
        ([0.5, 0.5, 0.01], [1.0, math.nan, 0.03], 1),
        ([0.5, 0.5], [1.0, math.inf], 1),
        ([[0.5, 0.02], [-0.1, 0.5]], [[1.0, 0.04], [1.0, 1.0]], (0, 1)),
        ([[0.5, 0.6], [-0.1, 0.5]], [[1.0, 1.0], [1.0, math.inf]], (1, 0)),
    ])
    def test_names_the_first_failing_point(self, x, r, first):
        """Each point is checked for 0 < x < r and then the floor, in input
        order, before any series term, and the first failing one raises the
        one-point call's message; a NaN fails the wedge."""
        x, r = np.asarray(x), np.asarray(r)
        with pytest.raises(DomainError) as one:
            joint_density(1.0, float(x[first]), float(r[first]))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_joint_series_scaled", lambda *a: calls.append(a))
            with pytest.raises(DomainError) as many:
                joint_density(1.0, x, r)
        assert str(many.value) == str(one.value)
        assert calls == []


def test_panels_refuse_layouts_past_the_node_cap():
    order = 16
    xs, ws = _panels(0.0, PANEL_NODE_CAP // order, 1.0)
    assert len(xs) == len(ws) == PANEL_NODE_CAP
    for b in (PANEL_NODE_CAP // order + 1.0, 1e300, math.inf, math.nan):
        with pytest.raises(ResourceCapError, match="exceed the cap"):
            _panels(0.0, b, 1.0)


def test_the_16_node_table_is_leggauss_16():
    """Bitwise, and so is every panel layout built on it."""
    xs, ws = np.polynomial.legendre.leggauss(16)
    assert _GL_NODES.tobytes() == xs.tobytes() and _GL_WEIGHTS.tobytes() == ws.tobytes()
    for a, b, width in [(0.05, 20.0, 0.25), (0.3, 9.1, 0.125), (-1.0, 1.0, 5.0)]:
        for got, want in zip(_panels(a, b, width), gauss_legendre_panels(a, b, width, 16)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact_radius", [False, True])
@pytest.mark.parametrize("t", [1e-4, 4.0, 40.0, 1e4])
@pytest.mark.parametrize("beta", [1e-300, 1e-4, 1.0, 1e3, 1e16])
def test_window_peak_matches_the_fraction_route(beta, t, exact_radius):
    """The integer-ratio peak rounds as ``Fraction.__float__`` does."""
    def window(route):
        try:
            return route(beta, t, exact_radius)
        except Exception as exc:  # the routes must raise alike
            return type(exc), str(exc)

    got, want = window(_window), window(window_by_fractions)
    assert got == want
    if hasattr(got, "shift"):
        assert (got.shift.hex(), got.residue.hex()) == (want.shift.hex(), want.residue.hex())


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


def _at_order(monkeypatch, order):
    """Make every quadrature of ``density`` run at ``order`` nodes per panel."""
    monkeypatch.setattr(density, "_panels",
                        lambda a, b, width: gauss_legendre_panels(a, b, width, order))


def _z_at(monkeypatch, beta, t, order):
    """Z_t and its error estimate at any panel order (16 in production)."""
    _at_order(monkeypatch, order)
    res = partition_function_continuous(beta, t)
    return res.value, res.abs_error_estimate


def _mp_partition_function(beta, t, use_exact_radius):
    """Z_t at 40 digits: mpmath's quadrature of Feller's range density, its
    Jacobi dual below u = 2 and the primal series above, against the tilt
    exp(-b/(u + a)) with b = beta t^(3/2) and a = 2/sqrt(t) formed exactly
    from the float beta and t.  The integrand is scaled by its value at
    u = b^(1/3), since mpmath stops on an absolute error."""
    import mpmath as mp

    with mp.workdps(40):
        t = mp.mpf(t)
        b = mp.mpf(beta) * t * mp.sqrt(t)
        a = 2 / mp.sqrt(t) if use_exact_radius else mp.mpf(0)
        tiny = mp.mpf(10) ** -50

        def density(u):
            total, k = mp.mpf(0), 0
            while True:
                k += 1
                if u < 2:
                    j2 = (2 * k - 1) ** 2 * mp.pi ** 2
                    term = (j2 / u ** 5 - 1 / u ** 3) * mp.exp(-j2 / (2 * u * u))
                else:
                    term = (-1) ** (k - 1) * k * k * mp.exp(-(k * u) ** 2 / 2) \
                        / mp.sqrt(2 * mp.pi)
                total += term
                if abs(term) < tiny * abs(total):
                    return 8 * total

        c = mp.cbrt(b)
        peak = c * c / 2 + b / (c + a)
        edges = sorted({mp.mpf(0), mp.mpf(2), *(mp.mpf(k) for k in range(1, int(c) + 31))})
        z = mp.quad(lambda u: density(u) * mp.exp(peak - b / (u + a)), edges)
        return z * mp.exp(-peak)


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

    @pytest.mark.parametrize("exact_radius", [False, True])
    @pytest.mark.parametrize("beta, t", [(1.0, 40.0), (1.0, 4.0), (1e-4, 4.0)])
    def test_matches_a_40_digit_quadrature(self, beta, t, exact_radius):
        """The window ended at the cutoff c** t/2: Z was 4.2e-13 low
        (relative) at (1, 40) and 1.04e-3 low at (1, 4), against error
        estimates of ~3e-16, and (1e-4, 4) raised DomainError."""
        res = partition_function_continuous(beta, t, use_exact_radius=exact_radius)
        want = _mp_partition_function(beta, t, exact_radius)
        assert abs(res.value - float(want)) <= res.abs_error_estimate

    def test_error_estimate_honest_under_refinement(self, monkeypatch):
        base, base_err = _z_at(monkeypatch, 1.0, 30.0, 8)
        fine, _ = _z_at(monkeypatch, 1.0, 30.0, 16)
        assert abs(base - fine) <= 10.0 * base_err + 1e-30

    # log Z_t from ``_mp_partition_function`` (40 digits; about 16 s each, so
    # frozen here).  The exact-radius tilt peaks far below b^(1/3) at these
    # (beta, t); a window centred at b^(1/3) made Z NaN there.
    @pytest.mark.parametrize("beta, t, log_z", [(1.25e11, 4e-4, -7905.2273917382453874),
                                                (1e15, 1e-6, -499.5940848757811068)])
    def test_exact_radius_peak_far_below_the_centre(self, beta, t, log_z):
        res = partition_function_continuous(beta, t, use_exact_radius=True)
        assert res.log_value == pytest.approx(log_z, rel=1e-13)
        assert math.isfinite(res.abs_error_estimate)
        for cdf in (*endpoint_clt_continuous(beta, t, [-1.0, 0.0, 1.0], True),
                    *range_second_order_cdf(beta, t, [-1.0, 0.0, 1.0], True)):
            assert 0.0 <= cdf <= 1.0

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

    @pytest.mark.parametrize("pair", [((1.0, 40.0), (8.0, 10.0)),
                                      ((1.0, 160.0), (8.0, 40.0))])
    def test_brownian_scaling_is_bitwise(self, pair):
        """The surrogate depends on (beta, t) through b = beta t^(3/2) alone,
        and these pairs form the same float b."""
        levels = [-2.0, -1.0, 0.0, 1.0, 2.0]
        outputs = []
        for beta, t in pair:
            res = partition_function_continuous(beta, t)
            outputs.append((res.value, res.log_value, res.abs_error_estimate, res.nodes,
                            range_second_order_cdf(beta, t, levels),
                            endpoint_clt_continuous(beta, t, levels)))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("b", [8.0, 27.0])
def test_exact_law_converges_to_the_continuous_z(b):
    """Brownian scaling: log Z_n(b n^(-3/2)) of the walk tends to
    log Z_1(b) of the Brownian path, with an O(1/n) gap; Richardson in 1/n
    from n = 400 and 800 cancels it.  The cutoff window left gaps of 1.04e-3
    (b = 8) and 2.0e-4 (b = 27), the mass it dropped."""
    log_z = {n: polymer_law(b * n ** -1.5, n).log_partition for n in (400, 800)}
    richardson = 2.0 * log_z[800] - log_z[400]
    assert abs(richardson - partition_function_continuous(b, 1.0).log_value) <= 1e-4


@pytest.mark.parametrize("n", [400, 1000])
def test_exact_range_marginal_converges_to_the_feller_density(n):
    """Donsker: the walk's P(R_n = r) tends to the Brownian f_R at t = n,
    read in one array call.  R_n counts sites, max - min + 1, and against
    f_R(r) the largest gap measured 0.87, 0.86, 0.86 and 0.84 of peak/n at
    n = 100, 200, 400 and 1000: O(1/n).  Against f_R(r - 1) it is the unit
    shift, 2.44 to 2.48 of peak/sqrt(n).  A 1% error in t reads 6.0 to 6.4
    of peak/n at n = 400, where the f_R(r - 1) gap still passes."""
    marginal = range_marginal(joint_law_exact(n))
    rs = np.array(sorted(marginal), dtype=float)
    ps = np.array([marginal[r] for r in sorted(marginal)])
    keep = rs - 1.0 >= DEFAULT_FLOOR * math.sqrt(n)  # holds all but 1e-300 of the mass
    assert ps[~keep].sum() < 1e-290
    at_r = range_density(float(n), rs[keep]).value
    at_r_minus_1 = range_density(float(n), rs[keep] - 1.0).value
    peak = float(at_r.max())
    assert float(np.max(np.abs(ps[keep] - at_r))) <= 1.0 * peak / n
    assert float(np.max(np.abs(ps[keep] - at_r_minus_1))) <= 2.6 * peak / math.sqrt(n)


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


# Inputs that numpy cannot make one float array of are DomainErrors (a
# ValueError too) that name the argument, not numpy's bare ValueError.
@pytest.mark.parametrize("call, name", [
    (lambda: range_density(1.0, [[1.0], [1.0, 2.0]]), "r"),
    (lambda: range_density(1.0, "abc"), "r"),
    (lambda: joint_density(1.0, "abc", 1.0), "x"),
    (lambda: joint_density(1.0, [0.1, 0.2], [1.0, 2.0, 3.0]), "x and r"),
    (lambda: check_grid("C", [[1.0], [1.0, 2.0]]), "C"),
    (lambda: check_grid("C", ["a"]), "C"),
    (lambda: endpoint_clt_continuous(1.0, 40.0, [[0.0], [0.0, 1.0]]), "C"),
], ids=["range-ragged", "range-string", "joint-string", "joint-unbroadcastable",
        "grid-ragged", "grid-string", "clt-ragged-levels"])
def test_malformed_array_input_names_its_argument(call, name):
    with pytest.raises(DomainError, match=f"^{name} must"):
        call()


# A level list of either CLT must give bitwise its one-level calls.

# unsorted, one duplicate, -9 below the window at t=10 for both betas, +-9
_ORACLE_LEVELS = [0.5, -9.0, 1.0, -4.0, 0.5, 9.0]


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("exact_radius", [False, True])
class TestLevelSweepMatchesPerLevelOracle:
    def test_endpoint_cdf_bitwise(self, beta, exact_radius):
        swept = endpoint_clt_continuous(beta, 10.0, _ORACLE_LEVELS,
                                        use_exact_radius=exact_radius)
        one_level = [endpoint_clt_continuous(beta, 10.0, [c], use_exact_radius=exact_radius)[0]
                     for c in _ORACLE_LEVELS]
        assert [v.hex() for v in swept] == [v.hex() for v in one_level]

    def test_range_tail_bitwise(self, beta, exact_radius):
        swept = range_second_order_cdf(beta, 10.0, _ORACLE_LEVELS,
                                       use_exact_radius=exact_radius)
        one_level = [range_second_order_cdf(beta, 10.0, [c], use_exact_radius=exact_radius)[0]
                     for c in _ORACLE_LEVELS]
        assert [v.hex() for v in swept] == [v.hex() for v in one_level]
        assert one_level[1] == 1.0  # the below-window branch is exercised


# The joint-series kernel in its a^2 form, kept verbatim as the reference for
# ``_joint_series_scaled``, which works in u = r/sqrt(t) and v = x/sqrt(t)
# and must match its term counts exactly and its values to rounding; and a
# 2-D endpoint-CLT quadrature built on it.

# np.exp returns exactly 0.0 for every argument at or below this; the
# node-set test counts the blocks whose arguments all lie there.
_EXP_ZERO = -750.0

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


def _oracle_endpoint_clt_continuous(beta, t, C, use_exact_radius=False):
    """2-D Gauss-Legendre quadrature of the plain joint series against the
    tilt, with no closed form: r over [r_lo, 4 c** t + 12 sqrt(t)] (the
    tilted range has no mass left past it), x = r - s over the gap s in
    [0, min(r, 30 t/r + 4 sqrt(t))], and a panel edge at every level's clip
    in both r and s, so no panel holds a kink or a jump.  r_lo is the
    production window's start or 0.3 sqrt(t), whichever is larger: below
    0.3 sqrt(t) the plain series cancels to ~1e-14 noise, and the wedge left
    out holds at most P(R_t < 0.3 sqrt(t)) ~ exp(-pi^2/0.18)."""
    c = continuous_constants(beta).c_dstar
    st_ = math.sqrt(t)
    r_lo = max(_window(beta, t, use_exact_radius).lo, 0.3) * st_
    r_top = 4.0 * c * t + 12.0 * st_
    x_cuts = [c * t + level * st_ / math.sqrt(3.0) for level in C]
    r_edges = sorted({r_lo, r_top, *(x for x in x_cuts if r_lo < x < r_top)})
    num = [0.0] * len(x_cuts)
    den = 0.0
    for a, b in zip(r_edges, r_edges[1:]):
        R, WR = _panels(a, b, 0.25 * st_)
        weights = WR * np.exp(_oracle_tilt_exponent(beta, t, R, use_exact_radius))
        for r_val, weight in zip(R, weights):
            s_max = min(r_val, 30.0 * t / r_val + 4.0 * st_)
            s_edges = sorted({0.0, s_max,
                              *(r_val - x for x in x_cuts if 0.0 < r_val - x < s_max)})
            for s0, s1 in zip(s_edges, s_edges[1:]):
                S, WS = _panels(s0, s1, 0.5 * min(t / r_val, st_))
                h, _, _ = _oracle_joint_series_scaled(t, r_val - S, np.float64(r_val))
                part = weight * float(np.dot(WS, h))
                den += part
                for i, x_cut in enumerate(x_cuts):
                    if s0 >= r_val - x_cut:  # the whole segment has x <= x_cut
                        num[i] += part
    return [n / den for n in num]


def _oracle_tilt_exponent(beta, t, r, use_exact_radius=False):
    """-beta t^2/rho - r^2/2t - g** t, rho = r + 2 or r."""
    rho = r + 2.0 if use_exact_radius else r
    return -beta * t * t / rho - np.square(r) / (2.0 * t) \
        - continuous_constants(beta).g_dstar * t


def _assert_same_series(args, rel=2e-12):
    """Type, shape and term count as the oracle's, values within
    rel * max(1, max |oracle|): the two forms round differently."""
    got = _joint_series_scaled(*args)
    want = _oracle_joint_series_scaled(*args)
    assert type(got[0]) is type(want[0])
    assert np.shape(got[0]) == np.shape(want[0])
    assert type(got[1]) is float
    assert got[2] == want[2]
    scale = max(1.0, float(np.max(np.abs(want[0]))))
    assert float(np.max(np.abs(got[0] - want[0]))) <= rel * scale
    return got


def _block_args(t, x, r, k):
    """Exp arguments of both branches of block k, as ``_joint_blocks`` forms them."""
    u, v = r / math.sqrt(t), x / math.sqrt(t)
    lo, hi = (2 * k - 1) * u, (2 * k + 1) * u
    return [-0.5 * (lo - sign * v) * (hi - sign * v) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("t", [1.0, 10.0, 40.0, 160.0, 640.0])
class TestJointSeriesMatchesOracle:
    def test_endpoint_nodes_bitwise(self, t):
        """The (x, r) node sets of a 2-D endpoint quadrature, from the cutoff
        to r where the tilt weight is 0.0: live, subnormal-band and all-dead
        blocks, each summed to the oracle's term count."""
        beta = 1.0
        c = continuous_constants(beta).c_dstar
        r_lo = 0.5 * c * t
        # the weight exp(-beta t^2/r - r^2/2t - g t) is 0.0 once r^2/2t > ~745
        r_top = max(4.0 * c * t, 1.25 * math.sqrt(1500.0 * t))
        R, _ = _panels(r_lo, r_top, 0.25 * math.sqrt(t))
        seen = {"dead_block": 0, "subnormal": 0, "zero_weight": 0}
        for r_val in R[::max(1, len(R) // 60)]:
            gap_scale = min(t / r_val, math.sqrt(t))
            s_max = min(r_val, 30.0 * t / r_val + 4.0 * math.sqrt(t))
            S, _ = _panels(0.0, s_max, 0.5 * gap_scale)
            xk = (r_val - S)[r_val - S > 0.0]
            terms = _assert_same_series((t, xk, np.float64(r_val)))[2]
            args = [a for k in range(1, terms + 1) for a in _block_args(t, xk, r_val, k)]
            seen["subnormal"] += any(np.any((a > _EXP_ZERO) & (np.exp(a) < 2.3e-308))
                                     for a in args)
            seen["dead_block"] += terms >= 2 and max(a.max() for a in args[-2:]) <= _EXP_ZERO
            seen["zero_weight"] += math.exp(float(
                _oracle_tilt_exponent(beta, t, np.float64(r_val)))) == 0.0
        assert min(seen.values()) > 0, seen

    def test_broadcast_grids_bitwise(self, t):
        st_ = math.sqrt(t)
        x = np.linspace(0.01 * st_, 3.0 * st_, 37)[:, None]
        r = np.linspace(0.05 * st_, 8.0 * st_, 41)[None, :]
        for args in [(t, x[:, 0], np.float64(2.0 * st_)),
                     (t, np.array([0.5 * st_]), np.array([st_])), (t, 0.3 * st_, st_)]:
            _assert_same_series(args)
        # off the wedge at (u, v) = (0.05, 2.5) both forms sum O(1e4) terms to
        # a true 1e-57 and are rounding noise: 2.4e-12 and 3.3e-12 of the
        # scale apart at t = 1 and 10
        _assert_same_series((t, x, r), rel=1e-11)
        X, R = np.broadcast_arrays(x, r)
        X, R = X[X < R], R[X < R]
        want = _oracle_joint_series_scaled(t, X, R)[0] * np.exp(-np.square(R) / (2.0 * t))
        np.testing.assert_allclose(joint_density(t, X, R).value, want, rtol=0.0,
                                   atol=1e-11 * max(1.0, float(np.max(np.abs(want)))))


@pytest.mark.parametrize("args", [
    (1.0, np.array([5.0, 9.0, 30.0, 60.0]), np.float64(1.0)),  # x > 2kr
    (1.0, np.array([-5.0, -30.0, 0.2]), np.float64(1.0)),
    (1.0, np.array([0.5, 0.9]), np.array([1.0, -1.0])),
    (2.0, np.array([1e-300, 3.0]), np.float64(3.0)),
    (1e-250, np.array([0.3, 0.5]), np.float64(1.0)),  # t^(3/2) underflows to 0
    (1e-3, np.array([0.01, 0.02]), np.float64(0.03)),
    (1.0, np.array([0.5, 0.7, 39.0]), np.float64(40.0)),  # mostly dead from k = 1
])
def test_joint_series_off_the_wedge_matches_oracle(args):
    """Outside 0 < x < r (where joint_density refuses) the kernel must
    match the oracle too.  Where the oracle's t^(3/2) underflows, its
    0 * inf is NaN; u and v stay finite, and the kernel reads 0.0 there."""
    with np.errstate(all="ignore"):
        if args[0] == 1e-250:
            assert np.isnan(_oracle_joint_series_scaled(*args)[0]).all()
            assert _joint_series_scaled(*args)[0].tolist() == [0.0, 0.0]
        else:
            _assert_same_series(args)


def _mp_joint_series_scaled(t, x, r, blocks=None):
    """h(x, r) exp(r^2/2t) at 60 digits from the same float t, x and r: the
    first ``blocks`` blocks, or all of them until one is below 1e-75 of the
    partial sum."""
    import mpmath as mp

    with mp.workdps(60):
        t = mp.mpf(t)
        u, v = mp.mpf(r) / mp.sqrt(t), mp.mpf(x) / mp.sqrt(t)
        total, k = mp.mpf(0), 0
        while True:
            k += 1
            zm, zp = 2 * k * u - v, 2 * k * u + v
            em, ep = mp.exp(-(zm - u) * (zm + u) / 2), mp.exp(-(zp - u) * (zp + u) / 2)
            block = (4 * k * k * (u - v) * ((zm ** 2 - 1) * em + (zp ** 2 - 1) * ep)
                     + 4 * k * (k - 1) * zm * em - 4 * k * (k + 1) * zp * ep)
            total += block
            if k == blocks or blocks is None and abs(block) < mp.mpf(10) ** -75 * abs(total):
                return total / (t * mp.sqrt(2 * mp.pi))


@pytest.mark.parametrize("t", [1.0, 40.0, 640.0])
@pytest.mark.parametrize("u", [0.7, 1.0, 2.0, 4.0, 8.0, 12.0, 24.0])
def test_joint_series_matches_a_60_digit_sum(t, u):
    """Above u ~ 0.6; below it the series cancels (see ``joint_density``)."""
    st_ = math.sqrt(t)
    for frac in (0.25, 0.5, 0.9):
        x, r = frac * u * st_, u * st_
        [got], _, _ = _joint_series_scaled(t, np.array([x]), np.array([r]))
        assert got == pytest.approx(float(_mp_joint_series_scaled(t, x, r)),
                                    rel=1e-11, abs=0.0)


@pytest.mark.parametrize("lam", [1e-4, 1e4])
def test_joint_bound_scales_like_the_value(lam):
    """h(x, r) at lam t is h(x/sqrt(lam), r/sqrt(lam)) / lam, and so is the
    bound; it used to read the same at every t."""
    for x, r in [(0.5, 1.0), (0.3, 0.7), (1.0, 4.0)]:
        ref = joint_density(1.0, x, r)
        got = joint_density(lam, math.sqrt(lam) * x, math.sqrt(lam) * r)
        assert got.terms_used == ref.terms_used
        want = ref.truncation_bound
        assert got.truncation_bound * lam == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("u", [0.7, 1.0, 2.0, 4.0])
def test_joint_bound_covers_the_60_digit_remainder(t, u):
    import mpmath as mp

    st_ = math.sqrt(t)
    for frac in (0.25, 0.5, 0.9):
        x, r = frac * u * st_, u * st_
        se = joint_density(t, x, r)
        rest = _mp_joint_series_scaled(t, x, r) \
            - _mp_joint_series_scaled(t, x, r, blocks=se.terms_used)
        assert se.truncation_bound >= float(abs(rest) * mp.exp(-mp.mpf(u) ** 2 / 2))


@pytest.mark.parametrize("x, r", [(1e153, 5e153), (3e153, 1e154)])
def test_joint_density_at_t_1e308_is_the_unit_density_rescaled(x, r):
    """u = 0.5 and 1: the a^2 form raised DomainError at both, the first
    after RuntimeWarnings, and exp(-r^2/2t) read 1.0 once 2t overflowed."""
    st_ = math.sqrt(1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = joint_density(1e308, x, r)
    want = joint_density(1.0, x / st_, r / st_).value * 1e-308
    assert math.isfinite(got.value)
    assert got.value == pytest.approx(want, rel=1e-9, abs=0.0)


# sha256 of ``_joint_cdf_series_scaled`` over a (u, v) grid, off the wedge
# included: the endpoint CDF's kernel keeps its bits.
_CDF_KERNEL_SHA256 = {
    1.0: "32e028e16f068fd2346a5cfd9a22b906c185cf4db3fa98ce0136c2bffdb8a13b",
    40.0: "c21334a22bdf46ff3a4dca50f8370c399c6043a4000e677b8049bb8e5f6c764d",
    640.0: "7c71e23ee8d167b6470db6948d679be1076c96355291ba1c35fe683d4a1bc298",
}


@pytest.mark.parametrize("t", sorted(_CDF_KERNEL_SHA256))
def test_joint_cdf_kernel_keeps_its_bits(t):
    st_ = math.sqrt(t)
    u = np.linspace(0.3, 9.0, 59)[None, :]
    v = np.linspace(0.0, 9.0, 61)[:, None]
    got = _joint_cdf_series_scaled(t, v * st_, u * st_)
    assert hashlib.sha256(got.tobytes()).hexdigest() == _CDF_KERNEL_SHA256[t]


# The closed-form x-integral of the joint density and the endpoint CDF
# built on it, against the plain series and the 2-D oracle.  Below
# u = r/sqrt(t) ~ 1 both series cancel to ~1e-15 absolute, so the relative
# checks start at u = 1.

@pytest.mark.parametrize("t", [1.0, 40.0, 640.0])
@pytest.mark.parametrize("u", [1.0, 1.7, 3.0, 5.0, 9.0])
def test_joint_cdf_differences_integrate_the_joint_density(t, u):
    st_ = math.sqrt(t)
    r = u * st_
    for a, b in [(0.0, r), (0.3 * r, 0.9 * r), (0.9 * r, r), (0.0, 0.5 * r)]:
        X, W = gauss_legendre_panels(a, b, 0.25 * min(t / r, st_), 32)
        want = math.fsum(W * joint_density(t, X, r).value)
        ends = _joint_cdf_series_scaled(t, np.array([b, a]), np.float64(r))
        got = (ends[0] - ends[1]) * math.exp(-r * r / (2.0 * t))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (a, b)


@pytest.mark.parametrize("t", [1.0, 40.0, 640.0])
def test_joint_cdf_over_the_wedge_is_half_the_range_density(t):
    """P(B_t > 0 | R_t = r) = 1/2, so A(r; r) - A(0; r) = f_R(r)/2."""
    r = np.linspace(1.0, 9.0, 81) * math.sqrt(t)
    half = (_joint_cdf_series_scaled(t, r, r) - _joint_cdf_series_scaled(t, 0.0, r)) \
        * np.exp(-np.square(r) / (2.0 * t))
    np.testing.assert_allclose(half, range_density(t, r).value / 2.0, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("t", [4.0, 10.0, 40.0, 160.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("exact_radius", [False, True])
def test_endpoint_cdf_matches_the_2d_oracle(t, beta, exact_radius):
    got = endpoint_clt_continuous(beta, t, _ORACLE_LEVELS, use_exact_radius=exact_radius)
    want = _oracle_endpoint_clt_continuous(beta, t, _ORACLE_LEVELS, exact_radius)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


_ORDER_TS = (40.0, 160.0, 640.0)


@pytest.mark.parametrize(
    "fn, t", [(endpoint_clt_continuous, t) for t in _ORDER_TS]
    + [(range_second_order_cdf, t) for t in _ORDER_TS],
    ids=[str(t) for t in _ORDER_TS] + [f"range-{t}" for t in _ORDER_TS])
def test_endpoint_cdf_is_converged_in_the_order(fn, t, monkeypatch):
    """Both CLTs; their one window has no kink inside a panel."""
    levels = [-2.0, -1.0, 0.0, 1.0, 2.0]
    at_16 = fn(1.0, t, levels)
    _at_order(monkeypatch, 32)
    at_32 = fn(1.0, t, levels)
    np.testing.assert_allclose(at_32, at_16, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("beta, t", [(0.1, 1.0), (1.0, 0.25), (0.001, 4.0)])
def test_endpoint_window_extends_past_the_saddle_window(beta, t):
    """At small beta^(1/3) sqrt(t) the tilted range still has mass past
    4 c** t; stopping there read F(0) = 0.4577 at (0.1, 1) for 0.3528."""
    [got] = endpoint_clt_continuous(beta, t, [0.0])
    [want] = _oracle_endpoint_clt_continuous(beta, t, [0.0])
    assert got == pytest.approx(want, rel=0.0, abs=1e-10)


def test_endpoint_cdf_at_a_small_window_matches_the_2d_oracle():
    """Below u ~ 0.3 the difference A(r; r) - A(0; r) cancels to ~1e-13
    noise; reading f_R/2 from the range kernel there took the gap to the
    2-D oracle at (0.001, 4) from 8.3e-14 to a few ulps."""
    levels = [-1.0, 0.0, 1.0]
    got = endpoint_clt_continuous(0.001, 4.0, levels)
    want = _oracle_endpoint_clt_continuous(0.001, 4.0, levels)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
