"""Tests for the exact finite-n machinery.

The central property is the oracle chain: brute-force enumeration, the
reflection-series aggregation and a (position, min, max) dynamic program are
three independent computations of the same table and must agree entrywise.
All three use exact integer counts, so the agreement demanded here is exact,
well inside the 1e-12 contract.
"""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangepolymer import (
    DomainError,
    ResourceCapError,
    clt_check,
    free_energy_g_star,
    joint_law_exact,
    ldp_empirical,
    ldp_rate_discrete_info,
    polymer_law,
    speed_c_star,
    tilde_c_d,
)
from rangepolymer import exact
from rangepolymer.exact import (
    _CSV_SLICE,
    JointEndpointRangeLaw,
    _format_17g,
    _ks_distance,
    _window_site,
)

from oracles import (
    _convolve_final_step,
    _law_from_counts,
    _oracle_law_csv,
    endpoint_variance_conditional,
    enumerate_joint_law,
    joint_law_dp,
    range_marginal,
    reflection_min_max_endpoint,
)

C_STAR_1 = 0.86833203774014073374
G_STAR_1 = -1.6020534482122631031


def _as_dict(law):
    return {(x, r): p for x, r, p in law.entries()}


def _max_entry_diff(a, b):
    da, db = _as_dict(a), _as_dict(b)
    keys = set(da) | set(db)
    return max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)


class TestOracleChain:
    @pytest.mark.parametrize("n", list(range(1, 17)))
    def test_three_routes_agree(self, n):
        enum = enumerate_joint_law(n)
        refl = joint_law_exact(n)
        dp = joint_law_dp(n)
        assert _max_entry_diff(enum, refl) <= 1e-12
        assert _max_entry_diff(enum, dp) <= 1e-12

    @pytest.mark.parametrize("n", [19, 20])
    def test_enumeration_vs_reflection_beyond_sixteen(self, n):
        assert _max_entry_diff(enumerate_joint_law(n), joint_law_exact(n)) <= 1e-12

    def test_partition_values_agree(self):
        for beta in (0.1, 1.0, 5.0):
            for n in (6, 11, 16):
                z_enum = math.fsum(
                    p * math.exp(-beta * n * n / r)
                    for _, r, p in enumerate_joint_law(n).entries()
                )
                z_refl = polymer_law(beta, n).partition_value
                assert abs(z_enum - z_refl) <= 1e-12


class TestEnumeration:
    def test_n1_single_site(self):
        law = _as_dict(enumerate_joint_law(1))
        assert law == {(1, 1): 0.5, (-1, 1): 0.5}

    def test_n2_hand_values(self):
        law = _as_dict(enumerate_joint_law(2))
        assert law == {(-2, 2): 0.25, (0, 2): 0.5, (2, 2): 0.25}

    def test_n3_range_marginal(self):
        marg = range_marginal(enumerate_joint_law(3))
        assert marg[2] == pytest.approx(0.5, abs=1e-15)
        assert marg[3] == pytest.approx(0.5, abs=1e-15)

    def test_refuses_large_n(self):
        with pytest.raises(ResourceCapError):
            enumerate_joint_law(25)


class TestReflection:
    def test_two_step_corner_cases(self):
        assert reflection_min_max_endpoint(2, 0, 2, 2) == 0.25  # the ++ path
        assert reflection_min_max_endpoint(2, 0, 1, 0) == 0.25  # the +- path
        assert reflection_min_max_endpoint(2, -1, 0, 0) == 0.25  # the -+ path

    def test_parity_zero(self):
        assert reflection_min_max_endpoint(5, -1, 2, 0) == 0.0
        assert reflection_min_max_endpoint(4, -2, 3, 1) == 0.0

    def test_totals_one(self):
        n = 9
        total = math.fsum(
            reflection_min_max_endpoint(n, L, U, X)
            for L in range(-n, 1)
            for U in range(0, n + 1)
            if L < U
            for X in range(L, U + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_min_max_dp(self):
        # independent dynamic program over (pos, min, max) for the full walk
        n = 8
        states = {(0, 0, 0): 1}
        for _ in range(n):
            nxt = {}
            for (pos, mn, mx), c in states.items():
                for step in (-1, 1):
                    q = pos + step
                    key = (q, min(mn, q), max(mx, q))
                    nxt[key] = nxt.get(key, 0) + c
            states = nxt
        for (pos, mn, mx), c in states.items():
            got = reflection_min_max_endpoint(n, mn, mx, pos)
            assert got == pytest.approx(math.ldexp(c, -n), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reflection_min_max_endpoint(4, 1, 3, 2)  # L > 0
        with pytest.raises(DomainError):
            reflection_min_max_endpoint(4, -1, -1, 0)  # L == U
        with pytest.raises(DomainError):
            reflection_min_max_endpoint(4, -1, 2, 3)  # X outside

    @given(st.integers(min_value=1, max_value=30), st.data())
    def test_always_a_probability(self, n, data):
        L = data.draw(st.integers(min_value=-n - 2, max_value=0))
        U = data.draw(st.integers(min_value=max(L + 1, 0), max_value=n + 2))
        X = data.draw(st.integers(min_value=L, max_value=U))
        p = reflection_min_max_endpoint(n, L, U, X)
        assert 0.0 <= p <= 1.0


class TestJointLawExact:
    def test_endpoint_marginal_is_binomial(self):
        for n in (7, 40, 123):
            atoms, probs = joint_law_exact(n).endpoint_marginal()
            for x, p in zip(atoms.tolist(), probs.tolist()):
                expected = math.ldexp(float(math.comb(n, (n + x) // 2)), -n)
                assert p == pytest.approx(expected, abs=1e-15)

    def test_support_and_mass(self):
        law = joint_law_exact(31)
        assert math.fsum(law.ps.tolist()) == pytest.approx(1.0, abs=1e-12)
        for x, r, p in law.entries():
            assert abs(x) <= 31 and 1 <= r <= 31
            assert (x - 31) % 2 == 0
            assert p > 0.0

    def test_endpoint_symmetry(self):
        atoms, probs = joint_law_exact(44).endpoint_marginal()
        assert np.array_equal(atoms, -atoms[::-1])
        for p, q in zip(probs.tolist(), probs[::-1].tolist()):
            assert p == pytest.approx(q, abs=1e-16)

    def test_cap(self):
        # the size cap is the exact command's input check, not the library's
        assert joint_law_exact(601).n == 601
        with pytest.raises(DomainError):
            joint_law_exact(0)

    def test_stirling_decay_rate(self):
        # -(1/n) log P(R_n = rn, S_n = xn) approaches I(2r - x) with an
        # O(log n / n) prefactor; checked as a slope, never used to compute
        def slope_gap(n, rf, xf):
            x0 = 2 * round(xf * n / 2)
            r0 = round(rf * n)
            p = _as_dict(joint_law_exact(n)).get((x0, r0), 0.0)
            target = 0.5 * (1 + 2 * r0 / n - x0 / n) * math.log1p(2 * r0 / n - x0 / n) \
                + 0.5 * (1 - 2 * r0 / n + x0 / n) * math.log1p(-(2 * r0 / n - x0 / n))
            return abs(-math.log(p) / n - target)

        for rf, xf in [(0.6, 0.4), (0.7, 0.5), (0.5, 0.3)]:
            assert slope_gap(400, rf, xf) <= 0.03
            assert slope_gap(400, rf, xf) < slope_gap(200, rf, xf)


def _dict_prefix_counts(m):
    """Reference builder: the reflection aggregation over dicts of exact ints.

    Exact counts over (range r, endpoint X) for the m-step walk S_0..S_m,
    image by image and entry by entry, as the library computed them before
    it streamed dense rows.
    """
    if m == 0:
        return {(1, 0): 1}
    N = [0] * (2 * m + 1)  # N[y + m]: m-step paths ending at y
    for j in range(m + 1):
        N[2 * j] = math.comb(m, j)
    total = 1 << m
    par = m % 2
    g_prev2: dict[int, int] = {}
    g_prev1: dict[int, int] = {}
    counts: dict[tuple[int, int], int] = {}
    for s in range(m + 1):
        W = s + 2
        lim = min(s, m)
        B: dict[int, int] = {}
        for y in range(-lim, lim + 1):
            if (y - par) % 2:
                continue
            acc = 0
            k = -((m + y) // (2 * W))
            top = (m - y) // (2 * W)
            while k <= top:
                z = y + 2 * k * W
                if -m <= z <= m:
                    acc += N[z + m]
                k += 1
            B[y] = acc
        # symmetric prefix sums T(q) = sum over |y| <= q of B(y)
        T: dict[int, int] = {}
        if par == 0:
            run = B.get(0, 0)
            T[0] = run
            for q in range(2, lim + 1, 2):
                run += B.get(q, 0) + B.get(-q, 0)
                T[q] = run
        else:
            run = 0
            for q in range(1, lim + 1, 2):
                run += B.get(q, 0) + B.get(-q, 0)
                T[q] = run
        g_cur: dict[int, int] = {}
        for X, bX in B.items():
            g_cur[X] = (s - abs(X) + 1) * bX + T[abs(X)] - total
        for X, g in g_cur.items():
            c = g - 2 * g_prev1.get(X, 0) + g_prev2.get(X, 0)
            if c:
                counts[(s + 1, X)] = c
        g_prev2, g_prev1 = g_prev1, g_cur
    return counts


def _dict_law(n):
    return _law_from_counts(n, _convolve_final_step(_dict_prefix_counts(n - 1)))


def _dict_marginal(law, axis):
    out = {}
    for entry in law.entries():
        out[entry[axis]] = out.get(entry[axis], 0.0) + entry[2]
    return out


class TestRowBuilderMatchesDictOracle:
    """The row-streaming builder is bitwise the dict aggregation it replaced."""

    @pytest.mark.parametrize("n", list(range(1, 65)) + [150, 301])
    def test_table_bitwise(self, n):
        got, ref = joint_law_exact(n), _dict_law(n)
        assert np.array_equal(got.xs, ref.xs)
        assert np.array_equal(got.rs, ref.rs)
        assert got.ps.tobytes() == ref.ps.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 17, 150])
    def test_marginals_bitwise(self, n):
        def endpoint_dict(law):
            return dict(zip(*(a.tolist() for a in law.endpoint_marginal())))

        law = joint_law_exact(n)
        assert endpoint_dict(law) == _dict_marginal(law, 0)
        assert range_marginal(law) == _dict_marginal(law, 1)
        tilted = polymer_law(1.0, n).tilted
        assert endpoint_dict(tilted) == _dict_marginal(tilted, 0)
        assert range_marginal(tilted) == _dict_marginal(tilted, 1)

    @pytest.mark.parametrize("n, digest", [
        # m odd: the x = 0 column holds 2 c(1)
        (1000, "8394d27cfe2bf69637169b0c68d2079f938ab4bb644c21a6b3b72d16a07d0bc7"),
        # m even: the largest n that builds, with counts nearest 2^1024
        (1033, "c6d62499a7e33080496faf8cdb5dcbc872058799af25b4c86607c939a38e2daf"),
    ])
    def test_large_tables_keep_their_bytes(self, n, digest):
        law = joint_law_exact(n)
        blob = law.xs.tobytes() + law.rs.tobytes() + law.ps.tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_overflow_past_double_range_is_a_cap_error(self):
        with pytest.raises(ResourceCapError, match="double range"):
            joint_law_exact(1034)

    def test_certain_overflow_fails_before_any_build(self, monkeypatch):
        # 2^n paths in at most n (n + 1) cells: some count passes 2^1024
        # once n - bit_length(n (n + 1)) >= 1024, first at n = 1045
        def no_build(n):
            raise AssertionError(f"built n={n}")

        monkeypatch.setattr("rangepolymer.exact._exact_law_cached", no_build)
        for n in (1045, 20000, 10**9):
            with pytest.raises(ResourceCapError, match="double range"):
                joint_law_exact(n)
        with pytest.raises(AssertionError, match="built n=1044"):
            joint_law_exact(1044)


class TestPolymerLaw:
    def test_overflowing_beta_n_squared_fails_before_any_build(self, monkeypatch):
        # beta n^2 = inf would make every log-weight -inf and Z NaN
        def no_build(n):
            raise AssertionError(f"built n={n}")

        monkeypatch.setattr("rangepolymer.exact._exact_law_cached", no_build)
        for beta, n in ((2e304, 400), (1e307, 10), (1e307, 5), (1.7e308, 2)):
            with pytest.raises(DomainError, match="overflows"):
                polymer_law(beta, n)

    def test_finite_beta_n_squared_near_the_edge_still_tilts(self):
        # 1e307 * 3^2 is finite: all the mass sits at r = n, with finite log Z
        law = polymer_law(1e307, 3)
        assert math.isfinite(law.log_partition)
        assert set(law.tilted.rs[law.tilted.ps > 0].tolist()) == {3}

    def test_zero_beta_reproduces_base_law_exactly(self):
        base = joint_law_exact(12)
        tilted = polymer_law(0.0, 12).tilted
        assert _max_entry_diff(base, tilted) == 0.0

    def test_z3_closed_form(self):
        for beta in (0.2, 1.0, 3.0):
            z = polymer_law(beta, 3).partition_value
            closed = 0.5 * math.exp(-3.0 * beta) + 0.5 * math.exp(-4.5 * beta)
            assert z == pytest.approx(closed, rel=1e-14)

    def test_z2_closed_form(self):
        assert polymer_law(1.0, 2).partition_value == pytest.approx(
            math.exp(-2.0), rel=1e-14)

    def test_tilted_law_normalized(self):
        pl = polymer_law(1.0, 60)
        assert math.fsum(pl.tilted.ps.tolist()) == pytest.approx(1.0, abs=1e-10)

    def test_partition_bounds_small_n(self):
        # one self-avoiding path gives Z >= e^{-beta n} 2^{-n}; the
        # small-range event is crushed below e^{-(beta + log 2) n}
        for beta in (0.5, 1.0, 2.0):
            for n in (8, 16, 24):
                pl = polymer_law(beta, n)
                lower = math.exp(-beta * n) * math.ldexp(1.0, -n)
                assert pl.partition_value >= lower
                ct = tilde_c_d(beta, 1)
                small = math.fsum(
                    p * math.exp(-beta * n * n / r)
                    for _, r, p in joint_law_exact(n).entries()
                    if r < ct * n
                )
                assert small <= math.exp(-(beta + math.log(2.0)) * n) + 1e-300

    def test_conditional_mean_near_speed(self):
        pl = polymer_law(1.0, 400)
        mean = pl.endpoint_mean_conditional() / 400.0
        assert abs(mean - C_STAR_1) <= 0.02

    def test_conditional_variance_near_sigma_star(self):
        target = free_energy_g_star(1.0).sigma_star ** 2
        ratios = {}
        for n in (100, 400):
            var_n = endpoint_variance_conditional(polymer_law(1.0, n)) / n
            ratios[n] = var_n / target
        assert abs(ratios[400] - 1.0) <= 0.15
        assert abs(ratios[400] - 1.0) < abs(ratios[100] - 1.0)

    @pytest.mark.parametrize("n", [10, 201, 600])
    def test_storage_order_makes_conditional_endpoints_sorted(self, n):
        """endpoint_conditional_positive sums each atom in the storage order,
        x ascending then r ascending; it must match the entry-by-entry
        running sums, normalized."""
        pl = polymer_law(1.0, n)
        xs, rs = pl.tilted.xs, pl.tilted.rs
        assert np.all(np.diff(xs) >= 0)
        same_x = xs[1:] == xs[:-1]
        assert np.all(rs[1:][same_x] > rs[:-1][same_x])
        marg = _dict_marginal(pl.tilted, 0)
        uq = np.array([x for x in sorted(marg) if x > 0])
        sums = np.array([marg[x] for x in uq.tolist()])
        atoms, probs = pl.endpoint_conditional_positive()
        assert atoms.tobytes() == uq.tobytes()
        assert probs.tobytes() == (sums / sums.sum()).tobytes()


def _assert_endpoint_mean_increases_in_range(law):
    """m(r) = E[S_n | R_n = r, S_n > 0] is non-decreasing in r = 2 .. n.

    The sums over r are storage-order ``np.bincount`` sums, as in
    ``endpoint_marginal``.  The only tie is m(2) = m(3) = 2 at even n, where
    S_n > 0 with R_n <= 3 forces S_n = 2; every other step must be at least
    1/n.  m is below n and its sums carry a relative error below n eps, so
    the rounding of m is under 1e-10 at n <= 300 and under 1e-9 at
    n <= 1033, far inside that margin.  (A probability below 2^-1022, from
    n = 1023 on, is a count times 2^-n, an exact multiple of 2^-1074.)
    """
    n = law.n
    pos = law.xs > 0
    M = np.bincount(law.rs[pos], weights=(law.xs * law.ps)[pos])
    P = np.bincount(law.rs[pos], weights=law.ps[pos])
    r = np.flatnonzero(P)
    assert r.tolist() == list(range(2, n + 1))
    m = M[r] / P[r]
    steps = np.diff(m)
    if n % 2 == 0:
        assert m[0] == m[1] == 2.0
        steps = steps[1:]
    assert steps.min() >= 1.0 / n


class TestEndpointMeanIncreasesInBeta:
    """The tilt depends on R_n only, so at every beta

        d/dbeta E_beta[S_n | S_n > 0] = -n^2 Cov_beta(m(R_n), 1/R_n | S_n > 0)

    with the beta-free m(r) = E[S_n | R_n = r, S_n > 0].  A non-decreasing,
    non-constant m makes the covariance negative (Chebyshev's sum
    inequality), so the conditional endpoint mean strictly increases in beta.
    """

    def test_every_n_up_to_300(self):
        for n in range(3, 301):
            _assert_endpoint_mean_increases_in_range(joint_law_exact(n))

    @pytest.mark.slow
    def test_every_n_up_to_1033(self):
        for n in range(3, 1034):
            _assert_endpoint_mean_increases_in_range(joint_law_exact(n))

    def test_control_two_range_rows_swapped_fails(self):
        with pytest.raises(AssertionError):
            _assert_endpoint_mean_increases_in_range(_swap_range_rows(joint_law_exact(50)))

    @pytest.mark.parametrize("n", [5, 6, 11, 30, 50, 101, 200])
    def test_adjacent_range_rows_are_tp2(self, n):
        # with the TP2 tilt e^(-beta n^2/r), P_beta(S_n > x | S_n > 0) is
        # non-decreasing in beta for every x (Karlin's composition formula)
        _assert_adjacent_range_minors_nonnegative(joint_law_exact(n))

    @pytest.mark.parametrize("n", [50, 101])
    def test_tp2_control_two_range_rows_swapped_fails(self, n):
        with pytest.raises(AssertionError, match="negative minor"):
            _assert_adjacent_range_minors_nonnegative(_swap_range_rows(joint_law_exact(n)))


def _swap_range_rows(law, r=20):
    """The law with range rows r and r + 1 swapped."""
    rs = np.where(law.rs == r, r + 1, np.where(law.rs == r + 1, r, law.rs))
    return law._replace(rs=rs)


def _assert_adjacent_range_minors_nonnegative(law):
    """p(x, r) p(x', r + 1) - p(x', r) p(x, r + 1) >= 0 for 0 < x < x' and
    r = 1 .. n - 1: given R_n = r, S_n on S_n > 0 is likelihood-ratio
    increasing in r.

    At n <= 50 every count 2^n p is below 2^53, so ``np.ldexp(ps, n)`` holds
    it exactly and the minors are formed in Python ints.  Above, in floats,
    each product is within 3 roundings of its exact value, so a minor m
    passes when m >= -4 2^-53 (p(x, r) p(x', r + 1) + p(x', r) p(x, r + 1)).
    """
    n = law.n
    pos = law.xs > 0
    exact = n <= 50
    table = np.zeros((n + 1, n + 1), dtype=object if exact else float)  # [x, r]
    ps = law.ps[pos]
    if exact:
        ps = np.ldexp(ps, n)
        assert np.array_equal(ps, np.floor(ps))
        ps = ps.astype(np.int64).astype(object)
    table[law.xs[pos], law.rs[pos]] = ps
    upper = np.triu_indices(n + 1, 1)  # x < x'
    for r in range(1, n):
        prod = np.outer(table[:, r], table[:, r + 1])
        left, right = prod[upper], prod.T[upper]  # p(x, r) p(x', r + 1), p(x', r) p(x, r + 1)
        floor = 0 if exact else -4.0 * 2.0 ** -53 * (left + right)
        assert np.all(left - right >= floor), f"negative minor at n={n}, r={r}"


class TestFreeEnergy:
    def test_converges_to_g_star(self):
        seq = {n: polymer_law(1.0, n).log_partition / n for n in (100, 400)}
        assert abs(seq[400] - G_STAR_1) <= 0.03
        assert abs(seq[400] - G_STAR_1) < abs(seq[100] - G_STAR_1)

    def test_tiny_beta_near_zero(self):
        fe = polymer_law(1e-6, 100).log_partition / 100
        assert abs(fe) <= 1e-3


class TestCltCheck:
    def test_plain_walk_sanity(self):
        assert clt_check(polymer_law(0.0, 400)) <= 0.05

    def test_decreasing_in_n(self):
        for beta in (0.5, 1.0):
            assert clt_check(polymer_law(beta, 400)) < clt_check(polymer_law(beta, 100))


class TestLdpEmpirical:
    def test_rate_vanishes_at_speed(self):
        c = speed_c_star(1.0).value
        (_, rate), = ldp_empirical(polymer_law(1.0, 400), [c])
        assert rate <= 0.02

    def test_matches_rate_function(self):
        for theta in (0.5, 0.95):
            (_, emp), = ldp_empirical(polymer_law(1.0, 400), [theta])
            assert abs(emp - ldp_rate_discrete_info(1.0, [theta])[0][0]) <= 0.05

    def test_first_branch_formula_at_095(self):
        (_, emp), = ldp_empirical(polymer_law(1.0, 400), [0.95])
        direct = 1.0 / 0.95 + (
            0.5 * 1.95 * math.log(1.95) + 0.5 * 0.05 * math.log(0.05)
        ) + free_energy_g_star(1.0).g_star
        assert abs(emp - direct) <= 0.05

    def test_windows_are_parity_sites(self):
        # every theta in [0, 1] maps to a reachable parity site, so rates stay finite
        rates = ldp_empirical(polymer_law(1.0, 50), [0.0, 0.37, 0.5, 1.0])
        assert all(math.isfinite(r) for _, r in rates)
        # theta = 1 pins the straight path: P = tilted weight of (n, n)
        law = polymer_law(1.0, 50)
        xs, ps = law.endpoint_conditional_positive()
        straight = float(ps[xs == 50][0])
        assert rates[-1][1] == pytest.approx(-math.log(straight) / 50.0, rel=1e-12)

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            ldp_empirical(polymer_law(1.0, 20), [1.2])

    @pytest.mark.parametrize("beta", [1.0, 17.0, 17.5, 19.0])
    def test_windows_below_the_normal_doubles_take_the_log_space_mass(self, beta):
        # the tilted P(S_50 = 2 | S_50 > 0) is a normal double at beta = 1,
        # subnormal at 17 and 17.5 (33 significant bits and 2) and 0 at 19
        import mpmath as mp

        base = joint_law_exact(50)
        pos = base.xs > 0
        with mp.workdps(40):
            w = [mp.mpf(float(p)) * mp.exp(-mp.mpf(beta) * 2500 / int(r))
                 for p, r in zip(base.ps[pos], base.rs[pos])]
            at_2 = mp.fsum(wi for wi, x in zip(w, base.xs[pos]) if x == 2)
            ref = -mp.log(at_2 / mp.fsum(w)) / 50
        rate = ldp_empirical(polymer_law(beta, 50), [0.0])[0][1]
        assert rate == pytest.approx(float(ref), rel=1e-13)


# The (beta, n) forms that the law-taking checks replaced: each built and
# tilted its own law.  The law-taking forms must reproduce them bit for bit.
def _oracle_clt_check(beta, n):
    if beta == 0.0:
        base = joint_law_exact(n)
        marg = _dict_marginal(base, 0)
        atoms = np.array(sorted(marg), dtype=float)
        probs = np.array([marg[int(a)] for a in atoms])
        return _ks_distance(atoms, probs, 0.0, math.sqrt(n))
    consts = free_energy_g_star(beta)
    law = polymer_law(beta, n)
    atoms, probs = law.endpoint_conditional_positive()
    return _ks_distance(
        atoms.astype(float), probs, consts.c_star * n,
        consts.sigma_star * math.sqrt(n),
    )


def _oracle_ldp_empirical(beta, n, theta_grid):
    law = polymer_law(beta, n)
    atoms, probs = law.endpoint_conditional_positive()
    table = {int(a): float(p) for a, p in zip(atoms, probs)}
    out = []
    for theta in theta_grid:
        if not 0.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {theta!r}")
        x0 = _window_site(float(theta), n)
        p = table.get(x0, 0.0)
        rate = math.inf if p == 0.0 else -math.log(p) / n
        out.append((float(theta), rate))
    return out


@pytest.mark.parametrize("beta, n", [(0.0, 200), (1.0, 600), (0.5, 301)])
def test_law_taking_checks_match_the_beta_n_forms(beta, n):
    law = polymer_law(beta, n)
    thetas = [i / 40 for i in range(41)] + [0.3, 0.5, 0.7, 0.95]
    assert clt_check(law) == _oracle_clt_check(beta, n)
    assert ldp_empirical(law, thetas) == _oracle_ldp_empirical(beta, n, thetas)


def _assert_csv_matches_oracle(law, tmp_path, write=JointEndpointRangeLaw.to_csv):
    write(law, tmp_path / "got.csv")
    _oracle_law_csv(law, tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestCsvWriterMatchesOracle:
    """``to_csv`` formats each distinct value once; the bytes are the
    per-entry writer's.  n <= 150 fits one slice of rows, n = 301 takes
    two and n = 1033 seventeen."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 31, 64, 150, 301, 600, 1033])
    def test_untilted(self, tmp_path, n):
        _assert_csv_matches_oracle(joint_law_exact(n), tmp_path)

    @pytest.mark.parametrize("beta, n", [(0.0, 200), (1.0, 600), (0.5, 301), (5.0, 200),
                                         (50.0, 300)])
    def test_tilted(self, tmp_path, beta, n):
        tilted = polymer_law(beta, n).tilted
        if beta >= 5.0:  # small-r cells underflow to 0.0, printed "0"
            assert (tilted.ps == 0.0).any()
        if beta == 50.0:  # and some cells are subnormal
            assert ((tilted.ps > 0.0) & (tilted.ps < sys.float_info.min)).any()
        _assert_csv_matches_oracle(tilted, tmp_path)

    def test_slice_counts(self):
        sizes = {n: len(joint_law_exact(n).ps) for n in (150, 301, 1033)}
        assert sizes[150] <= _CSV_SLICE < sizes[301] <= 2 * _CSV_SLICE
        assert 16 * _CSV_SLICE < sizes[1033] <= 17 * _CSV_SLICE

    def test_control_one_value_at_16_digits_fails(self, tmp_path):
        law = polymer_law(1.0, 64).tilted
        slip = next(p for p in law.ps.tolist() if f"{p:.16g}" != f"{p:.17g}")

        def misprint(law, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x,r,probability\n")
                for x, r, p in law.entries():
                    fh.write(f"{x},{r},{p:{'.16g' if p == slip else '.17g'}}\n")

        with pytest.raises(AssertionError):
            _assert_csv_matches_oracle(law, tmp_path, write=misprint)


def _assert_prints_17g(values):
    values = np.asarray(values, dtype=float)
    assert _format_17g(values).tolist() == [f"{x:.17g}" for x in values.tolist()]


def _ties():
    """Doubles M / 2^(q + 1), M odd, with 18 significant digits ending in 5.

    ``.17g`` rounds them half-even: 26217 / 2^18 prints 0.10000991821289062.
    For q >= 21 they are below 1e-4, where the vectorized digits apply.
    """
    out = []
    for q in range(17, 25):
        lo, hi = -(-10**17 // 5 ** (q + 1)), 10**18 // 5 ** (q + 1)
        odd = range(lo | 1, hi + 1, 2)
        out += [math.ldexp(m, -q - 1) for m in odd[:: max(1, len(odd) // 300)]]
    return np.array(out)


class TestFormat17g:
    """``_format_17g`` prints each double as ``f"{x:.17g}"`` does."""

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_floats_in_unit_interval(self, xs):
        _assert_prints_17g(xs)

    @given(st.lists(st.integers(min_value=1, max_value=np.float64(1e-4).view(np.int64)),
                    min_size=1, max_size=64))
    def test_bit_patterns_up_to_1e_4(self, bits):
        _assert_prints_17g(np.array(bits, dtype=np.int64).view(np.float64))

    def test_edges_and_powers_of_ten(self):
        _assert_prints_17g([0.0, 5e-324, 1.0, sys.float_info.min]
                           + [10.0**-k for k in range(1, 301)]
                           + [float(f"1e-{k}") for k in range(1, 324)])

    @pytest.mark.parametrize("beta, n", [(1.0, 1000), (50.0, 300)])
    def test_every_value_of_a_law(self, beta, n):
        _assert_prints_17g(np.unique(polymer_law(beta, n).tilted.ps))

    def test_exact_ties_round_half_even(self):
        ties = _ties()
        assert _format_17g(np.array([26217 / 2**18]))[0] == "0.10000991821289062"
        assert (ties < 1e-4).sum() > 100
        _assert_prints_17g(ties)

    def test_nearest_doubles_to_midpoints(self):
        rng = np.random.default_rng(33)
        ds = rng.integers(10**16, 10**17, 2000).tolist()
        qs = rng.integers(21, 341, 2000).tolist()
        mid = np.array([float(f"{d}5e-{q + 1}") for d, q in zip(ds, qs)])
        _assert_prints_17g(np.concatenate([mid, np.nextafter(mid, 0.0), np.nextafter(mid, 1.0)]))

    def test_control_without_the_tie_fallback_fails(self, monkeypatch):
        monkeypatch.setattr(exact, "_TIE_BAND", -1.0)
        with pytest.raises(AssertionError):
            _assert_prints_17g(_ties())


class TestExports:
    def test_csv_round_trip(self, tmp_path):
        law = joint_law_exact(6)
        path = tmp_path / "law.csv"
        law.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,r,probability"
        rows = [line.split(",") for line in lines[1:]]
        parsed = {(int(x), int(r)): float(p) for x, r, p in rows}
        assert parsed == _as_dict(law)
        # deterministic ordering: x ascending then r ascending
        keys = [(int(x), int(r)) for x, r, _ in rows]
        assert keys == sorted(keys)

    def test_json_export(self, tmp_path):
        import json

        law = joint_law_exact(4)
        path = tmp_path / "law.json"
        law.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["n"] == 4
        entries = {(e["x"], e["r"]): e["probability"] for e in payload["entries"]}
        assert entries == _as_dict(law)
