"""Tests for the exact finite-n machinery.

The central property is the oracle chain: brute-force enumeration, the
reflection-series aggregation and a (position, min, max) dynamic program are
three independent computations of the same table and must agree entrywise.
All three use exact integer counts, so the agreement demanded here is exact,
well inside the 1e-12 contract.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangepolymer import (
    DomainError,
    ResourceCapError,
    clt_check,
    enumerate_joint_law,
    free_energy_g_star,
    free_energy_sequence,
    joint_law_dp,
    joint_law_exact,
    ldp_empirical,
    ldp_rate_discrete,
    polymer_law,
    reflection_min_max_endpoint,
    sigma_star,
    speed_c_star,
    tilde_c_d,
)
from rangepolymer.exact import _convolve_final_step, _law_from_counts

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
        marg = enumerate_joint_law(3).range_marginal()
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
            marg = joint_law_exact(n).endpoint_marginal()
            for x, p in marg.items():
                expected = math.ldexp(float(math.comb(n, (n + x) // 2)), -n)
                assert p == pytest.approx(expected, abs=1e-15)

    def test_support_and_mass(self):
        law = joint_law_exact(31)
        assert law.total_mass() == pytest.approx(1.0, abs=1e-12)
        for x, r, p in law.entries():
            assert abs(x) <= 31 and 1 <= r <= 31
            assert (x - 31) % 2 == 0
            assert p > 0.0

    def test_endpoint_symmetry(self):
        marg = joint_law_exact(44).endpoint_marginal()
        for x, p in marg.items():
            assert p == pytest.approx(marg[-x], abs=1e-16)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            joint_law_exact(601)
        with pytest.raises(DomainError):
            joint_law_exact(0)

    def test_stirling_decay_rate(self):
        # -(1/n) log P(R_n = rn, S_n = xn) approaches I(2r - x) with an
        # O(log n / n) prefactor; checked as a slope, never used to compute
        def slope_gap(n, rf, xf):
            x0 = 2 * round(xf * n / 2)
            r0 = round(rf * n)
            p = joint_law_exact(n).prob(x0, r0)
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
        law = joint_law_exact(n)
        assert law.endpoint_marginal() == _dict_marginal(law, 0)
        assert law.range_marginal() == _dict_marginal(law, 1)
        tilted = polymer_law(1.0, n).tilted
        assert tilted.endpoint_marginal() == _dict_marginal(tilted, 0)
        assert tilted.range_marginal() == _dict_marginal(tilted, 1)

    def test_prob_on_and_off_support(self):
        law = joint_law_exact(9)
        for x, r, p in law.entries():
            assert law.prob(x, r) == p
        present = set(zip(law.xs.tolist(), law.rs.tolist()))
        for x in range(-12, 13):
            for r in range(-1, 12):
                if (x, r) not in present:
                    assert law.prob(x, r) == 0.0

    def test_overflow_past_double_range_is_a_cap_error(self):
        with pytest.raises(ResourceCapError, match="double range"):
            joint_law_exact(1034, cap=2000)


class TestPolymerLaw:
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
        assert pl.tilted.total_mass() == pytest.approx(1.0, abs=1e-10)

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
        target = sigma_star(1.0) ** 2
        ratios = {}
        for n in (100, 400):
            var_n = polymer_law(1.0, n).endpoint_variance_conditional() / n
            ratios[n] = var_n / target
        assert abs(ratios[400] - 1.0) <= 0.15
        assert abs(ratios[400] - 1.0) < abs(ratios[100] - 1.0)

    @pytest.mark.parametrize("n", [10, 201, 600])
    def test_storage_order_makes_conditional_endpoints_sorted(self, n):
        """endpoint_conditional_positive relies on the x-ascending storage
        order instead of sorting; it must match a stable sort's result."""
        pl = polymer_law(1.0, n)
        xs, rs = pl.tilted.xs, pl.tilted.rs
        assert np.all(np.diff(xs) >= 0)
        same_x = xs[1:] == xs[:-1]
        assert np.all(rs[1:][same_x] > rs[:-1][same_x])
        mask = xs > 0
        order = np.argsort(xs[mask], kind="stable")
        sx, sp = xs[mask][order], pl.tilted.ps[mask][order]
        uq, start = np.unique(sx, return_index=True)
        sums = np.add.reduceat(sp, start)
        atoms, probs = pl.endpoint_conditional_positive()
        assert atoms.tobytes() == uq.tobytes()
        assert probs.tobytes() == (sums / sums.sum()).tobytes()


class TestFreeEnergy:
    def test_converges_to_g_star(self):
        seq = dict(free_energy_sequence(1.0, [100, 400]))
        assert abs(seq[400] - G_STAR_1) <= 0.03
        assert abs(seq[400] - G_STAR_1) < abs(seq[100] - G_STAR_1)

    def test_tiny_beta_near_zero(self):
        (_, fe), = free_energy_sequence(1e-6, [100])
        assert abs(fe) <= 1e-3


class TestCltCheck:
    def test_plain_walk_sanity(self):
        assert clt_check(0.0, 400) <= 0.05

    def test_decreasing_in_n(self):
        for beta in (0.5, 1.0):
            assert clt_check(beta, 400) < clt_check(beta, 100)


class TestLdpEmpirical:
    def test_rate_vanishes_at_speed(self):
        c = speed_c_star(1.0).value
        (_, rate), = ldp_empirical(1.0, 400, [c])
        assert rate <= 0.02

    def test_matches_rate_function(self):
        for theta in (0.5, 0.95):
            (_, emp), = ldp_empirical(1.0, 400, [theta])
            assert abs(emp - ldp_rate_discrete(1.0, theta)) <= 0.05

    def test_first_branch_formula_at_095(self):
        (_, emp), = ldp_empirical(1.0, 400, [0.95])
        direct = 1.0 / 0.95 + (
            0.5 * 1.95 * math.log(1.95) + 0.5 * 0.05 * math.log(0.05)
        ) + free_energy_g_star(1.0).g_star
        assert abs(emp - direct) <= 0.05

    def test_windows_are_parity_sites(self):
        # every theta in [0, 1] maps to a reachable parity site, so rates stay finite
        rates = ldp_empirical(1.0, 50, [0.0, 0.37, 0.5, 1.0])
        assert all(math.isfinite(r) for _, r in rates)
        # theta = 1 pins the straight path: P = tilted weight of (n, n)
        law = polymer_law(1.0, 50)
        xs, ps = law.endpoint_conditional_positive()
        straight = float(ps[xs == 50][0])
        assert rates[-1][1] == pytest.approx(-math.log(straight) / 50.0, rel=1e-12)

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            ldp_empirical(1.0, 20, [1.2])


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
