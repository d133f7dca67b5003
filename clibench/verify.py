"""Checks of each job's artifacts against an independent route.

Each check reads the files a CLI job wrote and compares them with the
route the README table pairs with it: brute-force variational minima for
the constants and rate curves, the closed-form asymptote for ``Z_t``, the
exact law for the tilted Monte Carlo, and the known Brownian mean range.
The checks run in the benchmark's own process after every timed job has
ended; the jobs are separate interpreters, so nothing computed here can
warm a cache a timed job uses.

A check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

BETA = 1.0
TILTED_N = 200
BROWNIAN_MEAN_RANGE = 2.0 * math.sqrt(2.0 / math.pi)  # E[R_1], Feller
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def grid_minimum(fn, lo: float, hi: float, points: int = 2001) -> tuple[float, float]:
    """(argmin, min) of ``fn`` on [lo, hi]: dense grid, then golden section."""
    step = (hi - lo) / (points - 1)
    best = min(range(points), key=lambda i: fn(lo + i * step))
    a, b = max(lo, lo + (best - 1) * step), min(hi, lo + (best + 1) * step)
    for _ in range(80):
        m1, m2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
        if fn(m1) < fn(m2):
            b = m2
        else:
            a = m1
    x = 0.5 * (a + b)
    return x, fn(x)


def walk_rate(x: float) -> float:
    """Cramer rate of the simple-walk velocity, I(x)."""
    if abs(x) >= 1.0:
        return math.log(2.0)
    return 0.5 * ((1 + x) * math.log1p(x) + (1 - x) * math.log1p(-x))


def _discrete_energy(c: float) -> float:
    return BETA / c + walk_rate(c)


def _continuous_energy(c: float) -> float:
    return BETA / c + 0.5 * c * c


@lru_cache(maxsize=None)
def variational(model: str) -> tuple[float, float, float]:
    """(speed, free energy, spread) as argmin, -min and curvature^(-1/2)."""
    energy = _discrete_energy if model == "discrete" else _continuous_energy
    c, low = grid_minimum(energy, 1e-3, 1.0 - 1e-9 if model == "discrete" else 4.0)
    h = 1e-4
    curvature = (energy(c + h) - 2.0 * energy(c) + energy(c - h)) / (h * h)
    return c, -low, 1.0 / math.sqrt(curvature)


@lru_cache(maxsize=None)
def rate_minimum(model: str, theta: float) -> float:
    """Endpoint-velocity rate at theta as a brute-force minimum over r."""
    g = variational(model)[1]
    if model == "discrete":
        fn = lambda r: BETA / r + walk_rate(2.0 * r - theta)  # noqa: E731
        lo, hi = max(theta, 1e-9), (1.0 + theta) / 2.0 - 1e-12
    else:
        fn = lambda r: BETA / r + 0.5 * (2.0 * r - theta) ** 2  # noqa: E731
        lo, hi = max(theta, 1e-9), theta + 4.0
    return grid_minimum(fn, lo, hi)[1] + g


@lru_cache(maxsize=None)
def tilted_exact() -> dict[str, float]:
    """Tilted-measure observables at (beta, n) = (1, 200) from the exact law."""
    from rangepolymer.exact import polymer_law

    law = polymer_law(BETA, TILTED_N)
    return {
        "endpoint_mean_positive": law.endpoint_mean_conditional() / TILTED_N,
        "range_mean": law.range_mean() / TILTED_N,
        "endpoint_mean": float(np.dot(law.tilted.ps, law.tilted.xs)) / TILTED_N,
    }


def constants(out: Path, outs) -> list[str]:
    row = _rows(out / "constants.csv")[0]
    fails = []
    for model, keys in (("discrete", ("c_star", "g_star", "sigma_star")),
                        ("continuous", ("c_dstar", "g_dstar", "sigma_dstar"))):
        for key, want in zip(keys, variational(model)):
            got = float(row[key])
            if not abs(got - want) <= 1e-5:
                fails.append(f"{key}={got!r} but the variational route gives {want!r}")
    return fails


def _rate_curve(model: str):
    def check(out: Path, outs) -> list[str]:
        rows = _rows(out / f"rate_curve_{model}.csv")
        fails = [f"rate {r['rate']} at theta={r['theta']} is not finite and >= 0"
                 for r in rows
                 if not (math.isfinite(float(r["rate"])) and float(r["rate"]) >= -1e-12)]
        table = {float(r["theta"]): float(r["rate"]) for r in rows}
        for theta in (0.1, 0.3, 0.5, 0.7, 0.95):
            want = rate_minimum(model, theta)
            got = table.get(theta)
            if got is None or not abs(got - want) <= 1e-6:
                fails.append(f"rate at theta={theta} is {got!r}, brute force gives {want!r}")
        return fails
    return check


rate_curve_discrete = _rate_curve("discrete")
rate_curve_continuous = _rate_curve("continuous")


def _exact_common(out: Path) -> list[str]:
    g_star = variational("discrete")[1]
    part = _json(out / "partition.json")
    fails = []
    per_step = part["log_partition"] / part["n"]
    if not abs(per_step - g_star) <= 0.03:
        fails.append(f"log Z/n = {per_step!r} is not within 0.03 of g* = {g_star!r}")
    for row in _rows(out / "ldp.csv"):
        if not abs(float(row["difference"])) <= 0.05:
            fails.append(f"ldp difference {row['difference']} at theta={row['theta']}")
    return fails


def _ks(out: Path) -> float:
    return float(_json(out / "clt.json")["ks_distance"])


def exact(out: Path, outs) -> list[str]:
    fails = _exact_common(out)
    c_star = variational("discrete")[0]
    law = np.loadtxt(out / "law.csv", delimiter=",", skiprows=1, ndmin=2)
    xs, ps = law[:, 0], law[:, 2]
    n = _json(out / "partition.json")["n"]
    mass = math.fsum(ps.tolist())
    if not abs(mass - 1.0) <= 1e-9:
        fails.append(f"law.csv mass is {mass!r}, not 1")
    positive = xs > 0
    mean = float(np.dot(xs[positive], ps[positive]) / ps[positive].sum()) / n
    if not abs(mean - c_star) <= 0.02:
        fails.append(f"E[S_n/n | S_n > 0] = {mean!r} is not within 0.02 of c* = {c_star!r}")
    if not math.isfinite(_ks(out)):
        fails.append("KS distance is not finite")
    return fails


def exact_big(out: Path, outs) -> list[str]:
    fails = _exact_common(out)
    small = _ks(outs["exact"]) if "exact" in outs else math.inf
    if not _ks(out) < small:
        fails.append(f"KS distance {_ks(out)!r} does not fall below the smaller n's {small!r}")
    return fails


def _median_gap(out: Path) -> float:
    rows = {float(r["C"]): float(r["cdf"]) for r in _rows(out / "endpoint_clt.csv")}
    return abs(rows[0.0] - 0.5)


def _continuous_common(out: Path) -> list[str]:
    part = _json(out / "partition_continuous.json")
    log_asymptote = math.log(8.0 / math.sqrt(3.0)) - 1.5 * part["t"]
    ratio = math.exp(part["log_value"] - log_asymptote)
    fails = []
    if not 0.9 <= ratio <= 1.1:
        fails.append(f"Z_t / asymptote = {ratio!r} outside [0.9, 1.1]")
    cdf = [float(r["cdf"]) for r in _rows(out / "endpoint_clt.csv")]
    if any(b < a for a, b in zip(cdf, cdf[1:])):
        fails.append(f"endpoint CDF decreases in C: {cdf}")
    return fails


def continuous(out: Path, outs) -> list[str]:
    fails = _continuous_common(out)
    tail = {float(r["C"]): float(r["tail_probability"]) for r in _rows(out / "range_clt.csv")}
    if not 0.47 <= tail.get(0.0, math.nan) <= 0.53:
        fails.append(f"range tail at C=0 is {tail.get(0.0)!r}, outside [0.47, 0.53]")
    return fails


def continuous_long(out: Path, outs) -> list[str]:
    fails = _continuous_common(out)
    short = _median_gap(outs["continuous"]) if "continuous" in outs else math.inf
    if not _median_gap(out) < short:
        fails.append(f"|F(0) - 0.5| = {_median_gap(out)!r} does not shrink from {short!r}")
    return fails


def mc_tilted(out: Path, outs) -> list[str]:
    est = _json(out / "estimate.json")
    want = tilted_exact()[est["observable"]]
    if abs(est["mean"] - want) <= 3.0 * est["std_error"]:
        return []
    return [f"{est['observable']} = {est['mean']!r} +- {est['std_error']!r}, "
            f"exact {want!r}: off by more than 3 se"]


def mc_brownian(out: Path, outs) -> list[str]:
    summary = _json(out / "brownian.json")
    bins = [r for r in _rows(out / "histograms.csv") if r["kind"] == "range"]
    lo = np.array([float(r["lo"]) for r in bins])
    hi = np.array([float(r["hi"]) for r in bins])
    p = np.array([float(r["density"]) for r in bins]) * (hi - lo)
    mid = 0.5 * (lo + hi)
    mean = float(np.dot(p, mid) / p.sum())
    se = math.sqrt(float(np.dot(p, (mid - mean) ** 2) / p.sum()) / summary["samples"])
    gap = abs(summary["mean_range"] - BROWNIAN_MEAN_RANGE)
    if gap <= 3.0 * se + 0.02:
        return []
    return [f"mean range {summary['mean_range']!r} is {gap!r} from 2 sqrt(2/pi), "
            f"beyond 3 se + 0.02 = {3.0 * se + 0.02!r}"]
