"""Command-line front end: one subcommand per theorem cluster.

Every run writes its artifacts plus a ``manifest.json`` with the artifact
version, the command and every parsed option but ``--out``, as typed, with
its default where it was not given.  Outputs carry no timestamps, CSV floats
have 17 significant digits and JSON floats Python's shortest round-trip
repr, so re-running a manifest reproduces every byte.

Each handler writes its artifacts into a ``.staging-*`` directory inside
``--out`` as soon as it computes them and returns nothing.  Only when it
returns does ``main`` write the manifest from the parsed arguments and move
every file into ``--out``; on any error the staging directory is removed,
so a failed run adds no file to ``--out``.

Exit codes: 0 success (possibly with warnings on stderr), 1 usage,
2 domain/precondition violation or a failed root solve, 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .continuous import continuous_constants, ldp_rate_continuous_info
from .density import (
    DEFAULT_FLOOR,
    endpoint_clt_continuous,
    partition_function_continuous,
    range_density,
    range_second_order_cdf,
)
from .discrete import free_energy_g_star, ldp_rate_discrete_info, rate_I, tilde_c_d
from .errors import DomainError, ResourceCapError, SolverError, check_positive
from .exact import clt_check, ldp_empirical, polymer_law
from .gaussian import norm_cdf
from .mc import (
    brownian_range_mc,
    corollary_bound_check,
    polymer_estimate_tilted,
)

# At exit, move the heap into the permanent generation so that the
# interpreter's final collections do not walk the ~21,000 objects numpy and
# the package made at import.  It runs after main() has returned and every
# artifact is in place, so no byte, exit code or stream changes; that is why
# no option or environment variable turns it off.  Only this module
# registers it: a library import leaves the collector alone.
atexit.register(gc.freeze)

GRID_POINT_CAP = 10**6  # most points an 'a:b:k' grid may ask for
EXACT_LAW_CAP = 600  # largest n 'exact' builds unless --cap-override raises it


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _parse_grid(text: str) -> list[float]:
    """'a:b:k' for k equispaced points, or a comma-separated list; all finite."""
    try:
        if ":" in text:
            a, b, k = text.split(":")
            lo, hi, count = float(a), float(b), int(k)
        else:
            values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise DomainError(f"malformed grid {text!r}; want 'a:b:k' with an "
                          "integer k, or a comma-separated list") from None
    if ":" in text:
        if count < 1:
            raise DomainError(f"grid count must be positive, got {count}")
        if count > GRID_POINT_CAP:
            raise ResourceCapError(f"grid count {count} exceeds the cap of "
                                   f"{GRID_POINT_CAP:.0e}")
        values = [lo] if count == 1 else \
            [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"grid values must be finite, got {text!r}")
    return values


def _parse_outputs(text: str, command: str, choices: tuple[str, ...]) -> list[str]:
    """The comma list of ``--outputs``; DomainError at the first unknown one."""
    outputs = [s.strip() for s in text.split(",") if s.strip()]
    for kind in outputs:
        if kind not in choices:
            raise DomainError(f"unknown {command} output {kind!r}")
    return outputs


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_constants(args, out: Path) -> None:
    disc = free_energy_g_star(args.beta)
    cont = continuous_constants(args.beta, args.d)
    hdr = ["beta", "d", "c_star", "g_star", "sigma_star", "c_tilde_d",
           "c_dstar", "g_dstar", "sigma_dstar", "beta_tilde_d", "prefactor"]
    row = [args.beta, args.d, disc.c_star, disc.g_star, disc.sigma_star,
           tilde_c_d(args.beta, args.d), cont.c_dstar, cont.g_dstar,
           cont.sigma_dstar, cont.beta_tilde_d, cont.prefactor]
    if args.format == "csv":
        _write_csv(out / "constants.csv", hdr, [row])
    else:
        _write_json(out / "constants.json", dict(zip(hdr, row)))


def _cmd_rate_curves(args, out: Path) -> None:
    thetas = _parse_grid(args.grid)
    info = ldp_rate_discrete_info if args.model == "discrete" else ldp_rate_continuous_info
    rows = [[theta, *row] for theta, row in zip(thetas, info(args.beta, thetas))]
    _write_csv(out / f"rate_curve_{args.model}.csv",
               ["theta", "rate", "branch", "aux_root"], rows)


_EXACT_OUTPUTS = ("law", "Z", "free-energy", "clt", "ldp")


def _cmd_exact(args, out: Path) -> None:
    outputs = _parse_outputs(args.outputs, "exact", _EXACT_OUTPUTS)
    ns = _parse_grid(args.n_grid) if args.n_grid else \
        sorted({max(2, args.n // 4), max(2, args.n // 2), args.n})
    if any(m != int(m) for m in ns):
        raise DomainError(f"--n-grid values must be integers, got {args.n_grid!r}")
    ns = [int(m) for m in ns]
    thetas = _parse_grid(args.grid) if args.grid else [0.3, 0.5, 0.7, 0.95]
    cap = EXACT_LAW_CAP if args.cap_override is None else args.cap_override
    if cap < 1:
        raise DomainError(f"--cap-override must be at least 1, got {cap}")
    check_positive("beta", args.beta, allow_zero=True)  # reported before the cap

    def law_at(m: int):
        if m > cap:
            raise ResourceCapError(f"n={m} exceeds the exact-law cap ({cap}); "
                                   "raise the cap (--cap-override) to override")
        return polymer_law(args.beta, m)

    law = law_at(args.n)
    consts = free_energy_g_star(args.beta) if args.beta > 0 else None
    for kind in outputs:
        if kind == "law":
            write = law.tilted.to_csv if args.format == "csv" else law.tilted.to_json
            write(out / f"law.{args.format}")
        elif kind == "Z":
            _write_json(out / "partition.json", {
                "beta": args.beta, "n": args.n,
                "log_partition": law.log_partition,
                "partition_value": law.partition_value,
            })
        elif kind == "free-energy":
            ref = consts.g_star if consts else 0.0
            fes = [(m, law_at(m).log_partition / m) for m in ns]
            _write_csv(out / "free_energy.csv", ["n", "free_energy", "g_star", "error"],
                       [[m, fe, ref, fe - ref] for m, fe in fes])
        elif kind == "clt":
            _write_json(out / "clt.json", {
                "beta": args.beta, "n": args.n,
                "ks_distance": clt_check(law),
                "convention": "sup",
            })
        else:  # ldp
            empirical = ldp_empirical(law, thetas)
            analytic = [row[0] for row in ldp_rate_discrete_info(args.beta, thetas)] \
                if args.beta > 0 else [rate_I(theta) for theta in thetas]
            rows = [[theta, rate, a, rate - a] for (theta, rate), a in zip(empirical, analytic)]
            _write_csv(out / "ldp.csv",
                       ["theta", "empirical_rate", "analytic_rate", "difference"], rows)


_CONTINUOUS_OUTPUTS = ("density", "Z", "range-clt", "endpoint-clt")


def _cmd_continuous(args, out: Path) -> None:
    outputs = _parse_outputs(args.outputs, "continuous", _CONTINUOUS_OUTPUTS)
    check_positive("beta", args.beta)
    check_positive("t", args.t)
    cgrid = _parse_grid(args.grid) if args.grid else [-2.0, -1.0, 0.0, 1.0, 2.0]
    st_ = math.sqrt(args.t)
    rs = _parse_grid(args.r_grid) if args.r_grid else \
        [DEFAULT_FLOOR * st_ + (6.0 - DEFAULT_FLOOR) * st_ * i / 120 for i in range(121)]
    for kind in outputs:
        if kind == "density":
            se = range_density(args.t, rs)
            rows = zip(rs, se.value.tolist(), se.truncation_bound.tolist())
            _write_csv(out / "range_density.csv", ["argument", "value", "error_bound"], rows)
        elif kind == "Z":
            res = partition_function_continuous(
                args.beta, args.t, use_exact_radius=args.exact_radius)
            cont = continuous_constants(args.beta)
            log_ratio = res.log_value - math.log(cont.prefactor) - cont.g_dstar * args.t
            if not log_ratio < 709.0:
                raise DomainError(f"ratio_to_asymptote = exp({log_ratio:.6g}) overflows")
            _write_json(out / "partition_continuous.json", {
                "beta": args.beta, "t": args.t,
                "use_exact_radius": args.exact_radius,
                "value": res.value, "log_value": res.log_value,
                "abs_error_estimate": res.abs_error_estimate,
                "nodes": res.nodes, "domain": list(res.domain),
                "ratio_to_asymptote": math.exp(log_ratio),
            })
        elif kind == "range-clt":
            tails = range_second_order_cdf(args.beta, args.t, cgrid,
                                           use_exact_radius=args.exact_radius)
            rows = [[c, tail, 1.0 - norm_cdf(c)] for c, tail in zip(cgrid, tails)]
            _write_csv(out / "range_clt.csv", ["C", "tail_probability", "one_minus_phi"], rows)
        else:  # endpoint-clt
            cdfs = endpoint_clt_continuous(args.beta, args.t, cgrid,
                                           use_exact_radius=args.exact_radius)
            rows = [[c, cdf, norm_cdf(c)] for c, cdf in zip(cgrid, cdfs)]
            _write_csv(out / "endpoint_clt.csv", ["C", "cdf", "phi"], rows)


def _estimate_payload(est) -> dict:
    return {
        "mean": est.mean, "std_error": est.std_error,
        "samples": est.samples,
        "effective_sample_size": est.effective_sample_size,
        "low_ess": est.low_ess,
    }


def _cmd_mc(args, out: Path) -> None:
    warn_low_ess = None
    if args.mc_command == "tilted":
        est = polymer_estimate_tilted(
            args.beta, args.n, args.observable, args.seed, args.samples,
            threads=args.threads, c_point=args.c_point)
        _write_json(out / "estimate.json", {
            "beta": args.beta, "n": args.n, "observable": args.observable,
            **_estimate_payload(est),
        })
        warn_low_ess = est.low_ess
    elif args.mc_command == "corollary":
        rep = corollary_bound_check(args.beta, args.d, args.n, args.seed,
                                    args.samples, threads=args.threads)
        _write_json(out / "corollary.json", {
            "beta": args.beta, "d": args.d, "n": args.n,
            "bound": rep.bound, "margin": rep.margin,
            "satisfied": rep.satisfied, "unreliable": rep.unreliable,
            **_estimate_payload(rep.estimate),
        })
        warn_low_ess = rep.unreliable
    else:  # brownian; argparse requires one of the three subcommands
        hist = brownian_range_mc(args.t, args.dt, args.seed, args.samples,
                                 threads=args.threads)
        hist.to_csv(out / "histograms.csv")
        _write_json(out / "brownian.json", {
            "t": args.t, "dt": args.dt, "samples": args.samples,
            "positive_fraction": hist.positive_fraction,
            "mean_range": hist.mean_range,
        })
    if warn_low_ess:
        sys.stderr.write("warning: effective sample size below 1%; "
                         "estimates are reported but weakly supported\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rangepolymer",
                     description="Range-penalized polymer laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int,
                       default=os.environ.get("RANGE_POLYMER_THREADS", "1"))

    p = sub.add_parser("constants", help="speed/free-energy/spread table")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)

    p = sub.add_parser("rate-curves", help="LDP rate-function tables")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--model", choices=("discrete", "continuous"), required=True)
    p.add_argument("--grid", default="0:1:21",
                   help="'a:b:k' or comma list of theta values")
    common(p)

    p = sub.add_parser("exact", help="exact finite-n laws and checks")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--outputs", default="law,Z",
                   help="comma list from law,Z,free-energy,clt,ldp")
    p.add_argument("--grid", default=None, help="theta grid for the ldp table")
    p.add_argument("--n-grid", default=None,
                   help="n values for the free-energy sequence")
    p.add_argument("--cap-override", type=int, default=None,
                   help="raise the exact-law size cap")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="format of the law table; the other outputs keep theirs")
    common(p)

    p = sub.add_parser("continuous", help="continuous-model quadratures")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--outputs", default="Z",
                   help="comma list from density,Z,range-clt,endpoint-clt")
    p.add_argument("--grid", default=None, help="C grid for the CLT tables")
    p.add_argument("--r-grid", default=None, help="r values for the density curve")
    p.add_argument("--exact-radius", action="store_true",
                   help="penalize the unit-sausage volume r + 2 instead of r")
    common(p)

    p = sub.add_parser("mc", help="seeded Monte Carlo")
    mc_sub = p.add_subparsers(dest="mc_command", required=True)
    q = mc_sub.add_parser("tilted", help="importance sampling from the drifted walk")
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--observable", default="endpoint_mean_positive",
                   choices=("endpoint_mean", "endpoint_mean_positive",
                            "range_mean", "endpoint_cdf"))
    q.add_argument("--c-point", type=float, default=0.0)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--samples", type=int, required=True)
    common(q)
    q = mc_sub.add_parser("corollary", help="d >= 2 range-fraction bound check")
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--samples", type=int, required=True)
    common(q)
    q = mc_sub.add_parser("brownian", help="discretized Brownian range histograms")
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--dt", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--samples", type=int, required=True)
    common(q)

    return parser


_HANDLERS = {
    "constants": _cmd_constants,
    "rate-curves": _cmd_rate_curves,
    "exact": _cmd_exact,
    "continuous": _cmd_continuous,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"argument --threads: need at least 1, got {args.threads}")
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path that cannot be made
        sys.stderr.write(f"error: cannot use --out {args.out!r}: {exc.strerror}\n")
        return 1
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as staging:
        stage = Path(staging)
        try:
            _HANDLERS[args.command](args, stage)
        except ResourceCapError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 3
        except (DomainError, SolverError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        names = sorted(p.name for p in stage.iterdir())
        params = {k: v for k, v in vars(args).items()
                  if k not in ("out", "command", "mc_command")}
        _write_json(stage / "manifest.json", {
            "artifact": "rangepolymer",
            "artifact_version": __version__,
            "command": f"mc {args.mc_command}" if args.command == "mc" else args.command,
            "parameters": params,
            "outputs": names,
        })
        for name in [*names, "manifest.json"]:
            os.replace(stage / name, out / name)
    return 0


def entrypoint() -> None:  # console-script and ``python -m`` target
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
