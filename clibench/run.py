"""CLI-job benchmark for rangepolymer.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 clibench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout (the directory holding ``src/``).

Each README CLI command runs as its own fresh ``python3`` process, the way
users run it: every repetition starts a new interpreter, so neither the
exact law's ``lru_cache`` nor the Gauss-Legendre node cache carries over
from one job to the next.  One client runs the jobs one after another (a
closed loop); threads are used only where a job passes ``--threads``, never
more than the cores available.  A pass runs every job of the workload once;
passes repeat until ``--seconds`` is used up (at least two, four when
traced).  Each job's time is its median over the passes, and ``setup_s`` the
median over every job process of the run.  After the timed
passes, this process checks every artifact against an independent route
(``verify.py``), checks that every job's artifacts hash the same in every
pass, and that the Brownian artifacts do not depend on the thread count.

Workloads (``--seed`` sets only the Monte Carlo seeds; seed 0 gives the
README's 7 and 42):

* ``discrete-exact``: ``constants``, ``rate-curves`` for both models on a
  2001-point grid, ``exact --n 600`` with every output (job a) and
  ``exact --n 1000 --cap-override 1000`` (job b).  The big-integer
  reflection builder dominates.
* ``continuous-quadrature``: ``continuous --t 40`` with every output (job a)
  and ``continuous --t 160`` with Z and both CLTs (job b).  The 2-D
  endpoint-CLT quadrature dominates.
* ``monte-carlo``: ``mc tilted --n 200 --samples 100000`` for three
  observables (job a) and ``mc brownian --samples 8192`` at one and at two
  threads (job b).  The tilted ``endpoint_mean`` check is a known defect of
  the sampler (its proposal never reaches S_n <= 0, so it reports ~0.86
  against an exact 0): it fails at baseline and is kept, so the baseline
  ``fail_frac`` of this workload is 1/5.  It counts in ``failed`` and
  ``pass_frac`` but, being known, does not make ``correct`` false.

End-to-end metrics (``--trace 0``), per workload: ``setup_s`` (median over
job processes of spawn to ``main()`` entry), ``wall_s`` (spawn to exit, over
all jobs of the workload), ``job_a_s``/``job_b_s`` (time inside ``main()`` of the
workload's job a / job b, named per workload in the printed table),
``peak_rss_mb`` (largest ``ru_maxrss`` of any job) and ``pass_frac``
(1 - ``fail_frac``, the share of job runs that exit 0, print no traceback,
pass their check and repeat their artifacts byte for byte).

Every time among the end-to-end metrics is in reference seconds.  On a
virtual machine that shares its host, the speed of interpreter- and
memory-bound work like these jobs drifts with the co-tenants' load (by up
to 2x over minutes on a 2-vCPU VM); a run's median cannot average that
away.  So the parent runs a fixed pure-Python loop (``calibrate``) right
before and right after each job and scales the job's times by
``CAL_REF_S`` over the loop's mean time.  The machine's drift moves both
and cancels; a change to rangepolymer moves only the job.  The printed
table also gives every time as measured, unscaled, and the machine's
slowdown against ``CAL_REF_S``.

With ``--trace 1`` the passes alternate between untraced and traced; the
traced ones wrap each layer's public functions (``tracing.py``) and give the
per-layer metrics, and ``trace.overhead_frac`` compares the two kinds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it starts with
``meta`` and records the core count, each job's ``--threads``, the Python
and numpy versions, the git commit and the seed; a full record of every job
run, with each artifact's sha256, goes to ``.bench_build/clibench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "clibench"
sys.path.insert(1, str(SRC))  # verify.py reads the exact law from the sources

import tracing  # noqa: E402
import verify  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
JOB_TIMEOUT_S = 120.0
CAL_REF_S = 0.25  # the calibrate() time that scaled times are expressed against
RUN_LIMIT_S = 150.0  # a run stops starting jobs, and kills any still running, by then
TRACEBACK = "Traceback (most recent call last)"

# Job id -> why its check is expected to fail at baseline.
KNOWN_DEFECTS = {
    "mc-tilted-endpoint_mean":
        "tilted sampler proposes only the right-drifted walk; E[S_n/n] reads "
        "~0.86 against an exact 0 (ROADMAP open item 3)",
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_a_s": "s", "job_b_s": "s",
    "peak_rss_mb": "MB", "pass_frac": "fraction",
}

PER_LAYER_UNITS = {
    "exact.build_s": "s", "exact.build_calls": "count", "exact.entries": "count",
    "exact.entries_per_s": "1/s", "exact.tilt_s": "s", "exact.clt_s": "s",
    "exact.ldp_s": "s", "cli.write_s": "s", "cli.bytes_written": "B",
    "density.endpoint_clt_s": "s", "density.endpoint_clt_calls": "count",
    "density.joint_terms": "count", "density.z_s": "s", "density.z_nodes": "count",
    "density.range_clt_s": "s", "density.range_density_s": "s",
    "density.series_terms": "count", "mc.tilted_s": "s", "mc.walk_steps": "count",
    "mc.walk_ns_per_step": "ns", "mc.ess_frac": "fraction", "mc.brownian_s": "s",
    "mc.path_steps": "count", "mc.brownian_ns_per_step": "ns",
    "mc.scaling_eff": "fraction", "discrete.rate_s": "s", "continuous.rate_s": "s",
    "roots.calls": "count", "roots.iterations": "count",
    "trace.overhead_frac": "fraction",
}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    check: object  # verify.<check>(out_dir, {job id: out_dir of this pass})
    metric: str | None = None  # named job time this job adds to
    slot: str | None = None  # "job_a_s" or "job_b_s"
    threads: int = 1


def workload_jobs(name: str, seed: int) -> list[Job]:
    beta = ("--beta", "1")
    if name == "discrete-exact":
        return [
            Job("constants", ("constants", *beta), verify.constants),
            Job("rate-curves-discrete",
                ("rate-curves", *beta, "--model", "discrete", "--grid", "0:1:2001"),
                verify.rate_curve_discrete),
            Job("rate-curves-continuous",
                ("rate-curves", *beta, "--model", "continuous", "--grid", "0:1:2001"),
                verify.rate_curve_continuous),
            Job("exact", ("exact", *beta, "--n", "600", "--outputs",
                          "law,Z,free-energy,clt,ldp", "--n-grid", "150,300,450,600"),
                verify.exact, "exact_s", "job_a_s"),
            Job("exact-big", ("exact", *beta, "--n", "1000", "--cap-override", "1000",
                              "--outputs", "Z,clt,ldp"),
                verify.exact_big, "exact_big_s", "job_b_s"),
        ]
    if name == "continuous-quadrature":
        return [
            Job("continuous", ("continuous", *beta, "--t", "40", "--outputs",
                               "density,Z,range-clt,endpoint-clt"),
                verify.continuous, "continuous_s", "job_a_s"),
            Job("continuous-long", ("continuous", *beta, "--t", "160", "--outputs",
                                    "Z,range-clt,endpoint-clt", "--grid=-1,0,1"),
                verify.continuous_long, "continuous_long_s", "job_b_s"),
        ]
    if name == "monte-carlo":
        # The endpoint_mean job fails its check at baseline, a known defect of
        # the sampler (KNOWN_DEFECTS); it keeps its size and seed so it shows.
        tilted, brownian = str(7 + 1000 * seed), str(42 + 1000 * seed)
        jobs = [
            Job(f"mc-tilted-{obs}", ("mc", "tilted", *beta, "--n", "200", "--observable",
                                     obs, "--seed", tilted, "--samples", "100000"),
                verify.mc_tilted, "mc_tilted_s", "job_a_s")
            for obs in ("endpoint_mean_positive", "range_mean", "endpoint_mean")
        ]
        path = ("mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", brownian,
                "--samples", "8192")
        return jobs + [
            Job("mc-brownian", path, verify.mc_brownian, "mc_brownian_s", "job_b_s"),
            Job("mc-brownian-threaded", path, verify.mc_brownian,
                "mc_brownian_threaded_s", "job_b_s", threads=min(2, NPROC)),
        ]
    raise KeyError(name)


WORKLOADS = ("discrete-exact", "continuous-quadrature", "monte-carlo")

ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    # numpy's own BLAS threads stay off, so only --threads adds threads
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


def process_failures(code, stderr: str) -> list[tuple[str, str]]:
    """Failures a job process shows by itself: nonzero exit, traceback."""
    fails = []
    if code != 0:
        fails.append(("exit", f"exit code {code}"))
    if TRACEBACK in stderr:
        fails.append(("traceback", "traceback on stderr"))
    return fails


def _hashes(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_job(job: Job, where: Path, trace: bool, timeout: float = JOB_TIMEOUT_S) -> dict:
    """Run one job as a fresh process; times, peak RSS, hashes, trace."""
    out = where / "out"
    out.mkdir(parents=True)
    record = where / "record.json"
    cmd = [sys.executable, str(HERE / "job.py"), str(record), "1" if trace else "0",
           job.id, *job.argv, "--threads", str(job.threads), "--out", str(out)]
    with open(where / "stdout.txt", "wb") as so, open(where / "stderr.txt", "wb") as se:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=so, stderr=se)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no job running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = (where / "stderr.txt").read_text(errors="replace")
    try:
        rec = json.loads(record.read_text())
    except (OSError, ValueError):  # missing, or cut short by a kill
        rec = {}
    hashes = _hashes(out)
    run = {
        "job": job.id, "threads": job.threads, "traced": trace, "code": code,
        "wall_s": ended - spawned,
        "setup_s": rec["entered"] - spawned if rec else None,
        "main_s": rec["left"] - rec["entered"] if rec else None,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "hashes": hashes,
        "failures": process_failures(code, stderr),
    }
    if not rec:
        run["failures"].append(("record", "job left no timing record (killed, or failed "
                                           "before entering main())"))
    if trace and rec:
        counts = dict(rec["counts"])
        counts["cli.bytes_written"] = sum(p.stat().st_size for p in out.rglob("*")
                                          if p.is_file())
        run["counts"] = counts
        run["times"] = tracing.job_times(rec["spans"])
    return run


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes, at this moment, where the jobs run.

    The loop fills a dict of ~300k tuple keys with big integers (~70 MB), so
    it leans on the interpreter, the allocator and the memory system the way
    the jobs do.  On a shared host the speed of such work drifts by up to
    2x over minutes as co-tenants come and go; this loop's time drifts with
    it, and it runs no rangepolymer code, so no change to the program moves it.
    """
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(300_000):
        key = (i % 1009, i % 1013)
        table[key] = table.get(key, 0) + (1 << (i % 900))
    sum(table.values())
    return time.perf_counter() - start


def run_pass(jobs: list[Job], where: Path, trace: bool, deadline: float) -> dict[str, dict]:
    """Run every job once between two calibrations; ``cal_s`` is their mean."""
    runs = {}
    before = calibrate()
    for job in jobs:
        run = run_job(job, where / job.id, trace,
                      min(JOB_TIMEOUT_S, max(1.0, deadline - time.monotonic())))
        after = calibrate()
        run["cal_s"] = (before + after) / 2
        runs[job.id], before = run, after
    return runs


def check_passes(jobs: list[Job], passes: list[dict], traced: list[dict],
                 where: Path) -> None:
    """Add artifact, repeatability and thread-invariance failures in place.

    A pass whose artifacts hash the same as an earlier pass's reuses that
    pass's check results: the checks read nothing but those bytes.
    """
    first = passes[0]
    checked: dict[tuple[str, str], list[str]] = {}
    for k, runs in enumerate(passes):
        outs = {job.id: where / f"pass{k}" / job.id / "out" for job in jobs}
        digest = json.dumps({j: r["hashes"] for j, r in runs.items()}, sort_keys=True)
        for job in jobs:
            run = runs[job.id]
            if run["code"] == 0:
                if (job.id, digest) not in checked:
                    try:
                        msgs = job.check(outs[job.id], outs)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        msgs = [f"artifact unreadable: {exc!r}"]
                    checked[job.id, digest] = msgs
                run["failures"] += [("check", m) for m in checked[job.id, digest]]
            if run["hashes"] != first[job.id]["hashes"]:
                run["failures"].append(("hash", "artifacts differ from the first pass"))
            if traced and "counts" in run:
                ref = traced[0][job.id].get("counts")
                if ref is not None and {c: run["counts"].get(c) for c in tracing.COUNTS} \
                        != {c: ref.get(c) for c in tracing.COUNTS}:
                    run["failures"].append(("counts", "trace counts differ between passes"))
        single, threaded = runs.get("mc-brownian"), runs.get("mc-brownian-threaded")
        if single and threaded:
            strip = lambda h: {k: v for k, v in h.items() if k != "manifest.json"}  # noqa: E731
            if strip(single["hashes"]) != strip(threaded["hashes"]):
                threaded["failures"].append(
                    ("threads", "artifacts differ between --threads 1 and --threads 2"))


def is_known(run: dict) -> bool:
    return run["job"] in KNOWN_DEFECTS and all(k == "check" for k, _ in run["failures"])


def scaled(run: dict, key: str) -> float | None:
    """Time ``key`` of one job run, in reference seconds.

    The measured time is divided by the mean of the calibrations taken just
    before and just after the job (``cal_s``) and multiplied by ``CAL_REF_S``: it is the time the job would take
    where ``calibrate()`` takes ``CAL_REF_S``.  A machine-wide slowdown moves
    both and cancels; a slower program moves only the job time.
    """
    value = run[key]
    return None if value is None else value * CAL_REF_S / run["cal_s"]


def typical(passes: list[dict], jobs, key: str) -> float:
    """Sum over ``jobs`` of each job's median scaled time ``key`` over the passes."""
    return sum(statistics.median([v for p in passes if (v := scaled(p[j], key)) is not None]
                                 or [0.0])
               for j in jobs)


def measured(passes: list[dict], jobs, key: str) -> float:
    """As ``typical``, of the times as measured, unscaled."""
    return sum(statistics.median([p[j][key] for p in passes if p[j][key] is not None] or [0.0])
               for j in jobs)


def end_to_end(jobs: list[Job], passes: list[dict]) -> tuple[dict, dict]:
    """(metrics for the JSON line, named job times for the printed table)."""
    runs = [r for p in passes for r in p.values()]
    failed = sum(bool(r["failures"]) for r in runs)
    setups = [v for r in runs if (v := scaled(r, "setup_s")) is not None]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": typical(passes, [job.id for job in jobs], "wall_s"),
        **{slot: typical(passes, [job.id for job in jobs if job.slot == slot], "main_s")
           for slot in ("job_a_s", "job_b_s")},
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "pass_frac": 1.0 - failed / len(runs),
    }
    named = {m: typical(passes, [job.id for job in jobs if job.metric == m], "main_s")
             for m in dict.fromkeys(job.metric for job in jobs if job.metric)}
    named["fail_frac"] = failed / len(runs)
    # The same times unscaled, and how slow the machine ran against CAL_REF_S.
    raw_setups = [r["setup_s"] for r in runs if r["setup_s"] is not None]
    named["setup_s measured"] = statistics.median(raw_setups) if raw_setups else 0.0
    named["wall_s measured"] = measured(passes, [job.id for job in jobs], "wall_s")
    for m in dict.fromkeys(job.metric for job in jobs if job.metric):
        named[f"{m} measured"] = measured(
            passes, [job.id for job in jobs if job.metric == m], "main_s")
    named["machine_slowdown"] = statistics.median(r["cal_s"] for r in runs) / CAL_REF_S
    return metrics, named


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics, each the median over the traced passes.

    Counts are the same in every traced pass (``check_passes`` enforces it).
    All read 0 when the run ended before a traced pass.
    """
    if not traced:
        return dict.fromkeys(PER_LAYER_UNITS, 0.0)
    samples = [tracing.layer_metrics([(r["threads"], r["times"], r["counts"])
                                      for r in p.values() if "times" in r])
               for p in traced]
    metrics = {name: samples[0][name] if name in tracing.COUNTS
               else statistics.median([s[name] for s in samples]) for name in samples[0]}
    ids = list(traced[0])
    metrics["trace.overhead_frac"] = \
        typical(traced, ids, "wall_s") / typical(plain, ids, "wall_s") - 1.0
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rangepolymer").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workload_jobs(name, seed)
    where = BUILD / "runs" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(where, ignore_errors=True)
    least = 4 if trace else 2
    passes: list[dict] = []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while True:
        passes.append(run_pass(jobs, where / f"pass{len(passes)}",
                               trace and len(passes) % 2 == 1, deadline))
        elapsed = time.monotonic() - start
        if len(passes) >= least and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        if time.monotonic() >= deadline:
            break
    traced = passes[1::2] if trace else []  # passes alternate plain, traced
    plain = passes[::2] if trace else passes
    check_passes(jobs, passes, traced, where)
    runs = [r for p in passes for r in p.values()]
    unexpected = [r for r in runs if r["failures"] and not is_known(r)]
    if not unexpected:  # keep the artifacts only where they explain a failure
        shutil.rmtree(where)
    metrics, named = end_to_end(jobs, plain)
    layer = per_layer(traced, plain) if trace else None
    meta = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": len(passes),
        "nproc": NPROC, "threads": {job.id: job.threads for job in jobs},
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
    }
    result = {
        "correct": not unexpected, "attempted": len(runs),
        "failed": sum(bool(r["failures"]) for r in runs),
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
        if trace else {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    (BUILD / "results" / f"{where.name}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "named": named, "passes": passes}, indent=1))
    _print_table(name, jobs, passes, metrics, named, layer, runs)
    print("meta " + json.dumps(meta, sort_keys=True))
    return result


def _print_table(name, jobs, passes, metrics, named, layer, runs) -> None:
    print(f"workload {name}: {len(passes)} passes of {len(jobs)} jobs")
    for key, value in metrics.items():
        alias = " + ".join(dict.fromkeys(j.metric for j in jobs if j.slot == key))
        note = f"  (= {alias})" if alias else ""
        print(f"  {key:<24} {value:12.6g} {END_TO_END[key]}{note}")
    for key, value in named.items():
        unit = {"fail_frac": "fraction", "machine_slowdown": "x"}.get(key, "s")
        print(f"  {key:<24} {value:12.6g} {unit}")
    for key, value in (layer or {}).items():
        if value:  # layers this workload never enters read 0 in the JSON line
            print(f"  {key:<24} {value:12.6g} {PER_LAYER_UNITS[key]}")
    seen = set()
    for run in runs:
        for kind, msg in run["failures"]:
            tag = f"known defect ({KNOWN_DEFECTS[run['job']]})" if is_known(run) \
                else "FAILED"
            if (run["job"], msg) not in seen:
                seen.add((run["job"], msg))
                print(f"  {tag}: {run['job']}: {kind}: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "rangepolymer" / "cli.py").is_file():
        sys.stderr.write(f"error: no rangepolymer sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    # Compile the bytecode once, as an installed package has it, so that the
    # first pass's setup_s is not the compiler's.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "rangepolymer"),
                    str(HERE)], env=ENV, check=True, stdout=subprocess.DEVNULL)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
