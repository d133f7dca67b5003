"""Spans and counters around the public functions of each rangepolymer layer.

A job process calls ``install`` before it enters ``rangepolymer.cli.main``.
Every public function of the layer modules is replaced by a wrapper, both in
the module that defines it and in every rangepolymer module that imported
it, so module-global calls (``clt_check`` -> ``polymer_law``) are seen too.
Spans stay in memory and are written out once, when the job ends.

The parent process turns the spans of each job into self and inclusive
times (``job_times``) and the spans and counters of one pass of a workload
into the per-layer metrics (``layer_metrics``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time

LAYERS = ("cli", "exact", "density", "mc", "discrete", "continuous", "roots")

# Writers that produce the CLI's artifacts; together they make cli.write_s.
WRITERS = (
    "cli._write_csv",
    "cli._write_json",
    "exact.JointEndpointRangeLaw.to_csv",
    "exact.JointEndpointRangeLaw.to_json",
    "mc.BrownianRangeHistograms.to_csv",
)

# Counters that must repeat exactly from pass to pass and run to run.  Each is
# summed over the jobs of a pass; mc.path_steps covers both Brownian jobs.
COUNTS = (
    "exact.build_calls",
    "exact.entries",
    "density.endpoint_clt_calls",
    "density.joint_terms",
    "density.z_nodes",
    "density.series_terms",
    "mc.walk_steps",
    "mc.path_steps",
    "roots.calls",
    "roots.iterations",
    "cli.bytes_written",
)

# Per-layer metric -> (span name, "self" or "incl").
SPAN_TIMES = {
    "exact.build_s": ("exact.joint_law_exact", "self"),
    "exact.tilt_s": ("exact.polymer_law", "self"),
    "exact.clt_s": ("exact.clt_check", "self"),
    "exact.ldp_s": ("exact.ldp_empirical", "self"),
    "density.endpoint_clt_s": ("density.endpoint_clt_continuous", "self"),
    "density.z_s": ("density.partition_function_continuous", "self"),
    "density.range_clt_s": ("density.range_second_order_cdf", "self"),
    "density.range_density_s": ("density.range_density", "self"),
    "mc.tilted_s": ("mc.polymer_estimate_tilted", "self"),
    "discrete.rate_s": ("discrete.ldp_rate_discrete_info", "incl"),
    "continuous.rate_s": ("continuous.ldp_rate_continuous_info", "incl"),
}


class Tracer:
    """In-memory spans (name, start, end, parent, job) and named counters."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self.seen: dict[int, object] = {}  # results a hook has counted
        self._local = threading.local()

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, bound_args, result)`` counts."""
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent, self.job)
                stack.pop()
            if hook is not None:
                hook(self, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def count_only(self, fn, name: str, value):
        """``fn`` without a span, adding ``value(result)`` to counter ``name``.

        For hot private kernels whose work is read from outside.
        """

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(name, value(result))
            return result

        return counted


def _law_built(tracer, args, law):
    # Cached laws come back as the same object; count each distinct build once.
    if id(law) not in tracer.seen:
        tracer.seen[id(law)] = law
        tracer.add("exact.build_calls", 1)
        tracer.add("exact.entries", len(law.ps))


def _tilted(tracer, args, est):
    tracer.add("mc.walk_steps", args["samples"] * args["n"])
    tracer.add("mc.ess", est.effective_sample_size)
    tracer.add("mc.samples", args["samples"])


def _brownian(tracer, args, hist):
    tracer.add("mc.path_steps", args["samples"] * int(round(args["t"] / args["dt"])))


HOOKS = {
    "exact.joint_law_exact": _law_built,
    "density.endpoint_clt_continuous":
        lambda tr, a, r: tr.add("density.endpoint_clt_calls", 1),
    "density.partition_function_continuous":
        lambda tr, a, r: tr.add("density.z_nodes", r.nodes),
    "density.range_density": lambda tr, a, r: tr.add("density.series_terms", r.terms_used),
    "mc.polymer_estimate_tilted": _tilted,
    "mc.brownian_range_mc": _brownian,
    "roots.bisect_newton": lambda tr, a, r: (tr.add("roots.calls", 1),
                                             tr.add("roots.iterations", r.iterations)),
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions, where defined and where imported."""
    mods = {layer: importlib.import_module(f"rangepolymer.{layer}") for layer in LAYERS}
    every = [importlib.import_module("rangepolymer"), *mods.values()]

    def replace(old, new):
        for mod in every:
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)

    for layer, mod in mods.items():
        for name, fn in _public_functions(mod):
            span = f"{layer}.{name}"
            replace(fn, tracer.wrap(span, fn, HOOKS.get(span)))
    for name in ("_write_csv", "_write_json"):
        fn = getattr(mods["cli"], name)
        replace(fn, tracer.wrap(f"cli.{name}", fn))
    for layer, cls, meth in (("exact", "JointEndpointRangeLaw", "to_csv"),
                             ("exact", "JointEndpointRangeLaw", "to_json"),
                             ("mc", "BrownianRangeHistograms", "to_csv")):
        klass = getattr(mods[layer], cls)
        setattr(klass, meth, tracer.wrap(f"{layer}.{cls}.{meth}", getattr(klass, meth)))
    density = mods["density"]
    density._joint_series_scaled = tracer.count_only(
        density._joint_series_scaled, "density.joint_terms", lambda r: r[2])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` holds (name, start, end, parent index, ...) tuples.  The
    covered part is the length of the union of the children's intervals,
    clipped to the parent, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def job_times(spans) -> dict[str, dict[str, float]]:
    """Span name -> {"self": s, "incl": s, "calls": k} summed over one job."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        acc = out.setdefault(span[0], {"self": 0.0, "incl": 0.0, "calls": 0})
        acc["self"] += own
        acc["incl"] += span[2] - span[1]
        acc["calls"] += 1
    return out


def layer_metrics(jobs) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``jobs`` holds one (threads, times, counts) triple per job process of the
    pass, with ``times`` from ``job_times`` and ``counts`` the job's
    counters.  Counters are summed over the jobs of this pass only, so each
    pass recomputes them from its own fresh processes.
    """
    total: dict[str, float] = {}
    for _, _, counts in jobs:
        for name, value in counts.items():
            total[name] = total.get(name, 0) + value

    def time_of(name, kind, threads=None):
        return math.fsum(t.get(name, {}).get(kind, 0.0) for th, t, _ in jobs
                         if threads is None or th == threads)

    m = {name: time_of(span, kind) for name, (span, kind) in SPAN_TIMES.items()}
    m.update({name: total.get(name, 0) for name in COUNTS})
    m["cli.write_s"] = math.fsum(time_of(name, "incl") for name in WRITERS)
    m["exact.entries_per_s"] = _ratio(m["exact.entries"], m["exact.build_s"])
    m["mc.walk_ns_per_step"] = _ratio(1e9 * m["mc.tilted_s"], m["mc.walk_steps"])
    m["mc.ess_frac"] = _ratio(total.get("mc.ess", 0.0), total.get("mc.samples", 0))
    # The Brownian sampler runs once single-threaded and once threaded.
    threads = sorted({th for th, t, _ in jobs if "mc.brownian_range_mc" in t})
    single = time_of("mc.brownian_range_mc", "self", 1)
    single_steps = sum(c.get("mc.path_steps", 0) for th, _, c in jobs if th == 1)
    m["mc.brownian_s"] = single
    m["mc.brownian_ns_per_step"] = _ratio(1e9 * single, single_steps)
    most = threads[-1] if threads else 1
    many = time_of("mc.brownian_range_mc", "self", most)
    m["mc.scaling_eff"] = _ratio(single, most * many) if most > 1 else 0.0
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
