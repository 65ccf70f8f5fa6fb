"""Spans around the package's public functions, recorded from outside it.

The tracer replaces functions at the module attributes through which the
pipeline, the grid runner and the command line call them (and through
which the benchmark itself calls in), so no package code changes. Spans
are kept in memory; the benchmark writes them out when the run ends.
Each span records the layer (the module that defines the function), its
start and end, its parent span and the instance it belongs to, plus a few
counts read off the returned object.
"""

import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("graphs", "encoding", "solver", "certificate", "pipeline", "experiments", "cli")

# Public functions wrapped wherever one of the patched modules exposes them.
TRACED_FUNCTIONS = (
    "sample_sbm",
    "load_graph",
    "load_partition",
    "save_partition",
    "estimate_mu",
    "bernoulli_vertex_sample",
    "induced_subgraph",
    "solve_sdp",
    "check_certificate",
    "vote_extend",
    "sketch_and_solve",
    "full_solve",
    "run_grid",
    "emit_csv",
    "emit_heatmap_svg",
    "main",
)

# sketch_and_solve accepts the sketch cut only below this gap (its docstring
# states the same threshold).
RANK_ONE_GAP_MAX = 1e-6


def _counts(name, result):
    """Work counts read off a traced function's return value."""
    if name == "sample_sbm":
        return {"edges": result[0].edge_count}
    if name == "load_graph":
        return {"edges": result.edge_count}
    if name == "solve_sdp":
        return {"sweeps": result.sweeps_used, "rank_one_gap": result.rank_one_gap}
    if name == "check_certificate":
        return {"iterations": result.iterations, "verdict": result.verdict}
    if name == "sketch_and_solve":
        return {
            "sketch_n": int(result.sketch_vertices.size),
            "fell_back": bool(result.fell_back_random),
            "timings": dict(result.timings),
        }
    return {}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: object
    instance: object
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self, index):
        return {
            "id": index,
            "name": f"{self.layer}.{self.name}",
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "instance": self.instance,
            "counts": self.counts,
        }


class Tracer:
    """Records spans while installed; ``instance`` tags every new span."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._patched = []

    def _wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None,
                        self.instance)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, result)
            return result

        return traced

    def install(self, modules):
        """Wrap every traced function each module exposes as an attribute."""
        for module in modules:
            for name in TRACED_FUNCTIONS:
                fn = getattr(module, name, None)
                if callable(fn) and fn.__module__.startswith("sketchbisect."):
                    self._patched.append((module, name, fn))
                    setattr(module, name, self._wrap(fn))

    def uninstall(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()


def self_times(spans):
    """Seconds per layer spent in the layer's own code, children excluded."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for span, inner in zip(spans, child_time):
        out[span.layer] += span.duration - inner
    return out


def _total(spans, *names):
    return sum((s.duration for s in spans if s.name in names), 0.0)


def _share(flags):
    return sum(flags) / len(flags) if flags else 0.0


def layer_metrics(spans):
    """Per-layer metrics for one traced pass of a workload's instance set."""
    solves = [s.counts for s in spans if s.name == "solve_sdp"]
    checks = [s.counts for s in spans if s.name == "check_certificate"]
    pipes = [s.counts for s in spans if s.name == "sketch_and_solve"]
    solve_s = _total(spans, "solve_sdp")
    check_s = _total(spans, "check_certificate")
    sweeps = sum(c["sweeps"] for c in solves)
    iterations = sum(c["iterations"] for c in checks)
    own = self_times(spans)
    return {
        "graphs.sample_sbm_s": (_total(spans, "sample_sbm"), "s"),
        "graphs.induced_subgraph_s": (_total(spans, "induced_subgraph"), "s"),
        "graphs.vertex_sample_s": (_total(spans, "bernoulli_vertex_sample"), "s"),
        "graphs.load_graph_s": (_total(spans, "load_graph"), "s"),
        "graphs.partition_io_s": (_total(spans, "load_partition", "save_partition"), "s"),
        "graphs.edges": (sum(s.counts.get("edges", 0) for s in spans), "count"),
        "encoding.estimate_mu_s": (_total(spans, "estimate_mu"), "s"),
        "solver.solve_s": (solve_s, "s"),
        "solver.sweeps": (sweeps, "count"),
        "solver.sweep_ms": (solve_s * 1e3 / sweeps if sweeps else 0.0, "ms"),
        "solver.rank_one_accept_frac": (
            _share([c["rank_one_gap"] <= RANK_ONE_GAP_MAX for c in solves]), "frac"),
        "certificate.check_s": (check_s, "s"),
        "certificate.iterations": (iterations, "count"),
        "certificate.matvec_us": (check_s * 1e6 / iterations if iterations else 0.0, "us"),
        "certificate.certified_frac": (
            _share([c["verdict"] == "CERTIFIED" for c in checks]), "frac"),
        "certificate.inconclusive_count": (
            sum(c["verdict"] == "INCONCLUSIVE" for c in checks), "count"),
        "pipeline.vote_s": (_total(spans, "vote_extend"), "s"),
        "pipeline.self_s": (own["pipeline"], "s"),
        "pipeline.fallback_frac": (_share([c["fell_back"] for c in pipes]), "frac"),
        "pipeline.sketch_n": (sum(c["sketch_n"] for c in pipes), "count"),
        "experiments.self_s": (own["experiments"], "s"),
        "experiments.emit_s": (_total(spans, "emit_csv", "emit_heatmap_svg"), "s"),
        "cli.self_s": (own["cli"], "s"),
    }


def median_layer_metrics(passes):
    """Median of each time over traced passes; counts come from the first.

    Counts and shares are identical on every pass of a seeded instance
    set (the benchmark checks that separately), so only times vary.
    """
    per_pass = [layer_metrics(spans) for spans in passes]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        if unit in ("s", "ms", "us"):
            value = statistics.median(p[name][0] for p in per_pass)
        out[name] = (value, unit)
    return out


# PipelineResult.timings key -> traced child spans of sketch_and_solve it covers
_STAGE_SPANS = {
    "estimate": ("estimate_mu",),
    "sample": ("bernoulli_vertex_sample", "induced_subgraph"),
    "solve": ("solve_sdp",),
    "certify": ("check_certificate",),
    "extend": ("vote_extend",),
}


def stage_mismatches(spans, abs_tol=5e-3, rel_tol=0.1):
    """Stages whose traced child spans disagree with PipelineResult.timings.

    Each stage timing brackets its traced calls, so it must be at least the
    spans' total and exceed it only by call overhead. A wrapper on the wrong
    attribute, a missing span or a double-counted one shows up here.
    Returns ``(instance, stage, timing_s, spans_s)`` tuples.
    """
    children = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    bad = []
    for i, span in enumerate(spans):
        if span.name != "sketch_and_solve":
            continue
        kids = children.get(i, [])
        for stage, timing in span.counts["timings"].items():
            inside = [k for k in kids if k.name in _STAGE_SPANS[stage]]
            traced = sum(k.duration for k in inside)
            if not inside and stage in ("sample", "solve"):
                bad.append((span.instance, stage, timing, traced))
            elif not -1e-6 <= timing - traced <= abs_tol + rel_tol * timing:
                bad.append((span.instance, stage, timing, traced))
    return bad
