"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload drives the package through its public entry points, looked
up on their modules at call time so that a tracer can wrap them. One pass
runs the workload's whole instance set once, one instance at a time
(closed loop, one client). A pass is a sequence of timed units (an
instance's sampling or its solve, a grid strip, the grid's emission, a CLI
command), each timed from its inputs in to its partitions returned or
written; a speed probe follows each unit, and checks run after the clock
stops.
"""

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from sketchbisect import cli, experiments, graphs, pipeline
from sketchbisect.certificate import CERTIFIED
from sketchbisect.graphs import (
    LogScaleParams,
    induced_subgraph,
    load_graph,
    load_partition,
    save_graph,
    save_partition,
)
from sketchbisect.pipeline import SketchConfig, recovered_planted
from sketchbisect.solver import SolverConfig

from checks import cell_problems, certified_cut_problems, csv_problems, partition_problems


def child_seed(seed, k):
    """Independent input seed for instance k of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


@dataclass
class Outcome:
    """What one instance produced, as far as the end-to-end metrics need."""

    recovered: bool = False
    certified: bool = False
    problems: list = field(default_factory=list)
    signature: tuple = ()


@dataclass
class PassResult:
    units: dict  # timed unit -> seconds; the same keys on every pass
    instance_s: list
    outcomes: list
    probe_s: list = field(default_factory=list)  # speed probes run during the pass

    @property
    def wall_s(self):
        return sum(self.units.values())


def _failed(exc):
    return Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])


def _pipeline_outcome(graph, planted, result):
    """Checks shared by the workloads that call the pipeline directly."""
    cert = result.certificate
    certified = cert is not None and cert.verdict == CERTIFIED
    problems = partition_problems(graph.vertex_ids, result.full_partition, result.unassigned)
    if certified:
        kept_all = result.sketch_vertices.size == graph.num_vertices
        sub = graph if kept_all else induced_subgraph(graph, result.sketch_vertices)
        problems += certified_cut_problems(sub, result.mu_used, result.sketch_partition, planted)
    return Outcome(
        recovered=recovered_planted(planted, result),
        certified=certified,
        problems=problems,
        signature=(
            result.sdp.sweeps_used,
            None if cert is None else (cert.verdict, cert.iterations),
            result.fell_back_random,
            int(result.sketch_vertices.size),
            int(result.unassigned.size),
        ),
    )


class Workload:
    name = ""
    # compare traced stage spans with PipelineResult.timings
    stage_check = False

    def prepare(self, seed, workdir):
        """One-time preparation that writes input files (none by default)."""

    def load(self, seed, workdir):
        """In-memory inputs for the timed passes, read after ``prepare``."""
        raise NotImplementedError

    def run_pass(self, inputs, tracer, probe):
        """One pass over the instance set; ``probe.after`` follows each timed unit."""
        raise NotImplementedError


class SbmPipeline(Workload):
    """Sample a block-model graph, then sketch_and_solve or full_solve it."""

    stage_check = True

    def __init__(self, name, n, instances, sketch, alpha=50.0, beta=1.0):
        self.name = name
        self.n, self.instances, self.sketch = n, instances, sketch
        self.alpha, self.beta = alpha, beta

    def load(self, seed, workdir):
        params = LogScaleParams(self.alpha, self.beta, self.n).to_sbm_params()
        return params, [child_seed(seed, k) for k in range(self.instances)]

    def _instance(self, params, seed, probe):
        t0 = time.perf_counter()
        graph, planted = graphs.sample_sbm(params, seed)
        stages = {"sample": time.perf_counter() - t0}
        probe.after(stages["sample"])
        t0 = time.perf_counter()
        if self.sketch:
            config = SketchConfig(gamma="auto", alpha=self.alpha, beta=self.beta, seed=seed)
            result = pipeline.sketch_and_solve(graph, config)
        else:
            result = pipeline.full_solve(graph, seed=seed)
        stages["solve"] = time.perf_counter() - t0
        probe.after(stages["solve"])
        return stages, _pipeline_outcome(graph, planted, result)

    def run_pass(self, inputs, tracer, probe):
        params, seeds = inputs
        units, times, outcomes = {}, [], []
        for k, seed in enumerate(seeds):
            if tracer:
                tracer.instance = k
            try:
                stages, outcome = self._instance(params, seed, probe)
            except Exception as exc:  # a failing instance is counted, not fatal
                stages, outcome = {}, _failed(exc)
            units.update({(k, stage): t for stage, t in stages.items()})
            times.append(sum(stages.values()))
            outcomes.append(outcome)
        return PassResult(units, times, outcomes)


class GridThreshold(Workload):
    """run_grid over alpha strips across the recovery boundary, then emit.

    Each strip is one run_grid call over every alpha with one rep and its
    own base seed, timed as a unit; one CSV and one heatmap cover all strips.
    """

    name = "grid-threshold"

    def __init__(self, n, strips, max_sweeps, alphas=(4.0, 6.0, 7.0, 8.0)):
        self.n, self.strips, self.max_sweeps, self.alphas = n, strips, max_sweeps, alphas

    def load(self, seed, workdir):
        specs = [
            experiments.GridSpec(
                alphas=self.alphas,
                betas=(1.0,),
                n=self.n,
                reps=1,
                methods=(experiments.METHOD_FULL_SDP,),
                base_seed=child_seed(seed, r),
                solver=SolverConfig(max_sweeps=self.max_sweeps),
            )
            for r in range(self.strips)
        ]
        stem = Path(workdir) / f"grid-{self.n}-{seed}"
        return specs, stem.with_suffix(".csv"), stem.with_suffix(".svg")

    def run_pass(self, inputs, tracer, probe):
        specs, csv_path, svg_path = inputs
        cell_count = sum(len(s.alphas) * len(s.betas) * s.reps for s in specs)
        units, cells = {}, []
        try:
            for r, spec in enumerate(specs):
                if tracer:
                    tracer.instance = r
                t0 = time.perf_counter()
                cells += experiments.run_grid(spec, jobs=1)
                units[r] = time.perf_counter() - t0
                probe.after(units[r])
            if tracer:
                tracer.instance = "emit"
            t0 = time.perf_counter()
            experiments.emit_csv(cells, csv_path)
            experiments.emit_heatmap_svg(cells, svg_path)
            units["emit"] = time.perf_counter() - t0
            probe.after(units["emit"])
            row_problems = csv_problems(cells, csv_path)
        except Exception as exc:  # a grid call failed: every cell counts
            return PassResult({}, [], [_failed(exc) for _ in range(cell_count)])
        outcomes = [
            Outcome(
                recovered=c.recovered,
                certified=not c.error and not c.fell_back,
                problems=cell_problems(c) + rows,
                signature=(c.recovered, c.fell_back, c.mu_used, c.unassigned_count, c.seed),
            )
            for c, rows in zip(cells, row_problems)
        ]
        # cell times are the grid runner's own per-cell clock (sample + solve)
        times = [c.total_ms / 1e3 for c in cells if not c.error]
        return PassResult(units, times, outcomes)


class CliEdgelist(Workload):
    """`sketch` then `certify` on an edge-list file, through cli.main in-process."""

    name = "cli-edgelist"

    def __init__(self, n, alpha=50.0, beta=1.0):
        self.n, self.alpha, self.beta = n, alpha, beta

    def _paths(self, seed, workdir):
        stem = Path(workdir) / f"cli-{self.n}-{seed}"
        return (stem.with_suffix(".edges"), stem.with_suffix(".planted"),
                stem.with_suffix(".cut"))

    def prepare(self, seed, workdir):
        graph_path, planted_path, _ = self._paths(seed, workdir)
        params = LogScaleParams(self.alpha, self.beta, self.n).to_sbm_params()
        graph, planted = graphs.sample_sbm(params, child_seed(seed, 0))
        save_graph(graph, graph_path)
        save_partition(planted, planted_path)

    def load(self, seed, workdir):
        graph_path, planted_path, cut_path = self._paths(seed, workdir)
        return load_graph(graph_path), load_partition(planted_path), graph_path, cut_path

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        return code, out.getvalue()

    def _instance(self, graph, planted, graph_path, cut_path, probe):
        t0 = time.perf_counter()
        code, sketch_out = self._cli(["sketch", graph_path, "--out", cut_path,
                                      "--alpha", self.alpha, "--beta", self.beta])
        stages = {"sketch": time.perf_counter() - t0}
        probe.after(stages["sketch"])
        if code != 0:
            return stages, Outcome(problems=[f"sketch exited {code}"])
        sketch = json.loads(sketch_out)
        t0 = time.perf_counter()
        code, cert_out = self._cli(["certify", graph_path, cut_path, "--mu", repr(sketch["mu"])])
        stages["certify"] = time.perf_counter() - t0
        probe.after(stages["certify"])
        if code != 0:
            return stages, Outcome(problems=[f"certify exited {code}"])
        verdict = json.loads(cert_out)["verdict"]

        cut = load_partition(cut_path)
        unassigned = np.setdiff1d(graph.vertex_ids, cut.ids)
        problems = partition_problems(graph.vertex_ids, cut, unassigned)
        if unassigned.size != sketch["unassigned"]:
            problems.append(f"{unassigned.size} vertices missing from the cut, "
                            f"sketch reported {sketch['unassigned']}")
        certified = verdict == CERTIFIED
        if certified:
            problems += certified_cut_problems(graph, sketch["mu"], cut, planted)
        done = SimpleNamespace(full_partition=cut, unassigned=unassigned)
        return stages, Outcome(
            recovered=recovered_planted(planted, done),
            certified=certified,
            problems=problems,
            signature=(sketch_out, cert_out, cut.signs.tobytes()),
        )

    def run_pass(self, inputs, tracer, probe):
        if tracer:
            tracer.instance = 0
        try:
            stages, outcome = self._instance(*inputs, probe)
        except Exception as exc:  # a failing instance is counted, not fatal
            stages, outcome = {}, _failed(exc)
        return PassResult(stages, [sum(stages.values())], [outcome])


def make_workloads(size="full"):
    """Workloads by name; ``tiny`` shrinks every input for the benchmark's tests."""
    tiny = size == "tiny"
    return {w.name: w for w in (
        SbmPipeline("sketch-sbm", n=400 if tiny else 6000, instances=1 if tiny else 2,
                    sketch=True),
        SbmPipeline("full-easy", n=400 if tiny else 2000, instances=1 if tiny else 2,
                    sketch=False),
        GridThreshold(n=100 if tiny else 400, strips=1 if tiny else 12, max_sweeps=30),
        CliEdgelist(n=400 if tiny else 4000),
    )}
