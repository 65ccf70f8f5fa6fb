"""sketchbisect benchmark: one workload, timed untraced or traced, checked.

Run from the repository root:

    python3 bench/run.py --workload sketch-sbm --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy. Set-up (package import plus input preparation) runs
three times in fresh interpreters, spread between the timed passes, and is
reported as its median. The workload's seeded instance set is run pass
after pass until ``--seconds`` (set-up included) is used up; the first
pass is a warm-up and is not timed. A pass is a sequence of timed units,
each followed by a speed probe (``speed.py``); ``wall_s`` is the mean pass
time scaled to the probe's reference speed. With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate and it holds the per-layer metrics plus the
tracing overhead. Earlier lines, and a report under ``bench/work/``, give
sample counts, the uncorrected times, per-layer self times, check failures
and the machine the numbers come from.
"""

import os

# Pin BLAS and OpenMP before numpy loads; set-up subprocesses inherit this.
THREAD_PINS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / "work"
SETUP_REPEATS = 3


def import_package():
    """Import sketchbisect from this checkout's src/ or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import sketchbisect
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sketchbisect from {SRC}: {exc}")
    if not Path(sketchbisect.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: sketchbisect came from {sketchbisect.__file__}, not {SRC}")
    return sketchbisect


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def timed_setup(args):
    """Child mode: import the package, prepare inputs, print the seconds taken."""
    t0 = time.perf_counter()
    import_package()
    from workloads import make_workloads

    make_workloads(args.size)[args.workload].prepare(args.seed, WORKDIR)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


class SetupSampler:
    """Set-up timed in fresh interpreters, one sample at a time."""

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                     args.workload, "--seed", str(args.seed), "--size", args.size,
                     "--setup-only"]
        self.samples = []

    def take(self):
        """Take one more sample, unless all SETUP_REPEATS are taken."""
        if len(self.samples) >= SETUP_REPEATS:
            return
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=150,
                              check=False)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{done.stderr}")
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self.take()

    def pending_s(self):
        """Rough seconds the samples still to take will need."""
        return (SETUP_REPEATS - len(self.samples)) * statistics.median(self.samples)


def run_passes(workload, inputs, seconds, trace, modules, setups):
    """Run passes until ``seconds`` are used; with ``trace``, odd passes are traced.

    Pass 0 is the warm-up. One set-up sample is taken before each pass, so
    the samples spread over the run; those the time leaves over are taken
    at the end.
    """
    from speed import SpeedProbe
    from tracing import Tracer

    probe = SpeedProbe()
    passes = []
    start = time.perf_counter()
    while True:
        setups.take()
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        t0 = time.perf_counter()
        if tracer:
            tracer.install(modules)
        try:
            result = workload.run_pass(inputs, tracer, probe)
        finally:
            if tracer:
                tracer.uninstall()
        result.probe_s = probe.take()
        passes.append((result, tracer))
        last = time.perf_counter() - t0
        used = time.perf_counter() - start + last + setups.pending_s()
        if len(passes) >= (3 if trace else 2) and used > seconds:
            setups.finish()
            return passes


def wall_seconds(results):
    """Mean pass wall time at the probe's reference speed."""
    from speed import corrected_wall_s

    return corrected_wall_s([r.wall_s for r in results],
                            [p for r in results for p in r.probe_s])


def mark_nondeterminism(passes):
    """Every pass reruns the same seeded inputs, so every result must repeat."""
    first = passes[0][0].outcomes
    for result, _ in passes[1:]:
        for k, (a, b) in enumerate(zip(first, result.outcomes)):
            if a.signature != b.signature:
                b.problems.append(f"instance {k} differs from the first pass")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input; used by the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_only:
        return timed_setup(args)

    import_package()
    from sketchbisect import cli, experiments, graphs, pipeline
    from tracing import LAYERS, median_layer_metrics, self_times, stage_mismatches
    from workloads import make_workloads

    workloads = make_workloads(args.size)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[args.workload]
    run_start = time.perf_counter()
    setups = SetupSampler(args)
    setups.take()  # the first sample also writes the input files
    inputs = workload.load(args.seed, WORKDIR)
    passes = run_passes(workload, inputs, args.seconds - (time.perf_counter() - run_start),
                        args.trace, (graphs, pipeline, experiments, cli), setups)
    setup_samples = setups.samples
    setup_s = statistics.median(setup_samples)
    mark_nondeterminism(passes)

    plain = [r for r, t in passes[1:] if t is None]
    traced = [t.spans for r, t in passes if t is not None]
    for result, tracer in passes:
        if tracer and workload.stage_check:
            for k, stage, timing, spans in stage_mismatches(tracer.spans):
                result.outcomes[k].problems.append(
                    f"stage {stage}: timings {timing:.6f}s, traced spans {spans:.6f}s")

    outcomes = [o for r, _ in passes for o in r.outcomes]
    failed = [o for o in outcomes if o.problems]
    first = passes[0][0].outcomes
    wall_s = wall_seconds(plain)
    instance_s = [t for r in plain for t in r.instance_s]
    # Reported beside the metrics, not as one: on grid-threshold the median cell
    # time depends on each seed's mix of recovered and fallen-back cells.
    samples = {"passes": len(plain), "instances": len(instance_s),
               "instance_s_p50": statistics.median(instance_s) if instance_s else None,
               "pass_wall_s_mean": statistics.mean(r.wall_s for r in plain),
               "probe_s_mean": statistics.mean(p for r in plain for p in r.probe_s),
               "probes": sum(len(r.probe_s) for r in plain),
               "setup_runs": len(setup_samples)}

    if args.trace:
        metrics = median_layer_metrics(traced)
        traced_wall = wall_seconds([r for r, t in passes if t is not None])
        metrics["trace_overhead"] = (traced_wall / wall_s if wall_s else 0.0, "ratio")
        samples["traced_passes"] = len(traced)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
            "recovered_frac": (sum(o.recovered for o in first) / len(first), "frac"),
            "certified_frac": (sum(o.certified for o in first) / len(first), "frac"),
        }

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        "samples": samples,
        "setup_samples_s": setup_samples,
        "pass_wall_s": [[r.wall_s, t is not None] for r, t in passes],
        "unit_s": {str(k): [r.units.get(k) for r in plain] for k in plain[0].units},
        "failed_frac": len(failed) / len(outcomes),
        "problems": [p for o in failed for p in o.problems][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if traced:
        layer_self = [self_times(spans) for spans in traced]
        report["layer_self_s"] = {
            layer: statistics.median(s[layer] for s in layer_self) for layer in LAYERS}
        spans_path = WORKDIR / f"spans-{workload.name}-{args.size}-{args.seed}.json"
        spans_path.write_text(json.dumps(
            [[s.to_json(i) for i, s in enumerate(spans)] for spans in traced]))
    report_path = WORKDIR / f"report-{workload.name}-{args.size}-{args.seed}-{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2))

    print(f"# {workload.name} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"# environment {json.dumps(report['environment'])}")
    print(f"# samples {json.dumps(samples)}; failed {len(failed)}/{len(outcomes)}")
    for problem in report["problems"]:
        print(f"# FAILED {problem}")
    for layer, value in report.get("layer_self_s", {}).items():
        print(f"# self {layer:<12} {value:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
