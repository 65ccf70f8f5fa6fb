"""Tests of the benchmark harness itself, at tiny input sizes.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from sketchbisect import LogScaleParams, Partition, estimate_mu, sample_sbm  # noqa: E402
from sketchbisect.certificate import CERTIFIED, CertificateReport  # noqa: E402
from sketchbisect.pipeline import PipelineResult  # noqa: E402
from sketchbisect.solver import SdpSolution  # noqa: E402
from workloads import _pipeline_outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run_bench(workload, trace, seed, attempt=0):
    """Last stdout line of a tiny run; ``attempt`` separates repeated runs."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric_with_its_unit(workload, trace):
    result = run_bench(workload, trace, seed=5)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_every_count(workload):
    for trace in (0, 1):
        first, again = run_bench(workload, trace, 9), run_bench(workload, trace, 9, attempt=1)
        counts = {name for name, m in first["metrics"].items()
                  if m["unit"] in ("count", "frac")}
        assert counts >= ({"solver.sweeps", "certificate.iterations"} if trace
                          else {"recovered_frac", "certified_frac"})
        for name in counts:
            assert first["metrics"][name] == again["metrics"][name], name


@pytest.mark.parametrize("sketched", [False, True])
def test_certified_cut_check_rejects_a_cut_worse_than_planted(sketched):
    graph, planted = sample_sbm(LogScaleParams(50.0, 1.0, 400).to_sbm_params(), seed=3)
    mu = estimate_mu(graph).mu
    kept = graph.vertex_ids[::2] if sketched else graph.vertex_ids
    signs = planted.restrict(kept).signs.copy()
    signs[:5] = -signs[:5]  # move five vertices across the planted cut
    fabricated = Partition(kept, signs)
    result = PipelineResult(
        full_partition=planted,
        sketch_vertices=kept,
        sketch_partition=fabricated,
        mu_used=mu,
        sdp=SdpSolution(None, 0.0, fabricated, 0.0, 1, True, []),
        certificate=CertificateReport(CERTIFIED, 1.0, 0.0, 1, 1.0),
        fell_back_random=False,
        unassigned=np.empty(0, dtype=np.int64),
        timings={},
    )
    outcome = _pipeline_outcome(graph, planted, result)
    assert outcome.certified
    assert any("below the planted cut" in p for p in outcome.problems)

    honest = PipelineResult(**{**result.__dict__, "sketch_partition": planted.restrict(kept)})
    assert _pipeline_outcome(graph, planted, honest).problems == []
