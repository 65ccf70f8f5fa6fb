"""Sketch-and-solve driver: estimate density, subsample, solve, certify, vote.

The full graph is read three times, each time through its CSR upper
triangle only: its edge count gives the density offset mu, its rows
inside a Bernoulli vertex sample give the induced subgraph, and its
products with the sketch's signs give the majority vote. The SDP and its
certificate run on the induced subgraph, so the expensive steps, and the
only symmetric CSR built when gamma < 1, cost a gamma-fraction of the
full problem.
"""

import time
from dataclasses import dataclass

import numpy as np

from .certificate import CERTIFIED, check_certificate
from .encoding import checked_mu, estimate_mu
from .graphs import Partition, bernoulli_vertex_sample, induced_subgraph
from .seeding import spawn_seed
from .solver import SolverConfig, solve_sdp
from .thresholds import conjectured_gamma_threshold

TIE_FAIL = "FAIL"
TIE_TO_FIRST = "TO_FIRST"
TIE_RANDOM = "RANDOM"


@dataclass(frozen=True)
class SketchConfig:
    """Configuration for one sketch-and-solve run.

    ``gamma`` and ``mu`` accept either a number or "auto". Automatic gamma
    needs the log-scale rates ``alpha`` and ``beta``; automatic mu is the
    observed edge density of the full graph; a given mu must be finite and
    non-negative. ``max_sweeps`` is the solver's sweep budget, and 0 keeps
    only the spectral cut. ``seed`` drives the vertex sample, the solver
    initialization, the fallback cut, and random tie breaking, through
    independent derived streams.
    """

    gamma: object = "auto"
    seed: int = 0
    max_sweeps: int = 500
    tie_rule: str = TIE_FAIL
    mu: object = "auto"
    alpha: object = None
    beta: object = None

    def __post_init__(self):
        if self.gamma != "auto" and not 0.0 < float(self.gamma) <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.mu != "auto":
            checked_mu(self.mu)
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")
        if self.tie_rule not in (TIE_FAIL, TIE_TO_FIRST, TIE_RANDOM):
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")


@dataclass
class PipelineResult:
    full_partition: Partition
    sketch_vertices: np.ndarray
    sketch_partition: Partition
    mu_used: float
    sdp: object
    certificate: object
    fell_back_random: bool
    unassigned: np.ndarray
    timings: dict


def auto_gamma(alpha, beta):
    """Default sampling rate min(1, 4 / (sqrt(alpha) - sqrt(beta))^2), twice
    the conjectured threshold."""
    return min(1.0, 2.0 * conjectured_gamma_threshold(alpha, beta))


def vote_extend(graph, side_plus, side_minus, tie_rule=TIE_FAIL, seed=0):
    """Assign every vertex outside the two seed sets by majority vote.

    A vertex joins the side it has strictly more edges to. Ties follow
    ``tie_rule``: FAIL leaves the vertex unassigned, TO_FIRST sends it to
    the +1 side, RANDOM flips a fair coin per tied vertex (in ascending
    vertex order, driven by ``seed``). One seed side may be empty, as for
    the all-ones cut that is optimal at small mu; then every vertex with a
    seed neighbour joins the other side and the rest are ties. Returns the
    partition over all assigned vertices plus the array of unassigned
    labels. The margins are read off ``graph.upper``, so the vote builds no
    symmetric CSR of the full graph.
    """
    plus = np.unique(np.asarray(list(side_plus), dtype=np.int64))
    minus = np.unique(np.asarray(list(side_minus), dtype=np.int64))
    if plus.size == 0 and minus.size == 0:
        raise ValueError("seed sides must not both be empty")
    if np.intersect1d(plus, minus).size:
        raise ValueError("seed sides must be disjoint")
    rows_plus = graph.indices_of(plus)
    rows_minus = graph.indices_of(minus)

    n = graph.num_vertices
    in_seed = np.zeros(n, dtype=bool)
    in_seed[rows_plus] = True
    in_seed[rows_minus] = True
    outside = np.flatnonzero(~in_seed)

    # (edges to plus) - (edges to minus) from the upper triangle and the
    # transpose of its seed rows, the only rows with a non-zero sign:
    # integer sums, so exact in floats and equal to A @ s
    seed_signs = np.zeros(n)
    seed_signs[rows_plus] = 1.0
    seed_signs[rows_minus] = -1.0
    seed_rows = np.flatnonzero(in_seed)
    upper = graph.upper
    margin = (upper @ seed_signs + upper[seed_rows].T @ seed_signs[seed_rows])[outside]

    signs = np.sign(margin).astype(np.int8)
    tied = signs == 0
    if np.any(tied):
        if tie_rule == TIE_TO_FIRST:
            signs[tied] = 1
        elif tie_rule == TIE_RANDOM:
            rng = np.random.default_rng(seed)
            signs[tied] = np.where(rng.random(int(tied.sum())) < 0.5, 1, -1)
        # TIE_FAIL leaves them at 0: unassigned

    assigned = signs != 0
    ids = np.concatenate([plus, minus, graph.vertex_ids[outside[assigned]]])
    sgn = np.concatenate(
        [
            np.ones(plus.size, dtype=np.int8),
            -np.ones(minus.size, dtype=np.int8),
            signs[assigned],
        ]
    )
    unassigned = graph.vertex_ids[outside[~assigned]]
    return Partition(ids, sgn), unassigned


def sketch_and_solve(graph, config=None):
    """Run the full pipeline on ``graph`` and report every intermediate.

    The certificate is the only acceptance rule, and the solver's stopping
    rule: the sweep is resumed in doubling chunks, and the rounded cut is
    checked after cumulative sweeps 0, 1, 2, 4, 8, ... and at the last
    sweep (converged or out of budget). Sweep 0 is the spectral cut that
    ``solve_sdp`` returns before any sweep. The solve stops at the first
    CERTIFIED cut, which is then proven the unique SDP optimum however it
    was found, so more signal means fewer sweeps: at alpha = 50 no sweep
    runs. The cut is accepted iff the last check is CERTIFIED; an instance
    that never certifies runs the full solve. On rejection the sketch is
    assigned by fair coin flips instead, and the result is flagged with
    ``fell_back_random``. ``certificate`` is the last check's report. A
    checkpoint cut equal to the cut checked last keeps that report instead
    of being checked again: the check is deterministic. ``timings["solve"]``
    and ``timings["certify"]`` sum the solver and certificate calls.
    """
    config = config or SketchConfig()
    timings = {}

    t0 = time.perf_counter()
    mu_used = estimate_mu(graph).mu if config.mu == "auto" else float(config.mu)
    timings["estimate"] = time.perf_counter() - t0

    if config.gamma == "auto":
        if config.alpha is None or config.beta is None:
            raise ValueError("automatic gamma needs alpha and beta")
        gamma = auto_gamma(config.alpha, config.beta)
    else:
        gamma = float(config.gamma)

    t0 = time.perf_counter()
    sketch_vertices = bernoulli_vertex_sample(graph, gamma, spawn_seed(config.seed, 1))
    sub = induced_subgraph(graph, sketch_vertices)
    timings["sample"] = time.perf_counter() - t0
    if sub.num_vertices < 2:
        raise ValueError(
            f"vertex sample too small to solve ({sub.num_vertices} kept); "
            "raise gamma or retry with another seed"
        )

    sdp, cert, timings["solve"], timings["certify"] = _solve_until_certified(
        sub, mu_used, config.max_sweeps, spawn_seed(config.seed, 2)
    )

    if cert.verdict == CERTIFIED:
        sketch_partition = sdp.rounded_cut
        fell_back = False
    else:
        rng = np.random.default_rng(spawn_seed(config.seed, 3))
        coin = np.where(rng.random(sub.num_vertices) < 0.5, 1, -1).astype(np.int8)
        sketch_partition = Partition(sub.vertex_ids, coin)
        fell_back = True

    t0 = time.perf_counter()
    if sketch_vertices.size == graph.num_vertices:
        full_partition = sketch_partition
        unassigned = np.empty(0, dtype=np.int64)
    else:
        full_partition, unassigned = vote_extend(
            graph,
            sketch_partition.side_vertices(1),
            sketch_partition.side_vertices(-1),
            tie_rule=config.tie_rule,
            seed=spawn_seed(config.seed, 4),
        )
    timings["extend"] = time.perf_counter() - t0

    return PipelineResult(
        full_partition=full_partition,
        sketch_vertices=sketch_vertices,
        sketch_partition=sketch_partition,
        mu_used=mu_used,
        sdp=sdp,
        certificate=cert,
        fell_back_random=fell_back,
        unassigned=unassigned,
        timings=timings,
    )


def _solve_until_certified(graph, mu, max_sweeps, seed):
    """Solve in chunks of 0, 1, 1, 2, 4, ... sweeps; stop at the first CERTIFIED cut.

    The chunks, each seeded with ``seed``, spend at most ``max_sweeps`` in
    all. The cut is checked after every chunk, the 0-sweep spectral cut
    first; a cut equal to the one checked last keeps its report. Returns the
    solution, the last certificate report and the summed solve and certify
    times.
    """
    solve_s = certify_s = 0.0
    sdp = checked = None
    chunk = 0
    while True:
        t0 = time.perf_counter()
        sdp = solve_sdp(graph, mu, SolverConfig(max_sweeps=chunk, seed=seed), start=sdp)
        t1 = time.perf_counter()
        if sdp.rounded_cut != checked:
            checked = sdp.rounded_cut
            cert = check_certificate(graph, checked, mu)
        t2 = time.perf_counter()
        solve_s += t1 - t0
        certify_s += t2 - t1
        left = max_sweeps - sdp.sweeps_used
        if cert.verdict == CERTIFIED or sdp.converged or left == 0:
            return sdp, cert, solve_s, certify_s
        chunk = min(max(sdp.sweeps_used, 1), left)


def full_solve(graph, mu="auto", max_sweeps=500, seed=0):
    """Solve on the whole vertex set (gamma = 1); same result shape as the sketch.

    Every vertex is in the sketch, so no vertex is left to the vote.
    ``mu``, ``max_sweeps`` and ``seed`` are those of ``SketchConfig``.
    """
    config = SketchConfig(gamma=1.0, seed=seed, max_sweeps=max_sweeps, mu=mu)
    return sketch_and_solve(graph, config)


def recovered_planted(planted, result):
    """True when the pipeline assigned every vertex and matched the planted cut."""
    if result.unassigned.size:
        return False
    return result.full_partition.equals_up_to_flip(planted)
