"""Sketch-and-solve driver: estimate density, subsample, solve, certify, vote.

The full graph is read three times, each time through its CSR upper
triangle only: its edge count gives the density offset mu, its rows
inside a Bernoulli vertex sample give the induced subgraph, and its
products with the sketch's signs give the majority vote. The SDP and its
certificate run on the induced subgraph, so the expensive steps cost a
gamma-fraction of the full problem. The only symmetric CSR built is a
swept solve's, of the graph it solves, so a sweep-0 certificate builds none.
"""

import time
from dataclasses import dataclass

import numpy as np

from .certificate import CERTIFIED, check_certificate
from .encoding import checked_mu, estimate_mu
from .graphs import Partition, _distinct_labels, bernoulli_vertex_sample, induced_subgraph
from .seeding import checked_int, is_real, spawn_seed
from .solver import DEFAULT_MAX_SWEEPS, SolverConfig, _sweep_checkpoints, solve_sdp
from .thresholds import _check_finite, _is_finite, conjectured_gamma_threshold

TIE_FAIL = "FAIL"


def checked_gamma(gamma):
    """``gamma`` as "auto" or a float; ValueError unless it is "auto" or a non-boolean real in (0, 1]."""
    if isinstance(gamma, str) and gamma == "auto":
        return gamma
    if not is_real(gamma) or not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    return float(gamma)


@dataclass(frozen=True)
class SketchConfig:
    """Configuration for one sketch-and-solve run.

    ``gamma`` and ``mu`` accept either a number or "auto". Automatic gamma
    needs the log-scale rates ``alpha`` and ``beta``; automatic mu is the
    observed edge density of the full graph; given values pass
    ``checked_gamma`` and ``checked_mu``, and a given ``alpha`` or ``beta``
    must be a finite non-boolean real. ``max_sweeps`` is the solver's
    sweep budget, and 0 keeps only the spectral cut. ``seed`` drives the
    vertex sample, the solver initialization and the fallback coins,
    through three independent derived streams. The vote has no setting
    (see ``vote_extend``).
    """

    gamma: object = "auto"
    seed: int = 0
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    mu: object = "auto"
    alpha: object = None
    beta: object = None

    def __post_init__(self):
        checked_gamma(self.gamma)
        if not (isinstance(self.mu, str) and self.mu == "auto"):
            checked_mu(self.mu)
        if not all(r is None or _is_finite(r) for r in (self.alpha, self.beta)):
            _check_finite(self.alpha, self.beta)
        checked_int(self.max_sweeps, "max_sweeps")
        checked_int(self.seed, "seed")


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


def vote_extend(graph, side_plus, side_minus, tie_rule=TIE_FAIL):
    """Assign every vertex outside the two seed sets by majority vote.

    A vertex joins the side it has strictly more edges to; a tied vertex
    stays unassigned. ``tie_rule`` has one value, ``TIE_FAIL``; any other
    raises ValueError before any work. One seed side may be empty, as for
    the all-ones cut that is optimal at small mu; then every vertex with a
    seed neighbour joins the other side and the rest are ties. Each side is
    an array or any iterable of whole-number labels (ValueError otherwise);
    repeats count once. Returns the partition over all assigned vertices
    plus the array of unassigned labels. The margins are one
    ``graph.matvec``, so the vote builds no symmetric CSR of the full graph.
    """
    if not (isinstance(tie_rule, str) and tie_rule == TIE_FAIL):
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    plus = _distinct_labels(side_plus, "seed labels")
    minus = _distinct_labels(side_minus, "seed labels")
    if plus.size == 0 and minus.size == 0:
        raise ValueError("seed sides must not both be empty")
    if np.intersect1d(plus, minus, assume_unique=True).size:
        raise ValueError("seed sides must be disjoint")

    signs = np.zeros(graph.num_vertices, dtype=np.int8)
    signs[graph.indices_of(plus)] = 1
    signs[graph.indices_of(minus)] = -1
    outside = np.flatnonzero(signs == 0)
    # (edges to plus) - (edges to minus): integer sums, so exact in floats;
    # a zero margin leaves the vertex at 0, unassigned
    signs[outside] = np.sign(graph.matvec(signs)[outside])

    kept = signs != 0
    return Partition(graph.vertex_ids[kept], signs[kept]), graph.vertex_ids[~kept]


def sketch_and_solve(graph, config=None):
    """Run the full pipeline on ``graph`` and report every intermediate.

    The certificate is the only acceptance rule, and the solver's stopping
    rule: the rounded cut is checked after sweeps 0, 1, 2, 4, 8, ... of one
    uninterrupted solve and at its last sweep (converged or out of budget).
    Sweep 0 is the spectral cut that ``solve_sdp`` returns before any sweep.
    The solve stops at the first CERTIFIED cut, which is then proven the
    unique SDP optimum however it was found, so more signal means fewer
    sweeps: at alpha = 50 no sweep runs. The cut is accepted iff the last
    check is CERTIFIED; an instance that never certifies runs the full
    solve. On rejection the sketch is assigned by fair coin flips instead,
    and the result is flagged with ``fell_back_random``. ``certificate`` is
    the last check's report. A checkpoint cut equal to the cut checked last
    keeps that report instead of being checked again: the check is
    deterministic. ``timings["solve"]`` sums the spectral cut and the
    sweeps, ``timings["certify"]`` the certificate calls.

    Vertices outside the sketch are then placed by ``vote_extend``: a tied
    vertex stays in ``unassigned``, so ``recovered_planted`` is False for
    that run.
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
            graph, sketch_partition.side_vertices(1), sketch_partition.side_vertices(-1)
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
    """Check the spectral cut, then the sweep checkpoints; stop at the first CERTIFIED cut.

    The spectral cut is ``solve_sdp``'s at a budget of 0. If it is refuted
    and ``max_sweeps`` is positive, one swept solve of at most
    ``max_sweeps`` sweeps, seeded with ``seed``, runs only as far as
    needed: each checkpoint ``_sweep_checkpoints`` yields is checked in
    turn, and a cut equal to the one checked last keeps its report. Returns
    the solution, the last certificate report and the summed solve and
    certify times; advancing the sweeps counts as solve time.
    """
    checkpoints = _sweep_checkpoints(graph, mu, SolverConfig(max_sweeps=max_sweeps, seed=seed))
    solve_s = certify_s = 0.0
    checked = None
    t0 = time.perf_counter()
    sdp = solve_sdp(graph, mu, SolverConfig(max_sweeps=0, seed=seed))
    while True:
        t1 = time.perf_counter()
        if sdp.rounded_cut != checked:
            checked = sdp.rounded_cut
            cert = check_certificate(graph, checked, mu)
        t2 = time.perf_counter()
        solve_s += t1 - t0
        certify_s += t2 - t1
        if cert.verdict == CERTIFIED or sdp.converged or sdp.sweeps_used == max_sweeps:
            return sdp, cert, solve_s, certify_s
        t0 = time.perf_counter()
        sdp = next(checkpoints)


def full_solve(graph, mu="auto", max_sweeps=DEFAULT_MAX_SWEEPS, seed=0):
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
