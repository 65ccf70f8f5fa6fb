"""Low-rank coordinate ascent for the unit-diagonal SDP family.

The program  max <A - mu*J, X>  s.t. diag(X) = 1, X PSD  is solved through
the factorization X = V V^T with unit-norm rows. A sweep visits vertices in
index order and replaces each row by the normalized sum of its neighbors'
rows minus mu times the sum of all other rows, which is the exact
coordinate maximizer, so the objective never decreases. At rank
ceil(sqrt(2n)) + 1 and above, second-order critical points of the factored
problem are global optima of the SDP.

Before the first sweep the factors carry no structure, so a solve that
stops at sweep 0 reads its cut off the leading eigenvector of the implicit
A - mu*J instead, found by a short run of the certificate's Lanczos loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .certificate import _lanczos_bottom
from .graphs import Partition
from .seeding import spawn_seed

_STALL_NORM = 1e-13

# Lanczos for the sweep-0 cut: step budget and relative Ritz residual at
# which the leading pair counts as converged. When the budget runs out the
# last Ritz vector is kept: it only proposes a cut, so an unconverged one
# costs a refuted check, not a wrong answer.
_LANCZOS_STEPS = 60
_LANCZOS_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Factor rank, sweep budget, stopping tolerance and seed of ``solve_sdp``.

    ``max_sweeps = 0`` runs no sweep: the solve returns the seeded start
    and the spectral cut (see ``solve_sdp``).
    """

    rank: object = "auto"
    max_sweeps: int = 500
    objective_tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.rank != "auto":
            if not isinstance(self.rank, int) or self.rank < 1:
                raise ValueError("rank must be 'auto' or a positive integer")
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")
        if self.objective_tolerance <= 0:
            raise ValueError("objective_tolerance must be positive")

    def resolve_rank(self, n):
        """Factor rank: min(n, ceil(sqrt(2n)) + 1) when 'auto'."""
        if self.rank == "auto":
            return min(n, math.isqrt(2 * n - 1) + 2)
        return min(self.rank, n)


@dataclass
class SdpSolution:
    factors: np.ndarray
    objective: float
    rounded_cut: Partition
    rank_one_gap: float
    sweeps_used: int
    converged: bool
    sweep_objectives: list


def solve_sdp(graph, mu, config=None, start=None):
    """Solve the factored SDP on ``graph`` with density offset ``mu``.

    Returns the factor matrix, the objective <A - mu*J, VV^T>, a rounded
    cut, and rank_one_gap = 1 - s1(V)^2 / n measuring how far X is from a
    rank-one (exactly two-sided) solution. Once V has had at least one
    sweep the cut is read off the top singular vector of V. Before that
    (``max_sweeps = 0`` on a fresh solve) V is the seeded start unchanged,
    ``sweeps_used`` is 0, and the cut is the sign vector of the leading
    eigenvector of A - mu*J, a Ritz vector from the certificate's Lanczos
    loop; the certificate judges it like any other cut.

    ``start`` resumes an earlier solution for the same graph and mu: up to
    ``config.max_sweeps`` more sweeps run from ``start.factors``, which
    are advanced in place, so ``start`` is consumed. ``sweeps_used`` and
    ``sweep_objectives`` continue cumulatively, and a solve split into
    such calls gives the uninterrupted solve bit for bit, a 0-sweep first
    call included. The factors must have shape (n, rank) for this config;
    otherwise ValueError.

    The row views of V and the neighbour index lists are built once per
    call, so each vertex update is a gather, a row fold, one norm and two
    in-place row updates.
    """
    if config is None:
        config = SolverConfig()
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    mu = float(mu)
    r = config.resolve_rank(n)

    if start is None:
        rng = np.random.default_rng(config.seed)
        V = rng.standard_normal((n, r))
        norms = np.linalg.norm(V, axis=1)
        while np.any(norms < _STALL_NORM):
            V[norms < _STALL_NORM] = rng.standard_normal((int((norms < _STALL_NORM).sum()), r))
            norms = np.linalg.norm(V, axis=1)
        V /= norms[:, None]
    else:
        V = start.factors
        if V.shape != (n, r):
            raise ValueError(f"start factors have shape {V.shape}, expected {(n, r)}")

    adj = graph.adjacency

    def objective(W):
        s = W.sum(axis=0)
        return float((W * (adj @ W)).sum() - mu * (s @ s))

    if start is None:
        obj = objective(V)
        history = [obj]
        done = 0
    else:
        # the objective the last call ended with, of these very factors
        obj = start.objective
        history = list(start.sweep_objectives)
        done = start.sweeps_used
    running = V.sum(axis=0)
    converged = False
    sweeps_used = done
    if config.max_sweeps:
        # Views, not copies: writing a row writes V.
        rows = list(V)
        neighbors = np.split(adj.indices, adj.indptr[1:-1])
    for sweep in range(done + 1, done + config.max_sweeps + 1):
        sweeps_used = sweep
        for row, nbr in zip(rows, neighbors):
            c = np.add.reduce(V.take(nbr, 0), 0)
            c -= mu * (running - row)
            nc = math.sqrt(c.dot(c))
            if nc < _STALL_NORM:
                continue
            c /= nc
            running += c - row
            row[:] = c
        running = V.sum(axis=0)
        new_obj = objective(V)
        if new_obj < obj - 1e-8 * (1.0 + abs(new_obj)):
            raise RuntimeError("coordinate ascent lost monotonicity")
        gain = new_obj - obj
        obj = new_obj
        history.append(obj)
        if gain < config.objective_tolerance * (1.0 + abs(obj)):
            converged = True
            break

    if sweeps_used:
        top_sv, top_vec = _top_singular(V)
        s1_squared = top_sv * top_sv
    else:
        # The top of A - mu*J is the bottom of mu*J - A; mu*n plus the
        # largest degree bounds its row sums.
        checkpoints = _lanczos_bottom(
            lambda x: mu * x.sum() - adj @ x,
            n,
            min(n, _LANCZOS_STEPS),
            mu * n + float(graph.degrees.max()),
            np.random.default_rng(spawn_seed(config.seed, 1)),
        )
        for _, _, (rq, res, top_vec) in checkpoints:
            if res <= _LANCZOS_TOL * max(abs(rq), 1.0):
                break
        s1_squared = float(np.linalg.eigvalsh(V.T @ V)[-1])
    signs = np.where(top_vec >= 0.0, 1, -1).astype(np.int8)
    if signs[0] < 0:
        signs = -signs
    gap = 1.0 - s1_squared / n
    return SdpSolution(
        factors=V,
        objective=obj,
        rounded_cut=Partition(graph.vertex_ids, signs),
        rank_one_gap=float(min(max(gap, 0.0), 1.0)),
        sweeps_used=sweeps_used,
        converged=converged,
        sweep_objectives=history,
    )


def _top_singular(V):
    u, s, _ = np.linalg.svd(V, full_matrices=False)
    return float(s[0]), u[:, 0]


def objective_value(graph, mu, partition):
    """Objective of the rank-one point g g^T: g^T A g - mu (sum g)^2."""
    g = partition.sign_vector(graph)
    return float(g @ (graph.adjacency @ g) - mu * g.sum() ** 2)


def brute_force_max(graph, mu, balanced_only=False):
    """Exact maximizer over sign vectors by enumeration (n <= 24).

    Fixes the smallest vertex to +1 (the objective is flip-invariant) and
    scans the remaining assignments in lexicographic order with -1 before
    +1, returning the first maximizer. With ``balanced_only`` the scan is
    restricted to even splits and n must be even.
    """
    n = graph.num_vertices
    if n < 1:
        raise ValueError("graph has no vertices")
    if n > 24:
        raise ValueError("enumeration limited to n <= 24")
    if balanced_only and n % 2:
        raise ValueError("balanced enumeration needs even n")
    mu = float(mu)

    e = graph.edges
    if e.size:
        uc = graph.indices_of(e[:, 0])
        vc = graph.indices_of(e[:, 1])

    total = 1 << (n - 1)
    chunk = 1 << 16
    shifts = np.arange(n - 2, -1, -1, dtype=np.uint64)
    best_val = -math.inf
    best_signs = None
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = np.empty((ks.size, n), dtype=np.int8)
        signs[:, 0] = 1
        if n > 1:
            bits = (ks[:, None] >> shifts) & np.uint64(1)
            signs[:, 1:] = 2 * bits.astype(np.int8) - 1
        if balanced_only:
            signs = signs[signs.sum(axis=1) == 0]
            if signs.size == 0:
                continue
        sf = signs.astype(np.float64)
        quad = 2.0 * (sf[:, uc] * sf[:, vc]).sum(axis=1) if e.size else np.zeros(sf.shape[0])
        vals = quad - mu * sf.sum(axis=1) ** 2
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_signs = signs[j].copy()
    return Partition(graph.vertex_ids, best_signs), best_val
