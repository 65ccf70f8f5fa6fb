"""Low-rank coordinate ascent for the unit-diagonal SDP family.

The program  max <A - mu*J, X>  s.t. diag(X) = 1, X PSD  is solved through
the factorization X = V V^T with unit-norm rows. A sweep visits vertices in
index order and replaces each row by the normalized sum of its neighbors'
rows minus mu times the sum of all other rows, which is the exact
coordinate maximizer, so the objective never decreases. The rank is always
min(n, ceil(sqrt(2n)) + 1): from ceil(sqrt(2n)) + 1 on, second-order
critical points of the factored problem are global optima of the SDP.

The sweeps run on an (n + 1, r) array E: V is its first n rows and the
last row is the running sum of V's rows, re-summed from V at the start of
every sweep and kept current by each update. Vertex i reads the rows
idx_i = (neighbours of i, i, n) with weights w_i = (1, ..., 1, mu, -mu),
so one gemv, w_i @ E[idx_i], gives the neighbour sum plus
mu*v_i - mu*running, which is the neighbour sum minus mu times the other
rows. The lists are built once per call, as views into one flat index
array and one flat weight array.

Before the first sweep the factors carry no structure, so a solve that
stops at sweep 0 builds none: it reads its cut g off the leading
eigenvector of the implicit A - mu*J, found by a short run of the
certificate's Lanczos loop, and returns the rank-one point X = g g^T. The
seeded random start is drawn only when the first sweep runs.
"""

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .certificate import _lanczos_bottom
from .encoding import checked_mu
from .graphs import Partition
from .seeding import spawn_seed

_STALL_NORM = 1e-13

# A sweep whose objective gain is below this, relative to 1 + |objective|,
# ends the solve as converged.
_OBJECTIVE_TOL = 1e-9

# Lanczos for the sweep-0 cut: step budget and relative Ritz residual at
# which the leading pair counts as converged. When the budget runs out the
# last Ritz vector is kept: it only proposes a cut, so an unconverged one
# costs a refuted check, not a wrong answer.
_LANCZOS_STEPS = 60
_LANCZOS_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Sweep budget and seed of ``solve_sdp``.

    ``max_sweeps = 0`` runs no sweep: the solve returns the spectral cut
    as a rank-one point (see ``solve_sdp``). The factor rank and the
    stopping tolerance are fixed (``_factor_rank``, ``_OBJECTIVE_TOL``).
    """

    max_sweeps: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")


def _factor_rank(n):
    """min(n, ceil(sqrt(2n)) + 1): the rank at which second-order critical
    points of the factored problem are global SDP optima."""
    return min(n, math.isqrt(2 * n - 1) + 2)


@dataclass
class SdpSolution:
    factors: np.ndarray
    objective: float
    rounded_cut: Partition
    rank_one_gap: float
    sweeps_used: int
    converged: bool
    # Taken and dropped: bench/tests still builds a solution positionally
    # with a seventh, per-sweep history argument (ROADMAP item 1).
    _unread: InitVar[object] = None


def solve_sdp(graph, mu, config=None, start=None):
    """Solve the factored SDP on ``graph`` with density offset ``mu``.

    Returns the factor matrix, the objective <A - mu*J, VV^T>, a rounded
    cut, and rank_one_gap = 1 - s1(V)^2 / n measuring how far X is from a
    rank-one (exactly two-sided) solution. Once V has had at least one
    sweep it has rank min(n, ceil(sqrt(2n)) + 1) and the cut is read off
    its top singular vector. A ``mu`` that is negative, infinite or NaN
    raises ValueError before any work.

    A solve that runs no sweep (``max_sweeps = 0`` on a fresh solve) draws
    no random start. Its cut g is the sign vector of the leading
    eigenvector of A - mu*J, a Ritz vector from the certificate's Lanczos
    loop; the certificate judges it like any other cut. The solution is
    the rank-one point X = g g^T: ``factors`` is g as an (n, 1) column,
    ``objective`` is <A - mu*J, g g^T>, ``rank_one_gap`` is 0.0,
    ``sweeps_used`` is 0 and ``converged`` is False.

    ``start`` resumes an earlier solution for the same graph and mu: up to
    ``config.max_sweeps`` more sweeps run from a copy of ``start.factors``,
    which are only read, and ``sweeps_used`` continues cumulatively. A
    start with ``sweeps_used == 0`` carries no sweep state, so the call
    runs as a fresh one and draws the seeded start from ``config.seed``.
    A solve split into such calls therefore gives the uninterrupted solve
    bit for bit, a 0-sweep first call included. A swept start from a graph
    of another size is rejected with ValueError.

    The sweep works on an (n + 1, r) array whose last row is the running
    sum of V's rows; a fresh solve draws its seeded start into the first n
    rows, a resumed one copies its start there, and those rows are the
    returned ``factors``. Each vertex's index list (its neighbours,
    itself, the running-sum row) and weight list (ones, mu, -mu) are built
    once per call, so a vertex update is one gather, one gemv giving the
    neighbour sum minus mu times the other rows, one norm, and the
    normalized row written in place with the running sum moved by the
    difference.
    """
    config = config or SolverConfig()
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices")
    mu = checked_mu(mu)
    r = _factor_rank(n)
    adj = graph.adjacency

    def objective(W):
        s = W.sum(axis=0)
        return float((W * (adj @ W)).sum() - mu * (s @ s))

    if start is not None and start.sweeps_used == 0:
        # a 0-sweep solution holds no sweep state; resume as a fresh call
        start = None
    if start is None and not config.max_sweeps:
        signs = _sign_cut(_spectral_vector(graph, mu, config.seed))
        g = signs.astype(np.float64)[:, None]
        return SdpSolution(
            factors=g,
            objective=objective(g),
            rounded_cut=Partition(graph.vertex_ids, signs),
            rank_one_gap=0.0,
            sweeps_used=0,
            converged=False,
        )

    # Rows 0..n-1 of E are the swept factors, row n is their running sum.
    # Views, not copies: writing a row writes E.
    E = np.empty((n + 1, r))
    V = E[:n]
    if start is None:
        rng = np.random.default_rng(config.seed)
        rng.standard_normal(out=V)
        norms = np.linalg.norm(V, axis=1)
        while np.any(norms < _STALL_NORM):
            V[norms < _STALL_NORM] = rng.standard_normal((int((norms < _STALL_NORM).sum()), r))
            norms = np.linalg.norm(V, axis=1)
        V /= norms[:, None]
        obj = objective(V)
        done = 0
    else:
        if start.factors.shape != V.shape:
            raise ValueError(f"start has factors of shape {start.factors.shape}, not {V.shape}")
        V[:] = start.factors
        # the objective the last call ended with, of these very factors
        obj = start.objective
        done = start.sweeps_used
    converged = False
    sweeps_used = done
    rows = list(V)
    running = E[n]
    index_lists, weight_lists = _update_lists(adj, mu)
    for sweep in range(done + 1, done + config.max_sweeps + 1):
        sweeps_used = sweep
        np.sum(V, axis=0, out=running)
        for row, idx, w in zip(rows, index_lists, weight_lists):
            c = w.dot(E.take(idx, 0))
            nc = math.sqrt(c.dot(c))
            if nc < _STALL_NORM:
                continue
            running -= row
            np.divide(c, nc, out=row)
            running += row
        new_obj = objective(V)
        if new_obj < obj - 1e-8 * (1.0 + abs(new_obj)):
            raise RuntimeError("coordinate ascent lost monotonicity")
        gain = new_obj - obj
        obj = new_obj
        if gain < _OBJECTIVE_TOL * (1.0 + abs(obj)):
            converged = True
            break

    top_sv, top_vec = _top_singular(V)
    gap = 1.0 - top_sv * top_sv / n
    return SdpSolution(
        factors=V,
        objective=obj,
        rounded_cut=Partition(graph.vertex_ids, _sign_cut(top_vec)),
        rank_one_gap=float(min(max(gap, 0.0), 1.0)),
        sweeps_used=sweeps_used,
        converged=converged,
    )


def _update_lists(adj, mu):
    """Per-vertex index and weight lists of the sweep's gemv.

    Row i of the (n + 1)-row factor array is read at (neighbours of i, i, n)
    with weights (1, ..., 1, mu, -mu). Both lists are views into one flat
    array each, with the two extra slots of every row placed vectorially;
    they are cut by plain slicing, which costs a fraction of ``np.split``.
    """
    n = adj.shape[0]
    self_slot = adj.indptr[1:] + 2 * np.arange(n)
    neighbour = np.ones(adj.nnz + 2 * n, dtype=bool)
    neighbour[self_slot] = neighbour[self_slot + 1] = False
    flat_idx = np.empty(neighbour.size, dtype=np.intp)
    flat_idx[neighbour] = adj.indices
    flat_idx[self_slot] = np.arange(n)
    flat_idx[self_slot + 1] = n
    flat_w = np.ones(neighbour.size)
    flat_w[self_slot] = mu
    flat_w[self_slot + 1] = -mu
    bounds = [0] + (self_slot + 2).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    return [flat_idx[a:b] for a, b in spans], [flat_w[a:b] for a, b in spans]


def _spectral_vector(graph, mu, seed):
    """Ritz vector for the top of A - mu*J, from the certificate's Lanczos loop."""
    n = graph.num_vertices
    adj = graph.adjacency
    # The top of A - mu*J is the bottom of mu*J - A; mu*n plus the largest
    # degree bounds its row sums.
    checkpoints = _lanczos_bottom(
        lambda x: mu * x.sum() - adj @ x,
        n,
        min(n, _LANCZOS_STEPS),
        mu * n + float(graph.degrees.max()),
        np.random.default_rng(spawn_seed(seed, 1)),
    )
    for _, _, (rq, res, vec) in checkpoints:
        if res <= _LANCZOS_TOL * max(abs(rq), 1.0):
            break
    return vec


def _sign_cut(vec):
    """Signs of ``vec`` (zero counts as +1), flipped so the first is +1."""
    signs = np.where(vec >= 0.0, 1, -1).astype(np.int8)
    if signs[0] < 0:
        signs = -signs
    return signs


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
