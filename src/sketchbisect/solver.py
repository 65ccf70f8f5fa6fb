"""Low-rank coordinate ascent for the unit-diagonal SDP family.

The program  max <A - mu*J, X>  s.t. diag(X) = 1, X PSD  is solved through
the factorization X = V V^T with unit-norm rows. A sweep visits vertices in
index order and replaces each row by the normalized sum of its neighbors'
rows minus mu times the sum of all other rows, which is the exact
coordinate maximizer, so the objective never decreases. The rank is always
2: for this two-community program Bandeira, Boumal and Voroninski (COLT
2016) show that above the recovery threshold the rank-2 factored problem
has, with high probability, no second-order critical point that is not a
global optimum. The rank proves nothing here, however: a cut is accepted
only when the dual certificate proves it the unique SDP optimum, and a
solve that stalls elsewhere costs sweeps, never a wrong verdict.

The sweeps run on an (n + 1, 2) array E: V is its first n rows and the
last row is the running sum of V's rows, re-summed from V at the start of
every sweep and kept current by each update. Vertex i reads the rows
idx_i = (neighbours of i, i, n) with weights w_i = (1, ..., 1, mu, -mu),
so one gemv, w_i @ E[idx_i], gives the neighbour sum plus
mu*v_i - mu*running, which is the neighbour sum minus mu times the other
rows. The lists are built once per swept solve, as views into one flat
index array and one flat weight array.

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
from .seeding import checked_int, spawn_seed

_STALL_NORM = 1e-13

# Default sweep budget of every solve, read by the pipeline and the CLI.
DEFAULT_MAX_SWEEPS = 500

# Factor rank of every swept solve; ``solve_sdp`` needs n >= 2, so it never
# exceeds n.
_RANK = 2

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
    stopping tolerance are fixed (``_RANK``, ``_OBJECTIVE_TOL``): the
    certificate, not the rank, is what proves a cut.
    """

    max_sweeps: int = DEFAULT_MAX_SWEEPS
    seed: int = 0

    def __post_init__(self):
        checked_int(self.max_sweeps, "max_sweeps")
        checked_int(self.seed, "seed")


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


def solve_sdp(graph, mu, config=None):
    """Solve the factored SDP on ``graph`` with density offset ``mu``.

    Returns the factor matrix, the objective <A - mu*J, VV^T>, a rounded
    cut, and rank_one_gap = 1 - s1(V)^2 / n measuring how far X is from a
    rank-one (exactly two-sided) solution. Once V has had at least one
    sweep it has rank 2 and the cut is read off its top singular vector.
    Rank 2 suffices above the recovery threshold (Bandeira, Boumal and
    Voroninski), but a solve may still end away from the SDP optimum: the
    certificate, not the rank, is what proves a cut. A ``mu`` that is
    negative, infinite or NaN raises ValueError before any work.

    A solve that runs no sweep (``max_sweeps = 0``) draws no random start.
    Its cut g is the sign vector of the leading eigenvector of A - mu*J, a
    Ritz vector from the certificate's Lanczos loop; the certificate judges
    it like any other cut. The solution is the rank-one point X = g g^T:
    ``factors`` is g as an (n, 1) column, ``objective`` is
    <A - mu*J, g g^T>, ``rank_one_gap`` is 0.0, ``sweeps_used`` is 0 and
    ``converged`` is False.

    Any other budget runs the sweeps from the seeded start and returns the
    last solution ``_sweep_checkpoints`` yields.
    """
    config = config or SolverConfig()
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices")
    mu = checked_mu(mu)

    if not config.max_sweeps:
        signs = _sign_cut(_spectral_vector(graph, mu, config.seed))
        cut = Partition(graph.vertex_ids, signs)
        return SdpSolution(
            factors=signs.astype(np.float64)[:, None],
            objective=objective_value(graph, mu, cut),
            rounded_cut=cut,
            rank_one_gap=0.0,
            sweeps_used=0,
            converged=False,
        )
    for sol in _sweep_checkpoints(graph, mu, config):
        pass
    return sol


def _sweep_checkpoints(graph, mu, config):
    """Run one swept solve and yield its solution after sweeps 1, 2, 4, 8, ...

    The last yield is the last sweep: the one whose objective gain fell
    below the tolerance (``converged``) or sweep ``config.max_sweeps``,
    which must be positive. ``graph`` and ``mu`` are taken as ``solve_sdp``
    checks them. Each yielded solution owns a copy of the factors, so later
    sweeps leave it as it was. The update lists and the per-sweep objective
    read a symmetric CSR of the graph, built once per swept solve: the
    package's only one.
    """
    n = graph.num_vertices
    adj = _symmetric(graph.upper)

    def objective(W):
        s = W.sum(axis=0)
        return float((W * (adj @ W)).sum() - mu * (s @ s))

    # Rows 0..n-1 of E are the swept factors, row n is their running sum.
    # Views, not copies: writing a row writes E.
    E = np.empty((n + 1, _RANK))
    V = E[:n]
    rng = np.random.default_rng(config.seed)
    rng.standard_normal(out=V)
    norms = np.linalg.norm(V, axis=1)
    while np.any(norms < _STALL_NORM):
        V[norms < _STALL_NORM] = rng.standard_normal((int((norms < _STALL_NORM).sum()), _RANK))
        norms = np.linalg.norm(V, axis=1)
    V /= norms[:, None]
    obj = objective(V)
    rows = list(V)
    running = E[n]
    index_lists, weight_lists = _update_lists(adj, mu)
    for sweep in range(1, config.max_sweeps + 1):
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
        converged = gain < _OBJECTIVE_TOL * (1.0 + abs(obj))
        if converged or sweep == config.max_sweeps or sweep & (sweep - 1) == 0:
            top_sv, top_vec = _top_singular(V)
            gap = 1.0 - top_sv * top_sv / n
            yield SdpSolution(
                factors=V.copy(),
                objective=obj,
                rounded_cut=Partition(graph.vertex_ids, _sign_cut(top_vec)),
                rank_one_gap=float(min(max(gap, 0.0), 1.0)),
                sweeps_used=sweep,
                converged=converged,
            )
        if converged:
            return


def _symmetric(upper):
    """Symmetric 0/1 CSR adjacency: scipy's transpose and sorted-row merge of ``upper``."""
    return upper + upper.T


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
    # The top of A - mu*J is the bottom of mu*J - A; mu*n plus the largest
    # degree bounds its row sums.
    checkpoints = _lanczos_bottom(
        lambda x: mu * x.sum() - graph.matvec(x),
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
    return float(g @ graph.matvec(g) - mu * g.sum() ** 2)


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
        vals = (sf * graph.matvec(sf.T).T).sum(axis=1) - mu * sf.sum(axis=1) ** 2
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_signs = signs[j].copy()
    return Partition(graph.vertex_ids, best_signs), best_val
