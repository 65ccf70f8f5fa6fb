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

At rank 2 a factor row is one complex number z_i, and that is how the
sweeps hold it, so a vertex update is a few Python complex operations, not
numpy calls. The update stays the exact Gauss-Seidel step of the mixing
method (Wang, Chang and Kolter, arXiv 1706.00476), in index order. The
vertices run in blocks of ``_BLOCK``. At the start of a block its own rows
are set to zero, and one sparse product of its rows of the symmetric CSR
gives each block vertex the sum of its neighbours outside the block: no
row outside the block changes while it runs. Each vertex then adds its
in-block neighbours and mu*(z_i - R), where R is the running sum of all
rows, and divides by the modulus. The block's rows are written back with
one slice assignment.

Before the first sweep the factors carry no structure, so a solve that
stops at sweep 0 builds none: it reads its cut g off the leading
eigenvector of the implicit A - mu*J, found by a short run of the
certificate's Lanczos loop, and returns the rank-one point X = g g^T. The
seeded random start is drawn only when the first sweep runs.
"""

import math
from dataclasses import InitVar, dataclass

import numpy as np
import scipy.sparse as sp

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

# Vertices per block of a sweep: each block reads its neighbours outside
# itself through one sparse product (see ``_sweep_checkpoints``).
_BLOCK = 64

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
    checks them. A yielded solution keeps its factors as they were when
    it was yielded. The blocks and the per-sweep objective read a
    symmetric CSR of the graph, built once per swept solve: the package's
    only one.

    Row i of the factors is the complex number z[i], and V views z as an
    (n, 2) float array. Within a sweep (see the module docstring) every sum
    runs in a fixed order: R left to right at the start of the sweep;
    for each vertex, from 0j, its neighbours outside its block ascending
    (the block's sparse product), then those inside ascending, then
    mu*(z[i] - R). A sum whose modulus is below ``_STALL_NORM`` leaves
    its row as it was.
    """
    n = graph.num_vertices
    adj = _symmetric(graph.upper)

    def objective(W):
        s = W.sum(axis=0)
        return float((W * (adj @ W)).sum() - mu * (s @ s))

    z = np.empty(n, dtype=np.complex128)
    V = z.view(np.float64).reshape(n, _RANK)
    rng = np.random.default_rng(config.seed)
    rng.standard_normal(out=V)
    norms = np.linalg.norm(V, axis=1)
    while np.any(norms < _STALL_NORM):
        V[norms < _STALL_NORM] = rng.standard_normal((int((norms < _STALL_NORM).sum()), _RANK))
        norms = np.linalg.norm(V, axis=1)
    V /= norms[:, None]
    obj = objective(V)
    blocks = _blocks(adj)
    for sweep in range(1, config.max_sweeps + 1):
        R = 0j
        for w in z.tolist():
            R += w
        for start, stop, rows, inside in blocks:
            zb = z[start:stop].tolist()
            # With the block's own rows at zero, its rows' product sums the
            # neighbours outside it: each zero term adds exactly nothing.
            z[start:stop] = 0
            outside = (rows @ V).view(np.complex128)[:, 0].tolist()
            for k, (c, nbrs) in enumerate(zip(outside, inside)):
                for j in nbrs:
                    c += zb[j]
                w = zb[k]
                c += mu * (w - R)
                nc = abs(c)
                if nc < _STALL_NORM:
                    continue
                c /= nc
                zb[k] = c
                R += c - w
            z[start:stop] = zb
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


def _blocks(adj):
    """The sweep's blocks, read straight off the arrays of the symmetric CSR.

    Block b covers the vertices from start = b * ``_BLOCK`` up to stop and
    is the tuple (start, stop, rows, inside). ``rows`` is the CSR of the
    block's rows, views into ``adj``'s arrays. ``inside[k]`` lists the
    in-block neighbours of vertex start + k, ascending, as offsets from
    start.
    """
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    row_of_entry = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    within = row_of_entry // _BLOCK == indices // _BLOCK
    in_ptr = [0] + np.cumsum(np.bincount(row_of_entry[within], minlength=n)).tolist()
    in_flat = (indices[within] % _BLOCK).tolist()
    inside = [in_flat[a:b] for a, b in zip(in_ptr[:-1], in_ptr[1:])]
    blocks = []
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        lo, hi = indptr[start], indptr[stop]
        rows = sp.csr_matrix(
            (adj.data[lo:hi], indices[lo:hi], indptr[start:stop + 1] - lo), shape=(stop - start, n)
        )
        blocks.append((start, stop, rows, inside[start:stop]))
    return blocks


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
