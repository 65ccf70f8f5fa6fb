"""Dual certificate of unique optimality for a two-sided cut.

Given a cut g on a graph with adjacency A and offset mu, build

    Z = D_in - D_out - mu*(n1 - n2)*diag(g) - A + mu*J

where D_in and D_out are diagonal degree counts toward the own and the
opposite side, and n1, n2 are the side sizes. Z g = 0 holds by
construction. If Z is positive semidefinite with rank n - 1 (equivalently
Z restricted to the complement of g is positive definite), then g g^T is
the unique optimum of the unit-diagonal SDP, so the cut needs no further
search.

The check is matrix-free: the bottom of the spectrum on the complement of
g is bracketed with a deflated Lanczos iteration (fully reorthogonalized,
restarting on breakdown) whose Ritz residuals give certified two-sided
bounds. The same loop, undeflated, finds the solver's sweep-0 spectral
cut; it is the package's only Krylov iteration.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .encoding import checked_mu

CERTIFIED = "CERTIFIED"
NOT_CERTIFIED = "NOT_CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


# Decision margins, relative to the operator's Gershgorin row bound, and the
# Lanczos step budget; the iteration never takes more than n - 1 steps.
POSITIVE_MARGIN_REL = 1e-8
RESIDUAL_REL = 1e-9
LANCZOS_BUDGET = 300


@dataclass
class CertificateReport:
    verdict: str
    lambda2_lower: float
    zg_residual: float
    iterations: int
    scale: float
    matvecs: int = 0
    witness: object = None
    witness_value: object = None


class ZOperator:
    """Matrix-free certificate matrix for one (graph, cut, mu) triple; A is ``graph.matvec``."""

    def __init__(self, graph, partition, mu):
        mu = checked_mu(mu)
        n = graph.num_vertices
        g = partition.sign_vector(graph)
        self.n = n
        self.mu = mu
        self.g = g
        self._graph = graph
        # D_in - D_out = diag(g * (A g)): own-side minus other-side
        # neighbour counts, and n1 - n2 = sum(g), both exact in floats
        self._diag = g * graph.matvec(g) - mu * g.sum() * g
        degrees = graph.degrees.astype(np.float64)
        # max row 1-norm: |Z_ii| + sum_j |Z_ij|; off-diagonals are -(1-mu)
        # on edges and mu on non-edges
        row_norms = (
            np.abs(self._diag + mu)
            + degrees * abs(1.0 - mu)
            + (n - 1 - degrees) * mu
        )
        self.scale = float(row_norms.max()) if n else 0.0

    def matvec(self, x):
        return self._diag * x - self._graph.matvec(x) + self.mu * x.sum()

    def dense(self):
        return np.diag(self._diag) - self._graph.matvec(np.eye(self.n)) + self.mu


def _project_out(x, g_unit):
    return x - (g_unit @ x) * g_unit


def _lanczos_bottom(matvec, n, steps, scale, rng, deflate=None):
    """Ritz pairs for the bottom of a symmetric operator, by Lanczos.

    Runs at most ``steps`` Krylov steps, which must not exceed the
    dimension of the searched space: n, or n - 1 when the unit vector
    ``deflate`` is projected out of every vector. Full reorthogonalization
    keeps the basis clean; on breakdown (beta below 1e-10 * max(1, scale))
    the iteration restarts in the unexplored complement, which makes the
    small matrix block tridiagonal — harmless, since the bounds come from
    explicit residuals, not from the recurrence.

    Every fifth step, on breakdown and at the last step it yields
    ``(steps taken, operator applications, ritz)``. ``ritz`` is the bottom
    Ritz pair as (rayleigh quotient, true residual norm, unit vector),
    recomputed from one explicit matvec, or None when deflation leaves no
    Ritz vector. Each caller keeps its own stop rule and leaves the loop
    when it is met.
    """

    def project(x):
        return x if deflate is None else _project_out(x, deflate)

    def fresh_direction(k):
        # random unit vector orthogonal to deflate and the first k basis rows
        for _ in range(64):
            x = project(rng.standard_normal(n))
            if k:
                x -= basis[:k].T @ (basis[:k] @ x)
                x = project(x)
            nx = np.linalg.norm(x)
            if nx > 1e-8:
                return x / nx
        return None

    def ritz_pair(k):
        evals, evecs = np.linalg.eigh(tri[:k, :k])
        y = project(basis[:k].T @ evecs[:, 0])
        ny = np.linalg.norm(y)
        if ny < 1e-12:
            return None
        y /= ny
        zy = matvec(y)
        rq = float(y @ zy)
        return rq, float(np.linalg.norm(zy - rq * y)), y

    basis = np.zeros((steps, n))
    tri = np.zeros((steps, steps))
    breakdown = 1e-10 * max(1.0, scale)
    q = fresh_direction(0)
    if q is None:
        return
    beta = 0.0
    q_prev = np.zeros(n)
    matvecs = 0
    k = 0
    while k < steps:
        basis[k] = q
        w = project(matvec(q))
        matvecs += 1
        alpha = float(q @ w)
        tri[k, k] = alpha
        w -= alpha * q + beta * q_prev
        w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        w = project(w)
        beta = float(np.linalg.norm(w))
        k += 1

        broke = beta < breakdown
        if broke or k % 5 == 0 or k == steps:
            ritz = ritz_pair(k)
            if ritz is not None:
                matvecs += 1
            yield k, matvecs, ritz

        if k == steps:
            return
        if broke:
            q = fresh_direction(k)
            if q is None:
                return
            q_prev, beta = np.zeros(n), 0.0
        else:
            tri[k - 1, k] = tri[k, k - 1] = beta
            q_prev, q = q, w / beta


def check_certificate(graph, partition, mu):
    """Decide whether the cut is certified as the unique SDP optimum.

    CERTIFIED requires a proven lower bound lambda2_lower > margin for the
    spectrum of Z on the complement of g. NOT_CERTIFIED requires an
    explicit witness direction with negative Rayleigh quotient. Anything
    the iteration cannot separate from zero at the working margin is
    INCONCLUSIVE, and so is a run that spends its step budget without a
    decisive checkpoint; its ``lambda2_lower`` is the last checkpoint's
    rq - res, which proves nothing. ``iterations`` counts Krylov steps;
    ``matvecs`` counts every application of Z (the Zg check, the Krylov
    steps and the Ritz checks).
    """
    op = ZOperator(graph, partition, mu)
    n = op.n
    if n < 2:
        raise ValueError("certificate needs at least two vertices")
    g = op.g
    g_unit = g / math.sqrt(n)
    zg = op.matvec(g)
    zg_residual = float(np.abs(zg).max())
    margin = max(POSITIVE_MARGIN_REL * op.scale, 1e-10)

    report = partial(CertificateReport, zg_residual=zg_residual, scale=op.scale)
    if zg_residual > RESIDUAL_REL * (1.0 + op.scale):
        return report(INCONCLUSIVE, 0.0, iterations=0, matvecs=1)

    if op.scale == 0.0:
        # Z is identically zero: PSD but rank 0 < n - 1, so the optimum
        # is degenerate rather than uniquely g g^T.
        w = np.zeros(n)
        w[0] = 1.0
        w = _project_out(w, g_unit)
        w /= np.linalg.norm(w)
        return report(NOT_CERTIFIED, 0.0, iterations=0, matvecs=1, witness=w, witness_value=0.0)

    # A checkpoint decides when its quotient is negative (refuted) or its
    # positive bound rq - res is tight (proven). A run that ends undecided,
    # its budget spent, proves nothing: a Ritz pair brackets only *some*
    # eigenvalue, and even the last, lowest one seen can sit above the
    # bottom of the spectrum. It reports INCONCLUSIVE with the last
    # checkpoint's rq - res, never an earlier, larger one.
    checkpoints = _lanczos_bottom(
        op.matvec,
        n,
        min(LANCZOS_BUDGET, n - 1),
        op.scale,
        np.random.default_rng(0xC0FFEE),
        deflate=g_unit,
    )
    verdict, last, witness = INCONCLUSIVE, 0.0, {}
    iterations = matvecs = 0
    for iterations, matvecs, ritz in checkpoints:
        if ritz is None:
            continue
        rq, res, y = ritz
        last = rq - res
        if rq < -margin:
            verdict, witness = NOT_CERTIFIED, {"witness": y, "witness_value": rq}
            break
        if last > margin and res <= 0.05 * abs(rq) + margin:
            verdict = CERTIFIED
            break
    # + 1 for the Zg check
    return report(verdict, last, iterations=iterations, matvecs=matvecs + 1, **witness)


def exhaustive_unique_opt_check(graph, partition, mu):
    """Dense ground truth for tiny instances (n <= 12).

    True iff Z is PSD within 1e-10, exactly one eigenvalue sits in
    [-1e-10, 1e-10], and its eigenvector is parallel to g.
    """
    n = graph.num_vertices
    if n > 12:
        raise ValueError("exhaustive check limited to n <= 12")
    op = ZOperator(graph, partition, mu)
    z = op.dense()
    evals, evecs = np.linalg.eigh(z)
    if evals[0] < -1e-10:
        return False
    near_zero = np.abs(evals) <= 1e-10
    if int(near_zero.sum()) != 1:
        return False
    v = evecs[:, int(np.argmax(near_zero))]
    alignment = abs(float(v @ op.g)) / math.sqrt(n)
    return alignment >= 1.0 - 1e-6
