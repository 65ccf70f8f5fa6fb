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
bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    """Matrix-free certificate matrix for one (graph, cut, mu) triple."""

    def __init__(self, graph, partition, mu):
        if mu < 0:
            raise ValueError("mu must be non-negative")
        n = graph.num_vertices
        g = partition.sign_vector(graph)
        adj = graph.adjacency
        plus = (g > 0).astype(np.float64)
        minus = (g < 0).astype(np.float64)
        to_plus = adj @ plus
        to_minus = adj @ minus
        d_plus = np.where(g > 0, to_plus, to_minus)
        d_minus = np.where(g > 0, to_minus, to_plus)
        n1 = int(plus.sum())
        n2 = n - n1
        self.n = n
        self.mu = float(mu)
        self.g = g
        self._adj = adj
        self._diag = d_plus - d_minus - mu * (n1 - n2) * g
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
        return self._diag * x - self._adj @ x + self.mu * x.sum()

    def dense(self):
        z = np.diag(self._diag + self.mu) - self._adj.toarray()
        z += self.mu * (np.ones((self.n, self.n)) - np.eye(self.n))
        return z


def _project_out(x, g_unit):
    return x - (g_unit @ x) * g_unit


def _fresh_direction(rng, n, g_unit, basis, k):
    """Random unit vector orthogonal to g and the first k basis rows."""
    for _ in range(64):
        x = _project_out(rng.standard_normal(n), g_unit)
        if k:
            x -= basis[:k].T @ (basis[:k] @ x)
            x = _project_out(x, g_unit)
        nx = np.linalg.norm(x)
        if nx > 1e-8:
            return x / nx
    return None


def _ritz_candidate(op, g_unit, basis, tri, k):
    """Bottom Ritz pair of the current (block-)tridiagonal restriction.

    Returns (rayleigh quotient, true residual norm, unit vector); the
    quotient is recomputed from an explicit matvec, so the bounds hold
    regardless of how the basis was assembled.
    """
    evals, evecs = np.linalg.eigh(tri[:k, :k])
    y = basis[:k].T @ evecs[:, 0]
    y = _project_out(y, g_unit)
    ny = np.linalg.norm(y)
    if ny < 1e-12:
        return None
    y /= ny
    zy = op.matvec(y)
    rq = float(y @ zy)
    res = float(np.linalg.norm(zy - rq * y))
    return rq, res, y


def _lanczos_bottom(op, g_unit, budget, margin, rng):
    """Smallest eigenvalue of Z on the complement of g, with residual bound.

    Full reorthogonalization keeps the basis clean; on breakdown the
    iteration restarts in the unexplored complement, which makes the small
    matrix block tridiagonal — harmless, since candidate bounds come from
    explicit residuals, not from the recurrence.

    Returns (best Ritz triple or None, Krylov steps, operator applications).
    """
    n = op.n
    kmax = min(budget, n - 1)
    basis = np.zeros((kmax, n))
    tri = np.zeros((kmax, kmax))
    q = _fresh_direction(rng, n, g_unit, basis, 0)
    if q is None:
        return None, 0, 0
    beta = 0.0
    q_prev = np.zeros(n)
    matvecs = 0
    best = None
    k = 0
    while k < kmax:
        basis[k] = q
        w = _project_out(op.matvec(q), g_unit)
        matvecs += 1
        alpha = float(q @ w)
        tri[k, k] = alpha
        w -= alpha * q + beta * q_prev
        w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        w = _project_out(w, g_unit)
        beta = float(np.linalg.norm(w))
        k += 1

        checkpoint = (k % 5 == 0) or k == kmax
        if beta < 1e-10 * max(1.0, op.scale):
            checkpoint = True
        if checkpoint:
            cand = _ritz_candidate(op, g_unit, basis, tri, k)
            if cand is not None:
                matvecs += 1
                rq, res, y = cand
                if best is None or rq - res > best[0] - best[1]:
                    best = (rq, res, y)
                if rq < -margin:
                    best = (rq, res, y)
                    break
                if rq - res > margin and res <= 0.05 * abs(rq) + margin:
                    best = (rq, res, y)
                    break

        if k == kmax:
            break
        if beta < 1e-10 * max(1.0, op.scale):
            q_new = _fresh_direction(rng, n, g_unit, basis, k)
            if q_new is None:
                break
            q, q_prev, beta = q_new, np.zeros(n), 0.0
        else:
            tri[k - 1, k] = tri[k, k - 1] = beta
            q_prev, q = q, w / beta

    return best, k, matvecs


def check_certificate(graph, partition, mu):
    """Decide whether the cut is certified as the unique SDP optimum.

    CERTIFIED requires a proven lower bound lambda2_lower > margin for the
    spectrum of Z on the complement of g. NOT_CERTIFIED requires an
    explicit witness direction with negative Rayleigh quotient. Anything
    the iteration cannot separate from zero at the working margin is
    INCONCLUSIVE. ``iterations`` counts Krylov steps; ``matvecs`` counts
    every application of Z (the Zg check, the Krylov steps and the Ritz
    checks).
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

    if zg_residual > RESIDUAL_REL * (1.0 + op.scale):
        return CertificateReport(
            verdict=INCONCLUSIVE,
            lambda2_lower=0.0,
            zg_residual=zg_residual,
            iterations=0,
            scale=op.scale,
            matvecs=1,
        )

    if op.scale == 0.0:
        # Z is identically zero: PSD but rank 0 < n - 1, so the optimum
        # is degenerate rather than uniquely g g^T.
        w = np.zeros(n)
        w[0] = 1.0
        w = _project_out(w, g_unit)
        w /= np.linalg.norm(w)
        return CertificateReport(
            verdict=NOT_CERTIFIED,
            lambda2_lower=0.0,
            zg_residual=zg_residual,
            iterations=0,
            scale=0.0,
            matvecs=1,
            witness=w,
            witness_value=0.0,
        )

    rng = np.random.default_rng(0xC0FFEE)
    best, iterations, matvecs = _lanczos_bottom(op, g_unit, LANCZOS_BUDGET, margin, rng)
    matvecs += 1

    if best is None:
        return CertificateReport(
            verdict=INCONCLUSIVE,
            lambda2_lower=0.0,
            zg_residual=zg_residual,
            iterations=iterations,
            scale=op.scale,
            matvecs=matvecs,
        )

    rq, res, y = best
    lambda2_lower = rq - res
    if lambda2_lower > margin:
        return CertificateReport(
            verdict=CERTIFIED,
            lambda2_lower=lambda2_lower,
            zg_residual=zg_residual,
            iterations=iterations,
            scale=op.scale,
            matvecs=matvecs,
        )
    if rq < -margin:
        return CertificateReport(
            verdict=NOT_CERTIFIED,
            lambda2_lower=lambda2_lower,
            zg_residual=zg_residual,
            iterations=iterations,
            scale=op.scale,
            matvecs=matvecs,
            witness=y,
            witness_value=rq,
        )
    return CertificateReport(
        verdict=INCONCLUSIVE,
        lambda2_lower=lambda2_lower,
        zg_residual=zg_residual,
        iterations=iterations,
        scale=op.scale,
        matvecs=matvecs,
    )


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
