"""Dual certificate of unique optimality for a two-sided cut.

Given a cut g on a graph with adjacency A and offset mu, build

    Z = D_in - D_out - mu*(n1 - n2)*diag(g) - A + mu*J

where D_in and D_out are diagonal degree counts toward the own and the
opposite side, and n1, n2 are the side sizes. Z g = 0 holds by
construction. If Z is positive semidefinite with rank n - 1 (equivalently
Z restricted to the complement of g is positive definite), then g g^T is
the unique optimum of the unit-diagonal SDP, so the cut needs no further
search.

The check is matrix-free. A decided check ends in one of three ways:

- Diagonal refutation (NOT_CERTIFIED, no Krylov step). With Zg = 0 the
  unit multiple w of e_i - (g_i/n) g is orthogonal to g and has Rayleigh
  quotient Z_ii * n/(n - 1), so a negative enough diagonal entry is a
  witness.
- Krylov refutation (NOT_CERTIFIED). Otherwise the bottom of the spectrum
  on the complement of g is bracketed with a deflated Lanczos iteration
  (fully reorthogonalized, restarting on breakdown), whose Ritz pairs are
  checked every fifth step with an explicit residual. A Ritz vector with
  a negative quotient is a witness.
- Krylov proof (CERTIFIED): a checked Ritz pair whose positive bound
  rq - res is tight.

Anything else is INCONCLUSIVE. ``iterations`` counts Krylov steps and
``matvecs`` products with A: the one that builds Z's diagonal and gives
Zg, one per Krylov step and one per Ritz check. The same loop, undeflated,
finds the solver's sweep-0 spectral cut; it is the package's only Krylov
iteration.
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
        ag = graph.matvec(g)
        self._diag = g * ag - mu * g.sum() * g
        # Z g from the same product, with the floats ``matvec(g)`` gives
        self.zg = self._diag * g - ag + mu * g.sum()
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

    def diagonal(self):
        """Z's diagonal: Z_ii = (D_in - D_out - mu*(n1 - n2)*diag(g))_ii + mu, since A_ii = 0."""
        return self._diag + self.mu

    def dense(self):
        return np.diag(self._diag) - self._graph.matvec(np.eye(self.n)) + self.mu


def _project_out(x, g_unit):
    return x - (g_unit @ x) * g_unit


class _Step:
    """The Krylov state after ``k`` steps, as ``_lanczos_bottom`` yields it.

    It reads the loop's arrays in place, so it is valid only until the loop
    takes its next step. ``final`` is true when this step broke down (the
    loop then restarts from a fresh direction, if one is left) or spent the
    budget. ``estimate`` costs no operator application, ``ritz``
    one; both read the same eigenpair of the small matrix.
    """

    def __init__(self, k, final, beta, tri, basis, matvec, project):
        self.k = k
        self.final = final
        self._beta = beta
        self._tri = tri
        self._basis = basis
        self._matvec = matvec
        self._project = project
        self._bottom = None

    def _bottom_pair(self):
        if self._bottom is None:
            evals, evecs = np.linalg.eigh(self._tri[: self.k, : self.k])
            self._bottom = float(evals[0]), evecs[:, 0]
        return self._bottom

    def estimate(self):
        """(bottom Ritz value, beta_k * |s_k|), from the small matrix alone.

        s_k is the last entry of its bottom eigenvector and beta_k the norm
        of the step's new direction. In exact arithmetic the product is the
        Ritz pair's residual norm; it decides only when to pay for ``ritz``.
        """
        theta, s = self._bottom_pair()
        return theta, self._beta * abs(float(s[-1]))

    def ritz(self):
        """The bottom Ritz pair as (rayleigh quotient, true residual norm, unit
        vector), recomputed from one explicit operator application, or None
        when deflation leaves no Ritz vector (and nothing is applied)."""
        _, s = self._bottom_pair()
        y = self._project(self._basis[: self.k].T @ s)
        ny = np.linalg.norm(y)
        if ny < 1e-12:
            return None
        y /= ny
        zy = self._matvec(y)
        rq = float(y @ zy)
        return rq, float(np.linalg.norm(zy - rq * y)), y


def _lanczos_bottom(matvec, n, steps, scale, rng, deflate=None):
    """The bottom of a symmetric operator, by Lanczos.

    Runs at most ``steps`` Krylov steps, which must not exceed the
    dimension of the searched space: n, or n - 1 when the unit vector
    ``deflate`` is projected out of every vector. Full reorthogonalization
    keeps the basis clean; on breakdown (beta below 1e-10 * max(1, scale))
    the iteration restarts in the unexplored complement, which makes the
    small matrix block tridiagonal — harmless, since the bounds come from
    explicit residuals, not from the recurrence.

    After every step, one operator application each, it yields a ``_Step``.
    The caller picks its checkpoints, asks for ``ritz()`` there, keeps its
    own stop rule and leaves the loop when it is met:

    - ``check_certificate`` checks every fifth step and every final one
      (a breakdown or the last step). Its early-stop rule was gated on
      that schedule (ROADMAP item 2), so the residual estimate never
      picks its checkpoints.
    - ``solver._spectral_vector`` reads ``estimate()`` at every step and
      checks the steps whose estimate is within its tolerance, and the
      final ones.

    Each basis row is written before it is read, so the basis starts
    uninitialised: a run fills a few of its rows, never all ``steps``.
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

    basis = np.empty((steps, n))
    tri = np.zeros((steps, steps))
    breakdown = 1e-10 * max(1.0, scale)
    q = fresh_direction(0)
    if q is None:
        return
    beta = 0.0
    q_prev = np.zeros(n)
    k = 0
    while k < steps:
        basis[k] = q
        w = project(matvec(q))
        alpha = float(q @ w)
        tri[k, k] = alpha
        w -= alpha * q + beta * q_prev
        w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        w = project(w)
        beta = math.sqrt(float(w @ w))  # np.linalg.norm's own sum, without its checks
        k += 1

        broke = beta < breakdown
        yield _Step(k, broke or k == steps, beta, tri, basis, matvec, project)

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


def _unit_witness(i, g_unit):
    """The unit multiple of e_i - (g_i/n) g: e_i with g projected out."""
    w = np.zeros(g_unit.shape[0])
    w[i] = 1.0
    w = _project_out(w, g_unit)
    return w / np.linalg.norm(w)


def check_certificate(graph, partition, mu):
    """Decide whether the cut is certified as the unique SDP optimum.

    CERTIFIED requires a proven lower bound lambda2_lower > margin for the
    spectrum of Z on the complement of g. NOT_CERTIFIED requires an
    explicit witness direction w, a unit vector orthogonal to g with
    negative Rayleigh quotient ``witness_value``. Anything the iteration
    cannot separate from zero at the working margin is INCONCLUSIVE, and
    so is a run that spends its step budget without a decisive
    checkpoint; its ``lambda2_lower`` is the last checkpoint's rq - res,
    which proves nothing. See the module docstring for the three ways a
    check ends and what ``iterations`` and ``matvecs`` count.
    """
    op = ZOperator(graph, partition, mu)
    n = op.n
    if n < 2:
        raise ValueError("certificate needs at least two vertices")
    g_unit = op.g / math.sqrt(n)
    zg_residual = float(np.abs(op.zg).max())
    margin = max(POSITIVE_MARGIN_REL * op.scale, 1e-10)

    # every report counts the product A g that built Z's diagonal and Zg
    report = partial(CertificateReport, zg_residual=zg_residual, scale=op.scale)
    if zg_residual > RESIDUAL_REL * (1.0 + op.scale):
        return report(INCONCLUSIVE, 0.0, iterations=0, matvecs=1)

    if op.scale == 0.0:
        # Z is identically zero: PSD but rank 0 < n - 1, so the optimum
        # is degenerate rather than uniquely g g^T.
        w = _unit_witness(0, g_unit)
        return report(NOT_CERTIFIED, 0.0, iterations=0, matvecs=1, witness=w, witness_value=0.0)

    # The witness e_i - (g_i/n) g is orthogonal to g, and with Zg = 0 its
    # Rayleigh quotient is Z_ii * n/(n - 1): a negative diagonal entry
    # refutes the cut before any Krylov step.
    z_diag = op.diagonal()
    i = int(np.argmin(z_diag))
    quotient = float(z_diag[i]) * n / (n - 1)
    if quotient < -margin:
        w = _unit_witness(i, g_unit)
        return report(NOT_CERTIFIED, quotient, iterations=0, matvecs=1, witness=w, witness_value=quotient)

    # A checkpoint decides when its quotient is negative (refuted) or its
    # positive bound rq - res is tight (proven). A run that ends undecided,
    # its budget spent, proves nothing: a Ritz pair brackets only *some*
    # eigenvalue, and even the last, lowest one seen can sit above the
    # bottom of the spectrum. It reports INCONCLUSIVE with the last
    # checkpoint's rq - res, never an earlier, larger one.
    steps = _lanczos_bottom(
        op.matvec,
        n,
        min(LANCZOS_BUDGET, n - 1),
        op.scale,
        np.random.default_rng(0xC0FFEE),
        deflate=g_unit,
    )
    verdict, last, witness = INCONCLUSIVE, 0.0, {}
    iterations = ritz_checks = 0
    for step in steps:
        iterations = step.k
        if not (step.final or step.k % 5 == 0):
            continue
        ritz = step.ritz()
        if ritz is None:
            continue
        ritz_checks += 1
        rq, res, y = ritz
        last = rq - res
        if rq < -margin:
            verdict, witness = NOT_CERTIFIED, {"witness": y, "witness_value": rq}
            break
        if last > margin and res <= 0.05 * abs(rq) + margin:
            verdict = CERTIFIED
            break
    # + 1 for A g
    return report(verdict, last, iterations=iterations, matvecs=iterations + ritz_checks + 1, **witness)


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
