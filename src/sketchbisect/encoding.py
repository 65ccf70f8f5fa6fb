"""Edge-density estimates of the offset mu in the objective A - mu*J.

The bisection SDP maximizes <A - mu*J, X>, where J = ones(n, n).

The classical +/-1 edge-sign encoding B = 2A - J + I is the affine image
2*(A - J/2) + I, so mu = 1/2 reproduces its maximizers; the max-cut
complement encoding corresponds to mu = 1. Both are special cases of the
family handled here.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MuEstimate:
    """Edge density |E| / C(n, 2) with the ingredients kept for reporting."""

    mu: float
    edge_count: int
    n: int


def checked_mu(mu):
    """``mu`` as a float; ValueError unless it is finite and non-negative."""
    if not 0.0 <= float(mu) < math.inf:
        raise ValueError("mu must be a finite non-negative number")
    return float(mu)


def estimate_mu(graph):
    """Estimate mu as the global edge density of the graph."""
    n = graph.num_vertices
    if n < 2:
        raise ValueError("density needs at least two vertices")
    pairs = n * (n - 1) // 2
    return MuEstimate(mu=graph.edge_count / pairs, edge_count=graph.edge_count, n=n)


def expected_mu(params):
    """Exact expectation of the density estimate under a balanced block model.

    With n1 == n2 the pair mix gives (p + q)/2 - (p - q)/(2*(n - 1)).
    """
    if params.n1 != params.n2:
        raise ValueError("expected density formula requires equal blocks")
    n = params.n
    p, q = params.p, params.q
    return (p + q) / 2.0 - (p - q) / (2.0 * (n - 1))


def mu_concentration_bound(params, c):
    """Deviation scale c * ln(n) / n**1.5 for the density estimate.

    ``params`` is either log-scale parameters (their n is used) or a bare
    real n >= 2, so the bound can be evaluated along a continuous curve;
    ``c`` is a non-negative constant.
    """
    n = getattr(params, "n", params)
    if n < 2:
        raise ValueError("n must be at least 2")
    if c < 0:
        raise ValueError("c must be non-negative")
    return c * math.log(n) / n**1.5
