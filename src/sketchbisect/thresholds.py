"""Closed-form recovery thresholds and success bounds for the bisection SDP.

All rates are on the logarithmic scale p = alpha*ln(n)/n, q = beta*ln(n)/n.
Every argument must be finite: an infinite or NaN one raises ValueError
naming it, never a NaN result or a wrong verdict.
Exact recovery of a balanced planted cut is possible iff
sqrt(alpha) - sqrt(beta) >= sqrt(2); below that line no estimator succeeds
with high probability. The sketching rates compare against that line:

  vote_gamma_threshold      gamma above which a majority vote from a
                            correctly solved sketch labels all remaining
                            vertices correctly w.h.p.
  sketch_gamma_threshold    twice the vote threshold; above it the whole
                            sketch-and-solve pipeline succeeds w.h.p.
                            (Replacing the exact density offset by an
                            estimate within eta*ln(n)/n tightens the
                            constant to (16/3)*(2*alpha + beta - eta) /
                            (alpha - beta - 2*eta)^2; eta = 0 recovers the
                            value returned here.)
  conjectured_gamma_threshold
                            2 / (sqrt(alpha) - sqrt(beta))^2, the
                            information-theoretic rate the pipeline is
                            believed to attain; kept separate from the
                            proven thresholds and used only for plot
                            overlays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .seeding import is_real

RECOVERABLE = "RECOVERABLE"
IMPOSSIBLE = "IMPOSSIBLE"
BOUNDARY = "BOUNDARY"

_BOUNDARY_TOL = 1e-12


def _is_finite(x):
    """True for a finite Python or numpy real that is not a boolean."""
    return is_real(x) and math.isfinite(x)


def _check_finite(alpha, beta):
    if not (_is_finite(alpha) and _is_finite(beta)):
        raise ValueError(f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}")


def _check_rates(alpha, beta):
    _check_finite(alpha, beta)
    if not alpha > beta > 0:
        raise ValueError("need alpha > beta > 0")


def recovery_phase(alpha, beta):
    """Phase of (alpha, beta): RECOVERABLE, IMPOSSIBLE, or BOUNDARY."""
    _check_finite(alpha, beta)
    if not alpha >= beta > 0:
        raise ValueError("need alpha >= beta > 0")
    margin = math.sqrt(alpha) - math.sqrt(beta) - math.sqrt(2.0)
    if abs(margin) <= _BOUNDARY_TOL:
        return BOUNDARY
    return RECOVERABLE if margin > 0 else IMPOSSIBLE


def vote_gamma_threshold(alpha, beta):
    """Sampling rate above which majority-vote extension succeeds w.h.p."""
    _check_rates(alpha, beta)
    return (8.0 / 3.0) * (2.0 * alpha + beta) / (alpha - beta) ** 2


def sketch_gamma_threshold(alpha, beta):
    """Proven sampling rate for the whole pipeline: twice the vote rate."""
    return 2.0 * vote_gamma_threshold(alpha, beta)


def conjectured_gamma_threshold(alpha, beta):
    """Conjectured optimal sampling rate 2 / (sqrt(alpha) - sqrt(beta))^2."""
    _check_rates(alpha, beta)
    return 2.0 / (math.sqrt(alpha) - math.sqrt(beta)) ** 2


def sdp_success_bound(n1, n2, p, q, mu):
    """Lower bound 1 - 2n*exp(-E) on the probability that the planted cut
    is the unique SDP optimum.

    The exponent E has two Bernstein-type branches split at
    mu = (p+q)/2; m = |n1 - n2| is the block imbalance and n = n1 + n2.
    The bound is returned as computed: it can be negative (vacuous) for
    weak parameters, and clamping is left to display layers.
    """
    if not (_is_finite(n1) and _is_finite(n2) and n1 >= 1 and n2 >= 1):
        raise ValueError("block sizes must be finite and positive")
    if not (is_real(p) and is_real(q) and 0.0 < q < p <= 1.0):
        raise ValueError("need rates with 0 < q < p <= 1")
    if not (_is_finite(mu) and mu > q):
        raise ValueError("mu must be finite and exceed q")
    n = n1 + n2
    m = abs(n1 - n2)
    if mu < (p + q) / 2.0:
        num = 1.5 * ((mu - q) * n) ** 2
        den = (3.0 * p + q + 2.0 * mu) * n + 3.0 * (p - q) * m
    else:
        num = (3.0 / 16.0) * ((p - q) * n - (2.0 * mu - (p + q)) * m) ** 2
        den = (2.0 * p + q) * n + (2.0 * p - q - mu) * m
    return 1.0 - 2.0 * n * math.exp(-num / den)


def unbalanced_recovery_condition(alpha, beta, delta):
    """True when 3*(a-b)^2 > 16*(2a+b) + 24*(a-b)*delta.

    ``delta`` scales the block imbalance as m = delta*n/ln(n); delta = 0
    is the balanced case.
    """
    _check_rates(alpha, beta)
    if not (_is_finite(delta) and delta >= 0.0):
        raise ValueError("delta must be finite and non-negative")
    return bool(
        3.0 * (alpha - beta) ** 2
        > 16.0 * (2.0 * alpha + beta) + 24.0 * (alpha - beta) * delta
    )


@dataclass(frozen=True)
class ThresholdReport:
    alpha: float
    beta: float
    delta: float
    phase: str
    recoverable: bool
    vote_gamma: float
    sketch_gamma: float
    conjectured_gamma: float
    unbalanced_condition_holds: bool


def threshold_report(alpha, beta, delta=0.0):
    """All threshold quantities for one (alpha, beta) point."""
    # checks the rates and delta before float() reads them
    holds = unbalanced_recovery_condition(alpha, beta, delta)
    phase = recovery_phase(alpha, beta)
    return ThresholdReport(
        alpha=float(alpha),
        beta=float(beta),
        delta=float(delta),
        phase=phase,
        recoverable=phase == RECOVERABLE,
        vote_gamma=vote_gamma_threshold(alpha, beta),
        sketch_gamma=sketch_gamma_threshold(alpha, beta),
        conjectured_gamma=conjectured_gamma_threshold(alpha, beta),
        unbalanced_condition_holds=holds,
    )


def phase_boundary_curve(betas):
    """The exact-recovery boundary alpha = (sqrt(beta) + sqrt(2))^2."""
    b = np.asarray(betas)
    if b.dtype.kind not in "iuf" or not np.all((b > 0) & (b < np.inf)):
        raise ValueError("beta must be finite and positive")
    return (np.sqrt(b.astype(np.float64)) + math.sqrt(2.0)) ** 2
