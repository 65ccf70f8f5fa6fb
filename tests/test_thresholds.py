import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from sketchbisect import (
    BOUNDARY,
    IMPOSSIBLE,
    RECOVERABLE,
    conjectured_gamma_threshold,
    mu_concentration_bound,
    phase_boundary_curve,
    recovery_phase,
    sdp_success_bound,
    sketch_gamma_threshold,
    threshold_report,
    unbalanced_recovery_condition,
    vote_gamma_threshold,
)

FIG1_ALPHAS = list(range(2, 51, 2))
FIG1_BETAS = list(range(1, 11))


class TestRecoveryPhase:
    def test_exact_surd_boundary(self):
        # sqrt(8) - sqrt(2) = sqrt(2) exactly, even in doubles
        assert recovery_phase(8, 2) == BOUNDARY

    def test_second_boundary_point(self):
        # sqrt(18) - sqrt(8) = sqrt(2) up to one ulp
        assert recovery_phase(18, 8) == BOUNDARY

    def test_clear_cases(self):
        assert recovery_phase(50, 1) == RECOVERABLE
        assert recovery_phase(2, 1) == IMPOSSIBLE

    def test_equal_rates_allowed_here(self):
        assert recovery_phase(3, 3) == IMPOSSIBLE

    def test_validation(self):
        with pytest.raises(ValueError):
            recovery_phase(1, 2)
        with pytest.raises(ValueError):
            recovery_phase(2, 0)


NON_FINITE = [(math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (50.0, math.inf), (50.0, math.nan)]


class TestNonFiniteRates:
    """An infinite or NaN argument is one ValueError, never a NaN or a wrong phase."""

    CHECKS = {
        "recovery_phase": recovery_phase,
        "vote_gamma_threshold": vote_gamma_threshold,
        "sketch_gamma_threshold": sketch_gamma_threshold,
        "conjectured_gamma_threshold": conjectured_gamma_threshold,
        "unbalanced_recovery_condition": lambda a, b: unbalanced_recovery_condition(a, b, 0.0),
        "threshold_report": threshold_report,
    }

    @pytest.mark.parametrize("alpha, beta", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("name", CHECKS)
    def test_rejected_with_one_message(self, name, alpha, beta):
        want = f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}"
        with pytest.raises(ValueError) as exc:
            self.CHECKS[name](alpha, beta)
        assert str(exc.value) == want

    # every other real argument: test id -> (the name its ValueError gives, a call)
    OTHER_ARGUMENTS = {
        "unbalanced_recovery_condition.delta": (
            "delta", lambda x: unbalanced_recovery_condition(10, 1, x)),
        "threshold_report.delta": ("delta", lambda x: threshold_report(10, 1, x)),
        "sdp_success_bound.n1": ("block sizes", lambda x: sdp_success_bound(x, 5, 0.5, 0.1, 0.3)),
        "sdp_success_bound.n2": ("block sizes", lambda x: sdp_success_bound(5, x, 0.5, 0.1, 0.3)),
        "sdp_success_bound.mu": ("mu", lambda x: sdp_success_bound(5, 5, 0.5, 0.1, x)),
        "mu_concentration_bound.n": ("n", lambda x: mu_concentration_bound(x, 1)),
        "mu_concentration_bound.c": ("c", lambda x: mu_concentration_bound(400, x)),
        "phase_boundary_curve.beta": ("beta", lambda x: phase_boundary_curve([1.0, x])),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("argument", OTHER_ARGUMENTS)
    def test_other_arguments_rejected_by_name(self, argument, value):
        name, call = self.OTHER_ARGUMENTS[argument]
        with pytest.raises(ValueError, match=rf"^{name} must be finite and "):
            call(value)

    # a string, a boolean or a 0-d array is not a rate: "1" used to escape as
    # TypeError, and True to pass as 1
    NON_REALS = ["1", True, np.True_, np.array(1.0)]

    @pytest.mark.parametrize("value", NON_REALS, ids=repr)
    @pytest.mark.parametrize("name", CHECKS)
    def test_non_reals_rejected_with_one_message(self, name, value):
        for alpha, beta in ((value, 0.5), (60.0, value)):
            want = f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}"
            with pytest.raises(ValueError) as exc:
                self.CHECKS[name](alpha, beta)
            assert str(exc.value) == want

    @pytest.mark.parametrize("value", NON_REALS, ids=repr)
    @pytest.mark.parametrize("argument", [a for a in OTHER_ARGUMENTS if a != "phase_boundary_curve.beta"])
    def test_other_arguments_must_be_reals(self, argument, value):
        name, call = self.OTHER_ARGUMENTS[argument]
        with pytest.raises(ValueError, match=rf"^{name} must be finite and "):
            call(value)

    @pytest.mark.parametrize("value", NON_REALS, ids=repr)
    def test_success_bound_rates_must_be_reals(self, value):
        for p, q in ((value, 0.1), (0.9, value)):
            with pytest.raises(ValueError, match=r"^need rates with 0 < q < p <= 1$"):
                sdp_success_bound(5, 5, p, q, 0.95)

    def test_large_finite_rates_still_accepted(self):
        assert recovery_phase(1e300, 1.0) == RECOVERABLE
        assert conjectured_gamma_threshold(1e300, 1.0) > 0.0


class TestGammaThresholds:
    def test_vote_rational_points(self):
        assert vote_gamma_threshold(50, 1) == pytest.approx(
            float(Fraction(8, 3) * Fraction(101, 49**2)), rel=1e-15
        )
        assert vote_gamma_threshold(3, 1) == pytest.approx(14 / 3, rel=1e-15)
        assert vote_gamma_threshold(10, 2) == pytest.approx(
            float(Fraction(11, 12)), rel=1e-15
        )

    def test_sketch_rational_points(self):
        assert sketch_gamma_threshold(50, 1) == pytest.approx(
            float(Fraction(1616, 7203)), rel=1e-15
        )
        assert sketch_gamma_threshold(10, 2) == pytest.approx(
            float(Fraction(11, 6)), rel=1e-15
        )

    def test_doubling_identity_over_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            beta = float(rng.uniform(0.1, 20.0))
            alpha = beta + float(rng.uniform(1e-3, 60.0))
            v = vote_gamma_threshold(alpha, beta)
            s = sketch_gamma_threshold(alpha, beta)
            assert s == pytest.approx(2.0 * v, rel=1e-15)

    def test_conjecture_boundary_value(self):
        assert conjectured_gamma_threshold(8, 2) == pytest.approx(1.0, rel=1e-14)

    def test_conjecture_high_precision_point(self):
        getcontext().prec = 50
        oracle = Decimal(2) / (Decimal(50).sqrt() - 1) ** 2
        assert conjectured_gamma_threshold(50, 1) == pytest.approx(
            float(oracle), rel=1e-13
        )

    def test_conjecture_iff_recoverable_on_grid(self):
        # gamma = 1 makes the conjectured rate reduce to the phase line;
        # the two BOUNDARY grid cells sit one ulp off 1.0, so the strict
        # equivalence is checked away from them and the near-equality at them
        for a in FIG1_ALPHAS:
            for b in FIG1_BETAS:
                if a <= b:
                    continue
                phase = recovery_phase(a, b)
                conj = conjectured_gamma_threshold(a, b)
                if phase == BOUNDARY:
                    assert conj == pytest.approx(1.0, abs=1e-12)
                else:
                    assert (conj < 1.0) == (phase == RECOVERABLE), (a, b)

    def test_conjecture_below_proven_rate_in_recoverable_region(self):
        for a in FIG1_ALPHAS:
            for b in FIG1_BETAS:
                if a <= b or recovery_phase(a, b) != RECOVERABLE:
                    continue
                assert conjectured_gamma_threshold(a, b) <= sketch_gamma_threshold(a, b)

    def test_validation(self):
        for fn in (vote_gamma_threshold, sketch_gamma_threshold, conjectured_gamma_threshold):
            with pytest.raises(ValueError):
                fn(2, 2)
            with pytest.raises(ValueError):
                fn(2, 3)


class TestSdpSuccessBound:
    def test_branch_boundary_reference_point(self):
        # balanced, mu = (p+q)/2: exponent (3/16)*(0.08*400)^2 / (0.22*400)
        val = sdp_success_bound(200, 200, 0.1, 0.02, 0.06)
        exponent = Fraction(3, 16) * Fraction(32, 1) ** 2 / Fraction(88, 1)
        oracle = 1.0 - 800.0 * math.exp(-float(exponent))
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(-89.26894985364552, rel=1e-10)

    def test_first_branch_rational_oracle(self):
        # mu below the midpoint: exponent 1.5*((mu-q)n)^2 / ((3p+q+2mu)n)
        val = sdp_success_bound(200, 200, 0.1, 0.02, 0.05)
        exponent = Fraction(3, 2) * Fraction(12, 1) ** 2 / Fraction(168, 1)
        oracle = 1.0 - 800.0 * math.exp(-float(exponent))
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_unbalanced_rational_oracle(self):
        n1, n2 = 100, 300
        p, q, mu = Fraction(1, 10), Fraction(1, 50), Fraction(3, 25)
        n, m = n1 + n2, abs(n1 - n2)
        num = Fraction(3, 16) * ((p - q) * n - (2 * mu - (p + q)) * m) ** 2
        den = (2 * p + q) * n + (2 * p - q - mu) * m
        oracle = 1.0 - 2.0 * n * math.exp(-float(num / den))
        val = sdp_success_bound(n1, n2, 0.1, 0.02, 0.12)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_vacuous_near_q(self):
        n = 400
        val = sdp_success_bound(200, 200, 0.1, 0.02, 0.02 + 1e-12)
        assert val == pytest.approx(1.0 - 2.0 * n, abs=1e-6)

    def test_nondecreasing_in_n(self):
        # 1 - 2n*exp(-cn) dips while the linear prefactor outruns the
        # exponential (n < 1/c ~ 183 at these rates); past that point the
        # bound must climb toward 1
        vals = [
            sdp_success_bound(k, k, 0.1, 0.02, 0.06) for k in range(200, 2001, 50)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_becomes_meaningful_at_scale(self):
        assert sdp_success_bound(5000, 5000, 0.1, 0.02, 0.06) > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            sdp_success_bound(0, 10, 0.1, 0.02, 0.06)
        with pytest.raises(ValueError):
            sdp_success_bound(10, 10, 0.02, 0.1, 0.06)
        with pytest.raises(ValueError):
            sdp_success_bound(10, 10, 1.2, 0.1, 0.6)
        with pytest.raises(ValueError):
            sdp_success_bound(10, 10, 0.1, 0.02, 0.02)


class TestUnbalancedCondition:
    def test_integer_examples(self):
        assert unbalanced_recovery_condition(50, 1, 0.0) is True
        assert unbalanced_recovery_condition(10, 2, 0.0) is False

    def test_large_imbalance_flips(self):
        # threshold delta = (7203 - 1616) / (24*49) = 5587/1176
        flip = 5587 / 1176
        assert unbalanced_recovery_condition(50, 1, flip - 1e-6) is True
        assert unbalanced_recovery_condition(50, 1, flip + 1e-6) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            unbalanced_recovery_condition(2, 3, 0.0)
        with pytest.raises(ValueError):
            unbalanced_recovery_condition(3, 2, -0.1)


class TestThresholdReport:
    def test_bundles_the_quantities(self):
        rep = threshold_report(50, 1)
        assert rep.phase == RECOVERABLE
        assert rep.recoverable is True
        assert rep.vote_gamma == vote_gamma_threshold(50, 1)
        assert rep.sketch_gamma == sketch_gamma_threshold(50, 1)
        assert rep.conjectured_gamma == conjectured_gamma_threshold(50, 1)
        assert rep.unbalanced_condition_holds is True
        assert rep.delta == 0.0

    def test_delta_passes_through(self):
        rep = threshold_report(50, 1, delta=10.0)
        assert rep.unbalanced_condition_holds is False
        assert rep.recoverable is True


class TestPhaseBoundaryCurve:
    def test_known_points(self):
        curve = phase_boundary_curve([2.0])
        assert curve[0] == pytest.approx(8.0, rel=1e-15)
        assert phase_boundary_curve([1.0])[0] == pytest.approx(
            (1.0 + math.sqrt(2.0)) ** 2, rel=1e-15
        )

    def test_points_sit_on_the_boundary(self):
        betas = np.linspace(0.5, 10.0, 25)
        alphas = phase_boundary_curve(betas)
        for a, b in zip(alphas, betas):
            assert recovery_phase(float(a), float(b)) == BOUNDARY

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_boundary_curve([1.0, 0.0])
        # strings and booleans used to be read as numbers
        for betas in (["1"], np.array([True, True])):
            with pytest.raises(ValueError, match=r"^beta must be finite and positive$"):
                phase_boundary_curve(betas)
