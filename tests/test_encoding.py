import math
from fractions import Fraction

import numpy as np
import pytest

from sketchbisect import (
    Graph,
    SbmParams,
    estimate_mu,
    expected_mu,
    mu_concentration_bound,
)

from conftest import random_test_graph


class TestEstimateMu:
    def test_empty_graph(self):
        assert estimate_mu(Graph(4, [])).mu == 0.0

    def test_complete_graph(self):
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert estimate_mu(k4).mu == 1.0

    def test_path(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        est = estimate_mu(path)
        assert est.mu == 0.5
        assert (est.edge_count, est.n) == (3, 4)

    def test_too_small(self):
        with pytest.raises(ValueError):
            estimate_mu(Graph(1, []))

    def test_exact_rational_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_test_graph(rng, int(rng.integers(2, 20)), rng.random())
            est = estimate_mu(g)
            assert 0.0 <= est.mu <= 1.0
            exact = Fraction(est.edge_count, math.comb(est.n, 2))
            assert est.mu == float(exact)


class TestExpectedMu:
    def test_equal_rates(self):
        assert expected_mu(SbmParams(7, 7, 0.3, 0.3)) == pytest.approx(0.3, rel=1e-15)

    def test_tiny_balanced_case(self):
        # E|E| = 2 within-edges, so E mu = 2/6 = 1/3
        assert expected_mu(SbmParams(2, 2, 1.0, 0.0)) == pytest.approx(1 / 3, rel=1e-15)

    def test_closed_form_against_rational_oracle(self):
        val = expected_mu(SbmParams(100, 100, 0.1, 0.05))
        oracle = Fraction(1, 10) / 2 + Fraction(1, 20) / 2 - (
            Fraction(1, 10) - Fraction(1, 20)
        ) / (2 * 199)
        assert val == pytest.approx(float(oracle), rel=1e-13)
        assert val == pytest.approx(0.0748744, abs=5e-8)

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            expected_mu(SbmParams(3, 5, 0.5, 0.1))


class TestMuConcentrationBound:
    def test_symbolic_point(self):
        # n = e^2 gives c * 2 / e^3
        assert mu_concentration_bound(math.e**2, 1.0) == pytest.approx(
            2.0 / math.e**3, rel=1e-13
        )

    def test_reference_value(self):
        assert mu_concentration_bound(400, 4.0) == pytest.approx(
            0.002995732273553991, rel=1e-13
        )

    def test_zero_constant(self):
        assert mu_concentration_bound(25, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mu_concentration_bound(1, 1.0)
        with pytest.raises(ValueError):
            mu_concentration_bound(10, -1.0)
