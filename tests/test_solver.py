import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from sketchbisect import (
    Graph,
    LogScaleParams,
    Partition,
    SbmParams,
    SolverConfig,
    brute_force_max,
    estimate_mu,
    objective_value,
    sample_sbm,
    solve_sdp,
)

import sketchbisect.solver as solver

from conftest import dense_objective, random_test_graph, recording_loop, reference_solve_sdp


class TestSolverConfig:
    def test_auto_rank_formula(self):
        for n in range(1, 200):
            want = min(n, math.ceil(math.sqrt(2 * n)) + 1)
            assert SolverConfig().resolve_rank(n) == want

    def test_explicit_rank_capped_at_n(self):
        assert SolverConfig(rank=10).resolve_rank(4) == 4
        assert SolverConfig(rank=3).resolve_rank(100) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rank=0)
        with pytest.raises(ValueError):
            SolverConfig(max_sweeps=-1)
        assert SolverConfig(max_sweeps=0).max_sweeps == 0
        with pytest.raises(ValueError):
            SolverConfig(objective_tolerance=0.0)


class TestSolveSdp:
    def test_two_triangles(self, two_triangles):
        graph, planted = two_triangles
        sol = solve_sdp(graph, 0.5)
        assert sol.objective == pytest.approx(12.0, abs=1e-6)
        assert sol.rank_one_gap <= 1e-6
        assert sol.rounded_cut.equals_up_to_flip(planted)
        assert sol.converged

    def test_single_edge_aligned_optimum(self):
        # with mu=0 the optimum is X = all-ones: both factor rows coincide
        k2 = Graph(2, [(0, 1)])
        sol = solve_sdp(k2, 0.0)
        assert sol.objective == pytest.approx(2.0, abs=1e-6)
        assert float(sol.factors[0] @ sol.factors[1]) == pytest.approx(1.0, abs=1e-6)
        assert sol.rank_one_gap <= 1e-6

    def test_empty_graph_mu_zero(self):
        sol = solve_sdp(Graph(5, []), 0.0)
        assert sol.objective == 0.0
        assert sol.converged
        assert sol.sweeps_used == 1

    def test_monotone_ascent_and_feasibility(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            n = int(rng.integers(4, 40))
            g = random_test_graph(rng, n, 0.4)
            sol = solve_sdp(g, 0.5, SolverConfig(seed=int(rng.integers(1 << 30))))
            hist = np.asarray(sol.sweep_objectives)
            gaps = np.diff(hist)
            assert np.all(gaps >= -1e-8 * (1.0 + np.abs(hist[1:])))
            norms = np.linalg.norm(sol.factors, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_objective_recomputable_from_factors(self):
        rng = np.random.default_rng(11)
        for mu in (0.0, 0.5, 1.0):
            g = random_test_graph(rng, 25, 0.3)
            sol = solve_sdp(g, mu, SolverConfig(seed=7))
            x = sol.factors @ sol.factors.T
            recomputed = float(np.sum(dense_objective(g, mu) * x))
            assert sol.objective == pytest.approx(recomputed, rel=1e-10, abs=1e-10)

    def test_relaxation_dominates_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            n = int(rng.integers(4, 13)) & ~1
            g = random_test_graph(rng, n, 0.5)
            mu = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
            sol = solve_sdp(g, mu, SolverConfig(seed=int(rng.integers(1 << 30))))
            _, best_balanced = brute_force_max(g, mu, balanced_only=True)
            _, best_any = brute_force_max(g, mu, balanced_only=False)
            assert sol.objective >= best_balanced - 1e-6
            assert sol.objective >= best_any - 1e-6

    def test_canonical_sign_convention(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            g = random_test_graph(rng, 10, 0.5)
            sol = solve_sdp(g, 0.5, SolverConfig(seed=int(rng.integers(1 << 30))))
            assert sol.rounded_cut.sign_of(int(g.vertex_ids[0])) == 1

    def test_deterministic_given_seed(self, two_triangles):
        graph, _ = two_triangles
        a = solve_sdp(graph, 0.5, SolverConfig(seed=42))
        b = solve_sdp(graph, 0.5, SolverConfig(seed=42))
        assert np.array_equal(a.factors, b.factors)
        assert a.objective == b.objective
        assert a.rounded_cut == b.rounded_cut

    def test_nonconvergence_is_reported_not_raised(self, two_triangles):
        graph, _ = two_triangles
        sol = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=1, objective_tolerance=1e-15))
        assert sol.converged is False
        assert sol.sweeps_used == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_sdp(Graph(1, []), 0.5)
        with pytest.raises(ValueError):
            solve_sdp(Graph(3, []), -0.1)


def _sbm_case(alpha, n, seed, max_sweeps):
    graph, _ = sample_sbm(LogScaleParams(alpha, 1, n).to_sbm_params(), seed)
    return graph, estimate_mu(graph).mu, SolverConfig(max_sweeps=max_sweeps, seed=seed)


def chunked_solve(graph, mu, config):
    """Solve in chunks of 0, 1, 1, 2, 4, ... sweeps, each call resuming the last."""
    sol = None
    chunk = 0
    while True:
        sol = solve_sdp(graph, mu, replace(config, max_sweeps=chunk), start=sol)
        left = config.max_sweeps - sol.sweeps_used
        if sol.converged or left == 0:
            return sol
        chunk = min(max(sol.sweeps_used, 1), left)


class TestSweepOracle:
    """``solve_sdp`` reproduces the plainly written sweep bit for bit, both
    in one call and resumed in chunks of 0, 1, 1, 2, 4, ... sweeps."""

    @staticmethod
    def assert_same_trajectory(graph, mu, config):
        want = reference_solve_sdp(graph, mu, config)
        for got in (solve_sdp(graph, mu, config), chunked_solve(graph, mu, config)):
            assert got.factors.shape == want.factors.shape
            assert got.factors.tobytes() == want.factors.tobytes()
            assert got.sweep_objectives == want.sweep_objectives
            assert got.objective == want.objective
            assert got.sweeps_used == want.sweeps_used
            assert got.converged == want.converged
            assert got.rank_one_gap == want.rank_one_gap
            assert got.rounded_cut == want.rounded_cut
        return got

    def test_isolated_vertex(self):
        graph = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert graph.degrees[6] == 0
        self.assert_same_trajectory(graph, 0.4, SolverConfig(seed=3))

    def test_stall_branch_empty_graph_mu_zero(self):
        sol = self.assert_same_trajectory(Graph(5, []), 0.0, SolverConfig(seed=1))
        assert sol.sweeps_used == 1

    def test_two_vertices(self):
        for mu in (0.0, 0.5, 2.0):
            self.assert_same_trajectory(Graph(2, [(0, 1)]), mu, SolverConfig(seed=5))

    def test_explicit_ranks(self, two_triangles):
        graph, _ = two_triangles
        for rank in (1, 2, 50):
            self.assert_same_trajectory(graph, 0.5, SolverConfig(rank=rank, seed=8))

    def test_budget_limited_near_threshold(self):
        sol = self.assert_same_trajectory(*_sbm_case(4, 400, 2, 30))
        assert not sol.converged and sol.sweeps_used == 30

    def test_converged_above_threshold(self):
        sol = self.assert_same_trajectory(*_sbm_case(8, 400, 1, 500))
        assert sol.converged

    def test_dense_instance(self):
        sol = self.assert_same_trajectory(*_sbm_case(50, 1000, 0, 500))
        assert sol.converged


def _two_cliques(k):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i + k, j + k) for i, j in edges]
    return Graph(2 * k, edges)


class TestSweepZero:
    """``max_sweeps=0``: the seeded start and the spectral cut, no sweep."""

    CASES = (
        ("empty graph", Graph(5, []), 0.5),
        ("empty graph, mu = 0", Graph(5, []), 0.0),
        ("two vertices", Graph(2, [(0, 1)]), 0.5),
        ("two vertices, mu = 0", Graph(2, [(0, 1)]), 0.0),
        ("isolated vertex", Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 0.4),
        ("two disjoint cliques", _two_cliques(6), 0.5),
        ("two disjoint cliques, mu = 0", _two_cliques(6), 0.0),
    )

    @pytest.mark.parametrize("name,graph,mu", CASES, ids=[c[0] for c in CASES])
    def test_returns_seeded_start_and_full_cut(self, name, graph, mu):
        config = SolverConfig(max_sweeps=0, seed=4)
        sol = solve_sdp(graph, mu, config)
        start = reference_solve_sdp(graph, mu, config)
        assert sol.factors.tobytes() == start.factors.tobytes()
        assert sol.objective == start.objective
        assert sol.sweep_objectives == [sol.objective]
        assert sol.sweeps_used == 0 and not sol.converged
        assert sol.rank_one_gap == pytest.approx(start.rank_one_gap, abs=1e-12)
        cut = sol.rounded_cut
        assert np.array_equal(cut.ids, graph.vertex_ids)
        assert np.all(np.abs(cut.signs) == 1)
        assert cut.sign_of(int(graph.vertex_ids[0])) == 1

    def test_two_calls_same_cut(self):
        graph, _ = sample_sbm(LogScaleParams(6, 1, 300).to_sbm_params(), 5)
        mu = estimate_mu(graph).mu
        a = solve_sdp(graph, mu, SolverConfig(max_sweeps=0, seed=9))
        b = solve_sdp(graph, mu, SolverConfig(max_sweeps=0, seed=9))
        assert a.rounded_cut == b.rounded_cut
        assert a.factors.tobytes() == b.factors.tobytes()

    def test_strong_signal_cut_is_planted(self):
        graph, planted = sample_sbm(LogScaleParams(50, 1, 1000).to_sbm_params(), 7)
        sol = solve_sdp(graph, estimate_mu(graph).mu, SolverConfig(max_sweeps=0, seed=7))
        assert sol.rounded_cut.equals_up_to_flip(planted)

    def test_disjoint_cliques_split_at_mu_half(self):
        # A - J/2 has leading eigenvector (1, ..., 1, -1, ..., -1)
        graph = _two_cliques(6)
        sol = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=0))
        assert sol.rounded_cut == Partition(range(12), [1] * 6 + [-1] * 6)

    def test_budget_exhausted_keeps_last_ritz_vector(self, monkeypatch):
        # At 10 steps no Ritz pair of this near-threshold graph converges. The
        # cut is the last checkpoint's, not that of the best rq - res.
        graph, _ = sample_sbm(LogScaleParams(4, 1, 200).to_sbm_params(), 1)
        mu = estimate_mu(graph).mu
        checkpoints = recording_loop(monkeypatch, solver)
        monkeypatch.setattr(solver, "_LANCZOS_STEPS", 10)
        sol = solve_sdp(graph, mu, SolverConfig(max_sweeps=0, seed=1))
        assert [k for k, _, _ in checkpoints] == [5, 10]
        ritz = [r for _, _, r in checkpoints]
        for rq, res, _ in ritz:
            assert res > solver._LANCZOS_TOL * max(abs(rq), 1.0)

        def sign_cut(vec):
            return Partition(graph.vertex_ids, np.where(vec >= 0, 1, -1))

        best = max(ritz, key=lambda r: r[0] - r[1])
        assert sol.rounded_cut.equals_up_to_flip(sign_cut(ritz[-1][2]))
        assert not sol.rounded_cut.equals_up_to_flip(sign_cut(best[2]))

    def test_resume_from_sweep_zero(self, two_triangles):
        graph, planted = two_triangles
        first = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=0, seed=2))
        again = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=0, seed=2), start=first)
        assert again.sweeps_used == 0 and again.rounded_cut == first.rounded_cut
        swept = solve_sdp(graph, 0.5, SolverConfig(seed=2), start=again)
        assert swept.sweeps_used >= 1
        assert swept.rounded_cut.equals_up_to_flip(planted)
        # once swept, a 0-sweep call rounds V itself, as the last call did
        idle = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=0, seed=2), start=swept)
        assert idle.sweeps_used == swept.sweeps_used
        assert idle.rounded_cut == swept.rounded_cut
        assert idle.rank_one_gap == swept.rank_one_gap


def _disjoint_union(*parts):
    offsets = np.cumsum([0] + [g.num_vertices for g in parts])
    edges = np.concatenate([g.edges + k for g, k in zip(parts, offsets)])
    return Graph(int(offsets[-1]), edges)


def _clique(k):
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _oracle_cases():
    rng = np.random.default_rng(2024)
    for alpha, n, seed in ((3, 120, 1), (3, 240, 2), (5, 60, 3), (5, 240, 4), (8, 120, 5),
                           (8, 240, 6), (12, 120, 7), (12, 240, 8), (20, 240, 9), (50, 400, 10)):
        yield f"sbm alpha={alpha} n={n}", sample_sbm(LogScaleParams(alpha, 1, n).to_sbm_params(), seed)[0]
    for n1, n2, p, q, seed in ((30, 50, 0.5, 0.05, 11), (70, 40, 0.3, 0.02, 12),
                               (100, 20, 0.2, 0.05, 13), (45, 45, 0.25, 0.1, 14)):
        yield f"sbm {n1}+{n2}", sample_sbm(SbmParams(n1, n2, p, q), seed)[0]
    yield "disconnected K8 + K5", _disjoint_union(_clique(8), _clique(5))
    for n1, p1, n2, p2 in ((40, 0.3, 25, 0.4), (60, 0.2, 30, 0.5), (50, 0.3, 50, 0.15),
                           (35, 0.4, 20, 0.3)):
        name = f"disconnected G({n1}, {p1}) + G({n2}, {p2})"
        yield name, _disjoint_union(random_test_graph(rng, n1, p1), random_test_graph(rng, n2, p2))
    yield "disconnected, three parts", _disjoint_union(
        _clique(6), random_test_graph(rng, 30, 0.3), random_test_graph(rng, 12, 0.5)
    )


class TestSpectralOracle:
    """The 0-sweep cut is the sign cut of the top eigenvector of dense A - mu*J.

    Every case has a clear gap below the top eigenvalue and no near-zero
    entry in its eigenvector, so the sign cut is well defined. Six graphs
    are disconnected; on K8 + K5 the undeflated loop breaks down at step 3,
    where its Ritz pair is exact (``TestLanczosLoop`` in the certificate
    tests drives the loop on past a breakdown).
    """

    CASES = list(_oracle_cases())

    @pytest.mark.parametrize("name,graph", CASES, ids=[c[0] for c in CASES])
    def test_cut_matches_dense_eigenvector(self, name, graph):
        mu = estimate_mu(graph).mu
        evals, evecs = np.linalg.eigh(dense_objective(graph, mu))
        top = evecs[:, -1]
        assert evals[-1] - evals[-2] >= 0.1 * max(abs(evals[-1]), 1.0)
        assert np.abs(top).min() * math.sqrt(graph.num_vertices) >= 1e-3
        want = Partition(graph.vertex_ids, np.where(top >= 0, 1, -1))
        sol = solve_sdp(graph, mu, SolverConfig(max_sweeps=0, seed=3))
        assert sol.rounded_cut.equals_up_to_flip(want)


class TestResume:
    """``start=`` continues an earlier solve; the oracle above covers the bits."""

    def test_start_is_advanced_in_place(self, two_triangles):
        graph, _ = two_triangles
        first = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=1, seed=2))
        second = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=1, seed=2), start=first)
        assert second.factors is first.factors
        assert second.sweeps_used == 2
        assert len(second.sweep_objectives) == 3
        assert len(first.sweep_objectives) == 2

    def test_wrong_start_shape_rejected(self, two_triangles):
        graph, _ = two_triangles
        sol = solve_sdp(graph, 0.5, SolverConfig(rank=2, max_sweeps=1))
        with pytest.raises(ValueError):
            solve_sdp(graph, 0.5, SolverConfig(rank=3), start=sol)
        other = solve_sdp(Graph(4, [(0, 1), (2, 3)]), 0.5, SolverConfig(rank=2, max_sweeps=1))
        with pytest.raises(ValueError):
            solve_sdp(graph, 0.5, SolverConfig(rank=2), start=other)


class TestObjectiveValue:
    def test_triangles_cut_mu_free(self, two_triangles):
        graph, planted = two_triangles
        for mu in (0.0, 0.5, 2.0):
            assert objective_value(graph, mu, planted) == 12.0

    def test_single_edge_split(self):
        k2 = Graph(2, [(0, 1)])
        part = Partition.from_sides([0], [1])
        assert objective_value(k2, 1.0, part) == -2.0

    def test_triangle_all_ones(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        part = Partition.from_sides([0, 1, 2], [])
        assert objective_value(k3, 0.0, part) == 6.0

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(31)
        g = random_test_graph(rng, 14, 0.4)
        for _ in range(10):
            signs = np.where(rng.random(14) < 0.5, 1, -1).astype(np.int8)
            part = Partition(g.vertex_ids, signs)
            mu = float(rng.random())
            sv = signs.astype(np.float64)
            want = float(sv @ dense_objective(g, mu) @ sv)
            assert objective_value(g, mu, part) == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_balanced_argmax_independent_of_mu(self):
        # on balanced cuts the J term is constant, so the set of maximizers
        # of the objective cannot depend on mu
        rng = np.random.default_rng(23)
        n = 8
        cuts = []
        for comb in itertools.combinations(range(1, n), n // 2 - 1):
            signs = -np.ones(n, dtype=np.int8)
            signs[0] = 1
            signs[list(comb)] = 1
            cuts.append(Partition(np.arange(n), signs))
        for _ in range(5):
            graph = random_test_graph(rng, n, 0.5)
            argmax_sets = []
            for mu in (0.0, 0.4, 1.3):
                vals = np.array([objective_value(graph, mu, c) for c in cuts])
                argmax_sets.append(frozenset(np.flatnonzero(vals >= vals.max() - 1e-9)))
            assert argmax_sets[0] == argmax_sets[1] == argmax_sets[2]


class TestBruteForceMax:
    def test_triangles_balanced(self, two_triangles):
        graph, planted = two_triangles
        part, val = brute_force_max(graph, 0.0, balanced_only=True)
        assert val == 12.0
        assert part.equals_up_to_flip(planted)

    def test_k4_every_balanced_cut_ties(self):
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        part, val = brute_force_max(k4, 0.0, balanced_only=True)
        assert val == -4.0
        assert part.n_plus == 2
        # deterministic tie-break: lexicographically smallest with g_0 = +1,
        # scanning -1 before +1, is (+1, -1, -1, +1)
        assert part == Partition.from_sides([0, 3], [1, 2])

    def test_isolated_pair(self):
        _, val = brute_force_max(Graph(2, []), 0.0, balanced_only=True)
        assert val == 0.0

    def test_matches_exhaustive_python_loop(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            n = int(rng.integers(2, 9)) & ~1
            g = random_test_graph(rng, n, 0.5)
            mu = float(rng.choice([0.0, 0.5, 1.0]))
            for balanced in (False, True):
                _, val = brute_force_max(g, mu, balanced_only=balanced)
                best = -math.inf
                for k in range(1 << (n - 1)):
                    signs = np.array(
                        [1] + [1 if (k >> (n - 2 - i)) & 1 else -1 for i in range(n - 1)],
                        dtype=np.int8,
                    )
                    if balanced and signs.sum() != 0:
                        continue
                    part = Partition(g.vertex_ids, signs)
                    best = max(best, objective_value(g, mu, part))
                assert val == pytest.approx(best, abs=1e-9)

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_force_max(Graph(25, []), 0.0)
        with pytest.raises(ValueError):
            brute_force_max(Graph(3, []), 0.0, balanced_only=True)
