import dataclasses
import itertools
import math
import tracemalloc
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

from conftest import (
    dense_objective,
    disjoint_union,
    pairwise_sample_sbm,
    random_test_graph,
    recording_loop,
    reference_solve_sdp,
)


class TestSolverConfig:
    def test_auto_rank_formula(self):
        for n in range(1, 200):
            want = min(n, math.ceil(math.sqrt(2 * n)) + 1)
            assert solver._factor_rank(n) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_sweeps=-1)
        assert SolverConfig(max_sweeps=0).max_sweeps == 0
        # the sweep budget and the seed are the only settings
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["max_sweeps", "seed"]
        with pytest.raises(TypeError):
            SolverConfig(rank=3)
        with pytest.raises(TypeError):
            SolverConfig(objective_tolerance=1e-9)


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
            config = SolverConfig(seed=int(rng.integers(1 << 30)))
            chain = one_sweep_chain(g, 0.5, config)
            objectives = np.array([sol.objective for sol in chain])
            assert np.all(np.diff(objectives) >= -1e-8 * (1.0 + np.abs(objectives[1:])))
            for sol in chain:
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
        sol = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=1))
        assert sol.converged is False
        assert sol.sweeps_used == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_sdp(Graph(1, []), 0.5)
        with pytest.raises(ValueError):
            solve_sdp(Graph(3, []), -0.1)

    @pytest.mark.parametrize("max_sweeps", [0, 5])
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -1.0], ids=["nan", "inf", "-1"])
    def test_mu_rejected_before_any_work(self, monkeypatch, two_triangles, mu, max_sweeps):
        def no_work(*args, **kwargs):
            raise AssertionError("a Krylov step or a sweep started")

        monkeypatch.setattr(solver, "_lanczos_bottom", no_work)
        monkeypatch.setattr(solver, "_update_lists", no_work)
        with pytest.raises(ValueError, match=r"^mu must be a finite non-negative number$"):
            solve_sdp(two_triangles[0], mu, SolverConfig(max_sweeps=max_sweeps))

    def test_solution_keeps_no_sweep_history(self):
        assert [f.name for f in dataclasses.fields(solver.SdpSolution)] == [
            "factors", "objective", "rounded_cut", "rank_one_gap", "sweeps_used", "converged"
        ]


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


def one_sweep_chain(graph, mu, config):
    """The solutions after sweeps 1, 2, ..., each a 1-sweep call resuming the last."""
    chain = [solve_sdp(graph, mu, replace(config, max_sweeps=1))]
    while not chain[-1].converged and chain[-1].sweeps_used < config.max_sweeps:
        chain.append(solve_sdp(graph, mu, replace(config, max_sweeps=1), start=chain[-1]))
    return chain


class TestSweepOracle:
    """``solve_sdp`` reproduces the plainly written sweep bit for bit, both
    in one call and resumed in chunks of 0, 1, 1, 2, 4, ... sweeps; the
    objective after each of its sweeps is ``solve_sdp``'s at that budget,
    in one call and as a chain of 1-sweep calls."""

    @staticmethod
    def assert_same_trajectory(graph, mu, config):
        want, objectives = reference_solve_sdp(graph, mu, config)
        budgets = range(1, want.sweeps_used + 1)
        assert objectives[1:] == [
            solve_sdp(graph, mu, replace(config, max_sweeps=k)).objective for k in budgets
        ]
        chain = one_sweep_chain(graph, mu, config)
        assert objectives[1:] == [sol.objective for sol in chain]
        assert [sol.sweeps_used for sol in chain] == list(budgets)
        for got in (solve_sdp(graph, mu, config), chunked_solve(graph, mu, config), chain[-1]):
            assert got.factors.shape == want.factors.shape
            assert got.factors.tobytes() == want.factors.tobytes()
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
    """``max_sweeps=0``: the spectral cut as a rank-one point, no sweep."""

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
    def test_returns_rank_one_spectral_cut(self, name, graph, mu):
        """The solution is the rank-one point g g^T of the full spectral cut
        g; no seeded start is drawn."""
        sol = solve_sdp(graph, mu, SolverConfig(max_sweeps=0, seed=4))
        cut = sol.rounded_cut
        assert np.array_equal(cut.ids, graph.vertex_ids)
        assert np.all(np.abs(cut.signs) == 1)
        assert cut.sign_of(int(graph.vertex_ids[0])) == 1
        assert sol.factors.dtype == np.float64
        assert sol.factors.shape == (graph.num_vertices, 1)
        assert np.array_equal(sol.factors[:, 0], cut.sign_vector(graph))
        assert sol.objective == pytest.approx(objective_value(graph, mu, cut), rel=1e-12)
        assert isinstance(sol.rank_one_gap, float) and sol.rank_one_gap == 0.0
        assert sol.sweeps_used == 0 and not sol.converged

    def test_draws_no_factor_matrix(self):
        # A 0-sweep solve allocates no n x r array and takes no adj @ V
        # product: its traced peak stays below one such array (5.08 MiB at
        # n = 6000, r = 111). The graph's symmetric CSR is built on first
        # use; it is the graph's, not the solver's, so it is built first.
        graph, _ = sample_sbm(LogScaleParams(50, 1, 6000).to_sbm_params(), 3)
        mu = estimate_mu(graph).mu
        config = SolverConfig(max_sweeps=0, seed=3)
        n = graph.num_vertices
        assert graph.adjacency.nnz == 2 * graph.edge_count
        tracemalloc.start()
        try:
            sol = solve_sdp(graph, mu, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.sweeps_used == 0
        assert peak < n * solver._factor_rank(n) * 8

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
        # A 0-sweep start carries no state, so a swept call resumed from it
        # is the fresh swept call.
        zero = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=0, seed=2))
        resumed = solve_sdp(graph, 0.5, SolverConfig(seed=2), start=zero)
        fresh = solve_sdp(graph, 0.5, SolverConfig(seed=2))
        assert resumed.sweeps_used == fresh.sweeps_used >= 1
        assert resumed.factors.tobytes() == fresh.factors.tobytes()
        assert resumed.objective == fresh.objective
        assert resumed.rank_one_gap == fresh.rank_one_gap
        assert resumed.converged == fresh.converged
        assert resumed.rounded_cut == fresh.rounded_cut


def _clique(k):
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _oracle_cases():
    rng = np.random.default_rng(2024)
    for alpha, n, seed in ((3, 120, 1), (3, 240, 2), (5, 60, 3), (5, 240, 4), (8, 120, 5),
                           (8, 240, 6), (12, 120, 7), (12, 240, 8), (20, 240, 9), (50, 400, 10)):
        yield f"sbm alpha={alpha} n={n}", pairwise_sample_sbm(LogScaleParams(alpha, 1, n).to_sbm_params(), seed)[0]
    for n1, n2, p, q, seed in ((30, 50, 0.5, 0.05, 11), (70, 40, 0.3, 0.02, 12),
                               (100, 20, 0.2, 0.05, 13), (45, 45, 0.25, 0.1, 14)):
        yield f"sbm {n1}+{n2}", pairwise_sample_sbm(SbmParams(n1, n2, p, q), seed)[0]
    yield "disconnected K8 + K5", disjoint_union(_clique(8), _clique(5))
    for n1, p1, n2, p2 in ((40, 0.3, 25, 0.4), (60, 0.2, 30, 0.5), (50, 0.3, 50, 0.15),
                           (35, 0.4, 20, 0.3)):
        name = f"disconnected G({n1}, {p1}) + G({n2}, {p2})"
        yield name, disjoint_union(random_test_graph(rng, n1, p1), random_test_graph(rng, n2, p2))
    yield "disconnected, three parts", disjoint_union(
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

    def test_start_is_read_not_consumed(self, two_triangles):
        graph, _ = two_triangles
        first = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=1, seed=2))
        before = first.factors.tobytes()
        second = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=1, seed=2), start=first)
        assert first.factors.tobytes() == before
        assert first.sweeps_used == 1
        assert not np.shares_memory(second.factors, first.factors)
        assert second.sweeps_used == 2
        assert second.factors.tobytes() != first.factors.tobytes()
        # resuming the same start twice gives the same second sweep
        again = solve_sdp(graph, 0.5, SolverConfig(max_sweeps=1, seed=2), start=first)
        assert again.factors.tobytes() == second.factors.tobytes()
        assert again.objective == second.objective

    def test_wrong_start_shape_rejected(self, two_triangles):
        graph, _ = two_triangles
        other = solve_sdp(Graph(4, [(0, 1), (2, 3)]), 0.5, SolverConfig(max_sweeps=1))
        with pytest.raises(ValueError):
            solve_sdp(graph, 0.5, SolverConfig(), start=other)


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
