import numpy as np
import pytest

from sketchbisect import (
    CERTIFIED,
    INCONCLUSIVE,
    NOT_CERTIFIED,
    Graph,
    LogScaleParams,
    Partition,
    SbmParams,
    SolverConfig,
    brute_force_max,
    check_certificate,
    estimate_mu,
    exhaustive_unique_opt_check,
    objective_value,
    sample_sbm,
    solve_sdp,
)
from sketchbisect.certificate import LANCZOS_BUDGET, ZOperator

from conftest import dense_certificate, random_test_graph


def random_partition(rng, graph):
    signs = np.where(rng.random(graph.num_vertices) < 0.5, 1, -1).astype(np.int8)
    signs[0] = 1
    return Partition(graph.vertex_ids, signs)


class TestZOperator:
    def test_triangles_is_shifted_laplacian_form(self, two_triangles):
        graph, planted = two_triangles
        op = ZOperator(graph, planted, 0.5)
        # inside each triangle every vertex has 2 own-side, 0 cross edges,
        # so Z = 2I - A + 0.5 J
        a = graph.adjacency.toarray()
        want = 2.0 * np.eye(6) - a + 0.5 * np.ones((6, 6))
        assert np.allclose(op.dense(), want, atol=1e-12)
        g = planted.sign_vector(graph)
        assert np.max(np.abs(op.matvec(g))) == 0.0

    def test_k22_has_negative_direction(self, k22_cross):
        graph, planted = k22_cross
        op = ZOperator(graph, planted, 0.5)
        a = graph.adjacency.toarray()
        want = -2.0 * np.eye(4) - a + 0.5 * np.ones((4, 4))
        assert np.allclose(op.dense(), want, atol=1e-12)
        w = np.array([1.0, -1.0, 0.0, 0.0])
        assert float(w @ op.matvec(w)) == pytest.approx(-4.0, abs=1e-12)

    def test_empty_graph_balanced_mu_zero_is_zero(self):
        graph = Graph(4, [])
        part = Partition.from_sides([0, 1], [2, 3])
        op = ZOperator(graph, part, 0.0)
        assert np.all(op.dense() == 0.0)
        assert op.scale == 0.0

    def test_matches_independent_dense_build(self):
        rng = np.random.default_rng(2)
        for _ in range(12):
            n = int(rng.integers(2, 14))
            graph = random_test_graph(rng, n, rng.random())
            part = random_partition(rng, graph)
            mu = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
            op = ZOperator(graph, part, mu)
            want = dense_certificate(graph, part, mu)
            assert np.allclose(op.dense(), want, atol=1e-12)
            x = rng.standard_normal(n)
            assert np.allclose(op.matvec(x), want @ x, atol=1e-10)

    def test_zg_residual_bound_holds_structurally(self):
        rng = np.random.default_rng(7)
        graphs = [random_test_graph(rng, int(rng.integers(2, 30)), 0.4) for _ in range(6)]
        graphs.append(sample_sbm(SbmParams(50, 50, 0.3, 0.05), seed=1)[0])
        for graph in graphs:
            part = random_partition(rng, graph)
            for mu in (0.0, 0.5, 1.0):
                op = ZOperator(graph, part, mu)
                g = part.sign_vector(graph)
                resid = float(np.max(np.abs(op.matvec(g))))
                deg_max = float(graph.degrees.max()) if graph.num_vertices else 0.0
                assert resid <= 1e-9 * (deg_max + mu * graph.num_vertices)


class TestCheckCertificate:
    def test_triangles_certified_lambda2_three(self, two_triangles):
        graph, planted = two_triangles
        report = check_certificate(graph, planted, 0.5)
        assert report.verdict == CERTIFIED
        assert report.lambda2_lower == pytest.approx(3.0, abs=1e-6)
        assert report.zg_residual <= 1e-9 * (1.0 + report.scale)

    def test_k22_not_certified_with_witness(self, k22_cross):
        graph, planted = k22_cross
        report = check_certificate(graph, planted, 0.5)
        assert report.verdict == NOT_CERTIFIED
        assert report.witness is not None
        assert report.witness_value < 0
        z = dense_certificate(graph, planted, 0.5)
        w = report.witness
        assert float(w @ z @ w) == pytest.approx(report.witness_value, rel=1e-8, abs=1e-10)
        g = planted.sign_vector(graph)
        assert abs(float(w @ g)) <= 1e-8 * np.linalg.norm(w) * np.linalg.norm(g)

    def test_single_split_edge_zero_certificate(self):
        graph = Graph(2, [(0, 1)])
        part = Partition.from_sides([0], [1])
        report = check_certificate(graph, part, 1.0)
        assert report.verdict == NOT_CERTIFIED
        assert report.witness_value == 0.0
        assert np.all(dense_certificate(graph, part, 1.0) == 0.0)

    def test_empty_graph_borderline_is_inconclusive(self):
        graph = Graph(4, [])
        part = Partition.from_sides([0, 1], [2, 3])
        report = check_certificate(graph, part, 0.1)
        assert report.verdict == INCONCLUSIVE

    def test_verdict_invariant_under_relabeling(self, two_triangles):
        graph, planted = two_triangles
        rng = np.random.default_rng(13)
        perm = rng.permutation(6)
        relabel = {old: int(perm[i]) for i, old in enumerate(graph.vertex_ids)}
        edges = [(relabel[int(u)], relabel[int(v)]) for u, v in graph.edges]
        gp = Graph(6, edges)
        pp = Partition([relabel[int(v)] for v in planted.ids], planted.signs)
        report = check_certificate(gp, pp, 0.5)
        assert report.verdict == CERTIFIED
        assert report.lambda2_lower == pytest.approx(3.0, abs=1e-6)

    def test_agreement_with_exhaustive_oracle(self):
        # deliberately nasty mix (tiny graphs, empty graphs, mu=1 ties):
        # every decided verdict must match the dense ground truth, and every
        # refusal must correspond to a genuinely borderline lambda2 ~ 0
        rng = np.random.default_rng(99)
        decided = 0
        for _ in range(60):
            n = int(rng.integers(2, 13))
            if rng.random() < 0.5 and n >= 2:
                n1 = max(1, n // 2)
                graph, part = sample_sbm(
                    SbmParams(n1, n - n1, 0.8, 0.1), seed=int(rng.integers(1 << 30))
                )
            else:
                graph = random_test_graph(rng, n, rng.random())
                part = random_partition(rng, graph)
            mu = float(rng.choice([0.1, 0.5, 1.0]))
            report = check_certificate(graph, part, mu)
            truth = exhaustive_unique_opt_check(graph, part, mu)
            if report.verdict == INCONCLUSIVE:
                z = dense_certificate(graph, part, mu)
                g = part.sign_vector(graph).astype(np.float64)
                gu = g / np.linalg.norm(g)
                proj = np.eye(n) - np.outer(gu, gu)
                eigs = np.sort(np.linalg.eigvalsh(proj @ z @ proj))
                tol = 1e-6 * (1.0 + report.scale)
                assert eigs[0] >= -tol and eigs[1] <= tol, (n, mu, eigs[:2])
                continue
            decided += 1
            assert (report.verdict == CERTIFIED) == truth, (n, mu, report)
        assert decided >= 42

    def test_certified_implies_bisection_optimal(self):
        # a certified cut maximizes the penalized objective over sign
        # vectors, so for balanced g it attains the brute-force maximum
        rng = np.random.default_rng(101)
        found = 0
        while found < 12:
            n = int(rng.integers(2, 7)) * 2
            graph, planted = sample_sbm(
                SbmParams(n // 2, n // 2, 0.9, 0.05), seed=int(rng.integers(1 << 30))
            )
            mu = 0.5
            report = check_certificate(graph, planted, mu)
            if report.verdict != CERTIFIED:
                continue
            found += 1
            _, best = brute_force_max(graph, mu, balanced_only=True)
            assert objective_value(graph, mu, planted) == pytest.approx(best, abs=1e-9)

    def test_agreement_with_dense_spectrum_above_lanczos_budget(self):
        # n - 1 exceeds the Lanczos budget, so the iteration must decide
        # from a partial Krylov space; near-threshold graphs give both
        # verdicts, for the solver's 30-sweep rounding and the planted cut
        n = 400
        assert n - 1 > LANCZOS_BUDGET
        verdicts = []
        for seed in (1, 2, 3):
            for alpha in (4, 6, 7, 8):
                graph, planted = sample_sbm(LogScaleParams(alpha, 1, n).to_sbm_params(), seed)
                mu = estimate_mu(graph).mu
                sdp = solve_sdp(graph, mu, SolverConfig(max_sweeps=30, seed=seed))
                for cut in (sdp.rounded_cut, planted):
                    report = check_certificate(graph, cut, mu)
                    op = ZOperator(graph, cut, mu)
                    gu = op.g / np.sqrt(n)
                    proj = np.eye(n) - np.outer(gu, gu)
                    # sorted: eigs[0] ~ 0 along g when Z is PSD, eigs[1] is lambda2
                    eigs = np.linalg.eigvalsh(proj @ op.dense() @ proj)
                    if report.verdict == CERTIFIED:
                        assert eigs[1] > 0, (seed, alpha, eigs[:2])
                        assert report.lambda2_lower <= eigs[1] + 1e-9 * report.scale
                    else:
                        assert report.verdict == NOT_CERTIFIED, (seed, alpha, report)
                        assert eigs[0] < 0, (seed, alpha, eigs[:2])
                    verdicts.append(report.verdict)
        assert verdicts.count(CERTIFIED) >= 8
        assert verdicts.count(NOT_CERTIFIED) >= 6


class TestMatvecCount:
    """``CertificateReport.matvecs`` counts every application of Z."""

    @staticmethod
    def counted_report(monkeypatch, graph, partition, mu):
        calls = []
        matvec = ZOperator.matvec

        def counting(self, x):
            calls.append(1)
            return matvec(self, x)

        monkeypatch.setattr(ZOperator, "matvec", counting)
        report = check_certificate(graph, partition, mu)
        assert report.matvecs == len(calls)
        return report

    def test_each_verdict(self, monkeypatch, two_triangles, k22_cross):
        report = self.counted_report(monkeypatch, *two_triangles, 0.5)
        assert report.verdict == CERTIFIED
        # the Zg check, one per Krylov step and at least one Ritz check
        assert report.matvecs >= report.iterations + 2
        report = self.counted_report(monkeypatch, *k22_cross, 0.5)
        assert report.verdict == NOT_CERTIFIED
        assert report.matvecs >= report.iterations + 2
        halves = Partition.from_sides([0, 1], [2, 3])
        report = self.counted_report(monkeypatch, Graph(4, []), halves, 0.1)
        assert report.verdict == INCONCLUSIVE

    def test_zero_operator_counts_only_zg_check(self, monkeypatch):
        split_edge = Partition.from_sides([0], [1])
        report = self.counted_report(monkeypatch, Graph(2, [(0, 1)]), split_edge, 1.0)
        assert report.iterations == 0 and report.matvecs == 1

    def test_above_lanczos_budget(self, monkeypatch):
        graph, planted = sample_sbm(LogScaleParams(6, 1, 400).to_sbm_params(), 2)
        report = self.counted_report(monkeypatch, graph, planted, estimate_mu(graph).mu)
        # one Ritz check per five Krylov steps, plus the Zg check
        assert report.matvecs >= report.iterations + report.iterations // 5 + 1


class TestExhaustiveCheck:
    def test_examples(self, two_triangles, k22_cross):
        assert exhaustive_unique_opt_check(*two_triangles, 0.5) is True
        assert exhaustive_unique_opt_check(*k22_cross, 0.5) is False

    def test_all_ones_partition_single_edge(self):
        graph = Graph(2, [(0, 1)])
        part = Partition.from_sides([0, 1], [])
        assert exhaustive_unique_opt_check(graph, part, 0.0) is True

    def test_size_guard(self):
        graph = Graph(13, [])
        part = Partition(graph.vertex_ids, np.ones(13, dtype=np.int8))
        with pytest.raises(ValueError):
            exhaustive_unique_opt_check(graph, part, 0.5)
