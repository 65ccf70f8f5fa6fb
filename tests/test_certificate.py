import functools
import math

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
import sketchbisect.certificate as certificate
from sketchbisect.certificate import LANCZOS_BUDGET, POSITIVE_MARGIN_REL, ZOperator, _lanczos_bottom

from conftest import (
    dense_adjacency,
    dense_certificate,
    disjoint_union,
    pairwise_sample_sbm,
    random_test_graph,
    recording_loop,
    sides,
)


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
        a = dense_adjacency(graph)
        want = 2.0 * np.eye(6) - a + 0.5 * np.ones((6, 6))
        assert np.allclose(op.dense(), want, atol=1e-12)
        g = planted.sign_vector(graph)
        assert np.max(np.abs(op.matvec(g))) == 0.0

    def test_k22_has_negative_direction(self, k22_cross):
        graph, planted = k22_cross
        op = ZOperator(graph, planted, 0.5)
        a = dense_adjacency(graph)
        want = -2.0 * np.eye(4) - a + 0.5 * np.ones((4, 4))
        assert np.allclose(op.dense(), want, atol=1e-12)
        w = np.array([1.0, -1.0, 0.0, 0.0])
        assert float(w @ op.matvec(w)) == pytest.approx(-4.0, abs=1e-12)

    def test_empty_graph_balanced_mu_zero_is_zero(self):
        graph = Graph(4, [])
        part = sides([0, 1], [2, 3])
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
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -1.0], ids=["nan", "inf", "-1"])
    def test_mu_rejected_before_any_krylov_step(self, monkeypatch, two_triangles, mu):
        def no_krylov(*args, **kwargs):
            raise AssertionError("a Krylov step started")

        monkeypatch.setattr(certificate, "_lanczos_bottom", no_krylov)
        graph, planted = two_triangles
        with pytest.raises(ValueError, match=r"^mu must be a finite non-negative number$"):
            check_certificate(graph, planted, mu)
        with pytest.raises(ValueError, match=r"^mu must be a finite non-negative number$"):
            ZOperator(graph, planted, mu)

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
        part = sides([0], [1])
        report = check_certificate(graph, part, 1.0)
        assert report.verdict == NOT_CERTIFIED
        assert report.witness_value == 0.0
        assert np.all(dense_certificate(graph, part, 1.0) == 0.0)

    def test_empty_graph_borderline_is_inconclusive(self):
        graph = Graph(4, [])
        part = sides([0, 1], [2, 3])
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
        halves = sides([0, 1], [2, 3])
        report = self.counted_report(monkeypatch, Graph(4, []), halves, 0.1)
        assert report.verdict == INCONCLUSIVE

    def test_zero_operator_counts_only_zg_check(self, monkeypatch):
        split_edge = sides([0], [1])
        report = self.counted_report(monkeypatch, Graph(2, [(0, 1)]), split_edge, 1.0)
        assert report.iterations == 0 and report.matvecs == 1

    def test_above_lanczos_budget(self, monkeypatch):
        graph, planted = sample_sbm(LogScaleParams(6, 1, 400).to_sbm_params(), 2)
        report = self.counted_report(monkeypatch, graph, planted, estimate_mu(graph).mu)
        # one Ritz check per five Krylov steps, plus the Zg check
        assert report.matvecs >= report.iterations + report.iterations // 5 + 1


class TestLanczosLoop:
    """The Krylov loop that the certificate and the sweep-0 cut share."""

    def test_restarts_after_breakdown_without_deflation(self):
        # three disjoint triangles: -A has eigenvalues -2 (x3) and 1 (x6), so
        # a Krylov run spans two dimensions and breaks down; only restarts
        # in the unexplored complement reach all nine steps
        edges = [(i + k, j + k) for k in (0, 3, 6) for i, j in ((0, 1), (0, 2), (1, 2))]
        graph = Graph(9, edges)
        checkpoints = list(
            _lanczos_bottom(lambda x: -graph.matvec(x), 9, 9, 2.0, np.random.default_rng(1))
        )
        steps = [k for k, _, _ in checkpoints]
        assert steps[0] == 2 and steps[-1] == 9
        assert checkpoints[-1][1] == 9 + len(checkpoints)
        for _, _, (rq, res, y) in checkpoints:
            assert rq == pytest.approx(-2.0, abs=1e-12)
            assert res < 1e-12
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)

    def test_budget_exhausted_reports_last_checkpoint(self, monkeypatch):
        # At a 10-step budget neither stop rule fires on this near-threshold
        # cut. The run proves nothing, and the report carries the last
        # checkpoint's rq - res, not the first one's larger bound.
        graph, planted = pairwise_sample_sbm(LogScaleParams(5, 1, 200).to_sbm_params(), 6)
        mu = estimate_mu(graph).mu
        checkpoints = recording_loop(monkeypatch, certificate)
        monkeypatch.setattr(certificate, "LANCZOS_BUDGET", 10)
        report = check_certificate(graph, planted, mu)
        assert [k for k, _, _ in checkpoints] == [5, 10]
        margin = max(POSITIVE_MARGIN_REL * report.scale, 1e-10)
        for _, _, (rq, res, _) in checkpoints:
            assert rq >= -margin
            assert not (rq - res > margin and res <= 0.05 * abs(rq) + margin)
        bounds = [rq - res for _, _, (rq, res, _) in checkpoints]
        assert bounds[0] > bounds[1]
        assert report.lambda2_lower == bounds[1]
        assert report.verdict == INCONCLUSIVE
        # the Zg check, ten Krylov steps and two Ritz checks
        assert (report.iterations, report.matvecs) == (10, 13)


def complement_bottom(graph, partition, mu):
    """Smallest eigenvalue of dense Z restricted to the complement of g."""
    op = ZOperator(graph, partition, mu)
    n = op.n
    start = np.column_stack([op.g / np.sqrt(n), np.random.default_rng(0).standard_normal((n, n - 1))])
    basis = np.linalg.qr(start)[0][:, 1:]
    return float(np.linalg.eigvalsh(basis.T @ op.dense() @ basis)[0])


@functools.cache
def soundness_corpus():
    """(name, graph, cut, mu, dense lambda2) for n <= 600.

    Each graph gets its planted, spectral (0-sweep), random, one-sided and
    one-third cut. Two graphs are disconnected. The first is the instance
    on which keeping the largest rq - res of a truncated run certified
    1.204 against a true 0.308. On the third, even the last checkpoint of
    a 10-step run brackets a higher eigenvalue (rq - res 1.973 against a
    true 1.701), so certifying from it would be unsound as well.
    """
    rng = np.random.default_rng(5)
    graphs = []
    for alpha, n, seed in ((5, 200, 1), (4, 300, 2), (6, 400, 3), (8, 600, 4), (12, 200, 5),
                           (20, 400, 6), (50, 300, 7), (7, 500, 8)):
        graph, planted = pairwise_sample_sbm(LogScaleParams(alpha, 1, n).to_sbm_params(), seed)
        graphs.append((f"sbm alpha={alpha} n={n} seed={seed}", graph, planted.signs))
    a, pa = pairwise_sample_sbm(LogScaleParams(20, 1, 150).to_sbm_params(), 9)
    b, pb = pairwise_sample_sbm(LogScaleParams(20, 1, 100).to_sbm_params(), 10)
    graphs.append(("disconnected sbm + sbm", disjoint_union(a, b), np.concatenate([pa.signs, pb.signs])))
    c = random_test_graph(rng, 60, 0.2)
    graphs.append(("disconnected sbm + G(60, 0.2)", disjoint_union(a, c),
                   np.concatenate([pa.signs, np.ones(60, dtype=np.int8)])))
    corpus = []
    for name, graph, planted in graphs:
        n = graph.num_vertices
        mu = estimate_mu(graph).mu
        cuts = {
            "planted": Partition(graph.vertex_ids, planted),
            "spectral": solve_sdp(graph, mu, SolverConfig(max_sweeps=0, seed=1)).rounded_cut,
            "random": random_partition(rng, graph),
            "one-sided": Partition(graph.vertex_ids, np.ones(n, dtype=np.int8)),
            "one-third": Partition(graph.vertex_ids, np.where(np.arange(n) < n // 3, 1, -1)),
        }
        for cut_name, cut in cuts.items():
            corpus.append((f"{name}, {cut_name} cut", graph, cut, mu, complement_bottom(graph, cut, mu)))
    return corpus


class TestSoundness:
    """No CERTIFIED report claims more than the dense spectrum, however short
    the Lanczos budget."""

    @pytest.mark.parametrize("budget,certified", [(10, 4), (20, 8), (300, 14)])
    def test_certified_bound_below_dense_lambda2(self, monkeypatch, budget, certified):
        monkeypatch.setattr(certificate, "LANCZOS_BUDGET", budget)
        found = 0
        for name, graph, cut, mu, lambda2 in soundness_corpus():
            report = check_certificate(graph, cut, mu)
            if report.verdict == CERTIFIED:
                found += 1
                assert report.lambda2_lower <= lambda2 + 1e-9 * report.scale, (name, report, lambda2)
            elif report.verdict == NOT_CERTIFIED:
                assert lambda2 < 0, (name, report, lambda2)
        # the gate is not vacuous: the planted and spectral cuts of the
        # strong-signal graphs certify
        assert found >= certified

    @pytest.mark.parametrize("budget", [10, 20])
    def test_truncated_reproducer_not_certified(self, monkeypatch, budget):
        name, graph, cut, mu, lambda2 = soundness_corpus()[0]
        assert name == "sbm alpha=5 n=200 seed=1, planted cut"
        assert lambda2 == pytest.approx(0.308, abs=1e-3)
        checkpoints = recording_loop(monkeypatch, certificate)
        monkeypatch.setattr(certificate, "LANCZOS_BUDGET", budget)
        report = check_certificate(graph, cut, mu)
        assert report.verdict == INCONCLUSIVE
        assert report.iterations == budget
        rq, res, _ = checkpoints[-1][2]
        assert report.lambda2_lower == rq - res
        # an earlier checkpoint bounds some higher eigenvalue only
        assert max(r[0] - r[1] for _, _, r in checkpoints) > 1.2 > lambda2

    @pytest.mark.xfail(
        strict=True,
        reason="the early-stop rule can bound an interior eigenvalue; an exact proof is ROADMAP item 2, Part B",
    )
    @pytest.mark.parametrize("alpha,n,seed", [(50, 300, 0), (30, 400, 27)])
    def test_early_stop_bound_below_dense_lambda2(self, alpha, n, seed):
        # Outside the corpus: after 5 Krylov steps the planted cut certifies
        # lambda2_lower 129.08 against a dense 128.00 (alpha = 50), and 65.74
        # against 62.31 (alpha = 30). The verdicts are right; the bounds are not.
        graph, planted = pairwise_sample_sbm(LogScaleParams(alpha, 1, n).to_sbm_params(), seed)
        mu = estimate_mu(graph).mu
        report = check_certificate(graph, planted, mu)
        assert report.verdict == CERTIFIED and report.iterations == 5
        lambda2 = complement_bottom(graph, planted, mu)
        assert report.lambda2_lower <= lambda2 + 1e-9 * report.scale, (report, lambda2)


class TestExhaustiveCheck:
    def test_examples(self, two_triangles, k22_cross):
        assert exhaustive_unique_opt_check(*two_triangles, 0.5) is True
        assert exhaustive_unique_opt_check(*k22_cross, 0.5) is False

    def test_all_ones_partition_single_edge(self):
        graph = Graph(2, [(0, 1)])
        part = sides([0, 1], [])
        assert exhaustive_unique_opt_check(graph, part, 0.0) is True

    def test_size_guard(self):
        graph = Graph(13, [])
        part = Partition(graph.vertex_ids, np.ones(13, dtype=np.int8))
        with pytest.raises(ValueError):
            exhaustive_unique_opt_check(graph, part, 0.5)
