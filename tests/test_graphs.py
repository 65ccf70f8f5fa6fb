import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sketchbisect import (
    Graph,
    LogScaleParams,
    Partition,
    SbmParams,
    bernoulli_vertex_sample,
    cli,
    graphs,
    induced_subgraph,
    load_graph,
    load_partition,
    sample_sbm,
    save_graph,
    save_partition,
)

from conftest import (
    assert_same_graph,
    dense_adjacency,
    reference_adjacency,
    reference_sample_sbm,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def edge_set(graph):
    return {(int(u), int(v)) for u, v in graph.edges}


class TestGraphBasics:
    def test_degrees_sum_to_twice_edges(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        assert g.degrees.sum() == 2 * g.edge_count

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_unknown_vertex_rejected(self):
        with pytest.raises(KeyError):
            Graph(3, [(0, 5)])

    def test_neighbors_sorted(self):
        g = Graph(5, [(2, 4), (2, 0), (2, 3), (2, 1)])
        adj = g.adjacency
        assert list(adj.indices[adj.indptr[2]:adj.indptr[3]]) == [0, 1, 3, 4]

    def test_has_edge(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dense = g.adjacency.toarray()
        assert dense[0, 1] == dense[1, 0] == 1
        assert dense[0, 2] == 0 and dense[1, 1] == 0
        assert edge_set(g) == {(0, 1), (2, 3)}

    def test_adjacency_matches_edge_list(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 30))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            g = Graph(n, edges)
            # the reference comes from the input list, not from the graph's store
            dense = np.zeros((n, n))
            for i, j in edges:
                dense[i, j] = dense[j, i] = 1.0
            assert np.array_equal(g.adjacency.toarray(), dense)

    def test_equality(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        c = Graph(3, [(0, 2)])
        assert a == b and a != c
        # same CSR, other labels
        assert Graph(3, [(5, 6)], vertex_ids=[5, 6, 7]) != a
        assert Graph(4, [(9, 2), (7, 5), (2, 5)], vertex_ids=[9, 2, 5, 7]) == Graph(
            4, [(2, 5), (5, 7), (2, 9)], vertex_ids=[2, 5, 7, 9]
        )


class TestGraphConstruction:
    """Edge order, orientation and repeats never change the built graph."""

    @staticmethod
    def canonical_and_variants(rng, n, p, ids):
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p], dtype=np.int64).reshape(-1, 2)
        canonical = ids[pairs]
        shuffled = canonical[rng.permutation(len(canonical))]
        flip = rng.random(len(shuffled)) < 0.5
        shuffled[flip] = shuffled[flip][:, ::-1]
        reversed_ = canonical[::-1, ::-1]
        dup = canonical[rng.integers(0, max(len(canonical), 1), size=len(canonical) // 2)]
        duplicated = np.concatenate([shuffled, dup[:, ::-1], canonical])
        return canonical, (shuffled, reversed_, duplicated)

    @pytest.mark.parametrize("labels", ["contiguous", "non-contiguous"])
    def test_input_order_does_not_matter(self, labels):
        rng = np.random.default_rng(17)
        for n in (2, 7, 40):
            ids = np.arange(n) if labels == "contiguous" else 3 * np.arange(n) + 5
            vertex_ids = None if labels == "contiguous" else rng.permutation(ids)
            canonical, variants = self.canonical_and_variants(rng, n, 0.4, ids)
            ref = Graph(n, canonical, vertex_ids=vertex_ids)
            assert np.array_equal(ref.edges, canonical)
            adj = reference_adjacency(ref)
            assert np.array_equal(ref.adjacency.indptr, adj.indptr)
            assert np.array_equal(ref.adjacency.indices, adj.indices)
            assert np.array_equal(ref.adjacency.toarray(), dense_adjacency(ref))
            for edges in variants:
                assert_same_graph(Graph(n, edges, vertex_ids=vertex_ids), ref)
                assert_same_graph(Graph(n, edges.tolist(), vertex_ids=vertex_ids), ref)

    def test_empty_edge_inputs(self):
        for edges in ((), [], np.empty((0, 2), dtype=np.int64)):
            g = Graph(4, edges, vertex_ids=[9, 2, 5, 7])
            assert g.edge_count == 0 and g.edges.shape == (0, 2)
            assert g.edges.dtype == np.int64
            assert g.adjacency.nnz == 0 and list(g.degrees) == [0, 0, 0, 0]
        assert Graph(0).num_vertices == 0
        assert Graph(0).edges.shape == (0, 2) and Graph(0).edges.dtype == np.int64

    def test_canonical_constructor_matches_init(self):
        sampled, _ = sample_sbm(SbmParams(12, 9, 0.5, 0.2), seed=8)
        cases = ((5, []), (0, []), (1, []), (2, [(0, 1)]),
                 (sampled.num_vertices, sampled.edges))
        for n, edges in cases:
            ref = Graph(n, edges)
            g = Graph._from_canonical(n, ref.edges[:, 0], ref.edges[:, 1])
            assert_same_graph(g, ref)
            assert np.array_equal(g.indices_of(ref.vertex_ids), ref.indices_of(ref.vertex_ids))
            with pytest.raises(KeyError):
                g.indices_of([n])

    def test_self_loops_raise(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1), (2, 2)])
        with pytest.raises(ValueError):
            Graph(3, [(9, 4), (6, 6)], vertex_ids=[4, 6, 9])

    @pytest.mark.parametrize("edge", [(0, 4), (-1, 2), (3, 4)])
    def test_unknown_ids_raise(self, edge):
        with pytest.raises(KeyError):
            Graph(4, [(0, 1), edge])
        with pytest.raises(KeyError):
            Graph(4, [(1, 3), edge], vertex_ids=[1, 3, 5, 7])

    def test_malformed_edge_array_raises(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1, 2)])
        with pytest.raises(ValueError):
            Graph(4, [0, 1])


class TestPartition:
    def test_side_map(self):
        p = Partition([3, 1, 2], [1, -1, 1])
        assert list(p.ids) == [1, 2, 3]
        assert p == Partition.from_sides([2, 3], [1])
        assert p.sign_of(1) == -1
        assert p.n_plus == 2 and p.n_minus == 1

    def test_invalid_signs(self):
        with pytest.raises(ValueError):
            Partition([0, 1], [1, 2])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Partition([0, 0], [1, 1])

    def test_sign_vector_alignment(self):
        g = Graph(3, [(0, 1)])
        p = Partition([0, 1, 2], [1, -1, 1])
        assert np.array_equal(p.sign_vector(g), [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            Partition([0, 1], [1, -1]).sign_vector(g)

    def test_flip_equality(self):
        a = Partition([0, 1, 2], [1, -1, 1])
        b = Partition([0, 1, 2], [-1, 1, -1])
        c = Partition([0, 1, 2], [1, 1, 1])
        assert a.equals_up_to_flip(b)
        assert not a.equals_up_to_flip(c)

    def test_restrict_and_sides(self):
        p = Partition.from_sides([0, 2], [1, 3])
        r = p.restrict([0, 1])
        assert r == Partition.from_sides([0], [1])
        assert list(p.side_vertices(1)) == [0, 2]
        with pytest.raises(KeyError):
            p.restrict([9])

    def test_missing_vertex(self):
        with pytest.raises(KeyError):
            Partition([0], [1]).sign_of(4)


class TestSampleSbm:
    def test_degenerate_rates_force_graph(self):
        g, planted = sample_sbm(SbmParams(2, 2, 1.0, 0.0), seed=123)
        assert edge_set(g) == {(0, 1), (2, 3)}
        assert planted == Partition.from_sides([0, 1], [2, 3])

    def test_all_ones_gives_complete_graph(self):
        g, _ = sample_sbm(SbmParams(3, 3, 1.0, 1.0), seed=9)
        assert g.edge_count == 15

    def test_edge_count_in_range(self):
        # expected 0.5 * 2 * C(50,2) + 0.1 * 2500 = 1475, sd about 28.9
        params = SbmParams(50, 50, 0.5, 0.1)
        expected = 0.5 * 2 * math.comb(50, 2) + 0.1 * 2500
        var = 2 * math.comb(50, 2) * 0.5 * 0.5 + 2500 * 0.1 * 0.9
        g, _ = sample_sbm(params, seed=2024)
        assert abs(g.edge_count - expected) <= 4 * math.sqrt(var)
        counts = [sample_sbm(params, s)[0].edge_count for s in range(1000)]
        se = math.sqrt(var / 1000)
        assert abs(np.mean(counts) - expected) <= 4 * se

    def test_reproducible(self):
        params = SbmParams(10, 10, 0.4, 0.1)
        a, pa = sample_sbm(params, seed=77)
        b, pb = sample_sbm(params, seed=77)
        assert a == b and pa == pb
        c, _ = sample_sbm(params, seed=78)
        assert a != c

    def test_equal_rates_are_exchangeable(self):
        # within/cross edge densities should agree in distribution at p = q
        params = SbmParams(20, 20, 0.3, 0.3)
        within_pairs = 2 * math.comb(20, 2)
        cross_pairs = 400
        diffs = []
        for s in range(1000):
            g, planted = sample_sbm(params, s)
            signs = planted.sign_vector(g)
            same = 0
            for u, v in g.edges:
                if signs[u] == signs[v]:
                    same += 1
            diffs.append(same / within_pairs - (g.edge_count - same) / cross_pairs)
        mean = np.mean(diffs)
        se = np.std(diffs, ddof=1) / math.sqrt(len(diffs))
        assert abs(mean) <= 4 * se


class TestSampleSbmOracle:
    """The row-block sampler against enumeration of every pair at once."""

    CASES = [
        SbmParams(7, 13, 0.5, 0.1),  # n1 != n2
        SbmParams(1, 30, 0.4, 0.2),  # n1 = 1
        SbmParams(30, 1, 0.4, 0.2),  # n2 = 1
        SbmParams(1, 1, 0.5, 0.5),  # one pair
        SbmParams(20, 20, 0.1, 0.6),  # p < q
        SbmParams(15, 15, 0.0, 0.3),  # p = 0
        SbmParams(10, 12, 0.4, 1.0),  # q = 1
        SbmParams(9, 9, 0.0, 0.0),  # no edges
        SbmParams(6, 5, 1.0, 1.0),  # complete graph
    ]

    @staticmethod
    def check(params, seed):
        g, planted = sample_sbm(params, seed)
        ref, ref_planted = reference_sample_sbm(params, seed)
        assert_same_graph(g, ref)
        assert planted == ref_planted
        adj = reference_adjacency(g)
        assert np.array_equal(g.adjacency.indptr, adj.indptr)
        assert np.array_equal(g.adjacency.indices, adj.indices)

    @pytest.mark.parametrize("params", CASES, ids=repr)
    def test_small_cases(self, params):
        for seed in (0, 1, 2024):
            self.check(params, seed)

    def test_several_row_blocks(self):
        # 1.2M pairs, more than four blocks at the module's block size
        params = LogScaleParams(50, 1, 1600).to_sbm_params(700, 900)
        n = params.n
        assert n * (n - 1) // 2 > 4 * graphs._PAIR_BLOCK
        self.check(params, seed=99)

    @pytest.mark.parametrize("block", [1, 7, 50, 1000])
    def test_block_size_never_matters(self, monkeypatch, block):
        # blocks shorter than a row, ending mid-block and spanning many rows,
        # split into runs of many blocks, of one block, and for more CPUs
        # than there are blocks
        monkeypatch.setattr(graphs, "_PAIR_BLOCK", block)
        run_starts = []
        draw = graphs._sample_rows

        def spy(state, bounds, *args):
            run_starts.append(int(bounds[0]))
            return draw(state, bounds, *args)

        monkeypatch.setattr(graphs, "_sample_rows", spy)
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(graphs, "usable_cpus", lambda: cpus)
            for params in (SbmParams(40, 33, 0.3, 0.05), SbmParams(1, 60, 0.2, 0.7)):
                run_starts.clear()
                self.check(params, seed=block)
                assert len(run_starts) == len(set(run_starts))
                assert (len(run_starts) > 1) == (cpus > 1)

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("a one-block sample started a thread pool")

        monkeypatch.setattr(graphs, "ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(graphs, "usable_cpus", lambda: 4)
        params = LogScaleParams(8, 1, 400).to_sbm_params()
        assert params.n * (params.n - 1) // 2 <= graphs._PAIR_BLOCK
        self.check(params, seed=5)

    def test_seed_forms(self):
        params = SbmParams(20, 25, 0.4, 0.1)
        g, _ = sample_sbm(params, None)
        assert_same_graph(g, Graph(params.n, g.edges))
        assert 0 < g.edge_count < math.comb(params.n, 2)
        by_int, _ = sample_sbm(params, 31)
        by_sequence, _ = sample_sbm(params, np.random.SeedSequence(31))
        assert_same_graph(by_sequence, by_int)
        gen = np.random.default_rng(31)
        sample_sbm(params, gen)
        ref = np.random.default_rng(31)
        ref.random(math.comb(params.n, 2))
        assert gen.random() == ref.random()
        with pytest.raises(TypeError, match="PCG64"):
            sample_sbm(params, np.random.Generator(np.random.MT19937(31)))

    def test_memory_stays_linear(self):
        # the pair enumeration would need ~6.6 GB of temporaries at n = 20000;
        # the child's address space is capped so such a regression fails fast
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from sketchbisect import LogScaleParams, sample_sbm\n"
            "g, _ = sample_sbm(LogScaleParams(50, 1, 20000).to_sbm_params(), seed=1)\n"
            "assert g.edge_count > 2_000_000\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False,
            timeout=300,
            env=dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                     OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"),
        )
        assert done.returncode == 0, done.stderr
        peak_kib = int(done.stdout.split()[-1])  # Linux reports KiB
        assert peak_kib < 1.5 * 2**20


class TestBernoulliSample:
    def test_extremes(self):
        g = Graph(8, [(0, 1)])
        assert bernoulli_vertex_sample(g, 0.0, 1).size == 0
        assert np.array_equal(bernoulli_vertex_sample(g, 1.0, 1), np.arange(8))

    def test_mean_size(self):
        g = Graph(1000, [])
        sizes = [bernoulli_vertex_sample(g, 0.5, s).size for s in range(500)]
        assert abs(np.mean(sizes) - 500) <= 3 * math.sqrt(1000 * 0.25)

    def test_gamma_validated(self):
        g = Graph(3, [])
        with pytest.raises(ValueError):
            bernoulli_vertex_sample(g, 1.5, 0)


class TestInducedSubgraph:
    def test_k4_to_k3(self):
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        sub = induced_subgraph(k4, [0, 1, 2])
        assert list(sub.vertex_ids) == [0, 1, 2]
        assert sub.edge_count == 3

    def test_path_restriction(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = induced_subgraph(path, [0, 2, 3])
        assert edge_set(sub) == {(2, 3)}

    def test_empty_subset(self):
        g = Graph(4, [(0, 1)])
        sub = induced_subgraph(g, [])
        assert sub.num_vertices == 0 and sub.edge_count == 0

    def test_identity(self):
        g, _ = sample_sbm(SbmParams(8, 8, 0.5, 0.2), seed=4)
        assert induced_subgraph(g, g.vertex_ids) == g

    def test_keeping_every_vertex_returns_the_input(self):
        g, _ = sample_sbm(SbmParams(8, 8, 0.5, 0.2), seed=4)
        assert induced_subgraph(g, g.vertex_ids) is g
        assert induced_subgraph(g, list(g.vertex_ids[::-1]) * 2) is g
        sub = induced_subgraph(g, [1, 4, 6, 9, 15])
        assert induced_subgraph(sub, [15, 9, 6, 4, 1]) is sub
        with pytest.raises(KeyError):
            induced_subgraph(g, list(range(15)) + [99])

    def test_matches_mask_filter(self):
        rng = np.random.default_rng(23)
        g, _ = sample_sbm(SbmParams(30, 25, 0.3, 0.1), seed=23)
        ids = 2 * np.arange(55) + 1
        relabelled = Graph(55, ids[g.edges], vertex_ids=ids)
        for graph in (g, relabelled):
            for frac in (0.0, 0.1, 0.5, 0.9, 0.98):
                verts = graph.vertex_ids[rng.random(55) < frac]
                keep = set(verts.tolist())
                expected = Graph(
                    verts.size,
                    [(u, v) for u, v in graph.edges.tolist() if u in keep and v in keep],
                    vertex_ids=verts,
                )
                sub = induced_subgraph(graph, rng.permutation(verts))
                assert_same_graph(sub, expected)
                assert np.array_equal(sub.adjacency.toarray(), dense_adjacency(sub))

    def test_labels_survive_nesting(self):
        g, _ = sample_sbm(SbmParams(10, 10, 0.6, 0.2), seed=5)
        sub = induced_subgraph(g, [2, 5, 7, 11, 19])
        sub2 = induced_subgraph(sub, [5, 11, 19])
        assert list(sub2.vertex_ids) == [5, 11, 19]
        assert edge_set(sub2) <= edge_set(g)

    def test_edge_count_monotone(self):
        rng = np.random.default_rng(11)
        g, _ = sample_sbm(SbmParams(15, 15, 0.4, 0.2), seed=11)
        for _ in range(5):
            keep = [int(v) for v in g.vertex_ids if rng.random() < 0.6]
            assert induced_subgraph(g, keep).edge_count <= g.edge_count


class TestLogScaleParams:
    def test_conversion(self):
        params = LogScaleParams(30, 2, 200).to_sbm_params()
        assert params.n1 == params.n2 == 100
        assert params.p == pytest.approx(30 * math.log(200) / 200, rel=1e-15)

    def test_clamping_warns(self):
        with pytest.warns(UserWarning, match="clamp"):
            params = LogScaleParams(50, 1, 200).to_sbm_params()
        assert params.p == 1.0
        assert params.q == pytest.approx(math.log(200) / 200, rel=1e-15)

    def test_no_warning_in_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LogScaleParams(10, 2, 400).to_sbm_params()

    def test_validation(self):
        with pytest.raises(ValueError):
            LogScaleParams(10, 2, 401).to_sbm_params()
        with pytest.raises(ValueError):
            LogScaleParams(0, 2, 400)
        with pytest.raises(ValueError):
            LogScaleParams(10, 2, 400).to_sbm_params(100, 200)

    def test_unbalanced_split(self):
        params = LogScaleParams(10, 2, 300).to_sbm_params(100, 200)
        assert (params.n1, params.n2) == (100, 200)


class TestSbmParamsValidation:
    def test_rates_in_unit_interval(self):
        with pytest.raises(ValueError):
            SbmParams(2, 2, 1.2, 0.0)
        with pytest.raises(ValueError):
            SbmParams(2, 2, 0.5, -0.1)

    def test_positive_blocks(self):
        with pytest.raises(ValueError):
            SbmParams(0, 2, 0.5, 0.1)


class TestSerialization:
    def test_graph_round_trip(self, tmp_path):
        g, _ = sample_sbm(SbmParams(10, 10, 0.5, 0.2), seed=3)
        path = tmp_path / "g.edges"
        save_graph(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n 20"
        assert load_graph(path) == g

    def test_graph_requires_contiguous_ids(self, tmp_path):
        g = induced_subgraph(Graph(5, [(0, 1), (3, 4)]), [0, 1, 3, 4])
        with pytest.raises(ValueError):
            save_graph(g, tmp_path / "g.edges")

    def test_partition_round_trip(self, tmp_path):
        p = Partition([0, 1, 2, 5], [1, -1, -1, 1])
        path = tmp_path / "p.part"
        save_partition(p, path)
        assert load_partition(path) == p

    def test_malformed_inputs(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n")
        with pytest.raises(ValueError):
            load_graph(bad)
        bad2 = tmp_path / "bad.part"
        bad2.write_text("0 1 2\n")
        with pytest.raises(ValueError):
            load_partition(bad2)


class TestEdgeListFiles:
    @staticmethod
    def write(tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        return path

    def test_save_matches_one_line_per_edge(self, tmp_path):
        g, _ = sample_sbm(SbmParams(60, 70, 0.3, 0.05), seed=6)
        path = tmp_path / "g.edges"
        save_graph(g, path)
        expected = f"n {g.num_vertices}\n" + "".join(f"{u} {v}\n" for u, v in g.edges.tolist())
        assert path.read_bytes() == expected.encode("ascii")
        assert load_graph(path) == g

    def test_save_edge_free_graph(self, tmp_path):
        path = tmp_path / "g.edges"
        save_graph(Graph(3), path)
        assert path.read_text() == "n 3\n"
        assert load_graph(path) == Graph(3)

    def test_blank_lines_and_whitespace_parse(self, tmp_path):
        text = "\n  \nn 5  \n\n0 1 \n\t2   4\t\n\n3 1\r\n   \n"
        g = load_graph(self.write(tmp_path, text))
        assert g == Graph(5, [(0, 1), (2, 4), (1, 3)])

    @pytest.mark.parametrize("text, line", [
        ("", None),
        ("\n \n", None),
        ("0 1\n", 1),
        ("n\n0 1\n", 1),
        ("n x\n", 1),
        ("n 2.5\n", 1),
        ("m 4\n", 1),
        ("n 4 5\n", 1),
        ("n -3\n", 1),
        ("\n\nnodes 4\n", 3),
    ])
    def test_bad_header(self, tmp_path, text, line):
        match = "header" if line is None else f"line {line}:"
        with pytest.raises(ValueError, match=match):
            load_graph(self.write(tmp_path, text))

    @pytest.mark.parametrize("bad", ["2", "2 3 1", "1 x", "1.0 2", "0 1e3", "# 0 1"])
    def test_bad_edge_line_named(self, tmp_path, bad):
        path = self.write(tmp_path, f"n 4\n0 1\n\n{bad}\n2 3\n")
        with pytest.raises(ValueError, match="line 4:"):
            load_graph(path)

    @pytest.mark.parametrize("bad, message", [
        ("2", "expected 'vertex sign'"),
        ("2 1 1", "expected 'vertex sign'"),
        ("x 1", "'x' is not an integer"),
        ("2 1.0", "'1.0' is not an integer"),
        ("2 0", "sign 0 is not"),
        ("2 -2", "sign -2 is not"),
        ("1 1", "vertex 1 repeats line 3"),
    ])
    def test_bad_partition_line_named(self, tmp_path, bad, message):
        path = tmp_path / "p.part"
        path.write_text(f"0 1\n\n1 -1\n{bad}\n3 1\n")
        with pytest.raises(ValueError, match=f"line 4: {message}"):
            load_partition(path)

    def test_bad_first_edge_line_named(self, tmp_path):
        # a one-token first line must be named, not the well-formed line after it
        path = self.write(tmp_path, "n 4\n2\n0 1\n")
        with pytest.raises(ValueError, match="line 2:"):
            load_graph(path)

    @pytest.mark.parametrize("bad", ["0 4", "-1 2", "3 3", "0 99999999999999999999"])
    def test_bad_vertex_ids_named(self, tmp_path, bad):
        path = self.write(tmp_path, f"n 4\n0 1\n{bad}\n")
        with pytest.raises(ValueError, match="line 3:"):
            load_graph(path)

    def test_out_of_range_id_is_a_cli_error(self, tmp_path, capsys):
        path = self.write(tmp_path, "n 3\n0 1\n1 5\n")
        code = cli.main(["solve", str(path), "--out", str(tmp_path / "cut")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 3:") and "5" in err
        assert "Traceback" not in err
