import math
import os
import subprocess
import sys
import tracemalloc
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
    reference_upper,
    spy_symmetric_builds,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def edge_set(graph):
    return {(int(u), int(v)) for u, v in graph.edges}


def block_pair_edges(graph, n1):
    """Edge counts inside block 1, across the blocks, and inside block 2."""
    u, v = graph.edges.T
    return [int(np.sum(v < n1)), int(np.sum((u < n1) & (v >= n1))), int(np.sum(u >= n1))]


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
            g = Graph._from_canonical(n, np.bincount(ref.edges[:, 0], minlength=n), ref.edges[:, 1])
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


class TestCanonicalCsr:
    """Every route to a graph gives scipy's COO -> CSR, array for array, for
    both its stored upper triangle and its symmetric adjacency."""

    CASES = ("n0", "n1", "isolated", "star", "complete", "small-sbm", "alpha50-n2000")
    SAMPLED = {
        "complete": (SbmParams(4, 3, 1.0, 1.0), 0),
        "small-sbm": (SbmParams(12, 9, 0.5, 0.2), 8),
        "alpha50-n2000": (LogScaleParams(50, 1, 2000).to_sbm_params(), 5),
    }

    @classmethod
    def case(cls, name):
        """(n, canonical edge rows) of a named case."""
        if name in ("small-sbm", "alpha50-n2000"):
            g, _ = sample_sbm(*cls.SAMPLED[name])
            return g.num_vertices, g.edges
        n, edges = {
            "n0": (0, []),
            "n1": (1, []),
            "isolated": (9, [(1, 4), (4, 6)]),
            "star": (12, [(0, k) for k in range(1, 9)]),
            "complete": (7, [(i, j) for i in range(7) for j in range(i + 1, 7)]),
        }[name]
        return n, np.array(edges, dtype=np.int64).reshape(-1, 2)

    @staticmethod
    def embedded(n, canonical):
        """The case induced out of a graph on labels 0..2n: vertex k is label
        2k + 1, and every even label is joined to the labels beside it."""
        odds = 2 * np.arange(n) + 1
        extra = np.concatenate([np.column_stack([odds - 1, odds]), np.column_stack([odds + 1, odds])])
        parent = Graph(2 * n + 1, np.concatenate([2 * canonical + 1, extra]))
        return induced_subgraph(parent, odds)

    @pytest.mark.parametrize("name", CASES)
    def test_every_route_matches_the_coo_reference(self, tmp_path, name):
        n, canonical = self.case(name)
        path = tmp_path / "g.edges"
        path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in canonical.tolist()))
        routes = {
            "Graph": Graph(n, canonical),
            "_from_canonical": Graph._from_canonical(
                n, np.bincount(canonical[:, 0], minlength=n), canonical[:, 1].copy()),
            "load_graph": load_graph(path),
            "induced_subgraph": self.embedded(n, canonical),
        }
        if name in self.SAMPLED:
            routes["sample_sbm"] = sample_sbm(*self.SAMPLED[name])[0]
        for route, graph in routes.items():
            # the references are built from graph.edges, so pin those to the input first
            assert np.array_equal(graph.indices_of(graph.edges), canonical), route
            refs = {"upper": reference_upper(graph), "adjacency": reference_adjacency(graph)}
            for store, ref in refs.items():
                csr = getattr(graph, store)
                assert csr.shape == (n, n), (route, store)
                assert csr.has_canonical_format, (route, store)
                for field in ("indptr", "indices", "data"):
                    x, y = getattr(csr, field), getattr(ref, field)
                    assert x.dtype == y.dtype and np.array_equal(x, y), (route, store, field)


class TestLazyAdjacency:
    """A graph stores its upper triangle; the symmetric CSR is built on first use."""

    def test_reading_the_edges_builds_no_symmetric_csr(self, monkeypatch, tmp_path):
        built = spy_symmetric_builds(monkeypatch)
        g, _ = sample_sbm(SbmParams(30, 25, 0.3, 0.1), seed=2)
        path = tmp_path / "g.edges"
        save_graph(g, path)
        loaded = load_graph(path)
        sub = induced_subgraph(loaded, np.arange(0, 55, 3))
        assert loaded == g and Graph(55, g.edges) == g
        assert g.edge_count == loaded.edge_count == g.edges.shape[0]
        assert sub.edge_count == len([e for e in g.edges.tolist() if e[0] % 3 == e[1] % 3 == 0])
        assert built == []

    def test_adjacency_is_built_once_and_degrees_follow_it(self, monkeypatch):
        built = spy_symmetric_builds(monkeypatch)
        g, _ = sample_sbm(SbmParams(30, 25, 0.3, 0.1), seed=2)
        assert g.adjacency is g.adjacency
        assert np.array_equal(g.degrees, np.diff(g.adjacency.indptr))
        assert g.degrees.dtype == np.int64 and not g.degrees.flags.writeable
        assert g.degrees.sum() == 2 * g.edge_count
        assert built == [55]


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
        # empty domain: the empty restriction is empty, any vertex is unknown
        empty = Partition([], [])
        assert len(empty.restrict([])) == 0
        with pytest.raises(KeyError):
            empty.restrict([0])
        # non-contiguous labels: unsorted, repeated input restricts by label
        sparse = Partition.from_sides([10, 42], [7, 99])
        assert sparse.restrict([99, 10, 99]) == Partition.from_sides([10], [99])
        assert len(sparse.restrict([])) == 0
        for outside in ([8], [0], [100], [-1]):
            with pytest.raises(KeyError):
                sparse.restrict(outside)

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
    """The chunked geometric-skip sampler against drawing one gap at a time."""

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
        # 1.2M pairs in blocks of 700 and 900 rows; ~150k edges, each block
        # pair's gaps drawn in one chunk
        params = LogScaleParams(50, 1, 1600).to_sbm_params(700, 900)
        self.check(params, seed=99)

    @pytest.mark.parametrize("params", CASES + [SbmParams(40, 33, 0.3, 0.05)], ids=repr)
    def test_rows_reach_the_graph_canonical(self, monkeypatch, params):
        # Graph._from_canonical trusts its rows: row i's columns lie in i+1..n-1, keys increasing
        rows = []
        build = graphs.Graph._from_canonical.__func__

        def spy(cls, n, counts, hi):
            rows.append((n, counts.copy(), hi.copy()))
            return build(cls, n, counts, hi)

        monkeypatch.setattr(graphs.Graph, "_from_canonical", classmethod(spy))
        sample_sbm(params, seed=3)
        [(n, counts, hi)] = rows
        assert n == params.n and counts.dtype == hi.dtype == np.int64
        assert counts.shape == (n,) and np.all(counts >= 0) and counts.sum() == hi.size
        lo = np.repeat(np.arange(n), counts)
        assert np.all(lo < hi) and np.all(hi < n)
        assert np.all(np.diff(lo * n + hi) > 0)

    def test_block_pair_edge_counts(self):
        # each block pair's count has the binomial mean, p < q included
        seeds = 600
        for params in (SbmParams(12, 9, 0.3, 0.1), SbmParams(10, 14, 0.1, 0.4)):
            n1, n2 = params.n1, params.n2
            pairs = np.array([math.comb(n1, 2), n1 * n2, math.comb(n2, 2)])
            rates = np.array([params.p, params.q, params.p])
            counts = np.zeros((seeds, 3))
            for s in range(seeds):
                counts[s] = block_pair_edges(sample_sbm(params, s)[0], n1)
            se = np.sqrt(pairs * rates * (1 - rates) / seeds)
            assert np.all(np.abs(counts.mean(axis=0) - pairs * rates) <= 4 * se), (params, counts.mean(0))

    @staticmethod
    def spy_generators(monkeypatch, chunk=None):
        """Wrap each block pair's generator: count its variates, and cap each draw at ``chunk``."""
        spies = []
        pair_generators = graphs._pair_generators

        class Spy:
            def __init__(self, rng):
                self.rng, self.count, self.calls = rng, 0, 0
                spies.append(self)

            def geometric(self, rate, size):
                size = size if chunk is None else min(size, chunk)
                self.count += size
                self.calls += 1
                return self.rng.geometric(rate, size)

        monkeypatch.setattr(graphs, "_pair_generators", lambda seed: [Spy(g) for g in pair_generators(seed)])
        return spies

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_size_never_matters(self, monkeypatch, chunk):
        # short draws continue from the last position; the edges do not move
        spies = self.spy_generators(monkeypatch, chunk)
        for params in self.CASES[:5] + [SbmParams(40, 33, 0.3, 0.05)]:
            self.check(params, seed=chunk)
        assert all(spy.calls > 1 for spy in spies[-3:])

    def test_draws_are_linear_in_edges(self, monkeypatch):
        # every variate comes from a block pair's generator, and there are
        # about as many as edges, not one per vertex pair
        spies = self.spy_generators(monkeypatch)
        params = LogScaleParams(8, 1, 2000).to_sbm_params()
        edges = block_pair_edges(sample_sbm(params, seed=4)[0], params.n1)
        counts = [spy.count for spy in spies]
        for count, m in zip(counts, edges):
            assert m < count <= 1.1 * m + 100
        assert sum(counts) < math.comb(params.n, 2) / 50
        # rate 0 draws nothing and rate 1 keeps every pair without drawing
        spies.clear()
        g, _ = sample_sbm(SbmParams(6, 5, 1.0, 0.0), seed=4)
        assert g.edge_count == math.comb(6, 2) + math.comb(5, 2)
        assert [spy.count for spy in spies] == [0, 0, 0]

    def test_seed_forms(self):
        params = SbmParams(20, 25, 0.4, 0.1)
        g, _ = sample_sbm(params, None)
        assert_same_graph(g, Graph(params.n, g.edges))
        assert 0 < g.edge_count < math.comb(params.n, 2)
        by_int, _ = sample_sbm(params, 31)
        sequence = np.random.SeedSequence(31)
        for _ in range(2):  # a SeedSequence is read, not spawned from
            assert_same_graph(sample_sbm(params, sequence)[0], by_int)
        # a caller's generator is advanced by one integers(2**63, size=3) draw
        gen = np.random.default_rng(31)
        assert_same_graph(sample_sbm(params, gen)[0], by_int)
        ref = np.random.default_rng(31)
        ref.integers(1 << 63, size=3)
        assert gen.bit_generator.state == ref.bit_generator.state
        # any bit generator works
        for bit_gen in (np.random.MT19937, np.random.Philox, np.random.SFC64):
            g, _ = sample_sbm(params, np.random.Generator(bit_gen(31)))
            assert_same_graph(g, reference_sample_sbm(params, np.random.Generator(bit_gen(31)))[0])
            assert g != by_int

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
        for params, seed in ((SbmParams(60, 70, 0.3, 0.05), 6),
                             (LogScaleParams(50, 1, 2000).to_sbm_params(), 12)):
            g, _ = sample_sbm(params, seed=seed)
            path = tmp_path / "g.edges"
            save_graph(g, path)
            expected = f"n {g.num_vertices}\n" + "".join(
                f"{u} {v}\n" for u, v in g.edges.tolist())
            assert path.read_bytes() == expected.encode("ascii")
            assert_same_graph(load_graph(path), g)

    def test_save_edge_free_graph(self, tmp_path):
        path = tmp_path / "g.edges"
        save_graph(Graph(3), path)
        assert path.read_text() == "n 3\n"
        assert load_graph(path) == Graph(3)

    def test_blank_lines_and_whitespace_parse(self, tmp_path):
        text = "\n  \nn 5  \n\n0 1 \n\t2   4\t\n\n3 1\r\n   \n"
        g = load_graph(self.write(tmp_path, text))
        assert g == Graph(5, [(0, 1), (2, 4), (1, 3)])
        # shuffled, flipped and repeated rows behind CRLF ends, tabs and blank lines
        rng = np.random.default_rng(23)
        canonical, variants = TestGraphConstruction.canonical_and_variants(
            rng, 40, 0.4, np.arange(40))
        for edges in variants:
            body = "".join(f"{u}\t{v}\r\n" + "\r\n" * (k % 3 == 0)
                           for k, (u, v) in enumerate(edges.tolist()))
            path = self.write(tmp_path, f"\r\n \t\r\nn 40\r\n{body}")
            assert_same_graph(load_graph(path), Graph(40, canonical))

    def test_repeated_edge_counts_once(self, tmp_path):
        g = load_graph(self.write(tmp_path, "n 3\n0 1\n1 0\n0 1\n"))
        assert g == Graph(3, [(0, 1)]) == Graph(3, [(0, 1), (1, 0)])
        assert (g.num_vertices, g.edge_count) == (3, 1)
        assert g.degrees.tolist() == [1, 1, 0]

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

    @pytest.mark.parametrize("bad, token", [("2 1.0", "1.0"), ("3.9 1", "3.9")])
    def test_float_token_named_without_warning_filters(self, tmp_path, bad, token):
        # older numpy releases parse such a token through a float with only a
        # warning, which default filters hide; the readers must reject it all the same
        graph = self.write(tmp_path, f"n 4\n0 1\n\n{bad}\n2 3\n")
        part = tmp_path / "p.part"
        part.write_text(f"0 1\n\n1 -1\n{bad}\n3 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for load, path in ((load_graph, graph), (load_partition, part)):
                with pytest.raises(ValueError, match=f"line 4: '{token}' is not an integer"):
                    load(path)

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

    def test_reader_memory_is_linear_in_the_csr(self, tmp_path):
        g, _ = sample_sbm(LogScaleParams(50, 1, 4000).to_sbm_params(), seed=3)
        path = tmp_path / "g.edges"
        save_graph(g, path)
        del g
        tracemalloc.start()
        try:
            loaded = load_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adj = loaded.adjacency
        assert loaded.edge_count > 400_000
        # neither the text nor a list of its lines is held (reading them peaked at 9.1x)
        assert peak <= 6 * (adj.indptr.nbytes + adj.indices.nbytes + adj.data.nbytes)

    def test_writer_memory_is_bounded_by_the_chunk(self, tmp_path, monkeypatch):
        g, _ = sample_sbm(LogScaleParams(50, 1, 4000).to_sbm_params(), seed=3)
        path = tmp_path / "g.edges"
        save_graph(g, path)
        want = path.read_bytes()
        monkeypatch.setattr(graphs, "_WRITE_ROWS", 1 << 12)
        tracemalloc.start()
        try:
            save_graph(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == want
        adj = g.adjacency
        assert g.edge_count > 400_000
        # no edge array and no row index per CSR entry (those alone are 1.3x)
        assert peak <= (adj.indptr.nbytes + adj.indices.nbytes + adj.data.nbytes) / 4

    def test_save_partition_matches_one_line_per_vertex(self, tmp_path):
        path = tmp_path / "p.part"
        save_partition(Partition([7, 0, 3, 12], [-1, 1, 1, -1]), path)
        assert path.read_bytes() == b"0 1\n3 1\n7 -1\n12 -1\n"
        save_partition(Partition([], []), path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("text", ["", "\n", " \r\n\t\n"])
    def test_empty_partition_file_parses(self, tmp_path, text):
        path = tmp_path / "p.part"
        path.write_text(text)
        p = load_partition(path)
        assert len(p) == 0 and p == Partition([], [])

    def test_partition_crlf_and_blank_lines_parse(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_bytes(b"\r\n5 -1\r\n\r\n  0\t1 \r\n+2 -1\r\n\r\n")
        p = load_partition(path)
        assert p == Partition([5, 0, 2], [-1, 1, -1])
        assert p.ids.dtype == np.int64 and p.signs.dtype == np.int8

    @pytest.mark.parametrize("data, line", [
        (b"n 4\n0 1\n\n2 \xc3\xa93\n", 4),
        (b"n 4\n0 1\n1 2\xff\n2 3\n", 3),
        (b"\n\nn 4\xc3\xa9\n0 1\n", 3),
        (b"\xef\xbb\xbfn 4\n0 1\n", 1),
    ], ids=["edge-line", "line-end", "header", "byte-order-mark"])
    def test_non_ascii_byte_named(self, tmp_path, data, line):
        path = tmp_path / "g.edges"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"line {line}: non-ASCII byte 0x"):
            load_graph(path)

    def test_non_ascii_partition_byte_named(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_bytes(b"0 1\n\n1 -1\xc3\xa9\n2 1\n")
        with pytest.raises(ValueError, match="line 3: non-ASCII byte 0xc3"):
            load_partition(path)

    @pytest.mark.parametrize("graph_bytes, part_bytes, line", [
        (b"n 3\n0 1\n1 \xe2\x80\x892\n", b"0 1\n1 1\n2 -1\n", 3),
        (b"n 3\n0 1\n1 2\n", b"0 1\n1 \xe2\x80\x891\n2 -1\n", 2),
    ], ids=["graph", "partition"])
    def test_non_ascii_byte_is_a_cli_error(self, tmp_path, capsys, graph_bytes, part_bytes, line):
        graph, part = tmp_path / "g.edges", tmp_path / "p.part"
        graph.write_bytes(graph_bytes)
        part.write_bytes(part_bytes)
        code = cli.main(["certify", str(graph), str(part), "--mu", "0.5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: line {line}: non-ASCII byte 0xe2")
        assert "Traceback" not in err
