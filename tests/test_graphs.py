import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

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
    solver,
)

from conftest import (
    assert_same_graph,
    dense_adjacency,
    reference_adjacency,
    reference_sample_sbm,
    reference_upper,
    sides,
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
        up = g.upper
        assert list(up.indices[up.indptr[2]:up.indptr[3]]) == [3, 4]
        assert list(up.indices[up.indptr[0]:up.indptr[1]]) == [2]

    def test_has_edge(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dense = dense_adjacency(g)
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
            assert np.array_equal(dense_adjacency(g), dense)
            assert np.array_equal(g.matvec(np.eye(n)), dense)
            assert np.array_equal(g.degrees, dense.sum(axis=1))

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
            assert np.array_equal(dense_adjacency(ref), reference_adjacency(ref).toarray())
            for edges in variants:
                assert_same_graph(Graph(n, edges, vertex_ids=vertex_ids), ref)
                assert_same_graph(Graph(n, edges.tolist(), vertex_ids=vertex_ids), ref)

    def test_empty_edge_inputs(self):
        for edges in ((), [], np.empty((0, 2), dtype=np.int64)):
            g = Graph(4, edges, vertex_ids=[9, 2, 5, 7])
            assert g.edge_count == 0 and g.edges.shape == (0, 2)
            assert g.edges.dtype == np.int64
            assert g.upper.nnz == 0 and list(g.degrees) == [0, 0, 0, 0]
        assert Graph(0).num_vertices == 0
        assert Graph(0).edges.shape == (0, 2) and Graph(0).edges.dtype == np.int64

    @pytest.mark.parametrize("count", [2**63, 2**64], ids=["2**63", "2**64"])
    def test_count_beyond_int64_is_refused(self, count):
        # refused before any array is sized: np.arange raised OverflowError for
        # 2**63 and numpy's "Maximum allowed size exceeded" for 2**64
        with pytest.raises(ValueError, match=r"^vertex count exceeds the int64 maximum$"):
            Graph(count)

    def test_trusted_constructor_matches_init(self):
        sampled, _ = sample_sbm(SbmParams(12, 9, 0.5, 0.2), seed=8)
        cases = ((5, []), (0, []), (1, []), (2, [(0, 1)]),
                 (sampled.num_vertices, sampled.edges))
        for n, edges in cases:
            ref = Graph(n, edges)
            g = Graph._from_upper(np.arange(n, dtype=np.int64), graphs._upper_csr(
                n, np.bincount(ref.edges[:, 0], minlength=n), ref.edges[:, 1]))
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

    @pytest.mark.parametrize("edges, vertex_ids", [
        ([(0.5, 1.9)], None),
        (np.array([[0, 1], [1, 2.5]]), None),
        ([(0, float("nan"))], None),
        ([(0, float("inf"))], None),
        ([(0, 2**70)], None),
        ([(0, 1e20)], None),
        (np.array([["0", "1"]]), None),
        ([(0, 1)], [0, 1, 2.25]),
        ([(0, 1)], np.array([0.0, 1.0, float("nan")])),
        (np.array([[0, 2**64 - 1]], dtype=np.uint64), None),
        ([(0, 1)], np.array([0, 1, 2**63], dtype=np.uint64)),
        ([[True, False]], None),
        ([(0, 1)], np.array([False, True, True])),
        ([[True, 2]], None),
        (np.array([[True, 2]], dtype=object), None),
        ([(np.True_, 2)], None),
        ([(0, 1)], [0, 1, True]),
    ])
    def test_non_integer_ids_raise(self, edges, vertex_ids):
        # they used to be truncated: (0.5, 1.9) built the edge (0, 1),
        # [[True, False]] the edge (0, 1) and [[True, 2]] the edge (1, 2)
        with pytest.raises(ValueError, match="whole numbers within int64"):
            Graph(3, edges, vertex_ids=vertex_ids)

    def test_indices_of_rejects_non_integer_labels(self):
        # [0.5, 2.9] used to map to rows 0 and 2
        for g in (Graph(4, [(0, 1)]), Graph(3, [(10, 12)], vertex_ids=[10, 11, 12])):
            with pytest.raises(ValueError, match="whole numbers"):
                g.indices_of([0.5, 2.9])
            with pytest.raises(ValueError, match="whole numbers"):
                g.indices_of(np.array([10.0, float("nan")]))
        assert np.array_equal(Graph(4, []).indices_of([3.0, 1.0]), [3, 1])
        relabelled = Graph(3, [], vertex_ids=[10, 11, 12])
        assert np.array_equal(relabelled.indices_of(np.array([12, 10], dtype=np.uint8)), [2, 0])

    def test_integers_of_any_width_and_whole_floats_build_the_same_graph(self):
        ref = Graph(4, [(0, 1), (1, 3), (2, 3)])
        canonical = np.array([(0, 1), (1, 3), (2, 3)])
        for edges in (canonical[::-1], canonical):
            for dtype in (np.int8, np.uint16, np.int32, np.uint64, np.int64, np.float32, np.float64):
                assert_same_graph(Graph(4, edges.astype(dtype)), ref)
            assert_same_graph(Graph(4, edges.astype(object)), ref)
            assert_same_graph(Graph(4, edges.astype(float).tolist()), ref)
        relabelled = Graph(4, [(10, 11), (11, 13), (12, 13)], vertex_ids=[10, 11, 12, 13])
        assert Graph(4, canonical + 10.0, vertex_ids=np.arange(10.0, 14.0)) == relabelled
        assert Graph(4, canonical + 10, vertex_ids=np.arange(10, 14, dtype=np.uint8)) == relabelled


class TestCanonicalCsr:
    """Every route to a graph gives scipy's COO -> CSR, array for array, for
    its stored upper triangle and for the symmetric CSR a swept solve builds
    from it; its products and degrees are those of the dense adjacency."""

    CASES = ("n0", "n1", "edgeless", "isolated", "star", "complete", "small-sbm", "alpha50-n2000")
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
            "edgeless": (6, []),
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
        labels = 3 * np.arange(n) + 5
        routes = {
            "Graph": Graph(n, canonical),
            "non-contiguous": Graph(n, labels[canonical], vertex_ids=labels[::-1]),
            "_from_upper": Graph._from_upper(np.arange(n, dtype=np.int64), graphs._upper_csr(
                n, np.bincount(canonical[:, 0], minlength=n), canonical[:, 1].copy())),
            "load_graph": load_graph(path),
            "induced_subgraph": self.embedded(n, canonical),
        }
        if name in self.SAMPLED:
            routes["sample_sbm"] = sample_sbm(*self.SAMPLED[name])[0]
        for route, graph in routes.items():
            # the references are built from graph.edges, so pin those to the input first
            assert np.array_equal(graph.indices_of(graph.edges), canonical), route
            stores = {
                "upper": (graph.upper, reference_upper(graph)),
                "symmetric": (solver._symmetric(graph.upper), reference_adjacency(graph)),
            }
            for store, (csr, ref) in stores.items():
                assert csr.shape == (n, n), (route, store)
                assert csr.has_canonical_format, (route, store)
                for field in ("indptr", "indices", "data"):
                    x, y = getattr(csr, field), getattr(ref, field)
                    assert x.dtype == y.dtype and np.array_equal(x, y), (route, store, field)
            # integer-valued input: every product is exact, so equality is exact
            dense = dense_adjacency(graph)
            x = np.arange(n) % 7 - 3.0
            block = np.column_stack([x, x[::-1], np.ones(n)])
            assert np.array_equal(graph.matvec(x), dense @ x), route
            assert np.array_equal(graph.matvec(block), dense @ block), route
            assert graph.degrees.dtype == np.int64, route
            assert np.array_equal(graph.degrees, dense.sum(axis=1)), route


class TestIndexWidth:
    """Every route builds the CSR in scipy's index width (int32 while n and m
    fit) from its first per-edge array; the result is the CSR of the int64
    route, in which scipy copied int64 index arrays down."""

    @staticmethod
    def int64_route(graph):
        """The upper triangle through int64 row pointer and columns, as scipy downcasts them."""
        rows = graph.indices_of(graph.edges).astype(np.int64)
        n = graph.num_vertices
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[:, 0], minlength=n), out=indptr[1:])
        return sp.csr_matrix((np.ones(rows.shape[0]), rows[:, 1].copy(), indptr), shape=(n, n))

    def test_every_route_is_int32(self, tmp_path):
        sampled, _ = sample_sbm(LogScaleParams(50, 1, 2000).to_sbm_params(), seed=4)
        path = tmp_path / "g.edges"
        save_graph(sampled, path)
        n = sampled.num_vertices
        routes = {
            "sample_sbm": sampled,
            "load_graph": load_graph(path),
            "Graph": Graph(n, sampled.edges),
            "Graph-int32": Graph(n, sampled.edges.astype(np.int32)),
            "induced_subgraph": induced_subgraph(sampled, np.arange(0, n, 3)),
        }
        for route, graph in routes.items():
            up, ref = graph.upper, self.int64_route(graph)
            assert graph.edge_count > 10_000, route
            assert up.indptr.dtype == up.indices.dtype == np.int32, route
            assert up.data.dtype == np.float64, route
            for field in ("indptr", "indices", "data"):
                x, y = getattr(up, field), getattr(ref, field)
                assert x.dtype == y.dtype and np.array_equal(x, y), (route, field)
            assert up.indices.flags.c_contiguous, route
        # the canonical branch copies the columns: the caller's array stays the caller's
        edges = np.array([[0, 1]], dtype=np.int32)
        g = Graph(2, edges)
        edges[0, 1] = 0
        assert g.upper.indices.tolist() == [1]

    def test_width_follows_n_and_m(self):
        assert graphs._index_dtype(0, 0) == np.int32
        assert graphs._index_dtype(2**31 - 1, 2**31 - 1) == np.int32
        assert graphs._index_dtype(2**31, 0) == np.int64
        assert graphs._index_dtype(5, 2**31) == np.int64
        # columns of another width are converted to it
        upper = graphs._upper_csr(3, np.array([1, 1, 0]), np.array([2, 2], dtype=np.uint64))
        assert upper.indices.dtype == upper.indptr.dtype == np.int32
        assert upper.indices.tolist() == [2, 2] and upper.indptr.tolist() == [0, 1, 2, 2]


class TestOneStore:
    """A graph stores its upper triangle and nothing else; A is applied from it."""

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
        assert g.degrees.sum() == 2 * g.edge_count
        g.matvec(np.ones((55, 2)))
        assert built == []
        assert not hasattr(g, "adjacency") and not hasattr(graphs, "_symmetric")
        # the one store: U.T is applied from U's own arrays, never made
        assert set(vars(g)) == {"_ids", "_upper"}

    @pytest.mark.parametrize("dup", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_keep_one_store(self, dup):
        g, _ = sample_sbm(LogScaleParams(50, 1, 2000).to_sbm_params(), seed=2)
        sub = induced_subgraph(g, np.arange(1, 2000, 2))
        for graph in (g, sub, Graph(0), Graph(3, [(7, 3)], vertex_ids=[7, 3, 5])):
            twin = dup(graph)
            assert_same_graph(twin, graph)
            assert set(vars(twin)) == {"_ids", "_upper"}
            assert not twin.vertex_ids.flags.writeable
            assert np.array_equal(twin.matvec(np.ones(graph.num_vertices)), graph.degrees)
        # the pickle holds the CSR once (it held it twice, through the transposed view)
        csr = sum(getattr(g.upper, name).nbytes for name in ("data", "indices", "indptr"))
        assert len(pickle.dumps(g)) < 1.2 * csr

    def test_degrees_are_counted_afresh_in_linear_memory(self):
        g, _ = sample_sbm(LogScaleParams(50, 1, 2000).to_sbm_params(), seed=2)
        n = g.num_vertices
        tracemalloc.start()
        try:
            degrees = g.degrees
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.degrees is not degrees  # no cache
        assert np.array_equal(degrees, dense_adjacency(g).sum(axis=1))
        assert degrees.sum() == 2 * g.edge_count
        # a few length-n arrays; one integer per edge alone would be 8 * m
        assert g.edge_count > 100_000
        assert peak <= 4 * 8 * n + 4096


def same_bits(x, y):
    """True when two float64 arrays hold the same values, bit for bit."""
    return x.dtype == y.dtype == np.float64 and x.shape == y.shape and np.array_equal(
        x.view(np.int64), y.view(np.int64))


def int64_copy(graph):
    """The graph on int64 copies of its CSR arrays, through the trusted constructor.

    scipy's constructor would narrow the arrays back to int32, so they are set afterwards.
    """
    wide = graph.upper.copy()
    wide.indices = wide.indices.astype(np.int64)
    wide.indptr = wide.indptr.astype(np.int64)
    assert wide.indices.dtype == wide.indptr.dtype == np.int64
    return Graph._from_upper(graph.vertex_ids, wide)


class TestKernelPath:
    """Products with A call scipy's kernels directly and give the bits of scipy's ``@``."""

    GRAPHS = {
        "sbm": lambda: sample_sbm(LogScaleParams(4, 1, 400).to_sbm_params(), seed=7)[0],
        "n=0": lambda: Graph(0),
        "n=1": lambda: Graph(1),
        "edgeless": lambda: Graph(9),
        "labelled": lambda: Graph(4, [(7, 3), (3, 5), (5, 9)], vertex_ids=[9, 7, 5, 3]),
    }

    @staticmethod
    def operands(n, rng):
        x = rng.standard_normal((n, 3))
        return {
            "float64": x[:, 0].copy(),
            "int8": np.where(x[:, 0] >= 0, 1, -1).astype(np.int8),
            "column": x[:, :1].copy(),
            "C block": x,
            "F block": np.asfortranarray(x),
            "strided": x[:, 1],
            "empty block": x[:, :0],
        }

    @pytest.mark.parametrize("width", ["int32", "int64"])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_matvec_and_degrees_are_scipys_bits(self, name, width):
        graph = self.GRAPHS[name]()
        if width == "int64":
            graph = int64_copy(graph)
        up = graph.upper
        n = graph.num_vertices
        for kind, x in self.operands(n, np.random.default_rng(3)).items():
            assert same_bits(graph.matvec(x), up @ x + up.T @ x), (name, width, kind)
        counts = up.T @ np.ones(n) + np.diff(up.indptr)
        assert np.array_equal(graph.degrees, counts.astype(np.int64))
        assert np.array_equal(graph.degrees, dense_adjacency(graph).sum(axis=1))

    def test_triangle_product_is_scipys_bits(self):
        graph = self.GRAPHS["sbm"]()
        g = np.where(np.random.default_rng(5).random(graph.num_vertices) < 0.5, 1.0, -1.0)
        up = graph.upper
        assert same_bits(graphs._csr_product(up.indptr, up.indices, up.data, graph.num_vertices, g), up @ g)

    @pytest.mark.parametrize("shape", [(5,), (5, 2), (7, 2, 1), ()])
    def test_wrong_shapes_are_refused(self, shape):
        graph = Graph(6, [(0, 1), (4, 5)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            graph.matvec(np.ones(shape))

    def test_out_is_zeroed_and_filled(self):
        graph = self.GRAPHS["sbm"]()
        up, n = graph.upper, graph.num_vertices
        x = np.random.default_rng(1).standard_normal((n, 2))
        out = np.full((n, 2), np.nan)
        got = graphs._csr_product(up.indptr, up.indices, up.data, n, x, out=out)
        assert got is out and same_bits(out, up @ x)
        with pytest.raises(ValueError, match="out has shape"):
            graphs._csr_product(up.indptr, up.indices, up.data, n, x, out=out[1:])


class TestPartition:
    def test_side_map(self):
        p = Partition([3, 1, 2], [1, -1, 1])
        assert list(p.ids) == [1, 2, 3]
        assert p == sides([2, 3], [1])
        assert p.sign_of(1) == -1
        assert np.count_nonzero(p.signs == 1) == 2 and np.count_nonzero(p.signs == -1) == 1

    def test_invalid_signs(self):
        with pytest.raises(ValueError):
            Partition([0, 1], [1, 2])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Partition([0, 0], [1, 1])

    def test_non_integer_ids_and_signs_raise(self):
        # Partition([0.5, 1.5], [1, -1]) used to hold the ids [0, 1], and a sign of 1.5 read as 1
        with pytest.raises(ValueError, match="ids must be whole numbers"):
            Partition([0.5, 1.5], [1, -1])
        with pytest.raises(ValueError, match="ids must be whole numbers"):
            Partition(np.array([2**63], dtype=np.uint64), [1])  # used to wrap to -2**63
        with pytest.raises(ValueError, match="signs must be whole numbers"):
            Partition([0, 1], [1.5, -1])
        # a boolean is not a label or a sign: [True, True] used to be a +2/-0 cut
        with pytest.raises(ValueError, match="signs must be whole numbers"):
            Partition([0, 1], [True, True])
        with pytest.raises(ValueError, match="ids must be whole numbers"):
            Partition(np.array([False, True]), [1, -1])
        # nor is a boolean element of a list or an object array: these were a +1/-1 cut
        for signs in ([True, -1], np.array([True, -1], dtype=object), [np.True_, -1]):
            with pytest.raises(ValueError, match="signs must be whole numbers"):
                Partition(np.array([0, 1]), signs)
        with pytest.raises(ValueError, match="ids must be whole numbers"):
            Partition([0, True], [1, -1])
        assert Partition([1.0, 0.0], [-1.0, 1.0]) == sides([0], [1])
        assert Partition(np.array([0, 1], dtype=object), np.array([1, -1], dtype=object)) == sides([0], [1])

    def test_sign_vector_alignment(self):
        g = Graph(3, [(0, 1)])
        p = Partition([0, 1, 2], [1, -1, 1])
        assert repr(p) == "Partition(n=3, +2/-1)"
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
        p = sides([0, 2], [1, 3])
        r = p.restrict([0, 1])
        assert r == sides([0], [1])
        assert list(p.side_vertices(1)) == [0, 2]
        with pytest.raises(KeyError):
            p.restrict([9])
        # empty domain: the empty restriction is empty, any vertex is unknown
        empty = Partition([], [])
        assert len(empty.restrict([])) == 0
        with pytest.raises(KeyError):
            empty.restrict([0])
        # non-contiguous labels: unsorted, repeated input restricts by label
        sparse = sides([10, 42], [7, 99])
        assert sparse.restrict([99, 10, 99]) == sides([10], [99])
        assert sparse.restrict(v for v in (99, 10)) == sparse.restrict({10, 99})
        assert sparse.restrict(np.int64(42)) == sparse.restrict(42) == sides([42], [])
        assert len(sparse.restrict([])) == 0
        for outside in ([8], [0], [100], [-1]):
            with pytest.raises(KeyError):
                sparse.restrict(outside)

    def test_missing_vertex(self):
        with pytest.raises(KeyError):
            Partition([0], [1]).sign_of(4)

    def test_restrict_rejects_non_integer_labels(self):
        # [0.2, 2.9] used to restrict to the vertices 0 and 2
        p = sides([0, 2], [1, 3])
        with pytest.raises(ValueError, match="vertices must be whole numbers"):
            p.restrict([0.2, 2.9])
        assert p.restrict([2.0, 0.0]) == sides([0, 2], [])


class TestSampleSbm:
    def test_degenerate_rates_force_graph(self):
        g, planted = sample_sbm(SbmParams(2, 2, 1.0, 0.0), seed=123)
        assert edge_set(g) == {(0, 1), (2, 3)}
        assert planted == sides([0, 1], [2, 3])

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
        assert np.array_equal(dense_adjacency(g), reference_adjacency(g).toarray())

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
        # Graph._from_upper trusts the CSR built from these rows: row i's
        # columns lie in i+1..n-1, keys increasing
        rows = []
        build = graphs._upper_csr

        def spy(n, counts, hi):
            rows.append((n, counts.copy(), hi.copy()))
            return build(n, counts, hi)

        monkeypatch.setattr(graphs, "_upper_csr", spy)
        sample_sbm(params, seed=3)
        [(n, counts, hi)] = rows
        assert n == params.n and counts.dtype == np.int64 and hi.dtype == np.int32
        assert counts.shape == (n,) and np.all(counts >= 0) and counts.sum() == hi.size
        lo = np.repeat(np.arange(n), counts)
        assert np.all(lo < hi) and np.all(hi < n)
        assert np.all(np.diff(lo * n + hi) > 0)

    def test_sampler_memory_is_the_csr_and_little_more(self):
        params = LogScaleParams(50, 1, 6000).to_sbm_params()
        tracemalloc.start()
        try:
            g, _ = sample_sbm(params, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 600_000
        # the CSR alone is 12 bytes per edge (int32 columns, float64 data);
        # int64 columns and scipy's int32 copy of them peaked at 20.6
        assert peak <= 14 * g.edge_count

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

            def draw(self, method, *args, size):
                size = size if chunk is None else min(size, chunk)
                self.count += size
                self.calls += 1
                return getattr(self.rng, method)(*args, size)

            # gaps below rate 1/3 come from standard exponentials, the rest from geometric
            def geometric(self, rate, size):
                return self.draw("geometric", rate, size=size)

            def standard_exponential(self, size):
                return self.draw("standard_exponential", size=size)

        monkeypatch.setattr(graphs, "_pair_generators", lambda seed: [Spy(g) for g in pair_generators(seed)])
        return spies

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_size_never_matters(self, monkeypatch, chunk):
        # short draws continue from the last position; the edges do not move
        spies = self.spy_generators(monkeypatch, chunk)
        for params in self.CASES[:5] + [SbmParams(40, 33, 0.3, 0.05)]:
            self.check(params, seed=chunk)
        assert all(spy.calls > 1 for spy in spies[-3:])

    # numpy's geometric inverts an exponential below rate 1/3 and searches from 1/3 up
    @pytest.mark.parametrize("rate", [1 / 3, float(np.nextafter(1 / 3, 0)), float(np.nextafter(1 / 3, 1)), 0.34])
    def test_rates_at_the_geometric_branch(self, rate):
        for params in (SbmParams(30, 25, rate, 0.1), SbmParams(25, 30, 0.6, rate)):
            for seed in (0, 5):
                self.check(params, seed)

    @pytest.mark.parametrize("bit_gen", [np.random.MT19937, np.random.Philox, np.random.SFC64],
                             ids=lambda b: b.__name__)
    def test_capped_inversion_draws_with_any_bit_generator(self, monkeypatch, bit_gen):
        # the seed's generator draws the three block pair keys; each pair's
        # exponentials, three at a time here, continue from the last edge
        spies = self.spy_generators(monkeypatch, chunk=3)
        params = SbmParams(25, 20, 0.2, 0.05)
        g, planted = sample_sbm(params, np.random.Generator(bit_gen(17)))
        ref, ref_planted = reference_sample_sbm(params, np.random.Generator(bit_gen(17)))
        assert_same_graph(g, ref)
        assert planted == ref_planted
        assert all(spy.calls > 1 for spy in spies)

    @pytest.mark.parametrize("params", [
        SbmParams(2000, 2000, 1e-7, 1e-7),  # gaps of ~1e7 against 2e6 and 4e6 pairs
        SbmParams(300, 200, 1e-300, 5e-324),  # gaps far past 2**63, or infinite, as floats
    ], ids=repr)
    def test_gaps_past_the_last_pair(self, params):
        edges = 0
        for seed in range(6):
            g, planted = sample_sbm(params, seed)
            ref, ref_planted = reference_sample_sbm(params, seed)
            assert_same_graph(g, ref)
            assert planted == ref_planted
            edges += g.edge_count
        assert edges <= 10  # nearly every first gap passes the last pair

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
                assert np.array_equal(sub.matvec(np.eye(sub.num_vertices)), dense_adjacency(sub))

    def test_labels_survive_nesting(self):
        g, _ = sample_sbm(SbmParams(10, 10, 0.6, 0.2), seed=5)
        sub = induced_subgraph(g, [2, 5, 7, 11, 19])
        sub2 = induced_subgraph(sub, [5, 11, 19])
        assert list(sub2.vertex_ids) == [5, 11, 19]
        assert edge_set(sub2) <= edge_set(g)

    def test_non_integer_labels_raise(self):
        # [0.5, 1.9, 2.2] used to induce the subgraph on 0, 1 and 2
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="vertices must be whole numbers"):
            induced_subgraph(path, [0.5, 1.9, 2.2])
        with pytest.raises(ValueError, match="vertices must be whole numbers"):
            induced_subgraph(path, ["1", "2"])
        with pytest.raises(ValueError, match="vertices must be whole numbers"):
            induced_subgraph(path, [True, False])
        assert edge_set(induced_subgraph(path, np.array([2.0, 3.0, 0.0]))) == {(2, 3)}
        assert induced_subgraph(path, (v for v in (3, 2, 0))) == induced_subgraph(path, [0, 2, 3])
        assert induced_subgraph(path, 2) == induced_subgraph(path, [2.0])

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

    def test_clamping_warning_is_readable(self):
        # p used to be printed with every one of its 300 integer digits
        with pytest.warns(UserWarning) as caught:
            LogScaleParams(1e300, 1, 20).to_sbm_params()
        assert str(caught[0].message) == "edge rate exceeds 1 at n=20 (p=1.498e+299, q=0.1498); clamping to 1"

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

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 2), (math.nan, 2), (10, math.inf), (10, math.nan)])
    def test_non_finite_rates_rejected(self, alpha, beta):
        want = f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}"
        with pytest.raises(ValueError) as exc:
            LogScaleParams(alpha, beta, 400)
        assert str(exc.value) == want

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

    @pytest.mark.parametrize("big", [2**31 - 1, 2**31, 2**32])
    def test_id_past_int32_is_named(self, tmp_path, big):
        # the body is parsed as int32 for n = 3: an id too wide for that is out of range
        path = self.write(tmp_path, f"n 3\n0 1\n1 {big}\n")
        with pytest.raises(ValueError, match=f"line 3: vertex id {big} outside 0..2"):
            load_graph(path)

    def test_partition_labels_past_int32_load(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text(f"0 1\n{2**40} -1\n{2**31} 1\n")
        p = load_partition(path)
        assert p == Partition([0, 2**40, 2**31], [1, -1, 1])
        assert p.ids.dtype == np.int64 and p.ids.tolist() == [0, 2**31, 2**40]

    # None of these counts can be allocated: 8 PB and more exceed the address
    # space, and numpy refuses such an array before asking for memory.
    @pytest.mark.parametrize("count, message", [
        (2**63, "line 1: vertex count exceeds the int64 maximum"),
        (10**20, "line 1: vertex count exceeds the int64 maximum"),
        (2**63 - 1, None),
        (10**15, None),
    ], ids=["int64_max_plus_1", "1e20", "int64_max", "1e15"])
    def test_count_the_machine_cannot_hold_is_a_cli_error(self, tmp_path, capsys, count, message):
        path = self.write(tmp_path, f"n {count}\n")
        cut = tmp_path / "cut"
        cut.write_text("0 1\n")
        code = cli.main(["certify", str(path), str(cut), "--mu", "0.5"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err
        if message is None:  # numpy's own words; no line is malformed
            assert "malformed" not in err and "line" not in err
        else:
            assert err == f"error: {message}\n"
            with pytest.raises(ValueError, match=f"^{message}$"):
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
        assert loaded.edge_count > 400_000
        # int32 rows (8 bytes per edge), their columns' copy and the CSR's data:
        # about 20; int64 rows and key arrays peaked at 44, the text and its lines far above
        assert peak <= 24 * loaded.edge_count

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
        adj = reference_adjacency(g)  # the yardstick: a symmetric CSR of the graph
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
