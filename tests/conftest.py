"""Shared test helpers.

The dense constructions here start from ``dense_adjacency``, the one
dense oracle of A: the graph's upper triangle made dense and added to its
transpose with plain numpy, so that ``Graph.matvec`` and the matrix-free
solver and certificate paths are checked against a second route. It is
not independent of the graph store, so a test of graph construction needs
a reference built from its own input.
"""

import functools

import numpy as np
import pytest


def dense_adjacency(graph):
    """A = U + U^T as a dense float array, rows in ``vertex_ids`` order."""
    u = graph.upper.toarray()
    return u + u.T


def dense_objective(graph, mu):
    n = graph.num_vertices
    return dense_adjacency(graph) - mu * np.ones((n, n))


def dense_certificate(graph, partition, mu):
    """Z = D_in - D_out - mu*(n1 - n2)*diag(g) - A + mu*J, built densely."""
    n = graph.num_vertices
    a = dense_adjacency(graph)
    g = np.array([partition.sign_of(int(v)) for v in graph.vertex_ids], dtype=float)
    d_in = np.zeros(n)
    d_out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if a[i, j]:
                if g[i] == g[j]:
                    d_in[i] += 1
                else:
                    d_out[i] += 1
    n1 = int((g > 0).sum())
    n2 = n - n1
    return (
        np.diag(d_in - d_out - mu * (n1 - n2) * g)
        - a
        + mu * np.ones((n, n))
    )


def sides(plus, minus):
    """The cut with the labels ``plus`` on side +1 and ``minus`` on side -1."""
    from sketchbisect import Partition

    plus, minus = list(plus), list(minus)
    return Partition(plus + minus, [1] * len(plus) + [-1] * len(minus))


def recording_loop(monkeypatch, module):
    """Replace ``module._lanczos_bottom`` by a copy that records its checkpoints.

    A checkpoint is a step at which the caller asks for the explicit Ritz
    pair, recorded as (steps taken, operator applications so far: one per
    step and one per Ritz pair, the pair or None).
    """
    checkpoints = []
    loop = module._lanczos_bottom

    def record(step, ritz):
        pair = ritz()
        checks = sum(r is not None for _, _, r in checkpoints) + (pair is not None)
        checkpoints.append((step.k, step.k + checks, pair))
        return pair

    def recording(*args, **kwargs):
        for step in loop(*args, **kwargs):
            step.ritz = functools.partial(record, step, step.ritz)
            yield step

    monkeypatch.setattr(module, "_lanczos_bottom", recording)
    return checkpoints


def spy_symmetric_builds(monkeypatch):
    """Record the vertex count of every symmetric CSR adjacency built from here on.

    The swept solve is the one place that builds one.
    """
    from sketchbisect import solver

    built = []
    symmetric = solver._symmetric

    def spy(upper):
        built.append(upper.shape[0])
        return symmetric(upper)

    monkeypatch.setattr(solver, "_symmetric", spy)
    return built


@pytest.fixture
def two_triangles():
    from sketchbisect import Graph, Partition

    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    planted = Partition(range(6), [1, 1, 1, -1, -1, -1])
    return g, planted


@pytest.fixture
def k22_cross():
    """Complete bipartite K_{2,2} with the planted cut across the bipartition."""
    from sketchbisect import Graph, Partition

    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    planted = Partition(range(4), [1, 1, -1, -1])
    return g, planted


def random_test_graph(rng, n, p):
    """Plain G(n, p) built directly from pair coin flips."""
    from sketchbisect import Graph

    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def disjoint_union(*parts):
    """The graphs side by side, each relabelled past the vertices before it."""
    from sketchbisect import Graph

    offsets = np.cumsum([0] + [g.num_vertices for g in parts])
    return Graph(int(offsets[-1]), np.concatenate([g.edges + k for g, k in zip(parts, offsets)]))


def reference_sample_sbm(params, seed):
    """Block-model sampler that draws each edge's geometric gap one at a time.

    Each block pair (inside block 1, across, inside block 2) draws from its
    own generator, seeded by one ``integers(2**63, size=3)`` draw of
    ``np.random.default_rng(seed)``. Its pairs are walked row by row in
    lexicographic order, skipping ``geometric(rate) - 1`` pairs before each
    edge. ``sample_sbm`` must return exactly this graph and partition.
    """
    from sketchbisect import Graph, Partition

    n1, n = params.n1, params.n
    keys = np.random.default_rng(seed).integers(1 << 63, size=3)
    block_pairs = (
        (params.p, range(n1), lambda i: (i + 1, n1)),
        (params.q, range(n1), lambda i: (n1, n)),
        (params.p, range(n1, n), lambda i: (i + 1, n)),
    )
    edges = []
    for key, (rate, rows, columns) in zip(keys, block_pairs):
        if rate == 0.0:
            continue
        rng = np.random.default_rng(int(key))
        skip = int(rng.geometric(rate)) - 1  # pairs passed over before the next edge
        for i in rows:
            start, stop = columns(i)
            j = start + skip
            while j < stop:
                edges.append((i, j))
                j += int(rng.geometric(rate))
            skip = j - stop
    signs = np.ones(n, dtype=np.int8)
    signs[n1:] = -1
    return Graph(n, edges), Partition(np.arange(n), signs)


def pairwise_sample_sbm(params, seed):
    """The block model drawn with one uniform per vertex pair.

    This is the stream ``sample_sbm`` drew before it switched to geometric
    skips: one ``rng.random`` uniform per i < j pair in lexicographic order,
    kept when below the pair's rate, with ``rng = np.random.default_rng(seed)``.
    Tests that pin one particular instance (a reproducer, or a precondition
    on a gap or a sweep count) build their graphs with it, so that their
    data stays what it was. It enumerates every pair: O(n^2) memory.
    """
    from sketchbisect import Graph, Partition

    rng = np.random.default_rng(seed)
    n = params.n
    iu, ju = np.triu_indices(n, k=1)
    same = (iu < params.n1) == (ju < params.n1)
    probs = np.where(same, params.p, params.q)
    keep = rng.random(iu.size) < probs
    graph = Graph(n, np.column_stack([iu[keep], ju[keep]]))
    signs = np.ones(n, dtype=np.int8)
    signs[params.n1:] = -1
    return graph, Partition(np.arange(n), signs)


def reference_adjacency(graph):
    """Symmetric CSR built from both edge orientations, then row-sorted.

    The swept solve's neighbour lists must read exactly this CSR.
    """
    import scipy.sparse as sp

    rows = graph.indices_of(graph.edges)
    m = rows.shape[0]
    r = np.concatenate([rows[:, 0], rows[:, 1]])
    c = np.concatenate([rows[:, 1], rows[:, 0]])
    n = graph.num_vertices
    adj = sp.csr_matrix((np.ones(2 * m), (r, c)), shape=(n, n))
    adj.sort_indices()
    return adj


def reference_upper(graph):
    """CSR of the upper triangle built from the edge list, one entry per edge."""
    import scipy.sparse as sp

    rows = graph.indices_of(graph.edges)
    n = graph.num_vertices
    return sp.csr_matrix((np.ones(rows.shape[0]), (rows[:, 0], rows[:, 1])), shape=(n, n))


def assert_same_graph(a, b):
    """Equal labels, edges, upper-triangle CSR arrays (values and dtypes) and degrees."""
    assert a == b
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a.upper, name), getattr(b.upper, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert np.array_equal(a.degrees, b.degrees)


def reference_solve_sdp(graph, mu, config=None):
    """Mixing-method solver with the per-vertex sweep written out plainly.

    Each factor row is one Python complex number, real part first. At the
    start of every sweep R is the sum of all rows, taken left to right.
    Vertex i, in index order, starts from 0j and adds, in ascending order,
    its neighbours outside its block of ``solver._BLOCK`` consecutive
    vertices, then its neighbours inside the block, then mu*(z_i - R).
    Neighbours before i already carry this sweep's rows. Unless that sum c
    is shorter than the stall norm, the row becomes c/|c| and R gains the
    change of the row. The rank (2), the stopping rule (gain below
    1e-9 * (1 + |objective|)), initialization, monotonicity guard and
    rounding are those of ``solve_sdp``, which must return exactly this
    solution, float for float.

    Returns the solution and, on their own, the objectives of the seeded
    start and after every sweep: entry k is the objective that
    ``solve_sdp`` reports at a budget of k sweeps.
    """
    from sketchbisect import Partition, SolverConfig
    from sketchbisect.solver import _BLOCK, _STALL_NORM, SdpSolution

    if config is None:
        config = SolverConfig()
    n = graph.num_vertices
    mu = float(mu)
    r = 2

    rng = np.random.default_rng(config.seed)
    V = rng.standard_normal((n, r))
    norms = np.linalg.norm(V, axis=1)
    while np.any(norms < _STALL_NORM):
        V[norms < _STALL_NORM] = rng.standard_normal((int((norms < _STALL_NORM).sum()), r))
        norms = np.linalg.norm(V, axis=1)
    V /= norms[:, None]
    z = [complex(x, y) for x, y in V.tolist()]

    adj = reference_adjacency(graph)
    neighbours = [adj.indices[adj.indptr[i]:adj.indptr[i + 1]].tolist() for i in range(n)]

    def factors():
        return np.array([[w.real, w.imag] for w in z])

    def objective(W):
        s = W.sum(axis=0)
        return float((W * (adj @ W)).sum() - mu * (s @ s))

    obj = objective(factors())
    history = [obj]
    converged = False
    sweeps_used = 0
    for sweep in range(1, config.max_sweeps + 1):
        sweeps_used = sweep
        R = 0j
        for w in z:
            R += w
        for i in range(n):
            block = i // _BLOCK
            c = 0j
            for j in neighbours[i]:
                if j // _BLOCK != block:
                    c += z[j]
            for j in neighbours[i]:
                if j // _BLOCK == block:
                    c += z[j]
            c += mu * (z[i] - R)
            if abs(c) < _STALL_NORM:
                continue
            new = c / abs(c)
            R += new - z[i]
            z[i] = new
        new_obj = objective(factors())
        if new_obj < obj - 1e-8 * (1.0 + abs(new_obj)):
            raise RuntimeError("coordinate ascent lost monotonicity")
        gain = new_obj - obj
        obj = new_obj
        history.append(obj)
        if gain < 1e-9 * (1.0 + abs(obj)):
            converged = True
            break

    V = factors()
    u, s, _ = np.linalg.svd(V, full_matrices=False)
    signs = np.where(u[:, 0] >= 0.0, 1, -1).astype(np.int8)
    if signs[0] < 0:
        signs = -signs
    gap = 1.0 - (float(s[0]) * float(s[0])) / n
    solution = SdpSolution(
        factors=V,
        objective=obj,
        rounded_cut=Partition(graph.vertex_ids, signs),
        rank_one_gap=float(min(max(gap, 0.0), 1.0)),
        sweeps_used=sweeps_used,
        converged=converged,
    )
    return solution, history
