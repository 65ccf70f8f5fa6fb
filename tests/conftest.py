"""Shared test helpers.

The dense constructions here rebuild matrices from ``graph.edges`` with
plain numpy, so that the matrix-free solver and certificate paths are
checked against a second route. They are not independent of the graph
store: ``edges`` is read off the CSR adjacency, so a test of graph
construction needs a reference built from its own input.
"""

import numpy as np
import pytest


def dense_adjacency(graph):
    n = graph.num_vertices
    ids = {int(v): i for i, v in enumerate(graph.vertex_ids)}
    a = np.zeros((n, n))
    for u, v in graph.edges:
        i, j = ids[int(u)], ids[int(v)]
        a[i, j] = a[j, i] = 1.0
    return a


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


def recording_loop(monkeypatch, module):
    """Replace ``module._lanczos_bottom`` by a copy that records its checkpoints."""
    checkpoints = []
    loop = module._lanczos_bottom

    def recording(*args, **kwargs):
        for checkpoint in loop(*args, **kwargs):
            checkpoints.append(checkpoint)
            yield checkpoint

    monkeypatch.setattr(module, "_lanczos_bottom", recording)
    return checkpoints


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


def reference_sample_sbm(params, seed):
    """Block-model sampler by enumeration of all n(n-1)/2 pairs at once.

    This is the straightforward O(n^2)-memory formulation: one uniform per
    i < j pair in lexicographic order, kept when below the pair's rate.
    ``sample_sbm`` must return exactly this graph and partition.
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
    """Symmetric CSR built from both edge orientations, then row-sorted."""
    import scipy.sparse as sp

    rows = graph.indices_of(graph.edges)
    m = rows.shape[0]
    r = np.concatenate([rows[:, 0], rows[:, 1]])
    c = np.concatenate([rows[:, 1], rows[:, 0]])
    n = graph.num_vertices
    adj = sp.csr_matrix((np.ones(2 * m), (r, c)), shape=(n, n))
    adj.sort_indices()
    return adj


def assert_same_graph(a, b):
    """Equal labels, edges, CSR arrays (values and dtypes) and degrees."""
    assert a == b
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a.adjacency, name), getattr(b.adjacency, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert np.array_equal(a.degrees, b.degrees)


def reference_solve_sdp(graph, mu, config=None):
    """Mixing-method solver with the per-vertex sweep written out plainly.

    Each vertex slices its neighbours out of the CSR arrays, gathers their
    rows by fancy indexing, sums them with ``.sum(axis=0)`` and normalizes
    with ``np.linalg.norm``. Initialization, stopping rule, monotonicity
    guard and rounding are those of ``solve_sdp``, which must return
    exactly this solution, float for float.
    """
    from sketchbisect import Partition, SolverConfig
    from sketchbisect.solver import _STALL_NORM, SdpSolution

    if config is None:
        config = SolverConfig()
    n = graph.num_vertices
    mu = float(mu)
    r = config.resolve_rank(n)

    rng = np.random.default_rng(config.seed)
    V = rng.standard_normal((n, r))
    norms = np.linalg.norm(V, axis=1)
    while np.any(norms < _STALL_NORM):
        V[norms < _STALL_NORM] = rng.standard_normal((int((norms < _STALL_NORM).sum()), r))
        norms = np.linalg.norm(V, axis=1)
    V /= norms[:, None]

    adj = graph.adjacency
    indptr, indices = adj.indptr, adj.indices

    def objective(W):
        s = W.sum(axis=0)
        return float((W * (adj @ W)).sum() - mu * (s @ s))

    obj = objective(V)
    history = [obj]
    running = V.sum(axis=0)
    converged = False
    sweeps_used = 0
    for sweep in range(1, config.max_sweeps + 1):
        sweeps_used = sweep
        for i in range(n):
            row = V[i]
            c = V[indices[indptr[i]:indptr[i + 1]]].sum(axis=0)
            c -= mu * (running - row)
            nc = np.linalg.norm(c)
            if nc < _STALL_NORM:
                continue
            c /= nc
            running += c - row
            V[i] = c
        running = V.sum(axis=0)
        new_obj = objective(V)
        if new_obj < obj - 1e-8 * (1.0 + abs(new_obj)):
            raise RuntimeError("coordinate ascent lost monotonicity")
        gain = new_obj - obj
        obj = new_obj
        history.append(obj)
        if gain < config.objective_tolerance * (1.0 + abs(obj)):
            converged = True
            break

    u, s, _ = np.linalg.svd(V, full_matrices=False)
    signs = np.where(u[:, 0] >= 0.0, 1, -1).astype(np.int8)
    if signs[0] < 0:
        signs = -signs
    gap = 1.0 - (float(s[0]) * float(s[0])) / n
    return SdpSolution(
        factors=V,
        objective=obj,
        rounded_cut=Partition(graph.vertex_ids, signs),
        rank_one_gap=float(min(max(gap, 0.0), 1.0)),
        sweeps_used=sweeps_used,
        converged=converged,
        sweep_objectives=history,
    )
