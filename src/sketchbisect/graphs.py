"""Stochastic block model graphs, vertex sketches, and edge-list I/O.

Graphs are simple and undirected. Every vertex carries a stable integer
label: induced subgraphs keep the labels of the parent graph, which lets
a cut found on a sketch be compared against, or extended to, the full
vertex set without any index translation. A graph stores its labels and
its CSR adjacency only; the edge list is derived from the CSR on demand.
"""

import math
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Pairs whose uniforms sample_sbm draws and tests at once (2 MiB of doubles).
_PAIR_BLOCK = 1 << 18
# Edges formatted per write by save_graph.
_WRITE_ROWS = 1 << 16
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class SbmParams:
    """Two-block stochastic block model with intra-rate p and inter-rate q."""

    n1: int
    n2: int
    p: float
    q: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("block sizes must be positive")
        for name in ("p", "q"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {r}")

    @property
    def n(self):
        return self.n1 + self.n2


@dataclass(frozen=True)
class LogScaleParams:
    """Edge rates on the logarithmic scale: p = alpha*ln(n)/n, q = beta*ln(n)/n.

    This is the scaling regime where exact recovery of the planted cut has a
    sharp threshold, so experiment grids are expressed in (alpha, beta).
    """

    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")

    def to_sbm_params(self, n1=None, n2=None):
        """Convert to raw rates, clamping to [0, 1] with a warning.

        By default the two blocks split ``n`` evenly (``n`` must then be
        even); pass ``n1`` and ``n2`` for an unbalanced split with
        n1 + n2 == n.
        """
        if n1 is None and n2 is None:
            if self.n % 2:
                raise ValueError("n must be even for a balanced split")
            n1 = n2 = self.n // 2
        elif n1 is None or n2 is None or n1 + n2 != self.n:
            raise ValueError("n1 and n2 must be given together and sum to n")
        scale = math.log(self.n) / self.n
        p = self.alpha * scale
        q = self.beta * scale
        if p > 1.0 or q > 1.0:
            warnings.warn(
                f"edge rate exceeds 1 at n={self.n} "
                f"(p={p:.4f}, q={q:.4f}); clamping to 1",
                stacklevel=2,
            )
            p = min(p, 1.0)
            q = min(q, 1.0)
        return SbmParams(n1=n1, n2=n2, p=p, q=q)


def usable_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _sorted_unique(values):
    """np.unique of a 1-d array by one sort.

    numpy 2.4's hash-based np.unique took 0.9 s on 665k int64 keys that
    this sorts and dedups in 0.015 s.
    """
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


def _rows_of(ids, vertices):
    """Positions of labels in the sorted label array ``ids``; KeyError if absent."""
    v = np.asarray(vertices, dtype=np.int64)
    n = ids.shape[0]
    # sorted distinct labels spanning 0..n-1 are exactly arange(n)
    if n == 0 or (ids[0] == 0 and ids[-1] == n - 1):
        ok = (v >= 0) & (v < n)
        pos = v.copy()
    else:
        pos = np.searchsorted(ids, v)
        ok = (pos < n) & (ids[np.minimum(pos, n - 1)] == v)
    if not np.all(ok):
        bad = v[~ok]
        raise KeyError(f"unknown vertex id(s): {bad[:5].tolist()}")
    return pos


def _canonical_csr(n, lo, hi):
    """Symmetric 0/1 CSR adjacency from canonical edge rows (lo < hi)."""
    # Lower-triangle entries first: a stable COO -> CSR pass then leaves
    # every row's columns sorted, so no per-row sort runs.
    m = lo.shape[0]
    return sp.csr_matrix(
        (np.ones(2 * m), (np.concatenate([hi, lo]), np.concatenate([lo, hi]))),
        shape=(n, n),
    )


class Graph:
    """Immutable simple undirected graph over labelled vertices.

    ``vertex_ids`` is kept sorted ascending; adjacency rows follow that
    order and neighbor lists are sorted. The CSR adjacency is the only edge
    store: the edge count and the lexicographic (u < v) edge list are read
    off it, so all derived quantities are deterministic functions of the
    edge set.
    """

    def __init__(self, num_vertices, edges=(), vertex_ids=None):
        n = int(num_vertices)
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        if vertex_ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(vertex_ids, dtype=np.int64).copy()
            if ids.shape != (n,):
                raise ValueError("vertex_ids must have length num_vertices")
            ids.sort()
            if n and np.any(np.diff(ids) == 0):
                raise ValueError("duplicate vertex ids")

        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = np.empty((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex ids")
        a = _rows_of(ids, e[:, 0])
        b = _rows_of(ids, e[:, 1])
        if np.any(a == b):
            raise ValueError("self-loops are not allowed")
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        # One int64 key per edge orders rows lexicographically; canonical
        # input (strictly increasing keys) skips the sort.
        key = lo * n + hi
        if np.any(key[1:] <= key[:-1]):
            lo, hi = np.divmod(_sorted_unique(key), n)
        self._install(ids, _canonical_csr(n, lo, hi))

    @classmethod
    def _from_canonical(cls, n, lo, hi):
        """Graph on labels 0..n-1 from canonical edge rows, unchecked.

        The rows must satisfy what ``__init__`` establishes: 0 <= lo < hi < n
        and strictly increasing keys ``lo * n + hi``.
        """
        return cls.__new__(cls)._install(np.arange(n, dtype=np.int64), _canonical_csr(n, lo, hi))

    def _install(self, ids, adj):
        """Store sorted labels and their symmetric CSR adjacency; returns self."""
        self._ids = ids
        self._ids.flags.writeable = False
        self._adj = adj
        self._degrees = np.diff(adj.indptr).astype(np.int64)
        self._degrees.flags.writeable = False
        return self

    @property
    def num_vertices(self):
        return self._ids.shape[0]

    @property
    def vertex_ids(self):
        return self._ids

    @property
    def edge_count(self):
        return self._adj.nnz // 2

    @property
    def edges(self):
        """Label pairs u < v in lexicographic order, read off the CSR's upper triangle."""
        rows = np.repeat(np.arange(self.num_vertices), self._degrees)
        cols = self._adj.indices
        upper = cols > rows
        return self._ids[np.column_stack([rows[upper], cols[upper]])]

    @property
    def adjacency(self):
        """Symmetric 0/1 CSR adjacency; treat as read-only."""
        return self._adj

    @property
    def degrees(self):
        return self._degrees

    def indices_of(self, vertices):
        """Map vertex labels to adjacency row indices (vectorized)."""
        return _rows_of(self._ids, vertices)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._ids, other._ids) and all(
            np.array_equal(getattr(self._adj, k), getattr(other._adj, k)) for k in ("indptr", "indices")
        )

    def __repr__(self):
        return f"Graph(n={self.num_vertices}, m={self.edge_count})"


class Partition:
    """Assignment of each vertex in its domain to side +1 or -1."""

    def __init__(self, ids, signs):
        ids = np.asarray(ids, dtype=np.int64).copy()
        signs = np.asarray(signs, dtype=np.int64)
        if ids.shape != signs.shape or ids.ndim != 1:
            raise ValueError("ids and signs must be matching 1-d arrays")
        if signs.size and not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        order = np.argsort(ids)
        ids = ids[order]
        if ids.size and np.any(np.diff(ids) == 0):
            raise ValueError("duplicate vertex ids")
        self._ids = ids
        self._signs = signs[order].astype(np.int8)
        self._ids.flags.writeable = False
        self._signs.flags.writeable = False

    @classmethod
    def from_sides(cls, plus, minus):
        plus = list(plus)
        minus = list(minus)
        return cls(plus + minus, [1] * len(plus) + [-1] * len(minus))

    @property
    def ids(self):
        return self._ids

    @property
    def signs(self):
        return self._signs

    @property
    def n_plus(self):
        return int(np.count_nonzero(self._signs == 1))

    @property
    def n_minus(self):
        return int(np.count_nonzero(self._signs == -1))

    def __len__(self):
        return self._ids.shape[0]

    def sign_of(self, v):
        pos = np.searchsorted(self._ids, v)
        if pos >= len(self) or self._ids[pos] != v:
            raise KeyError(f"vertex {v} not in partition")
        return int(self._signs[pos])

    def side_vertices(self, sign):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self._ids[self._signs == sign]

    def sign_vector(self, graph):
        """Signs as a float vector aligned with graph.vertex_ids."""
        if not np.array_equal(self._ids, graph.vertex_ids):
            raise ValueError("partition domain does not match graph vertices")
        return self._signs.astype(np.float64)

    def restrict(self, vertices):
        v = np.unique(np.asarray(vertices, dtype=np.int64))
        pos = np.searchsorted(self._ids, v)
        ok = (pos < len(self)) & (self._ids[np.minimum(pos, max(len(self) - 1, 0))] == v) if len(self) else np.zeros(v.shape, bool)
        if not np.all(ok):
            raise KeyError("restriction outside partition domain")
        return Partition(v, self._signs[pos])

    def equals_up_to_flip(self, other):
        """True when both cuts agree exactly or after a global sign flip."""
        if not np.array_equal(self._ids, other._ids):
            return False
        return np.array_equal(self._signs, other._signs) or np.array_equal(
            self._signs, -other._signs
        )

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self._ids, other._ids) and np.array_equal(
            self._signs, other._signs
        )

    def __repr__(self):
        return f"Partition(n={len(self)}, +{self.n_plus}/-{self.n_minus})"


def _sample_rows(state, bounds, offsets, n1, p, q):
    """Edges among the pairs of rows ``bounds[0]`` to ``bounds[-1] - 1``.

    ``state`` is the PCG64 state at the first pair of the whole draw; it is
    advanced to pair ``offsets[bounds[0]]`` and the row blocks between
    consecutive ``bounds`` are drawn in turn into one reused buffer.
    Returns one canonical ``(i, j)`` pair of arrays per block.
    """
    bit_gen = np.random.PCG64(0)
    bit_gen.state = state
    bit_gen.advance(int(offsets[bounds[0]]))
    rng = np.random.Generator(bit_gen)
    buf = np.empty(int(np.diff(offsets[bounds]).max()))
    rate_max = max(p, q)
    blocks = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        u = buf[:offsets[r1] - offsets[r0]]
        rng.random(out=u)
        k = np.flatnonzero(u < rate_max)
        u = u[k]
        k += offsets[r0]
        row_starts = np.searchsorted(k, offsets[r0:r1 + 1])
        i = np.repeat(np.arange(r0, r1, dtype=np.int64), np.diff(row_starts))
        j = k - offsets[i] + i + 1
        keep = u < np.where((i < n1) == (j < n1), p, q)
        blocks.append((i[keep], j[keep]))
    return blocks


def sample_sbm(params, seed):
    """Draw a graph from the block model plus its planted partition.

    Pair indicators are drawn in one pass over the i < j pairs in
    lexicographic order, so a given seed yields the same edge set on every
    platform. The first block gets labels 0..n1-1 and side +1. ``seed`` is
    anything ``np.random.default_rng`` accepts whose bit generator is PCG64;
    another bit generator raises TypeError.

    The uniforms are drawn in blocks of whole rows of about
    ``_PAIR_BLOCK`` pairs; drawing the stream in pieces yields the same
    numbers as one draw over all pairs. Only the draws below max(p, q) are
    mapped back to their (i, j) pair for the exact test, so memory is
    O(_PAIR_BLOCK + m) rather than O(n^2).

    The blocks are split into contiguous runs of about equal pair count,
    one per usable CPU (``usable_cpus``), and the runs are drawn on threads.
    ``Generator.random`` spends exactly one 64-bit PCG64 output per double,
    so a copy of the seeded state advanced by ``PCG64.advance`` to a run's
    first pair yields the very uniforms the one-pass draw gives that run.
    The graph is therefore the same for any CPU count and thread timing.
    """
    bit_gen = np.random.default_rng(seed).bit_generator
    if not isinstance(bit_gen, np.random.PCG64):
        raise TypeError(
            f"sample_sbm needs a PCG64 bit generator, got {type(bit_gen).__name__}"
        )
    state = bit_gen.state
    n, n1, p, q = params.n, params.n1, params.p, params.q
    r = np.arange(n + 1, dtype=np.int64)
    # offsets[i]: number of pairs (i', j) with i' < i, i.e. where row i starts
    offsets = r * (n - 1) - r * (r - 1) // 2
    # a caller's generator ends where the one-pass draw would leave it
    bit_gen.advance(int(offsets[n]))
    bounds = [0]
    while bounds[-1] < n - 1:
        r0 = bounds[-1]
        r1 = int(np.searchsorted(offsets, offsets[r0] + _PAIR_BLOCK, side="right")) - 1
        bounds.append(max(r1, r0 + 1))  # a row longer than the block still goes whole
    # One run per usable CPU, cut at the first block bound past each equal share of pairs.
    num_blocks = len(bounds) - 1
    workers = min(num_blocks, usable_cpus())
    targets = offsets[n - 1] * np.arange(1, workers) // workers
    cuts = np.unique(np.clip(np.searchsorted(offsets[bounds], targets), 1, num_blocks - 1))
    splits = [0, *cuts.tolist(), num_blocks]
    runs = [bounds[a:b + 1] for a, b in zip(splits[:-1], splits[1:])]

    def draw(run):
        return _sample_rows(state, run, offsets, n1, p, q)

    if len(runs) == 1:
        parts = [draw(runs[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            parts = list(pool.map(draw, runs))
    blocks = [block for part in parts for block in part]
    graph = Graph._from_canonical(
        n,
        np.concatenate([i for i, _ in blocks]),
        np.concatenate([j for _, j in blocks]),
    )
    signs = np.ones(n, dtype=np.int8)
    signs[n1:] = -1
    return graph, Partition(np.arange(n), signs)


def bernoulli_vertex_sample(graph, gamma, seed):
    """Keep each vertex independently with probability gamma; return kept labels."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    keep = rng.random(graph.num_vertices) < gamma
    return graph.vertex_ids[keep]


def induced_subgraph(graph, vertices):
    """Subgraph induced on the given labels, labels preserved.

    Slices the kept rows, then the kept columns, out of the CSR adjacency:
    O(n + sum of kept degrees), with no pass over the other edges. Keeping
    every vertex returns ``graph`` itself (graphs are immutable).
    """
    verts = _sorted_unique(np.asarray(vertices, dtype=np.int64).ravel())
    rows = graph.indices_of(verts)
    if verts.size == graph.num_vertices:
        return graph
    return Graph.__new__(Graph)._install(verts, graph.adjacency[rows][:, rows])


def save_graph(graph, path):
    """Write edge-list format: header ``n <count>`` then one ``u v`` line per edge.

    Requires contiguous labels 0..n-1 (the on-disk format has no separate
    vertex table).
    """
    n = graph.num_vertices
    if not np.array_equal(graph.vertex_ids, np.arange(n)):
        raise ValueError("edge-list format requires vertex ids 0..n-1")
    edges = graph.edges
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"n {n}\n")
        for start in range(0, edges.shape[0], _WRITE_ROWS):
            chunk = edges[start:start + _WRITE_ROWS]
            fh.write(("%d %d\n" * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _edge_line_error(lines, first_lineno, n):
    """ValueError naming the first edge line that is not ``u v`` with 0 <= u != v < n."""
    for lineno, line in enumerate(lines, start=first_lineno):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            return ValueError(f"line {lineno}: expected 'u v', got {line.strip()!r}")
        for tok in parts:
            if not _INT_TOKEN.fullmatch(tok):
                return ValueError(f"line {lineno}: {tok!r} is not an integer")
            if not 0 <= int(tok) < n:
                return ValueError(f"line {lineno}: vertex id {tok} outside 0..{n - 1}")
        if int(parts[0]) == int(parts[1]):
            return ValueError(f"line {lineno}: self-loop {line.strip()!r}")
    return None


def load_graph(path):
    """Read the edge-list format written by ``save_graph``.

    Blank lines and leading or trailing whitespace are ignored. A missing or
    malformed header, an edge line without exactly two integer tokens, an
    id outside 0..n-1 or a self-loop raises ValueError naming the line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    head = next((k for k, line in enumerate(lines) if line.strip()), None)
    if head is None:
        raise ValueError("missing 'n <count>' header")
    parts = lines[head].split()
    if len(parts) != 2 or parts[0] != "n" or not _INT_TOKEN.fullmatch(parts[1]):
        raise ValueError(
            f"line {head + 1}: expected 'n <count>' header, got {lines[head].strip()!r}"
        )
    n = int(parts[1])
    if n < 0:
        raise ValueError(f"line {head + 1}: vertex count must be non-negative")
    body = lines[head + 1:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an edge-free body is valid
            edges = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        ok = edges.size == 0 or (
            edges.shape[1] == 2
            and np.all((edges >= 0) & (edges < n))
            and not np.any(edges[:, 0] == edges[:, 1])
        )
    except ValueError:
        ok = False
    if not ok:
        raise _edge_line_error(body, head + 2, n) or ValueError("malformed edge list")
    return Graph(n, edges.reshape(-1, 2))


def save_partition(partition, path):
    """Write one ``vertex sign`` line per vertex, sorted by vertex id."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for v, s in zip(partition.ids, partition.signs):
            fh.write(f"{v} {s}\n")


def load_partition(path):
    """Read the ``vertex sign`` lines written by ``save_partition``.

    Blank lines and surrounding whitespace are ignored. A line without
    exactly two integer tokens, with a sign other than +1 or -1, or with a
    vertex already read raises ValueError naming the line.
    """
    ids = []
    signs = []
    first_line = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'vertex sign', got {line.strip()!r}")
            for tok in parts:
                if not _INT_TOKEN.fullmatch(tok):
                    raise ValueError(f"line {lineno}: {tok!r} is not an integer")
            v, sign = int(parts[0]), int(parts[1])
            if sign not in (1, -1):
                raise ValueError(f"line {lineno}: sign {parts[1]} is not +1 or -1")
            if v in first_line:
                raise ValueError(f"line {lineno}: vertex {v} repeats line {first_line[v]}")
            first_line[v] = lineno
            ids.append(v)
            signs.append(sign)
    return Partition(ids, signs)
