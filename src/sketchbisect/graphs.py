"""Stochastic block model graphs, vertex sketches, and edge-list I/O.

Graphs are simple and undirected. Every vertex carries a stable integer
label: induced subgraphs keep the labels of the parent graph, which lets
a cut found on a sketch be compared against, or extended to, the full
vertex set without any index translation. A graph stores its labels and
the strict upper triangle of its adjacency as CSR (the canonical edge
rows) only. The edge count, the edge list, induced subgraphs and vote
margins are read off that triangle; the symmetric CSR adjacency and the
degrees are built from it on first use and cached.
"""

import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Rows formatted per write by save_graph and save_partition.
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


def _upper_csr(n, counts, hi):
    """CSR of the strict upper triangle from canonical edge rows.

    Canonical rows (i < j, sorted) are the upper triangle already in CSR
    order, so its row pointer is the running sum of the per-row edge
    ``counts`` and its column indices are ``hi``. Nothing is sorted.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((np.ones(hi.shape[0]), hi, indptr), shape=(n, n))


def _symmetric(upper):
    """Symmetric 0/1 CSR adjacency from its strict upper triangle.

    scipy's linear transpose and sorted-row merge add the lower triangle.
    """
    return upper + upper.T


class Graph:
    """Immutable simple undirected graph over labelled vertices.

    ``vertex_ids`` is kept sorted ascending, and rows follow that order.
    The only edge store is ``upper``, the strict upper triangle of the
    adjacency as CSR: row i holds the sorted neighbours j > i. The edge
    count and the lexicographic (u < v) edge list are read off it, so all
    derived quantities are deterministic functions of the edge set. An
    edge given more than once, in either orientation, counts once. The
    symmetric ``adjacency`` and the ``degrees`` are built from it on first
    use and cached.
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
        # _rows_of returns fresh arrays, so each pair is ordered in place and
        # no O(m) temporary outlives its use into the CSR build.
        hi = np.maximum(a, b)
        lo = np.minimum(a, b, out=a)
        del a, b
        # One int64 key per edge orders rows lexicographically; canonical
        # input (strictly increasing keys) skips the sort.
        key = lo * n
        key += hi
        if np.any(key[1:] <= key[:-1]):
            lo, hi = np.divmod(_sorted_unique(key), n)
        del key
        self._install(ids, _upper_csr(n, np.bincount(lo, minlength=n), hi))

    @classmethod
    def _from_canonical(cls, n, counts, hi):
        """Graph on labels 0..n-1 from per-row edge counts and canonical columns, unchecked.

        Row i holds the next ``counts[i]`` entries of ``hi``. The rows must
        satisfy what ``__init__`` establishes: each row's columns increase
        strictly and lie in i+1..n-1.
        """
        return cls.__new__(cls)._install(np.arange(n, dtype=np.int64), _upper_csr(n, counts, hi))

    def _install(self, ids, upper):
        """Store sorted labels and the CSR upper triangle; returns self."""
        self._ids = ids
        self._ids.flags.writeable = False
        self._upper = upper
        self._adj = None
        self._degrees = None
        return self

    @property
    def num_vertices(self):
        return self._ids.shape[0]

    @property
    def vertex_ids(self):
        return self._ids

    @property
    def edge_count(self):
        return self._upper.nnz

    @property
    def edges(self):
        """Label pairs u < v in lexicographic order, read off the upper triangle."""
        rows = np.repeat(np.arange(self.num_vertices), np.diff(self._upper.indptr))
        return self._ids[np.column_stack([rows, self._upper.indices])]

    @property
    def upper(self):
        """Strict upper triangle of the adjacency as 0/1 CSR; treat as read-only."""
        return self._upper

    @property
    def adjacency(self):
        """Symmetric 0/1 CSR adjacency, built on first use; treat as read-only."""
        if self._adj is None:
            self._adj = _symmetric(self._upper)
        return self._adj

    @property
    def degrees(self):
        if self._degrees is None:
            self._degrees = np.diff(self.adjacency.indptr).astype(np.int64)
            self._degrees.flags.writeable = False
        return self._degrees

    def indices_of(self, vertices):
        """Map vertex labels to adjacency row indices (vectorized)."""
        return _rows_of(self._ids, vertices)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._ids, other._ids) and all(
            np.array_equal(getattr(self._upper, k), getattr(other._upper, k)) for k in ("indptr", "indices")
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
        return Partition(v, self._signs[_rows_of(self._ids, v)])

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


def _pair_generators(seed):
    """One generator per block pair (11, 12, 22), seeded by one draw from ``seed``'s."""
    keys = np.random.default_rng(seed).integers(1 << 63, size=3)
    return [np.random.default_rng(int(k)) for k in keys]


def _success_positions(rng, rate, pairs):
    """Increasing positions in 0..pairs-1 of the successes of ``pairs`` Bernoulli(rate) trials.

    The gaps between successes are geometric (Batagelj and Brandes, PRE
    2005), drawn in chunks sized to pass the last pair with high
    probability. Variates past it are discarded, so the positions are those
    of drawing the gaps one at a time. Rate 0 draws nothing, and rate 1
    keeps every pair without drawing.
    """
    if rate == 0.0 or pairs == 0:
        return np.empty(0, dtype=np.int64)
    if rate == 1.0:
        return np.arange(pairs, dtype=np.int64)
    chunks = []
    last = -1
    while last < pairs:
        expected = (pairs - 1 - last) * rate
        pos = rng.geometric(rate, int(expected + 4.0 * math.sqrt(expected)) + 16)
        np.minimum(pos, pairs + 1, out=pos)  # a gap this long passes the end; sums cannot overflow
        pos[0] += last
        np.cumsum(pos, out=pos)
        chunks.append(pos)
        last = int(pos[-1])
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return pos[:np.searchsorted(pos, pairs)]


def _triangle_columns(pos, size):
    """Map positions among the i < j pairs of ``size`` rows, in order, to columns j.

    Returns the columns and the per-row counts; ``pos`` is overwritten.
    """
    r = np.arange(size + 1, dtype=np.int64)
    offsets = r * (size - 1) - r * (r - 1) // 2  # where row i's pairs start
    counts = np.diff(np.searchsorted(pos, offsets))
    pos += np.repeat(r[1:] - offsets[:-1], counts)  # j = pos - offsets[i] + i + 1
    return pos, counts


def sample_sbm(params, seed):
    """Draw a graph from the block model plus its planted partition.

    The first block gets labels 0..n1-1 and side +1. Only the edges are
    drawn: within each block pair (inside block 1, across, inside block 2)
    the gaps between successive edges in lexicographic pair order are
    geometric, so time and memory are O(n + m), not O(n^2). Positions map
    to (i, j) with integer arithmetic, and the rows come out canonical by
    counting, with no sort.

    Each block pair draws from its own generator, seeded by one
    ``integers(2**63, size=3)`` draw of ``np.random.default_rng(seed)``.
    ``seed`` is anything that function accepts, with any bit generator; a
    caller's ``Generator`` is advanced by that one draw and by nothing else.
    A seed gives the same graph on every rerun with the same numpy. For
    rates below 1/3 numpy's ``Generator.geometric`` takes each gap through
    libm ``log1p``, so another platform's libm may move an edge.
    """
    n, n1, n2 = params.n, params.n1, params.n2
    draw11, draw12, draw22 = _pair_generators(seed)
    j11, c11 = _triangle_columns(_success_positions(draw11, params.p, n1 * (n1 - 1) // 2), n1)
    j12 = _success_positions(draw12, params.q, n1 * n2)
    c12 = np.diff(np.searchsorted(j12, np.arange(n1 + 1, dtype=np.int64) * n2))
    np.remainder(j12, n2, out=j12)
    j12 += n1
    j22, c22 = _triangle_columns(_success_positions(draw22, params.p, n2 * (n2 - 1) // 2), n2)
    j22 += n1
    # Row i < n1 holds its j11 columns, then its j12 ones; rows past n1 only j22.
    top = j11.size + j12.size
    hi = np.empty(top + j22.size, dtype=np.int64)
    from11 = np.repeat(np.tile([True, False], n1), np.column_stack([c11, c12]).ravel())
    hi[:top][from11] = j11
    hi[:top][~from11] = j12
    hi[top:] = j22
    del j11, j12, j22, from11  # the column arrays are not held through the CSR build
    graph = Graph._from_canonical(n, np.concatenate([c11 + c12, c22]), hi)
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

    Slices the kept rows, then the kept columns, out of the CSR upper
    triangle: O(n + edges of the kept rows), with no pass over the other
    edges and no symmetric CSR of ``graph``. The rows are sorted, so the
    slice is the subgraph's upper triangle. Keeping every vertex returns
    ``graph`` itself (graphs are immutable).
    """
    verts = _sorted_unique(np.asarray(vertices, dtype=np.int64).ravel())
    rows = graph.indices_of(verts)
    if verts.size == graph.num_vertices:
        return graph
    return Graph.__new__(Graph)._install(verts, graph.upper[rows][:, rows])


def _write_pairs(path, header, chunks):
    """Write ``header``, then one ``a b`` line per row of each integer (k, 2) array in ``chunks``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header)
        for chunk in chunks:
            fh.write(("%d %d\n" * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _row_chunks(pairs):
    """``pairs`` in slices of at most ``_WRITE_ROWS`` rows."""
    return (pairs[start:start + _WRITE_ROWS] for start in range(0, pairs.shape[0], _WRITE_ROWS))


def _upper_triangle_chunks(upper):
    """The CSR upper triangle's entries as (row, column) pairs, in row order.

    Each chunk spans whole rows holding about ``_WRITE_ROWS`` entries (a
    single longer row is a chunk of its own), so only the chunk's row index
    is built, never one per edge.
    """
    indptr, indices = upper.indptr, upper.indices
    n = upper.shape[0]
    start = 0
    while start < n:
        stop = int(np.searchsorted(indptr, indptr[start] + _WRITE_ROWS, side="right")) - 1
        stop = max(stop, start + 1)
        rows = np.repeat(np.arange(start, stop), np.diff(indptr[start:stop + 1]))
        yield np.column_stack([rows, indices[indptr[start]:indptr[stop]]])
        start = stop


def save_graph(graph, path):
    """Write edge-list format: header ``n <count>`` then one ``u v`` line per edge.

    Requires contiguous labels 0..n-1 (the on-disk format has no separate
    vertex table). The lines are written from the CSR upper triangle a
    chunk of rows at a time, in ``edges`` order.
    """
    n = graph.num_vertices
    if not np.array_equal(graph.vertex_ids, np.arange(n)):
        raise ValueError("edge-list format requires vertex ids 0..n-1")
    _write_pairs(path, f"n {n}\n", _upper_triangle_chunks(graph.upper))


def _read_rows(path, skip):
    """int64 rows of the whitespace-separated integers after the first ``skip`` lines.

    numpy opens the file and parses it in chunks in C, so neither the text
    nor its lines are held. Blank lines are skipped; a file without rows
    gives shape (0, 2). Any line numpy cannot parse, a non-ASCII byte
    included, raises ValueError without naming the line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file without rows is valid
        # Older numpy releases read a token such as 1.0 or 3.9 as an integer
        # through a float and only warn; as an error it is a bad token as well.
        warnings.simplefilter("error", DeprecationWarning)
        rows = np.loadtxt(
            path, dtype=np.int64, comments=None, ndmin=2, skiprows=skip, encoding="ascii"
        )
    return rows if rows.size else rows.reshape(0, 2)


def _open_lines(path):
    """The file as text lines; a non-ASCII byte reads as a lone surrogate."""
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _check_ascii(line, lineno):
    """Raise ValueError naming the first non-ASCII byte of a line from ``_open_lines``."""
    if not line.isascii():
        byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
        raise ValueError(f"line {lineno}: non-ASCII byte 0x{byte:02x}")


def _token_pairs(lines, first_lineno, form, token_error=lambda tok: None):
    """Yield (lineno, line, tokens) for each non-blank line of two integer tokens.

    Raises ValueError naming the first line with a non-ASCII byte, without
    exactly two tokens (``expected 'form'``), or with a token that is not an
    integer or for which ``token_error`` returns a reason; tokens are
    checked left to right.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        _check_ascii(line, lineno)
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '{form}', got {line.strip()!r}")
        for tok in parts:
            if not _INT_TOKEN.fullmatch(tok):
                raise ValueError(f"line {lineno}: {tok!r} is not an integer")
            if reason := token_error(tok):
                raise ValueError(f"line {lineno}: {reason}")
        yield lineno, line, parts


def _check_edge_lines(lines, first_lineno, n):
    """Raise ValueError naming the first edge line that is not ``u v`` with 0 <= u != v < n."""

    def outside(tok):
        return None if 0 <= int(tok) < n else f"vertex id {tok} outside 0..{n - 1}"

    for lineno, line, (u, v) in _token_pairs(lines, first_lineno, "u v", outside):
        if int(u) == int(v):
            raise ValueError(f"line {lineno}: self-loop {line.strip()!r}")


def load_graph(path):
    """Read the edge-list format written by ``save_graph``.

    Blank lines and leading or trailing whitespace are ignored. A missing or
    malformed header, an edge line without exactly two integer tokens, an
    id outside 0..n-1, a self-loop or a non-ASCII byte raises ValueError
    naming the line. An edge listed more than once, in either orientation,
    counts once, as in ``Graph``.

    Only the lines up to the header are read here; numpy parses the body
    from the path and ``Graph`` checks it. The body is read again line by
    line only when either fails, to name the first bad line.
    """
    with _open_lines(path) as fh:
        for head, line in enumerate(fh):
            if line.strip():
                break
        else:
            raise ValueError("missing 'n <count>' header")
    _check_ascii(line, head + 1)
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n" or not _INT_TOKEN.fullmatch(parts[1]):
        raise ValueError(
            f"line {head + 1}: expected 'n <count>' header, got {line.strip()!r}"
        )
    n = int(parts[1])
    if n < 0:
        raise ValueError(f"line {head + 1}: vertex count must be non-negative")
    try:
        return Graph(n, _read_rows(path, head + 1))
    except (ValueError, KeyError):
        pass
    with _open_lines(path) as fh:
        _check_edge_lines(itertools.islice(fh, head + 1, None), head + 2, n)
    raise ValueError("malformed edge list")


def save_partition(partition, path):
    """Write one ``vertex sign`` line per vertex, sorted by vertex id."""
    _write_pairs(path, "", _row_chunks(np.column_stack([partition.ids, partition.signs])))


def _check_partition_lines(lines):
    """Raise ValueError naming the first line that is not ``vertex sign`` with a new vertex."""
    first_line = {}
    for lineno, _, (v, sign) in _token_pairs(lines, 1, "vertex sign"):
        if int(sign) not in (1, -1):
            raise ValueError(f"line {lineno}: sign {sign} is not +1 or -1")
        v = int(v)
        if v in first_line:
            raise ValueError(f"line {lineno}: vertex {v} repeats line {first_line[v]}")
        first_line[v] = lineno


def load_partition(path):
    """Read the ``vertex sign`` lines written by ``save_partition``.

    Blank lines and surrounding whitespace are ignored. A line without
    exactly two integer tokens, with a sign other than +1 or -1, with a
    vertex already read or with a non-ASCII byte raises ValueError naming
    the line. numpy parses the file from the path; it is read again line
    by line only when that fails, to name the first bad line.
    """
    try:
        rows = _read_rows(path, 0)
        if rows.shape[1] == 2:  # Partition checks the signs and repeats
            return Partition(rows[:, 0], rows[:, 1])
    except ValueError:
        pass
    with _open_lines(path) as fh:
        _check_partition_lines(fh)
    raise ValueError("malformed partition file")
