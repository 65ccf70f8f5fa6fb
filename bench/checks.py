"""Output checks the benchmark runs outside its timed regions.

Each check returns a list of problems (empty when the output is right), so
a failed check is counted against its instance and the run goes on. The
package functions are imported directly rather than looked up on their
modules, so the tracer never records the checks' own calls.
"""

import numpy as np

from sketchbisect.experiments import SKIPPED, parse_csv
from sketchbisect.solver import objective_value


def partition_problems(vertex_ids, partition, unassigned):
    """The cut plus its unassigned vertices covers the graph exactly once."""
    problems = []
    if partition.signs.size and not np.all(np.abs(partition.signs) == 1):
        problems.append("partition has signs other than +1/-1")
    covered = np.concatenate([partition.ids, np.asarray(unassigned, dtype=np.int64)])
    covered.sort()
    if not np.array_equal(covered, vertex_ids):
        problems.append(
            f"partition covers {partition.ids.size} + {len(unassigned)} unassigned "
            f"ids, graph has {vertex_ids.size}"
        )
    return problems


def certified_cut_problems(graph, mu, cut, planted):
    """A CERTIFIED cut is the unique SDP optimum, so it scores at least the planted cut.

    Both cuts are scored on the same (sub)graph at the same mu; the planted
    cut is restricted to that graph's vertices.
    """
    got = objective_value(graph, mu, cut)
    want = objective_value(graph, mu, planted.restrict(graph.vertex_ids))
    if got < want - 1e-9 * (1.0 + abs(want)):
        return [f"certified cut scores {got!r} below the planted cut's {want!r}"]
    return []


def cell_problems(cell):
    if cell.error and cell.error != SKIPPED:
        return [f"grid cell alpha={cell.alpha} rep={cell.rep}: {cell.error}"]
    return []


def _row(cell):
    runtime = None if cell.runtime_ms is None else round(cell.runtime_ms, 3)
    return (cell.alpha, cell.beta, cell.rep, cell.method, cell.n, cell.gamma_used,
            cell.mu_used, cell.recovered, cell.fell_back, cell.unassigned_count,
            runtime, cell.seed)


def csv_problems(cells, path):
    """Per cell: its CSV row parses back to the same fields."""
    parsed = parse_csv(path)
    if len(parsed) != len(cells):
        return [[f"CSV has {len(parsed)} rows for {len(cells)} cells"] for _ in cells]
    return [[] if _row(a) == _row(b) else [f"CSV row {i} does not round-trip"]
            for i, (a, b) in enumerate(zip(cells, parsed))]
