"""Monte Carlo grid runner over (alpha, beta) with CSV and SVG heatmap output.

Each grid cell gets its own seed derived from (base_seed, alpha index,
beta index, rep, method), never from execution order, so serial and
parallel schedules, or any subset of cells, produce identical numbers.
"""

import csv
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graphs import LogScaleParams, sample_sbm
from .pipeline import SketchConfig, auto_gamma, recovered_planted, sketch_and_solve
from .seeding import spawn_seed
from .solver import SolverConfig

METHOD_FULL_SDP = "FULL_SDP"
METHOD_SKETCH = "SKETCH"
_METHOD_CODES = {METHOD_FULL_SDP: 1, METHOD_SKETCH: 2}

MU_POLICIES = ("auto", "half", "gw", "oracle")

CSV_HEADER = [
    "alpha",
    "beta",
    "rep",
    "method",
    "n",
    "gamma",
    "mu",
    "recovered",
    "fell_back",
    "unassigned",
    "runtime_ms",
    "seed",
]

SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class GridSpec:
    """Every (alpha, beta, rep, method) cell of one Monte Carlo grid.

    A cell is one ``sketch_and_solve`` call, at gamma 1 for FULL_SDP and at
    ``gamma_policy`` for SKETCH, with the sweep budget ``solver.max_sweeps``.
    The solver's seed is derived from the cell's seed, so ``solver.seed`` is
    not read; ``solver`` stays a ``SolverConfig`` because the benchmark's
    grid workload builds it as one.
    """

    alphas: tuple
    betas: tuple
    n: int
    reps: int
    methods: tuple = (METHOD_FULL_SDP, METHOD_SKETCH)
    gamma_policy: object = "auto"
    mu_policy: str = "auto"
    base_seed: int = 0
    n1: object = None
    n2: object = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(
            self, "methods", tuple(dict.fromkeys(self.methods))
        )
        if not self.alphas or not self.betas:
            raise ValueError("grid must be non-empty")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        for m in self.methods:
            if m not in _METHOD_CODES:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods:
            raise ValueError("need at least one method")
        if self.mu_policy not in MU_POLICIES:
            raise ValueError(f"unknown mu policy {self.mu_policy!r}")
        if self.gamma_policy != "auto" and not 0.0 < float(self.gamma_policy) <= 1.0:
            raise ValueError("fixed gamma must lie in (0, 1]")
        if (self.n1 is None) != (self.n2 is None):
            raise ValueError("n1 and n2 must be given together")
        if self.n1 is not None:
            if self.n1 + self.n2 != self.n:
                raise ValueError("n1 + n2 must equal n")
        elif self.n % 2:
            raise ValueError("n must be even unless n1/n2 are given")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    @property
    def split(self):
        if self.n1 is not None:
            return int(self.n1), int(self.n2)
        return self.n // 2, self.n // 2


@dataclass
class CellResult:
    alpha: float
    beta: float
    rep: int
    method: str
    n: int
    gamma_used: object
    mu_used: object
    recovered: bool
    fell_back: bool
    unassigned_count: int
    runtime_ms: object
    seed: int
    error: str = ""
    stage_ms: dict = field(default_factory=dict)
    total_ms: float = 0.0


def _run_cell(spec, a_idx, b_idx, rep, method):
    alpha = spec.alphas[a_idx]
    beta = spec.betas[b_idx]
    seed = spawn_seed(spec.base_seed, a_idx, b_idx, rep, _METHOD_CODES[method])
    cell = CellResult(
        alpha=alpha,
        beta=beta,
        rep=rep,
        method=method,
        n=spec.n,
        gamma_used=None,
        mu_used=None,
        recovered=False,
        fell_back=False,
        unassigned_count=0,
        runtime_ms=None,
        seed=seed,
    )
    if beta >= alpha:
        cell.error = SKIPPED
        return cell

    n1, n2 = spec.split
    try:
        params = LogScaleParams(alpha, beta, spec.n).to_sbm_params(n1, n2)
        t_total = time.perf_counter()
        graph, planted = sample_sbm(params, spawn_seed(seed, 0))

        oracle = (params.p + params.q) / 2.0
        mu = {"auto": "auto", "half": 0.5, "gw": 1.0, "oracle": oracle}[spec.mu_policy]

        if method == METHOD_FULL_SDP:
            gamma = 1.0
        elif spec.gamma_policy == "auto":
            gamma = auto_gamma(alpha, beta)
        else:
            gamma = float(spec.gamma_policy)
        cell.gamma_used = gamma
        result = sketch_and_solve(graph, SketchConfig(
            gamma=gamma, seed=spawn_seed(seed, 1), max_sweeps=spec.solver.max_sweeps, mu=mu))

        cell.total_ms = (time.perf_counter() - t_total) * 1e3
        cell.mu_used = result.mu_used
        cell.fell_back = result.fell_back_random
        cell.unassigned_count = int(result.unassigned.size)
        cell.recovered = recovered_planted(planted, result)
        cell.stage_ms = {k: v * 1e3 for k, v in result.timings.items()}
        cell.runtime_ms = (
            cell.stage_ms["solve"] + cell.stage_ms["certify"] + cell.stage_ms["extend"]
        )
    except Exception as exc:  # cell failures are data, not crashes
        cell.error = f"{type(exc).__name__}: {exc}"
        cell.recovered = False
    return cell


def usable_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def run_grid(spec, jobs=1):
    """Run every (alpha, beta, rep, method) cell; order is canonical.

    Cells with beta >= alpha are marked SKIPPED. Failures inside a cell
    are recorded on the CellResult rather than raised. ``jobs`` > 1 runs
    cells in a process pool of at most as many workers as this process
    may use CPUs: further workers add no throughput, and the time a cell
    spends waiting for a core would land in its ``runtime_ms``. Workers are
    not pinned to CPUs. Results are identical to the serial run.
    """
    tasks = [
        (spec, ai, bi, rep, method)
        for ai in range(len(spec.alphas))
        for bi in range(len(spec.betas))
        for rep in range(spec.reps)
        for method in sorted(spec.methods)
    ]
    workers = min(jobs, usable_cpus())
    if workers <= 1:
        return [_run_cell(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, *zip(*tasks), chunksize=1))


def _fmt_opt_float(x):
    return "" if x is None else repr(float(x))


def emit_csv(results, path):
    """Write one row per cell with the pinned header; LF line endings."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for c in results:
            writer.writerow(
                [
                    repr(float(c.alpha)),
                    repr(float(c.beta)),
                    c.rep,
                    c.method,
                    c.n,
                    _fmt_opt_float(c.gamma_used),
                    _fmt_opt_float(c.mu_used),
                    "true" if c.recovered else "false",
                    "true" if c.fell_back else "false",
                    int(c.unassigned_count),
                    "" if c.runtime_ms is None else f"{c.runtime_ms:.3f}",
                    c.seed,
                ]
            )


def parse_csv(path):
    """Read back an emitted CSV; timing information is not reconstructed
    beyond the runtime_ms column itself."""
    out = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError("unexpected CSV header")
        for row in reader:
            (alpha, beta, rep, method, n, gamma, mu, recovered, fell_back,
             unassigned, runtime_ms, seed) = row
            out.append(
                CellResult(
                    alpha=float(alpha),
                    beta=float(beta),
                    rep=int(rep),
                    method=method,
                    n=int(n),
                    gamma_used=None if gamma == "" else float(gamma),
                    mu_used=None if mu == "" else float(mu),
                    recovered=recovered == "true",
                    fell_back=fell_back == "true",
                    unassigned_count=int(unassigned),
                    runtime_ms=None if runtime_ms == "" else float(runtime_ms),
                    seed=int(seed),
                )
            )
    return out


def _svg_text(x, y, s, anchor="middle", size=11):
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>'
    )


def _grid_axes(results):
    alphas = sorted({c.alpha for c in results})
    betas = sorted({c.beta for c in results})
    seen = {(c.alpha, c.beta) for c in results}
    if seen != {(a, b) for a in alphas for b in betas}:
        raise ValueError("results do not form a rectangular grid")
    return alphas, betas


def emit_heatmap_svg(results, path, metric="recovery_rate", overlay="none"):
    """Grayscale heatmap per method: one rect per (alpha, beta) cell.

    recovery_rate maps 0 -> white, 1 -> black; mean_runtime is log-scaled
    between the observed min and max. ``overlay`` draws a red polyline:
    ``prop1_curve`` is the exact-recovery boundary alpha =
    (sqrt(beta) + sqrt(2))^2; ``conjecture_gamma_iso`` is the same family
    with sqrt(2) replaced by sqrt(2/gamma) at the median sketched gamma.
    """
    if metric not in ("recovery_rate", "mean_runtime"):
        raise ValueError(f"unknown metric {metric!r}")
    if overlay not in ("none", "prop1_curve", "conjecture_gamma_iso"):
        raise ValueError(f"unknown overlay {overlay!r}")
    alphas, betas = _grid_axes(results)
    methods = sorted({c.method for c in results})

    cell_px = 26
    left, top, bottom, panel_gap = 64, 42, 46, 36
    panel_w = len(betas) * cell_px
    panel_h = len(alphas) * cell_px
    width = left + len(methods) * (panel_w + panel_gap)
    height = top + panel_h + bottom

    def agg(cells):
        if metric == "recovery_rate":
            return sum(1.0 for c in cells if c.recovered) / len(cells)
        times = [c.runtime_ms for c in cells if c.runtime_ms is not None]
        return statistics.fmean(times) if times else None

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]

    # positions of cell centers, for value -> pixel interpolation
    a_centers = {a: panel_h - (i + 0.5) * cell_px for i, a in enumerate(alphas)}
    b_centers = {b: (j + 0.5) * cell_px for j, b in enumerate(betas)}

    for p_idx, method in enumerate(methods):
        x0 = left + p_idx * (panel_w + panel_gap)
        parts.append(_svg_text(x0 + panel_w / 2, top - 14, method, size=13))
        by_cell = {}
        for c in results:
            if c.method == method and c.error != SKIPPED:
                by_cell.setdefault((c.alpha, c.beta), []).append(c)

        values = {}
        for key, cells in by_cell.items():
            values[key] = agg(cells)
        if metric == "mean_runtime":
            finite = [v for v in values.values() if v is not None and v > 0]
            lo = math.log(min(finite)) if finite else 0.0
            hi = math.log(max(finite)) if finite else 1.0

        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                v = values.get((a, b))
                if v is None:
                    continue
                if metric == "recovery_rate":
                    t = v
                else:
                    t = 0.5 if hi == lo else (math.log(max(v, 1e-9)) - lo) / (hi - lo)
                t = min(max(t, 0.0), 1.0)
                shade = round(255 * (1.0 - t))
                x = x0 + j * cell_px
                y = top + panel_h - (i + 1) * cell_px
                parts.append(
                    f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_px}" '
                    f'height="{cell_px}" fill="rgb({shade},{shade},{shade})"/>'
                )

        for i, a in enumerate(alphas):
            parts.append(
                _svg_text(x0 - 8, top + a_centers[a] + 4, _num(a), anchor="end", size=10)
            )
        for j, b in enumerate(betas):
            parts.append(
                _svg_text(x0 + b_centers[b], top + panel_h + 16, _num(b), size=10)
            )
        parts.append(_svg_text(x0 + panel_w / 2, top + panel_h + 34, "beta", size=12))

        if overlay != "none" and len(betas) >= 1:
            shift = 2.0
            if overlay == "conjecture_gamma_iso":
                gammas = [
                    c.gamma_used
                    for c in results
                    if c.method == METHOD_SKETCH and c.gamma_used
                ]
                gamma = statistics.median(gammas) if gammas else 1.0
                shift = 2.0 / gamma
            bs = np.linspace(min(betas), max(betas), 100)
            curve_a = (np.sqrt(bs) + math.sqrt(shift)) ** 2
            b_keys = np.array(betas)
            b_vals = np.array([b_centers[b] for b in betas])
            a_keys = np.array(alphas)
            a_vals = np.array([a_centers[a] for a in alphas])
            pts = []
            for bv, av in zip(bs, curve_a):
                if not (alphas[0] <= av <= alphas[-1]):
                    continue
                px = x0 + float(np.interp(bv, b_keys, b_vals))
                py = top + float(np.interp(av, a_keys, a_vals))
                pts.append(f"{px:.2f},{py:.2f}")
            if len(pts) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="red" stroke-width="1.5"/>'
                )

    parts.append(_svg_text(16, top + panel_h / 2, "alpha", anchor="middle", size=12))
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _num(x):
    return str(int(x)) if float(x).is_integer() else str(x)


def parse_grid_config(path):
    """Parse a key = value grid description into a GridSpec.

    Recognized keys: alphas, betas (comma-separated reals), n, reps, seed,
    n1, n2 (integers), methods (comma-separated), gamma (real or auto),
    mu (auto|half|gw|oracle). Lines starting with # are comments.
    """
    raw = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()

    known = {"alphas", "betas", "n", "reps", "methods", "gamma", "mu",
             "seed", "n1", "n2"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for req in ("alphas", "betas", "n", "reps"):
        if req not in raw:
            raise ValueError(f"missing required key {req!r}")

    def floats(s):
        return tuple(float(x) for x in s.split(",") if x.strip())

    kwargs = {
        "alphas": floats(raw["alphas"]),
        "betas": floats(raw["betas"]),
        "n": int(raw["n"]),
        "reps": int(raw["reps"]),
    }
    if "methods" in raw:
        kwargs["methods"] = tuple(m.strip() for m in raw["methods"].split(",") if m.strip())
    if "gamma" in raw:
        kwargs["gamma_policy"] = "auto" if raw["gamma"] == "auto" else float(raw["gamma"])
    if "mu" in raw:
        kwargs["mu_policy"] = raw["mu"]
    if "seed" in raw:
        kwargs["base_seed"] = int(raw["seed"])
    if "n1" in raw:
        kwargs["n1"] = int(raw["n1"])
    if "n2" in raw:
        kwargs["n2"] = int(raw["n2"])
    return GridSpec(**kwargs)
