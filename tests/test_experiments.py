import math
import re
import statistics
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sketchbisect import (
    Graph,
    LogScaleParams,
    SbmParams,
    SketchConfig,
    SolverConfig,
    auto_gamma,
    experiments,
    full_solve,
    recovered_planted,
    sample_sbm,
    sketch_and_solve,
)
from sketchbisect.experiments import (
    CSV_HEADER,
    CellResult,
    GridSpec,
    METHOD_FULL_SDP,
    METHOD_SKETCH,
    SKIPPED,
    emit_csv,
    emit_heatmap_svg,
    parse_csv,
    parse_grid_config,
    run_grid,
)
from sketchbisect.seeding import spawn_seed


def make_cell(alpha, beta, rep=0, method=METHOD_FULL_SDP, recovered=True, **kw):
    return CellResult(
        alpha=float(alpha),
        beta=float(beta),
        rep=rep,
        method=method,
        n=kw.get("n", 100),
        gamma_used=kw.get("gamma_used", 1.0),
        mu_used=kw.get("mu_used", 0.5),
        recovered=recovered,
        fell_back=kw.get("fell_back", False),
        unassigned_count=kw.get("unassigned_count", 0),
        runtime_ms=kw.get("runtime_ms", 1.0),
        seed=kw.get("seed", 7),
        error=kw.get("error", ""),
    )


def untimed(cell):
    """Every CellResult field but the two timing fields."""
    timing = ("runtime_ms", "total_ms")
    return {k: v for k, v in vars(cell).items() if k not in timing}


def strip_runtime(csv_text):
    col = CSV_HEADER.index("runtime_ms")
    lines = []
    for line in csv_text.splitlines():
        parts = line.split(",")
        del parts[col]
        lines.append(",".join(parts))
    return "\n".join(lines)


def small_grid(**kwargs):
    """A one-cell GridSpec with an n1/n2 split; ``kwargs`` override its fields."""
    return GridSpec(**{**dict(alphas=(4,), betas=(1,), n=10, reps=1, base_seed=0, n1=4, n2=6),
                       **kwargs})


def balanced_grid(**kwargs):
    """A one-cell GridSpec with the default even split; ``kwargs`` override its fields."""
    return GridSpec(**{**dict(alphas=(4,), betas=(1,), n=10, reps=1), **kwargs})


# Every size, count and seed that must be an integer: test id -> (the name
# its ValueError gives, a call that passes the value there).
INTEGER_ARGUMENTS = {
    "n": ("n", lambda v: small_grid(n=v)),
    "reps": ("reps", lambda v: small_grid(reps=v)),
    "base_seed": ("base_seed", lambda v: small_grid(base_seed=v)),
    "n1": ("n1", lambda v: small_grid(n1=v)),
    "n2": ("n2", lambda v: small_grid(n2=v)),
    "Graph.num_vertices": ("num_vertices", lambda v: Graph(v, [(0, 1)])),
    "SbmParams.n1": ("n1", lambda v: SbmParams(v, 3, 0.5, 0.1)),
    "SbmParams.n2": ("n2", lambda v: SbmParams(3, v, 0.5, 0.1)),
    "LogScaleParams.n": ("n", lambda v: LogScaleParams(50, 1, v)),
    "SolverConfig.max_sweeps": ("max_sweeps", lambda v: SolverConfig(max_sweeps=v)),
    "SolverConfig.seed": ("seed", lambda v: SolverConfig(seed=v)),
    "SketchConfig.max_sweeps": ("max_sweeps", lambda v: SketchConfig(max_sweeps=v)),
    "SketchConfig.seed": ("seed", lambda v: SketchConfig(seed=v)),
    "spawn_seed.seed": ("seed", lambda v: spawn_seed(v, 1)),
    "spawn_seed.key": ("path key", lambda v: spawn_seed(1, v)),
}


@pytest.fixture(scope="module")
def desk_grid():
    """One shared desk-scale run over both methods (~5 s with 4 workers)."""
    spec = GridSpec(alphas=(10, 20, 30, 40, 50), betas=(1, 3, 5), n=200, reps=5, base_seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return spec, run_grid(spec, jobs=4)


class TestGridSpec:
    def test_validation(self):
        def refused(message, **fields):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                balanced_grid(**fields)

        refused("grid must be non-empty", alphas=())
        refused("reps must be positive", reps=0)
        refused("unknown method 'CVX'", methods=("CVX",))
        refused("gamma must lie in (0, 1]", gamma_policy=0.0)
        refused("n must be even unless n1/n2 are given", n=11)
        refused("n2 must be an integer", n1=3)
        refused("n1 + n2 must equal n", n1=3, n2=8)
        refused("base_seed must be non-negative", base_seed=-1)
        # a rate <= 0 would only fail or skip its cells, so the grid is refused,
        # in the words of the model that would refuse the cell, naming the values as given
        refused("alpha and beta must be finite, got alpha=nan, beta=1", alphas=(4, math.nan))
        refused("alpha and beta must be finite, got alpha=4, beta=inf", betas=(math.inf,))
        for rates in (dict(betas=(0,)), dict(alphas=(4, -1)), dict(alphas=(-2,), betas=(1,))):
            refused("alpha and beta must be positive", **rates)

    # One bad input each: the grid refuses it with the text of the model call
    # that owns the rule.
    @pytest.mark.parametrize("fields, model", [
        (dict(alphas=(math.nan,)), lambda: LogScaleParams(math.nan, 1, 10)),
        (dict(betas=(math.inf,)), lambda: LogScaleParams(4, math.inf, 10)),
        (dict(betas=(0,)), lambda: LogScaleParams(4.0, 0.0, 10)),
        (dict(alphas=(-3,)), lambda: LogScaleParams(-3.0, 1.0, 10)),
        (dict(n=1), lambda: LogScaleParams(4.0, 1.0, 1)),
        (dict(n1=4), lambda: LogScaleParams(4.0, 1.0, 10).to_sbm_params(4, None)),
        (dict(n1=0, n2=10), lambda: LogScaleParams(4.0, 1.0, 10).to_sbm_params(0, 10)),
        (dict(n=11), lambda: LogScaleParams(4.0, 1.0, 11).to_sbm_params()),
        (dict(n1=3, n2=8), lambda: LogScaleParams(4.0, 1.0, 10).to_sbm_params(3, 8)),
    ], ids=["nan", "inf", "zero", "negative", "n_is_1", "missing_n2", "n1_zero", "odd_n", "sum"])
    def test_each_model_rule_has_one_owner(self, fields, model):
        with pytest.raises(ValueError) as owner:
            model()
        message = str(owner.value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            balanced_grid(**fields)

    @pytest.mark.parametrize("field", INTEGER_ARGUMENTS)
    @pytest.mark.parametrize("value", [1.5, 4.0, "4", None, True, False])
    def test_counts_and_seed_must_be_integers(self, field, value):
        name, call = INTEGER_ARGUMENTS[field]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer$"):
            call(value)

    @pytest.mark.parametrize("call, message", [
        (lambda: small_grid(reps=0), "reps must be positive"),
        (lambda: small_grid(base_seed=-1), "base_seed must be non-negative"),
        (lambda: small_grid(n=0, n1=0, n2=0), "n must be at least 2"),
        (lambda: small_grid(n1=0, n2=10), "n1 must be positive"),
        (lambda: Graph(-1), "num_vertices must be non-negative"),
        (lambda: SbmParams(0, 3, 0.5, 0.1), "block sizes must be positive"),
        (lambda: LogScaleParams(50, 1, 1), "n must be at least 2"),
        (lambda: SolverConfig(seed=-1), "seed must be non-negative"),
        (lambda: SketchConfig(seed=-1), "seed must be non-negative"),
        (lambda: spawn_seed(1, 2, -3), "path key must be non-negative"),
    ], ids=["reps", "base_seed", "grid_n", "grid_n1", "num_vertices", "block", "log_n",
            "solver_seed", "sketch_seed", "path_key"])
    def test_integers_below_their_minimum_rejected(self, call, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            call()

    def test_integer_fields_take_numpy_integers(self):
        spec = GridSpec(alphas=(4,), betas=(1,), n=np.int64(10), reps=np.int32(1),
                        base_seed=np.int64(3), n1=np.int64(4), n2=np.int64(6))
        assert spec.split == (4, 6)
        assert Graph(np.int32(3), [(0, 1)]).num_vertices == 3
        assert SbmParams(np.int64(3), np.uint16(4), 0.5, 0.1).n == 7
        assert LogScaleParams(50, 1, np.int64(400)).to_sbm_params().n1 == 200
        assert SketchConfig(seed=np.int64(2)).seed == SolverConfig(seed=np.uint8(2)).seed == 2
        assert spawn_seed(np.int64(5), np.uint32(1)) == spawn_seed(5, 1)

    def test_odd_n_allowed_with_explicit_split(self):
        spec = GridSpec(alphas=(4,), betas=(1,), n=11, reps=1, n1=4, n2=7)
        assert spec.split == (4, 7)

    def test_balanced_split_default(self):
        spec = GridSpec(alphas=(4,), betas=(1,), n=10, reps=1)
        assert spec.split == (5, 5)


def cell_seeds(spec):
    """Cell seed keyed by (alpha index, beta index, rep, method)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cells = run_grid(spec)
    return {
        (spec.alphas.index(c.alpha), spec.betas.index(c.beta), c.rep, c.method): c.seed
        for c in cells
    }


class TestCellSeeds:
    def test_distinct_across_coordinates(self):
        spec = GridSpec(alphas=(4, 6), betas=(1, 2), n=10, reps=3, base_seed=5)
        seeds = cell_seeds(spec)
        assert len(set(seeds.values())) == 2 * 2 * 3 * 2
        # the derivation is pinned: spawn_seed over (base, a, b, rep, method code)
        codes = {METHOD_FULL_SDP: 1, METHOD_SKETCH: 2}
        for (ai, bi, rep, m), seed in seeds.items():
            assert seed == spawn_seed(5, ai, bi, rep, codes[m])

    def test_independent_of_anything_but_coordinates(self):
        a = GridSpec(alphas=(4, 6), betas=(1, 2), n=10, reps=3)
        b = GridSpec(alphas=(4, 6), betas=(1, 2), n=12, reps=3)
        key = (1, 0, 2, METHOD_SKETCH)
        assert cell_seeds(a)[key] == cell_seeds(b)[key]


class TestRunGrid:
    def test_easy_cell_all_recovered(self):
        spec = GridSpec(alphas=(50,), betas=(1,), n=100, reps=3, methods=(METHOD_FULL_SDP,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_grid(spec)
        assert len(results) == 3
        assert all(c.recovered for c in results)
        assert all(c.error == "" for c in results)
        assert all(c.runtime_ms > 0 for c in results)

    def test_beta_at_or_above_alpha_skipped(self):
        spec = GridSpec(alphas=(2, 4), betas=(2,), n=20, reps=1, methods=(METHOD_FULL_SDP,))
        results = run_grid(spec)
        skipped = [c for c in results if c.alpha == 2.0]
        ran = [c for c in results if c.alpha == 4.0]
        assert all(c.error == SKIPPED and not c.recovered for c in skipped)
        assert all(c.error != SKIPPED for c in ran)
        assert all(c.runtime_ms is None and c.mu_used is None for c in skipped)

    def test_canonical_result_order(self):
        spec = GridSpec(alphas=(4, 6), betas=(1, 2), n=16, reps=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_grid(spec)
        coords = [(c.alpha, c.beta, c.rep, c.method) for c in results]
        expect = [
            (a, b, rep, m)
            for a in (4.0, 6.0)
            for b in (1.0, 2.0)
            for rep in range(2)
            for m in sorted(spec.methods)
        ]
        assert coords == expect

    def test_parallel_matches_serial(self):
        spec = GridSpec(alphas=(6, 10), betas=(1,), n=40, reps=2, base_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = run_grid(spec, jobs=1)
            parallel = run_grid(spec, jobs=2)
        assert [untimed(c) for c in parallel] == [untimed(c) for c in serial]

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        pools = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
        spec = GridSpec(alphas=(6,), betas=(1,), n=20, reps=2)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        parallel = run_grid(spec, jobs=8)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        serial = run_grid(spec, jobs=8)
        assert pools == [2]
        assert [untimed(c) for c in parallel] == [untimed(c) for c in serial]

    @pytest.mark.parametrize("jobs, message", [
        (1.5, "jobs must be an integer"),
        ("2", "jobs must be an integer"),
        (0, "jobs must be positive"),
        (-2, "jobs must be positive"),
    ], ids=repr)
    def test_jobs_must_be_a_positive_integer(self, monkeypatch, jobs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_run_cell", no_work)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            run_grid(small_grid(), jobs=jobs)

    @pytest.mark.parametrize(
        "method, gamma_policy, split",
        [
            (METHOD_FULL_SDP, "auto", None),
            (METHOD_FULL_SDP, "auto", (120, 80)),
            (METHOD_SKETCH, "auto", None),
            (METHOD_SKETCH, 0.6, None),
            (METHOD_SKETCH, 0.6, (120, 80)),
        ],
    )
    def test_cell_is_the_direct_pipeline_call(self, method, gamma_policy, split):
        # a FULL_SDP cell is full_solve, and a SKETCH cell is sketch_and_solve
        # with its gamma policy, both at the estimated mu, on the graph
        # sampled from the cell's seed
        n1, n2 = split or (None, None)
        spec = GridSpec(
            alphas=(6, 14), betas=(1,), n=200, reps=2, methods=(method,),
            gamma_policy=gamma_policy, n1=n1, n2=n2,
            base_seed=11, solver=SolverConfig(max_sweeps=8),
        )
        cells = run_grid(spec)
        assert not any(c.error for c in cells)
        for c in cells:
            params = LogScaleParams(c.alpha, c.beta, spec.n).to_sbm_params(*spec.split)
            graph, planted = sample_sbm(params, spawn_seed(c.seed, 0))
            if method == METHOD_FULL_SDP:
                result = full_solve(
                    graph, max_sweeps=spec.solver.max_sweeps,
                    seed=spawn_seed(c.seed, 1),
                )
            else:
                cfg = SketchConfig(
                    gamma=gamma_policy, seed=spawn_seed(c.seed, 1),
                    max_sweeps=spec.solver.max_sweeps, alpha=c.alpha, beta=c.beta,
                )
                result = sketch_and_solve(graph, cfg)
            gamma = 1.0 if method == METHOD_FULL_SDP else (
                auto_gamma(c.alpha, c.beta) if gamma_policy == "auto" else gamma_policy
            )
            assert c.gamma_used == gamma
            assert c.mu_used == result.mu_used
            assert c.fell_back == result.fell_back_random
            assert c.unassigned_count == result.unassigned.size
            assert c.recovered == recovered_planted(planted, result)

    def test_cell_failures_recorded_not_raised(self):
        # gamma so small the sketch usually loses a whole community: the
        # pipeline error lands in the error field instead of crashing the grid
        spec = GridSpec(
            alphas=(4,), betas=(1,), n=6, reps=10,
            methods=(METHOD_SKETCH,), gamma_policy=0.05, base_seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_grid(spec)
        assert len(results) == 10
        failed = [c for c in results if c.error and c.error != SKIPPED]
        assert failed, "expected at least one failed cell at this gamma"
        assert all(not c.recovered for c in failed)

    def test_recovered_implies_fully_assigned(self, desk_grid):
        _, results = desk_grid
        for c in results:
            if c.recovered:
                assert c.unassigned_count == 0

    def test_figure_one_shape_strong_cells(self, desk_grid):
        spec, results = desk_grid
        rates = {}
        for c in results:
            if c.error:
                continue
            rates.setdefault((c.alpha, c.beta, c.method), []).append(c.recovered)
        for a in spec.alphas:
            for b in spec.betas:
                if math.sqrt(a) - math.sqrt(b) < math.sqrt(2.0) + 1.0:
                    continue
                for m in spec.methods:
                    votes = rates[(a, b, m)]
                    rate = sum(votes) / len(votes)
                    assert rate >= 0.8, (a, b, m, rate)

    def test_figure_one_sketch_faster_at_strong_signal(self):
        # a strip of its own at n = 1000: at the desk grid's n = 200 and
        # alpha = 50, p clamps to 1, the graph is two cliques and both
        # methods cost the same few ms of per-call overhead
        spec = GridSpec(alphas=(50,), betas=(1,), n=1000, reps=5, base_seed=42)
        results = run_grid(spec)
        med = {}
        for m in (METHOD_FULL_SDP, METHOD_SKETCH):
            times = [c.runtime_ms for c in results if c.method == m and not c.error]
            assert len(times) == spec.reps
            med[m] = statistics.median(times)
        assert med[METHOD_SKETCH] < med[METHOD_FULL_SDP]


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_single_cell_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([make_cell(8, 2)], path)
        text = path.read_text()
        assert text.count("\n") == 2
        assert text.startswith("alpha,beta,")

    def test_round_trip(self, tmp_path):
        cells = [
            make_cell(8, 2, rep=0, runtime_ms=12.3456, seed=42),
            make_cell(8, 2, rep=1, method=METHOD_SKETCH, gamma_used=0.25,
                      mu_used=1 / 3, recovered=False, fell_back=True,
                      unassigned_count=4, runtime_ms=0.5004, seed=43),
            make_cell(2, 8, error=SKIPPED, gamma_used=None, mu_used=None,
                      runtime_ms=None, recovered=False),
        ]
        path = tmp_path / "round.csv"
        emit_csv(cells, path)
        back = parse_csv(path)
        assert len(back) == len(cells)
        for orig, got in zip(cells, back):
            assert got.alpha == orig.alpha
            assert got.beta == orig.beta
            assert got.rep == orig.rep
            assert got.method == orig.method
            assert got.n == orig.n
            assert got.gamma_used == orig.gamma_used
            assert got.mu_used == orig.mu_used
            assert got.recovered == orig.recovered
            assert got.fell_back == orig.fell_back
            assert got.unassigned_count == orig.unassigned_count
            assert got.seed == orig.seed
            assert got.error == orig.error
            if orig.runtime_ms is None:
                assert got.runtime_ms is None
            else:
                assert got.runtime_ms == float(f"{orig.runtime_ms:.3f}")

    def test_float_fields_round_trip_exactly(self, tmp_path):
        cell = make_cell(0.1 + 0.2, 1 / 3, gamma_used=2 / 7, mu_used=0.07487437185929649)
        path = tmp_path / "exact.csv"
        emit_csv([cell], path)
        got = parse_csv(path)[0]
        assert got.alpha == cell.alpha
        assert got.beta == cell.beta
        assert got.gamma_used == cell.gamma_used
        assert got.mu_used == cell.mu_used

    def test_read_back_heatmap_equals_live(self, tmp_path):
        # (4, 4), (4, 8) and (8, 8) are SKIPPED: blank in both heatmaps
        spec = GridSpec(alphas=(4, 8), betas=(1, 4, 8), n=30, reps=2, base_seed=3,
                        solver=SolverConfig(max_sweeps=5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            live = run_grid(spec)
        emit_csv(live, tmp_path / "grid.csv")
        emit_heatmap_svg(live, tmp_path / "live.svg")
        emit_heatmap_svg(parse_csv(tmp_path / "grid.csv"), tmp_path / "read.svg")
        svg = (tmp_path / "live.svg").read_text()
        assert len(re.findall(r"<rect", svg)) == 2 * 3
        assert (tmp_path / "read.svg").read_text() == svg

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        emit_csv([make_cell(8, 2)], path)
        path.write_text(path.read_text() + "8.0,2.0,1\n")
        with pytest.raises(ValueError, match=r"^line 3: expected 12 fields$"):
            parse_csv(path)

    def test_header_checked_on_parse(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n1.0,2.0\n")
        with pytest.raises(ValueError):
            parse_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match=r"^unexpected CSV header$"):
            parse_csv(path)

    def test_rerun_bitwise_identical_modulo_timing(self, tmp_path):
        spec = GridSpec(alphas=(6,), betas=(1, 6), n=30, reps=2, base_seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            first = run_grid(spec)
            second = run_grid(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(first, p1)
        emit_csv(second, p2)
        assert strip_runtime(p1.read_text()) == strip_runtime(p2.read_text())


class TestHeatmapSvg:
    def test_single_recovered_cell_is_black(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_heatmap_svg([make_cell(50, 1)], path)
        text = path.read_text()
        rects = re.findall(r"<rect[^>]*>", text)
        assert len(rects) == 1
        assert 'fill="rgb(0,0,0)"' in rects[0]
        assert ">alpha<" in text and ">beta<" in text
        assert text.startswith("<svg ")

    def test_recovery_shades_clamped(self, tmp_path):
        cells = []
        for b, wins in ((1, 2), (2, 1), (3, 0)):
            for rep in range(2):
                cells.append(make_cell(10, b, rep=rep, recovered=rep < wins))
        path = tmp_path / "shades.svg"
        emit_heatmap_svg(cells, path)
        shades = [int(s) for s in re.findall(r'rgb\((\d+),\1,\1\)', path.read_text())]
        assert len(shades) == 3
        assert all(0 <= s <= 255 for s in shades)
        assert sorted(shades) == [0, 128, 255]

    def test_runtime_metric_log_scaled(self, tmp_path):
        cells = [
            make_cell(10, 1, runtime_ms=1.0),
            make_cell(10, 2, runtime_ms=10.0),
            make_cell(10, 3, runtime_ms=100.0),
        ]
        path = tmp_path / "rt.svg"
        emit_heatmap_svg(cells, path, metric="mean_runtime")
        shades = [int(s) for s in re.findall(r'rgb\((\d+),\1,\1\)', path.read_text())]
        # log scale puts 10 ms exactly halfway between 1 ms and 100 ms
        assert sorted(shades) == [0, 128, 255]

    def test_skipped_cells_leave_gaps(self, tmp_path):
        cells = [
            make_cell(4, 1),
            make_cell(4, 4, error=SKIPPED, recovered=False,
                      gamma_used=None, mu_used=None, runtime_ms=None),
        ]
        path = tmp_path / "gap.svg"
        emit_heatmap_svg(cells, path)
        assert len(re.findall(r"<rect", path.read_text())) == 1

    def test_phase_curve_passes_through_exact_point(self, tmp_path):
        # the boundary curve hits (beta=2, alpha=8) exactly; in pixel space
        # that is the center of the beta=2 column at the alpha=8 row
        cells = [
            make_cell(a, b, recovered=(a > 4 * b))
            for a in (2, 8, 20)
            for b in (1, 2, 5, 10)
        ]
        path = tmp_path / "curve.svg"
        emit_heatmap_svg(cells, path, overlay="prop1_curve")
        text = path.read_text()
        match = re.search(r'<polyline points="([^"]+)"[^>]*stroke="red"', text)
        assert match
        pts = [tuple(map(float, p.split(","))) for p in match.group(1).split()]
        assert len(pts) >= 2
        # cell geometry: left margin 64, top 42, 26 px cells, alpha upward
        x_beta2 = 64 + 1.5 * 26
        y_alpha8 = 42 + 3 * 26 - 1.5 * 26
        ys = [y for x, y in pts if abs(x - x_beta2) < 1e-6]
        if ys:
            y_at = ys[0]
        else:
            lo = max((p for p in pts if p[0] < x_beta2), key=lambda p: p[0])
            hi = min((p for p in pts if p[0] > x_beta2), key=lambda p: p[0])
            frac = (x_beta2 - lo[0]) / (hi[0] - lo[0])
            y_at = lo[1] + frac * (hi[1] - lo[1])
        assert abs(y_at - y_alpha8) <= 0.5

    def test_conjecture_iso_uses_median_gamma(self, tmp_path):
        # all sketch cells at gamma 0.5 shift the curve to alpha=(sqrt(b)+2)^2,
        # which passes through (beta=1, alpha=9)
        cells = [
            make_cell(a, b, method=METHOD_SKETCH, gamma_used=0.5)
            for a in (1, 9, 25)
            for b in (1, 4, 9)
        ]
        path = tmp_path / "iso.svg"
        emit_heatmap_svg(cells, path, overlay="conjecture_gamma_iso")
        match = re.search(r'<polyline points="([^"]+)"', path.read_text())
        assert match
        pts = [tuple(map(float, p.split(","))) for p in match.group(1).split()]
        x_beta1 = 64 + 0.5 * 26
        y_alpha9 = 42 + 3 * 26 - 1.5 * 26
        best = min(pts, key=lambda p: abs(p[0] - x_beta1))
        assert abs(best[0] - x_beta1) < 0.3
        assert abs(best[1] - y_alpha9) <= 0.5

    def test_non_rectangular_rejected(self, tmp_path):
        cells = [make_cell(2, 1), make_cell(2, 2, error=SKIPPED), make_cell(8, 1)]
        with pytest.raises(ValueError):
            emit_heatmap_svg(cells, tmp_path / "x.svg")

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_heatmap_svg([make_cell(4, 1)], tmp_path / "x.svg", metric="median")
        with pytest.raises(ValueError):
            emit_heatmap_svg([make_cell(4, 1)], tmp_path / "x.svg", overlay="grid")

    def test_panel_per_method(self, tmp_path, desk_grid):
        _, results = desk_grid
        path = tmp_path / "both.svg"
        emit_heatmap_svg(results, path)
        text = path.read_text()
        assert ">FULL_SDP<" in text
        assert ">SKETCH<" in text
        assert len(re.findall(r"<rect", text)) == 2 * 5 * 3


class TestGridConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "# figure one, desk scale\n"
            "alphas = 10, 20, 30\n"
            "betas = 1, 3\n"
            "n = 200\n"
            "reps = 5\n"
            "methods = FULL_SDP, SKETCH\n"
            "gamma = auto\n"
            "seed = 9\n"
        )
        spec = parse_grid_config(path)
        assert spec.alphas == (10.0, 20.0, 30.0)
        assert spec.betas == (1.0, 3.0)
        assert spec.n == 200
        assert spec.reps == 5
        assert spec.methods == (METHOD_FULL_SDP, METHOD_SKETCH)
        assert spec.gamma_policy == "auto"
        assert spec.base_seed == 9

    def test_unbalanced_keys(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("alphas = 20\nbetas = 2\nn = 300\nreps = 1\nn1 = 100\nn2 = 200\n")
        spec = parse_grid_config(path)
        assert spec.split == (100, 200)

    def test_fixed_gamma(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("alphas = 20\nbetas = 2\nn = 100\nreps = 1\ngamma = 0.3\n")
        assert parse_grid_config(path).gamma_policy == 0.3

    @pytest.mark.parametrize("line, message", [
        ("color = red", "unknown config keys: ['color']"),
        ("mu = auto", "unknown config keys: ['mu']"),  # every cell runs at the estimated mu
    ], ids=["color", "mu"])
    def test_unknown_key_rejected(self, tmp_path, line, message):
        path = tmp_path / "grid.cfg"
        path.write_text(f"alphas = 20\nbetas = 2\nn = 100\nreps = 1\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_grid_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("alphas = 20\nbetas = 2\nn = 100\n")
        with pytest.raises(ValueError):
            parse_grid_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("alphas 20\n")
        with pytest.raises(ValueError):
            parse_grid_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("alphas = 20\nbetas = 2\nn = 100\nreps = 1\n# again\nn = 120\n")
        with pytest.raises(ValueError, match=r"^line 6: key 'n' repeats line 3$"):
            parse_grid_config(path)

    @pytest.mark.parametrize("key, value, reason", [
        ("n", "1e3", r"invalid literal for int\(\) with base 10: '1e3'"),
        ("alphas", "20, x", r"could not convert string to float: ' x'"),
        ("seed", "-", r"invalid literal for int\(\) with base 10: '-'"),
        ("gamma", "half", r"could not convert string to float: 'half'"),
    ], ids=["n", "alphas", "seed", "gamma"])
    def test_bad_value_names_line_and_key(self, tmp_path, key, value, reason):
        lines = {"alphas": "20", "betas": "2", "n": "100", "reps": "1", "seed": "3",
                 "gamma": "auto"}
        lines[key] = value
        path = tmp_path / "grid.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        lineno = list(lines).index(key) + 1
        with pytest.raises(ValueError, match=rf"^line {lineno}: {key}: {reason}$"):
            parse_grid_config(path)
