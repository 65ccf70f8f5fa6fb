import dataclasses
import inspect
import json
import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest

from sketchbisect import (
    CERTIFIED,
    NOT_CERTIFIED,
    Graph,
    LogScaleParams,
    Partition,
    SbmParams,
    SketchConfig,
    SolverConfig,
    TIE_FAIL,
    auto_gamma,
    bernoulli_vertex_sample,
    check_certificate,
    cli,
    conjectured_gamma_threshold,
    estimate_mu,
    full_solve,
    recovered_planted,
    sample_sbm,
    save_graph,
    sketch_and_solve,
    solve_sdp,
    spawn_seed,
    vote_extend,
)
import sketchbisect
from sketchbisect import experiments, pipeline
from sketchbisect.certificate import ZOperator
from sketchbisect.encoding import checked_mu

from conftest import pairwise_sample_sbm, sides, spy_symmetric_builds


def spy_solutions(monkeypatch, log):
    """Pass every solution the pipeline gets to ``log``: the ``solve_sdp``
    results and the sweep checkpoints, in the order they arrive."""
    checkpoints = pipeline._sweep_checkpoints

    def solve(*args, **kwargs):
        sol = solve_sdp(*args, **kwargs)
        log(sol)
        return sol

    def sweep(*args, **kwargs):
        for sol in checkpoints(*args, **kwargs):
            log(sol)
            yield sol

    monkeypatch.setattr(pipeline, "solve_sdp", solve)
    monkeypatch.setattr(pipeline, "_sweep_checkpoints", sweep)


def count_stage_calls(monkeypatch):
    """Log ``("solve", sweeps_used)`` per solution and ``("certify", verdict)`` per check."""
    calls = []

    def certify(*args, **kwargs):
        report = check_certificate(*args, **kwargs)
        calls.append(("certify", report.verdict))
        return report

    spy_solutions(monkeypatch, lambda sol: calls.append(("solve", sol.sweeps_used)))
    monkeypatch.setattr(pipeline, "check_certificate", certify)
    return calls


class TestVoteExtend:
    def test_majority_joins_bigger_side(self):
        # v=4 sees two votes for {0,1} and one for {2,3}
        g = Graph(5, [(4, 0), (4, 1), (4, 2)])
        part, unassigned = vote_extend(g, [0, 1], [2, 3])
        assert unassigned.size == 0
        assert part.sign_of(4) == 1

    def test_tie_rules(self):
        g = Graph(5, [(4, 0), (4, 2)])
        part, unassigned = vote_extend(g, [0, 1], [2, 3], tie_rule=TIE_FAIL)
        assert list(unassigned) == [4]
        assert 4 not in part.ids

    @pytest.mark.parametrize("rule", ["bogus", "fail", None, "TO_FIRST", "RANDOM"])
    def test_unknown_tie_rule_rejected(self, rule):
        # rejected even where no vertex ties
        g = Graph(5, [(4, 0), (4, 1), (4, 2)])
        message = rf"^unknown tie rule {re.escape(repr(rule))}$"
        with pytest.raises(ValueError, match=message):
            vote_extend(g, [0, 1], [2, 3], tie_rule=rule)

    def test_one_rule_and_no_seed(self):
        # the vote draws no random numbers, so it takes no seed
        g = Graph(5, [(4, 0), (4, 2)])
        with pytest.raises(TypeError):
            vote_extend(g, [0, 1], [2, 3], seed=1)
        assert not {"TIE_TO_FIRST", "TIE_RANDOM"} & set(dir(sketchbisect))
        assert not {"TIE_TO_FIRST", "TIE_RANDOM"} & set(dir(pipeline))

    def test_seeds_keep_their_sides(self):
        g = Graph(4, [(0, 1), (2, 3), (0, 2)])
        part, _ = vote_extend(g, [0], [3])
        assert part.sign_of(0) == 1
        assert part.sign_of(3) == -1

    def test_validation(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError):
            vote_extend(g, [], [])
        with pytest.raises(ValueError):
            vote_extend(g, [0, 1], [1, 2])

    def test_non_integer_seed_labels_raise(self):
        # vote_extend(g, [0.2], [2.9]) used to vote with the seeds 0 and 2
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="seed labels must be whole numbers"):
            vote_extend(g, [0.2], [2.9])
        with pytest.raises(ValueError, match="seed labels must be whole numbers"):
            vote_extend(g, [0], np.array([3.0, float("nan")]))
        with pytest.raises(ValueError, match="seed labels must be whole numbers"):
            vote_extend(g, [True], [3])

    def test_seed_sides_from_any_iterable(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        expected = vote_extend(g, [0], [3])
        for plus, minus in (
            (np.array([0, 0]), np.array([3], dtype=np.uint8)),
            ((0,), range(3, 4)),
            ({0}, iter([3, 3])),
            ([0.0], [3.0]),
            ({0: "a"}.keys(), (v for v in [3])),
        ):
            part, unassigned = vote_extend(g, plus, minus)
            assert part == expected[0] and np.array_equal(unassigned, expected[1])

    def test_one_empty_side(self):
        # 2 and 3 see only the non-empty side; 4 sees no seed at all
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3)])
        part, unassigned = vote_extend(g, [], [0, 1])
        assert part == sides([], [0, 1, 2, 3])
        assert list(unassigned) == [4]

    def test_no_outsiders_is_identity(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        part, unassigned = vote_extend(g, [0, 1], [2, 3])
        assert unassigned.size == 0
        assert part == sides([0, 1], [2, 3])

    @pytest.mark.parametrize("labels", ["contiguous", "non-contiguous"])
    def test_votes_follow_the_dense_margins(self, labels):
        # every outside vertex takes the sign of its row of A @ s, read off a
        # dense matrix built from the input pairs; a zero margin is a tie
        rng = np.random.default_rng(41)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            ids = np.arange(n) if labels == "contiguous" else 7 * np.arange(n) + 3
            upper = np.triu(rng.random((n, n)) < 0.25, 1)
            dense = (upper | upper.T).astype(float)
            iu, ju = np.nonzero(upper)
            g = Graph(n, ids[np.column_stack([ju, iu])], vertex_ids=rng.permutation(ids))
            s = rng.choice([-1.0, 0.0, 1.0], size=n)
            one_sided = ("both", "plus only", "minus only")[trial % 3]
            if one_sided == "plus only":
                s[s < 0] = 0.0
            elif one_sided == "minus only":
                s[s > 0] = 0.0
            s[rng.integers(n)] = 1.0 if one_sided != "minus only" else -1.0
            margin = dense @ s
            part, unassigned = vote_extend(g, ids[s > 0], ids[s < 0])
            voted = (s == 0) & (margin != 0)
            kept = (s != 0) | voted
            assert part == Partition(ids[kept], np.where(voted, np.sign(margin), s)[kept])
            assert np.array_equal(unassigned, ids[(s == 0) & (margin == 0)])

    def test_recovers_planted_from_oracle_sketch(self):
        # scaled-down majority-vote experiment: strong signal, oracle seeds
        params = LogScaleParams(30, 1, 200).to_sbm_params()
        wins = 0
        for s in range(6):
            graph, planted = sample_sbm(params, seed=500 + s)
            keep = bernoulli_vertex_sample(graph, 0.3, seed=7000 + s)
            r1 = [int(v) for v in keep if planted.sign_of(int(v)) > 0]
            r2 = [int(v) for v in keep if planted.sign_of(int(v)) < 0]
            part, unassigned = vote_extend(graph, r1, r2, tie_rule=TIE_FAIL)
            if unassigned.size == 0 and part.equals_up_to_flip(planted):
                wins += 1
        assert wins >= 5


class TestAutoGamma:
    def test_exact_integer_points(self):
        assert auto_gamma(25, 9) == 1.0
        assert auto_gamma(49, 9) == 0.25
        # twice the conjectured threshold: doubling is exact, so 2 * (2 / d)
        # and 4 / d are the same float
        rng = np.random.default_rng(5)
        betas = rng.uniform(0.01, 40.0, 2000)
        alphas = betas + rng.uniform(1e-6, 200.0, 2000)
        for alpha, beta in zip(alphas.tolist(), betas.tolist()):
            want = min(1.0, 4.0 / (math.sqrt(alpha) - math.sqrt(beta)) ** 2)
            assert auto_gamma(alpha, beta) == want
            assert want == min(1.0, 2.0 * conjectured_gamma_threshold(alpha, beta))

    def test_high_precision_point(self):
        getcontext().prec = 50
        oracle = Decimal(4) / (Decimal(50).sqrt() - 1) ** 2
        assert auto_gamma(50, 1) == pytest.approx(float(oracle), rel=1e-13)

    def test_capped_at_one(self):
        assert auto_gamma(9, 1) == 1.0

    def test_validation(self):
        for alpha, beta in ((2, 2), (1, 2), (2, 0)):
            with pytest.raises(ValueError, match=r"^need alpha > beta > 0$"):
                auto_gamma(alpha, beta)
        # an infinite alpha would give gamma = 0 and an empty sketch
        for alpha, beta in ((math.inf, 1), (math.nan, 1), (50, math.inf)):
            with pytest.raises(ValueError, match=r"^alpha and beta must be finite"):
                auto_gamma(alpha, beta)


class TestSketchConfig:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            SketchConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SketchConfig(gamma=1.5)
        SketchConfig(gamma=1.0)

    # A boolean is neither a sampling rate nor an offset, though Python and
    # numpy would read it as 1 or 0.
    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=repr)
    @pytest.mark.parametrize("call, message", [
        (lambda flag: SketchConfig(gamma=flag), "gamma must lie in (0, 1]"),
        (pipeline.checked_gamma, "gamma must lie in (0, 1]"),
        (lambda flag: experiments.GridSpec(alphas=(4,), betas=(1,), n=10, reps=1, gamma_policy=flag),
         "gamma must lie in (0, 1]"),
        (lambda flag: bernoulli_vertex_sample(Graph(3), flag, 0), "gamma must lie in [0, 1]"),
        (lambda flag: SketchConfig(mu=flag), "mu must be a finite non-negative number"),
        (checked_mu, "mu must be a finite non-negative number"),
        (lambda flag: check_certificate(Graph(2, [(0, 1)]), Partition([0, 1], [1, -1]), flag),
         "mu must be a finite non-negative number"),
    ], ids=["SketchConfig.gamma", "checked_gamma", "GridSpec.gamma_policy",
            "bernoulli_vertex_sample", "SketchConfig.mu", "checked_mu", "check_certificate"])
    def test_booleans_are_not_rates(self, call, message, flag):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(flag)

    # A rate or offset is a Python or numpy real: a string or a 0-d array is
    # not read through float(), and a boolean is not read as 1 or 0.
    @pytest.mark.parametrize("value", ["0.5", np.array(0.5), True, np.True_], ids=repr)
    @pytest.mark.parametrize("call, message", [
        (lambda v: SketchConfig(mu=v), "mu must be a finite non-negative number"),
        (lambda v: check_certificate(Graph(2, [(0, 1)]), Partition([0, 1], [1, -1]), v),
         "mu must be a finite non-negative number"),
        (lambda v: bernoulli_vertex_sample(Graph(3), v, 0), "gamma must lie in [0, 1]"),
        (lambda v: SbmParams(2, 2, v, 0.1), "p must lie in [0, 1], got {}"),
        (lambda v: SbmParams(2, 2, 0.5, v), "q must lie in [0, 1], got {}"),
    ], ids=["SketchConfig.mu", "check_certificate", "bernoulli_vertex_sample", "SbmParams.p",
            "SbmParams.q"])
    def test_rates_are_non_boolean_reals(self, call, message, value):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
            call(value)
        for real in (np.float64(0.5), np.float32(0.5)):
            call(real)

    # The log-scale rates take the same test wherever they enter, before any work
    @pytest.mark.parametrize("value", ["1", True, np.True_, np.array(1.0)], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda a, b: LogScaleParams(a, b, 400),
        lambda a, b: experiments.GridSpec(alphas=(a,), betas=(b,), n=10, reps=1),
        lambda a, b: SketchConfig(gamma=0.5, alpha=a, beta=b),
        auto_gamma,
    ], ids=["LogScaleParams", "GridSpec", "SketchConfig", "auto_gamma"])
    def test_log_scale_rates_are_non_boolean_reals(self, call, value):
        for alpha, beta in ((value, 0.5), (6.0, value)):
            want = f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}"
            with pytest.raises(ValueError) as exc:
                call(alpha, beta)
            assert str(exc.value) == want
        call(np.float64(6.0), np.float32(0.5))

    def test_one_given_rate_is_checked(self):
        # a lone rate is checked as a pair is; a grid stores its checked rates as floats
        with pytest.raises(ValueError, match=r"^alpha and beta must be finite, got alpha='50', beta=None$"):
            SketchConfig(alpha="50")
        assert SketchConfig(beta=np.int64(2)).beta == 2
        grid = experiments.GridSpec(alphas=(6, np.float32(7.5)), betas=(np.int64(1),), n=10, reps=1)
        assert grid.alphas == (6.0, 7.5) and grid.betas == (1.0,)
        assert all(type(r) is float for r in grid.alphas + grid.betas)

    def test_auto_mu_is_the_string(self):
        # an array mu used to be compared with "auto" elementwise
        for bad in (np.array([0.5, 0.6]), np.array("auto"), "AUTO"):
            with pytest.raises(ValueError, match=r"^mu must be a finite non-negative number$"):
                SketchConfig(mu=bad)
        assert SketchConfig(mu="auto").mu == "auto"

    def test_gamma_is_auto_or_a_real(self):
        for bad in ("0.5", "AUTO", math.nan, np.array(0.5), None):
            with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\]$"):
                SketchConfig(gamma=bad)
        for good in ("auto", 1, 0.25, np.float32(0.5), np.int64(1)):
            assert SketchConfig(gamma=good).gamma == good
            assert pipeline.checked_gamma(good) == good

    def test_tie_rule_is_not_a_setting(self):
        # the pipeline votes with TIE_FAIL; vote_extend alone takes a rule
        with pytest.raises(TypeError):
            SketchConfig(tie_rule=TIE_FAIL)

    def test_max_sweeps_checked(self):
        with pytest.raises(ValueError, match=r"^max_sweeps must be non-negative$"):
            SketchConfig(max_sweeps=-1)
        assert SketchConfig(max_sweeps=0).max_sweeps == 0
        assert SketchConfig().max_sweeps == SolverConfig().max_sweeps == 500

    @pytest.mark.parametrize("budget", [2.5, 3.0, "3"])
    def test_sweep_budget_must_be_an_integer(self, monkeypatch, two_triangles, budget):
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started")

        monkeypatch.setattr(pipeline, "estimate_mu", no_work)
        with pytest.raises(ValueError, match=r"^max_sweeps must be an integer$"):
            SketchConfig(max_sweeps=budget)
        with pytest.raises(ValueError, match=r"^max_sweeps must be an integer$"):
            full_solve(two_triangles[0], max_sweeps=budget)
        assert SketchConfig(max_sweeps=np.int64(3)).max_sweeps == 3

    def test_sweep_budget_is_the_only_solver_setting(self):
        # the solver's seed is derived from ``seed``, so no solver config is taken
        assert [f.name for f in dataclasses.fields(SketchConfig)] == [
            "gamma", "seed", "max_sweeps", "mu", "alpha", "beta"
        ]
        with pytest.raises(TypeError):
            SketchConfig(solver=SolverConfig())
        assert list(inspect.signature(full_solve).parameters) == [
            "graph", "mu", "max_sweeps", "seed"
        ]

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -1.0], ids=["nan", "inf", "-1"])
    def test_mu_must_be_finite_and_non_negative(self, monkeypatch, two_triangles, mu):
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started")

        monkeypatch.setattr(pipeline, "bernoulli_vertex_sample", no_work)
        monkeypatch.setattr(pipeline, "solve_sdp", no_work)
        message = r"^mu must be a finite non-negative number$"
        with pytest.raises(ValueError, match=message):
            SketchConfig(mu=mu)
        with pytest.raises(ValueError, match=message):
            full_solve(two_triangles[0], mu=mu)

    def test_auto_gamma_needs_rates(self, two_triangles):
        graph, _ = two_triangles
        with pytest.raises(ValueError):
            sketch_and_solve(graph, SketchConfig(gamma="auto"))


class TestSketchAndSolve:
    def test_gamma_one_equals_full_solve(self, two_triangles):
        graph, planted = two_triangles
        a = sketch_and_solve(graph, SketchConfig(gamma=1.0, seed=5))
        b = full_solve(graph, seed=5)
        assert a.full_partition == b.full_partition
        assert np.array_equal(a.sketch_vertices, graph.vertex_ids)
        assert a.sketch_partition == a.full_partition
        assert a.unassigned.size == 0
        assert np.array_equal(a.sdp.factors, b.sdp.factors)
        assert a.mu_used == b.mu_used == 6 / 15
        assert a.full_partition.equals_up_to_flip(planted)

    def test_forced_half_sketch_of_triangles(self, two_triangles):
        # seed 3 makes the Bernoulli sample keep vertices {0,1,3,4}: one
        # edge per triangle survives, the sub-SDP certifies its planted
        # cut, and the two dropped vertices return by unanimous votes
        graph, planted = two_triangles
        config = SketchConfig(gamma=0.65, seed=3)
        result = sketch_and_solve(graph, config)
        assert list(result.sketch_vertices) == [0, 1, 3, 4]
        assert result.certificate is not None
        assert result.certificate.verdict == CERTIFIED
        assert not result.fell_back_random
        assert result.unassigned.size == 0
        assert result.full_partition.equals_up_to_flip(planted)

    def test_vote_uses_the_default_rule(self, monkeypatch, two_triangles):
        # the pipeline passes only the graph and the two sketch sides, through
        # the module global the benchmark's tracer patches
        graph, _ = two_triangles
        calls = []

        def vote(*args, **kwargs):
            calls.append((len(args), kwargs))
            return vote_extend(*args, **kwargs)

        monkeypatch.setattr(pipeline, "vote_extend", vote)
        result = sketch_and_solve(graph, SketchConfig(gamma=0.65, seed=3))
        assert calls == [(3, {})]
        assert result.unassigned.size == 0

    def test_sketch_uses_derived_sample_seed(self, two_triangles):
        graph, _ = two_triangles
        result = sketch_and_solve(graph, SketchConfig(gamma=0.65, seed=3))
        expect = bernoulli_vertex_sample(graph, 0.65, spawn_seed(3, 1))
        assert np.array_equal(result.sketch_vertices, expect)

    def test_mu_from_full_graph_not_sketch(self, two_triangles):
        graph, _ = two_triangles
        result = sketch_and_solve(graph, SketchConfig(gamma=0.65, seed=3))
        # the 4-vertex sketch alone would give mu = 2/6; the full graph 6/15
        assert result.mu_used == 6 / 15

    def test_fixed_mu_respected(self, two_triangles):
        graph, _ = two_triangles
        result = sketch_and_solve(graph, SketchConfig(gamma=1.0, mu=0.5, seed=0))
        assert result.mu_used == 0.5

    def test_timing_stages_present(self, two_triangles):
        graph, _ = two_triangles
        result = sketch_and_solve(graph, SketchConfig(gamma=0.65, seed=3))
        assert set(result.timings) == {"estimate", "sample", "solve", "certify", "extend"}
        assert all(t >= 0.0 for t in result.timings.values())

    def test_deterministic_end_to_end(self):
        params = LogScaleParams(50, 1, 300).to_sbm_params()
        graph, _ = sample_sbm(params, seed=77)
        cfg = SketchConfig(gamma=0.25, seed=9)
        a = sketch_and_solve(graph, cfg)
        b = sketch_and_solve(graph, cfg)
        assert a.full_partition == b.full_partition
        assert np.array_equal(a.sketch_vertices, b.sketch_vertices)
        assert a.fell_back_random == b.fell_back_random
        assert a.mu_used == b.mu_used

    def test_consistency_between_sketch_and_full(self):
        params = LogScaleParams(20, 2, 200).to_sbm_params()
        graph, _ = sample_sbm(params, seed=4)
        result = sketch_and_solve(graph, SketchConfig(gamma=0.4, seed=4))
        restricted = result.full_partition.restrict(result.sketch_vertices)
        assert restricted == result.sketch_partition

    def test_uncertified_cuts_fall_back_to_seeded_coins(self, monkeypatch):
        # below the threshold no rounded cut certifies, at any checked sweep
        params = LogScaleParams(3, 1, 200).to_sbm_params()
        graph, _ = sample_sbm(params, seed=0)
        calls = count_stage_calls(monkeypatch)
        result = sketch_and_solve(graph, SketchConfig(gamma=0.9, seed=6))
        verdicts = [v for kind, v in calls if kind == "certify"]
        assert len(verdicts) > 1
        assert set(verdicts) == {NOT_CERTIFIED}
        assert result.certificate.verdict == NOT_CERTIFIED
        assert result.fell_back_random
        rng = np.random.default_rng(spawn_seed(6, 3))
        coin = np.where(rng.random(result.sketch_vertices.size) < 0.5, 1, -1)
        assert result.sketch_partition == Partition(result.sketch_vertices, coin.astype(np.int8))

    def test_fallback_reproducible(self):
        # below the threshold the sketch falls back to seeded coins, and
        # the vote extends them to the same full cut on every run
        graph, _ = sample_sbm(LogScaleParams(3, 1, 200).to_sbm_params(), seed=0)
        cfg = SketchConfig(gamma=0.9, seed=6)
        a, b = sketch_and_solve(graph, cfg), sketch_and_solve(graph, cfg)
        assert a.fell_back_random and b.fell_back_random
        assert a.sketch_vertices.size < graph.num_vertices
        assert np.array_equal(a.unassigned, b.unassigned)
        assert a.full_partition == b.full_partition

    def test_one_sided_certified_cut_extends(self):
        # at mu = 0 the all-ones cut is the certified optimum; the sketch
        # run must extend it like full_solve returns it, not crash
        params = LogScaleParams(20, 2, 200).to_sbm_params()
        graph, _ = sample_sbm(params, seed=1)
        full = full_solve(graph, mu=0.0)
        assert full.certificate.verdict == CERTIFIED
        assert np.count_nonzero(full.full_partition.signs == -1) == 0
        result = sketch_and_solve(graph, SketchConfig(gamma=0.3, mu=0.0, seed=0))
        assert result.certificate.verdict == CERTIFIED
        assert not result.fell_back_random
        assert np.count_nonzero(result.sketch_partition.signs == -1) == 0
        assert np.count_nonzero(result.full_partition.signs == -1) == 0
        assert np.count_nonzero(result.full_partition.signs == 1) + result.unassigned.size == 200

    def test_auto_gamma_pipeline_recovers_strong_signal(self):
        params = LogScaleParams(50, 1, 300).to_sbm_params()
        wins = 0
        for s in range(6):
            graph, planted = sample_sbm(params, seed=1000 + s)
            result = sketch_and_solve(
                graph, SketchConfig(gamma="auto", alpha=50, beta=1, seed=s)
            )
            wins += recovered_planted(planted, result)
        assert wins >= 5

    def test_monotone_recovery_in_alpha(self):
        # fixed beta and gamma, rising alpha: empirical recovery rate may
        # wiggle by Monte Carlo noise but must not fall materially
        rates = []
        for a in (10, 20, 40):
            params = LogScaleParams(a, 2, 300).to_sbm_params()
            wins = 0
            for s in range(20):
                graph, planted = sample_sbm(params, seed=s)
                result = sketch_and_solve(graph, SketchConfig(gamma=0.3, seed=s))
                wins += recovered_planted(planted, result)
            rates.append(wins / 20)
        assert rates[0] <= rates[1] + 0.15
        assert rates[1] <= rates[2] + 0.15


class TestCertificateStopsSolve:
    """The first CERTIFIED cut ends the solve."""

    def test_certified_instance_stops_at_first_certificate(self, monkeypatch):
        graph, planted = sample_sbm(LogScaleParams(50, 1, 600).to_sbm_params(), seed=3)
        converged = solve_sdp(graph, estimate_mu(graph).mu, SolverConfig(seed=spawn_seed(3, 2)))
        calls = count_stage_calls(monkeypatch)
        result = full_solve(graph, seed=3)
        verdicts = [v for kind, v in calls if kind == "certify"]
        assert verdicts[-1] == CERTIFIED
        assert CERTIFIED not in verdicts[:-1]
        assert [kind for kind, _ in calls] == ["solve", "certify"] * len(verdicts)
        assert result.certificate.verdict == CERTIFIED
        assert not result.fell_back_random
        assert result.sdp.sweeps_used < converged.sweeps_used
        assert result.full_partition == converged.rounded_cut
        assert result.full_partition.equals_up_to_flip(planted)

    def test_uncertified_instance_checked_on_doubling_schedule(self, monkeypatch):
        graph, _ = sample_sbm(LogScaleParams(4, 1, 400).to_sbm_params(), seed=0)
        calls = count_stage_calls(monkeypatch)
        result = full_solve(graph, max_sweeps=30, seed=0)
        assert [v for kind, v in calls if kind == "solve"] == [0, 1, 2, 4, 8, 16, 30]
        assert {v for kind, v in calls if kind == "certify"} == {NOT_CERTIFIED}
        assert result.sdp.sweeps_used == 30 and not result.sdp.converged
        assert result.fell_back_random

    def test_each_distinct_checkpoint_cut_checked_once(self, monkeypatch):
        # the check is deterministic, so a checkpoint cut equal to the one
        # checked last keeps that report
        graph, _ = sample_sbm(LogScaleParams(4, 1, 400).to_sbm_params(), seed=0)
        cuts, checked = [], []

        def certify(graph, partition, mu):
            checked.append(partition)
            return check_certificate(graph, partition, mu)

        spy_solutions(monkeypatch, lambda sol: cuts.append(sol.rounded_cut))
        monkeypatch.setattr(pipeline, "check_certificate", certify)
        result = full_solve(graph, max_sweeps=30, seed=0)
        changes = [cut for i, cut in enumerate(cuts) if i == 0 or cut != cuts[i - 1]]
        assert len(cuts) == 7 and checked == changes and len(checked) < len(cuts)
        fresh = check_certificate(graph, result.sdp.rounded_cut, result.mu_used)
        last = result.certificate
        assert (last.verdict, last.lambda2_lower, last.matvecs) == (
            fresh.verdict, fresh.lambda2_lower, fresh.matvecs
        )

    def test_strong_signal_certifies_at_sweep_zero(self, monkeypatch):
        # the spectral cut is proven optimal before any sweep runs
        graph, planted = sample_sbm(LogScaleParams(50, 1, 600).to_sbm_params(), seed=3)
        calls = count_stage_calls(monkeypatch)
        result = full_solve(graph, seed=3)
        assert calls == [("solve", 0), ("certify", CERTIFIED)]
        assert result.sdp.sweeps_used == 0
        assert result.full_partition.equals_up_to_flip(planted)

    def test_refuted_spectral_cut_falls_through_to_the_sweep(self, monkeypatch):
        graph, planted = pairwise_sample_sbm(LogScaleParams(5, 1, 400).to_sbm_params(), 1004)
        calls = count_stage_calls(monkeypatch)
        result = full_solve(graph, seed=1004)
        assert calls[:2] == [("solve", 0), ("certify", NOT_CERTIFIED)]
        assert calls[-2:] == [("solve", 4), ("certify", CERTIFIED)]
        assert len(calls) == 8
        assert not result.fell_back_random
        assert result.full_partition.equals_up_to_flip(planted)

    def test_zero_sweep_budget_checks_once(self, monkeypatch):
        graph, _ = pairwise_sample_sbm(LogScaleParams(5, 1, 400).to_sbm_params(), 1004)
        calls = count_stage_calls(monkeypatch)
        result = full_solve(graph, max_sweeps=0, seed=1004)
        assert calls == [("solve", 0), ("certify", NOT_CERTIFIED)]
        assert result.fell_back_random

    def test_accepted_cuts_match_converged_solve_and_are_proven(self):
        # near the threshold: where the uninterrupted solve ends numerically
        # rank one its cut is the one accepted, and no cut that the
        # certificate accepts after convergence is lost; every accepted
        # cut, sweep-0 spectral cuts included, has a positive lambda2 of the
        # projected dense certificate
        n = 400
        accepted = at_sweep_zero = 0
        for alpha in (4, 5, 6, 7, 8):
            for seed in (1002, 1003, 1004, 1005):
                graph, _ = sample_sbm(LogScaleParams(alpha, 1, n).to_sbm_params(), seed)
                result = full_solve(graph, seed=seed)
                mu = result.mu_used
                ref = solve_sdp(graph, mu, SolverConfig(seed=spawn_seed(seed, 2)))
                if ref.rank_one_gap <= 1e-6:
                    if check_certificate(graph, ref.rounded_cut, mu).verdict == CERTIFIED:
                        assert not result.fell_back_random, (alpha, seed)
                    if not result.fell_back_random:
                        assert result.sketch_partition == ref.rounded_cut, (alpha, seed)
                if result.fell_back_random:
                    continue
                accepted += 1
                at_sweep_zero += result.sdp.sweeps_used == 0
                op = ZOperator(graph, result.sketch_partition, mu)
                gu = op.g / np.sqrt(n)
                proj = np.eye(n) - np.outer(gu, gu)
                eigs = np.linalg.eigvalsh(proj @ op.dense() @ proj)
                assert eigs[1] > 0, (alpha, seed, eigs[:2])
        assert accepted >= 12
        assert at_sweep_zero >= 8

    def test_swept_pipeline_deterministic(self):
        # never certified: the pipeline stops at the converged sweep 21, and
        # that checkpoint is the solve at a budget of 21
        graph, _ = sample_sbm(LogScaleParams(6, 1, 400).to_sbm_params(), seed=1001)
        a, b = full_solve(graph, seed=1001), full_solve(graph, seed=1001)
        assert a.sdp.sweeps_used == b.sdp.sweeps_used == 21 and a.sdp.converged
        assert a.sdp.factors.tobytes() == b.sdp.factors.tobytes()
        assert a.full_partition == b.full_partition
        config = SolverConfig(max_sweeps=a.sdp.sweeps_used, seed=spawn_seed(1001, 2))
        alone = solve_sdp(graph, a.mu_used, config)
        assert alone.factors.tobytes() == a.sdp.factors.tobytes()
        assert (alone.objective, alone.rank_one_gap) == (a.sdp.objective, a.sdp.rank_one_gap)


class TestFullGraphCsr:
    """No symmetric CSR of the full graph is built. The certificate and the
    sweep-0 cut read a graph's upper triangle through ``Graph.matvec``; only
    a swept solve builds a symmetric CSR, of the graph it solves."""

    PARAMS = LogScaleParams(50, 1, 1000).to_sbm_params()

    @pytest.mark.parametrize("alpha, gamma", [(50, "auto"), (6, 0.5)])
    def test_sketch_builds_only_the_sketch_csr(self, monkeypatch, alpha, gamma):
        graph, _ = sample_sbm(LogScaleParams(alpha, 1, 1000).to_sbm_params(), seed=9)
        built = spy_symmetric_builds(monkeypatch)
        config = SketchConfig(gamma=gamma, seed=9, alpha=alpha, beta=1,
                              max_sweeps=4)
        result = sketch_and_solve(graph, config)
        assert 1 < result.sketch_vertices.size < graph.num_vertices
        if alpha == 50:
            # certified at sweep 0: nothing swept, nothing built
            assert result.sdp.sweeps_used == 0 and result.certificate.verdict == CERTIFIED
            assert built == []
        else:
            # one build for the one swept solve, of the sketch
            assert result.sdp.sweeps_used > 1
            assert built == [result.sketch_vertices.size]

    def test_cli_sketch_and_certify_build_no_symmetric_csr(self, monkeypatch, tmp_path, capsys):
        graph, _ = sample_sbm(self.PARAMS, seed=9)
        path, cut = tmp_path / "g.edges", tmp_path / "cut"
        save_graph(graph, path)
        built = spy_symmetric_builds(monkeypatch)
        argv = ["sketch", str(path), "--out", str(cut), "--alpha", "50", "--beta", "1", "--seed", "9"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"] == CERTIFIED and report["sweeps_used"] == 0
        assert report["sketch_size"] < graph.num_vertices
        # the certificate of the voted cut covers the whole graph
        assert cli.main(["certify", str(path), str(cut), "--mu", repr(report["mu"])]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == CERTIFIED
        assert built == []

    def test_full_solve_builds_no_symmetric_csr(self, monkeypatch):
        graph, planted = sample_sbm(self.PARAMS, seed=9)
        built = spy_symmetric_builds(monkeypatch)
        result = full_solve(graph, seed=9)
        assert result.certificate.verdict == CERTIFIED and result.sdp.sweeps_used == 0
        assert recovered_planted(planted, result)
        assert built == []


class TestFullSolve:
    def test_recovers_in_easy_regime(self):
        params = LogScaleParams(30, 2, 300).to_sbm_params()
        wins = 0
        for s in range(5):
            graph, planted = sample_sbm(params, seed=300 + s)
            result = full_solve(graph, seed=s)
            wins += recovered_planted(planted, result)
        assert wins >= 4

    def test_recovered_planted_requires_full_assignment(self, two_triangles):
        graph, planted = two_triangles
        result = full_solve(graph, seed=0)
        assert recovered_planted(planted, result)
        partial = result.__class__(
            full_partition=result.full_partition,
            sketch_vertices=result.sketch_vertices,
            sketch_partition=result.sketch_partition,
            mu_used=result.mu_used,
            sdp=result.sdp,
            certificate=result.certificate,
            fell_back_random=result.fell_back_random,
            unassigned=np.array([5], dtype=np.int64),
            timings=result.timings,
        )
        assert not recovered_planted(planted, partial)
