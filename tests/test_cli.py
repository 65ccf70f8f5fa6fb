import json
import subprocess
import sys

import pytest

from sketchbisect import (
    Graph,
    LogScaleParams,
    Partition,
    load_partition,
    objective_value,
    sample_sbm,
    save_graph,
    save_partition,
    vote_gamma_threshold,
)
from sketchbisect import cli
from sketchbisect.cli import main

from conftest import sides


@pytest.fixture
def triangle_files(tmp_path):
    graph = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    planted = Partition(range(6), [1, 1, 1, -1, -1, -1])
    gpath = tmp_path / "triangles.txt"
    ppath = tmp_path / "planted.txt"
    save_graph(graph, gpath)
    save_partition(planted, ppath)
    return gpath, ppath, graph, planted


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_solve_writes_partition_and_json(self, capsys, tmp_path, triangle_files):
        gpath, _, graph, planted = triangle_files
        out = tmp_path / "cut.txt"
        code, stdout, _ = run_cli(capsys, "solve", gpath, "--out", out, "--mu", "0.5")
        assert code == 0
        record = json.loads(stdout)
        assert set(record) == {"objective", "rank_one_gap", "sweeps_used", "converged", "mu"}
        assert record["objective"] == pytest.approx(12.0, abs=1e-6)
        assert record["rank_one_gap"] <= 1e-6
        assert record["converged"] is True
        assert record["mu"] == 0.5
        assert load_partition(out).equals_up_to_flip(planted)

    def test_zero_sweeps_writes_spectral_cut(self, capsys, tmp_path, triangle_files):
        gpath, _, graph, planted = triangle_files
        out = tmp_path / "cut.txt"
        code, stdout, _ = run_cli(
            capsys, "solve", gpath, "--out", out, "--mu", "0.5", "--max-sweeps", "0"
        )
        assert code == 0
        record = json.loads(stdout)
        assert record["sweeps_used"] == 0
        assert record["converged"] is False
        cut = load_partition(out)
        assert list(cut.ids) == list(graph.vertex_ids)
        assert set(cut.signs.tolist()) <= {-1, 1}
        assert cut.equals_up_to_flip(planted)
        # the solution is the rank-one point of the cut written
        assert record["rank_one_gap"] == 0.0
        assert record["objective"] == pytest.approx(objective_value(graph, 0.5, cut), rel=1e-12)

    def test_help_explains_zero_sweeps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "0 runs no sweep" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("flag, value", [("--rank", "3"), ("--tol", "1e-9")])
    def test_rank_and_tolerance_are_not_options(
        self, capsys, tmp_path, triangle_files, flag, value
    ):
        gpath, _, _, _ = triangle_files
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(gpath), "--out", str(tmp_path / "cut.txt"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "cut.txt").exists()

    def test_solve_auto_mu(self, capsys, tmp_path, triangle_files):
        gpath, _, _, _ = triangle_files
        out = tmp_path / "cut.txt"
        code, stdout, _ = run_cli(capsys, "solve", gpath, "--out", out)
        assert code == 0
        assert json.loads(stdout)["mu"] == pytest.approx(6 / 15)

    def test_solver_runtime_error_fails_cleanly(
        self, capsys, tmp_path, triangle_files, monkeypatch
    ):
        def failing_solve(*args, **kwargs):
            raise RuntimeError("coordinate ascent lost monotonicity")

        monkeypatch.setattr(cli, "solve_sdp", failing_solve)
        gpath, _, _, _ = triangle_files
        code, stdout, stderr = run_cli(capsys, "solve", gpath, "--out", tmp_path / "cut.txt")
        assert code == 1
        assert stdout == ""
        assert stderr == "error: coordinate ascent lost monotonicity\n"

    def test_missing_graph_file_fails_cleanly(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "solve", tmp_path / "nope.txt", "--out", tmp_path / "cut.txt"
        )
        assert code == 1
        assert stderr.startswith("error:")


class TestValueErrors:
    @pytest.mark.parametrize("argv, expected", [
        (["sketch", "--mu", "abc"], "argument --mu: expected 'auto' or a number, got 'abc'"),
        (["solve", "--mu", "abc"], "argument --mu: expected 'auto' or a number, got 'abc'"),
        (["sketch", "--gamma", "1/2"],
         "argument --gamma: expected 'auto' or a number, got '1/2'"),
    ])
    def test_bad_value_names_accepted_form(self, capsys, tmp_path, triangle_files, argv, expected):
        gpath, _, _, _ = triangle_files
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, str(gpath), "--out", str(tmp_path / "c.txt"), *flags])
        assert exc.value.code == 2
        stderr = capsys.readouterr().err
        assert expected in stderr
        assert "invalid" not in stderr


class TestMuChecked:
    @pytest.mark.parametrize("mu", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["solve", "certify", "sketch"])
    def test_bad_mu_fails_with_one_message(self, capsys, tmp_path, triangle_files, command, mu):
        gpath, ppath, _, _ = triangle_files
        out = tmp_path / "cut.txt"
        argv = {
            "solve": ["solve", gpath, "--out", out],
            "certify": ["certify", gpath, ppath],
            "sketch": ["sketch", gpath, "--out", out, "--gamma", "1"],
        }[command]
        code, stdout, stderr = run_cli(capsys, *argv, f"--mu={mu}")
        assert code == 1
        assert stdout == ""
        assert stderr == "error: mu must be a finite non-negative number\n"
        assert not out.exists()


class TestCertifyCommand:
    def test_certified_report(self, capsys, triangle_files):
        gpath, ppath, _, _ = triangle_files
        code, stdout, _ = run_cli(capsys, "certify", gpath, ppath, "--mu", "0.5")
        assert code == 0
        record = json.loads(stdout)
        assert set(record) == {
            "verdict", "lambda2_lower", "zg_residual", "iterations", "matvecs",
        }
        assert record["verdict"] == "CERTIFIED"
        assert record["iterations"] >= 1
        assert record["matvecs"] >= record["iterations"] + 2
        assert record["lambda2_lower"] == pytest.approx(3.0, abs=1e-6)
        assert record["zg_residual"] <= 1e-9

    def test_not_certified_report(self, capsys, tmp_path):
        graph = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        part = sides([0, 1], [2, 3])
        gpath, ppath = tmp_path / "g.txt", tmp_path / "p.txt"
        save_graph(graph, gpath)
        save_partition(part, ppath)
        code, stdout, _ = run_cli(capsys, "certify", gpath, ppath, "--mu", "0.5")
        assert code == 0
        assert json.loads(stdout)["verdict"] == "NOT_CERTIFIED"

    def test_repeated_vertex_names_its_lines(self, capsys, tmp_path, triangle_files):
        gpath, _, _, _ = triangle_files
        ppath = tmp_path / "p.txt"
        ppath.write_text("0 1\n0 -1\n")
        code, stdout, stderr = run_cli(capsys, "certify", gpath, ppath, "--mu", "0.5")
        assert code == 1 and stdout == ""
        assert stderr == "error: line 2: vertex 0 repeats line 1\n"


class TestSketchCommand:
    def test_full_rate_run(self, capsys, tmp_path, triangle_files):
        gpath, _, _, planted = triangle_files
        out = tmp_path / "cut.txt"
        code, stdout, _ = run_cli(
            capsys, "sketch", gpath, "--out", out, "--gamma", "1.0", "--seed", "0"
        )
        assert code == 0
        record = json.loads(stdout)
        assert set(record) == {
            "mu", "sketch_size", "fell_back_random", "unassigned",
            "rank_one_gap", "sweeps_used", "certificate", "iterations", "matvecs",
        }
        assert record["sketch_size"] == 6
        assert record["unassigned"] == 0
        assert record["fell_back_random"] is False
        assert record["certificate"] == "CERTIFIED"
        # the spectral cut already certifies, so no sweep runs
        assert record["sweeps_used"] == 0
        assert record["iterations"] >= 1
        assert record["matvecs"] >= record["iterations"] + 2
        assert load_partition(out).equals_up_to_flip(planted)

    def test_partial_sketch_extends(self, capsys, tmp_path, triangle_files):
        gpath, _, _, planted = triangle_files
        out = tmp_path / "cut.txt"
        code, stdout, _ = run_cli(
            capsys, "sketch", gpath, "--out", out, "--gamma", "0.65", "--seed", "3"
        )
        assert code == 0
        record = json.loads(stdout)
        assert record["sketch_size"] == 4
        assert record["unassigned"] == 0
        assert record["fell_back_random"] is False
        # the certificate covers the sketch, and its work is reported
        assert record["certificate"] == "CERTIFIED"
        assert record["iterations"] >= 1
        assert record["matvecs"] >= record["iterations"] + 2
        assert load_partition(out).equals_up_to_flip(planted)

    def test_strong_signal_certifies_rank_one_point(self, capsys, tmp_path):
        graph, planted = sample_sbm(LogScaleParams(50, 1, 600).to_sbm_params(), 5)
        gpath = tmp_path / "sbm.txt"
        save_graph(graph, gpath)
        code, stdout, _ = run_cli(
            capsys, "sketch", gpath, "--out", tmp_path / "cut.txt",
            "--alpha", "50", "--beta", "1", "--seed", "5",
        )
        assert code == 0
        record = json.loads(stdout)
        assert record["certificate"] == "CERTIFIED"
        assert record["sweeps_used"] == 0
        assert record["rank_one_gap"] == 0.0
        assert load_partition(tmp_path / "cut.txt").equals_up_to_flip(planted)

    def test_auto_gamma_needs_rates(self, capsys, tmp_path, triangle_files):
        gpath, _, _, _ = triangle_files
        code, _, stderr = run_cli(capsys, "sketch", gpath, "--out", tmp_path / "c.txt")
        assert code == 1
        assert stderr == "error: automatic gamma needs alpha and beta\n"

    def test_tie_rule_flag_is_gone(self, capsys, tmp_path, triangle_files):
        # the pipeline votes with one rule, so the flag is an argparse error
        gpath, _, _, _ = triangle_files
        with pytest.raises(SystemExit) as exc:
            main(["sketch", str(gpath), "--out", str(tmp_path / "c.txt"),
                  "--gamma", "1.0", "--tie-rule", "FAIL"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tie-rule FAIL" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_help_says_what_auto_gamma_needs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sketch", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--gamma GAMMA vertex sampling rate in (0, 1]; 'auto' (the default) " \
               "needs --alpha and --beta" in text
        assert "--alpha ALPHA within-block rate, p = alpha*ln(n)/n; needed by --gamma auto" in text
        assert "--beta BETA across-block rate, q = beta*ln(n)/n; needed by --gamma auto" in text


class TestRatesChecked:
    @pytest.mark.parametrize("alpha, beta", [("inf", "1"), ("-inf", "1"), ("nan", "1"),
                                             ("50", "inf"), ("50", "nan")])
    @pytest.mark.parametrize("command", ["thresholds", "sketch"])
    def test_non_finite_rate_fails_with_one_message(self, capsys, tmp_path, triangle_files,
                                                    command, alpha, beta):
        out = tmp_path / "cut.txt"
        argv = ["thresholds"] if command == "thresholds" else ["sketch", triangle_files[0], "--out", out]
        code, stdout, stderr = run_cli(capsys, *argv, f"--alpha={alpha}", f"--beta={beta}")
        assert code == 1
        assert stdout == ""  # no JSON, so no NaN in it
        assert stderr == (f"error: alpha and beta must be finite, "
                          f"got alpha={float(alpha)!r}, beta={float(beta)!r}\n")
        assert not out.exists()


    @pytest.mark.parametrize("alpha, beta", [("1e308", "1"), ("1e-300", "1e-308")])
    def test_extreme_finite_rates_report(self, capsys, alpha, beta):
        # the square of alpha - beta used to escape as OverflowError or ZeroDivisionError
        code, stdout, stderr = run_cli(capsys, "thresholds", "--alpha", alpha, "--beta", beta)
        assert (code, stderr) == (0, "")
        record = json.loads(stdout)
        assert record["vote_gamma"] == vote_gamma_threshold(float(alpha), float(beta))
        assert record["sketch_gamma"] == 2.0 * record["vote_gamma"]
        assert all(0.0 < record[k] < float("inf") for k in ("vote_gamma", "sketch_gamma", "conjectured_gamma"))
        assert record["unbalanced_condition_holds"] is (alpha == "1e308")

    @pytest.mark.parametrize("argv, message", [
        (["--alpha", "10", "--beta", "1", "--delta", "nan"],
         "delta must be finite and non-negative"),
        (["--curve", "--beta-min", "nan"], "beta must be finite and positive"),
    ], ids=["delta", "beta-min"])
    def test_non_finite_threshold_argument_fails(self, capsys, argv, message):
        code, stdout, stderr = run_cli(capsys, "thresholds", *argv)
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: {message}\n"


class TestThresholdsCommand:
    def test_point_report(self, capsys):
        code, stdout, _ = run_cli(capsys, "thresholds", "--alpha", "50", "--beta", "1")
        assert code == 0
        record = json.loads(stdout)
        assert set(record) == {
            "phase", "vote_gamma", "sketch_gamma", "conjectured_gamma",
            "unbalanced_condition_holds",
        }
        assert record["phase"] == "RECOVERABLE"
        assert record["vote_gamma"] == pytest.approx(808 / 7203, rel=1e-13)
        assert record["sketch_gamma"] == pytest.approx(1616 / 7203, rel=1e-13)
        assert record["unbalanced_condition_holds"] is True

    def test_delta_flag(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "thresholds", "--alpha", "50", "--beta", "1", "--delta", "10"
        )
        assert code == 0
        assert json.loads(stdout)["unbalanced_condition_holds"] is False

    def test_curve_csv(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "thresholds", "--curve",
            "--beta-min", "1", "--beta-max", "4", "--points", "3",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "beta,alpha"
        assert len(lines) == 4
        for line in lines[1:]:
            b, a = map(float, line.split(","))
            assert a == pytest.approx((b**0.5 + 2**0.5) ** 2, rel=1e-15)
        assert lines[1].startswith("1.0,")

    def test_curve_takes_no_value(self, capsys):
        # --curve is a plain switch: the one boundary it draws has no name to pick
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", "--curve", "prop1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: prop1" in capsys.readouterr().err

    def test_point_requires_both_rates(self, capsys):
        code, _, stderr = run_cli(capsys, "thresholds", "--alpha", "50")
        assert code == 1
        assert "error:" in stderr


class TestExperimentCommand:
    @pytest.mark.filterwarnings("ignore:edge rate exceeds 1")
    def test_end_to_end_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "alphas = 50\nbetas = 1\nn = 60\nreps = 2\nmethods = FULL_SDP\nseed = 5\n"
        )
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        code, stdout, _ = run_cli(
            capsys, "experiment", "--grid", cfg,
            "--out-csv", csv_path, "--out-svg", svg_path,
            "--overlay", "prop1_curve",
        )
        assert code == 0
        assert "2 cells" in stdout
        assert csv_path.read_text().startswith("alpha,beta,rep,method,n,gamma,mu,")
        assert csv_path.read_text().count("\n") == 3
        assert svg_path.read_text().startswith("<svg ")

    def test_no_cell_ran_counts_zero(self, capsys, tmp_path):
        # beta >= alpha skips every cell; the summary must not invent a denominator
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alphas = 1\nbetas = 2\nn = 60\nreps = 2\nseed = 5\n")
        code, stdout, _ = run_cli(capsys, "experiment", "--grid", cfg)
        assert code == 0
        assert stdout == "4 cells (4 skipped/failed), 0/0 recovered\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, tmp_path, jobs):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alphas = 50\nbetas = 1\nn = 60\nreps = 1\n")
        code, stdout, stderr = run_cli(capsys, "experiment", "--grid", cfg, "--jobs", jobs)
        assert code == 1
        assert (stdout, stderr) == ("", "error: jobs must be positive\n")

    def test_bad_config_fails_cleanly(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alphas = 50\n")
        code, _, stderr = run_cli(capsys, "experiment", "--grid", cfg)
        assert code == 1
        assert "error:" in stderr


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sketchbisect", "thresholds",
             "--alpha", "8", "--beta", "2"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["phase"] == "BOUNDARY"
