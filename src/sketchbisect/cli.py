"""Command-line entry points: solve, certify, sketch, thresholds, experiment."""

import argparse
import json
import sys

import numpy as np

from .certificate import check_certificate
from .encoding import estimate_mu
from .experiments import emit_csv, emit_heatmap_svg, parse_grid_config, run_grid
from .graphs import load_graph, load_partition, save_partition
from .pipeline import SketchConfig, sketch_and_solve
from .solver import SolverConfig, solve_sdp
from .thresholds import phase_boundary_curve, threshold_report


def _auto_or_float(value):
    try:
        return "auto" if value == "auto" else float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {value!r}")


def _print_json(record):
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_solve(args):
    graph = load_graph(args.graph)
    mu = estimate_mu(graph).mu if args.mu == "auto" else args.mu
    solution = solve_sdp(graph, mu, SolverConfig(max_sweeps=args.max_sweeps, seed=args.seed))
    save_partition(solution.rounded_cut, args.out)
    _print_json(
        {
            "objective": solution.objective,
            "rank_one_gap": solution.rank_one_gap,
            "sweeps_used": solution.sweeps_used,
            "converged": solution.converged,
            "mu": mu,
        }
    )
    return 0


def _cmd_certify(args):
    graph = load_graph(args.graph)
    partition = load_partition(args.partition)
    report = check_certificate(graph, partition, args.mu)
    _print_json(
        {
            "verdict": report.verdict,
            "lambda2_lower": report.lambda2_lower,
            "zg_residual": report.zg_residual,
            "iterations": report.iterations,
            "matvecs": report.matvecs,
        }
    )
    return 0


def _cmd_sketch(args):
    graph = load_graph(args.graph)
    config = SketchConfig(
        gamma=args.gamma,
        seed=args.seed,
        tie_rule=args.tie_rule,
        mu=args.mu,
        alpha=args.alpha,
        beta=args.beta,
    )
    result = sketch_and_solve(graph, config)
    save_partition(result.full_partition, args.out)
    cert = result.certificate
    _print_json(
        {
            "mu": result.mu_used,
            "sketch_size": int(result.sketch_vertices.size),
            "fell_back_random": result.fell_back_random,
            "unassigned": int(result.unassigned.size),
            "rank_one_gap": result.sdp.rank_one_gap,
            "sweeps_used": result.sdp.sweeps_used,
            "certificate": cert.verdict,
            "iterations": cert.iterations,
            "matvecs": cert.matvecs,
        }
    )
    return 0


def _cmd_thresholds(args):
    if args.curve is not None:
        betas = np.linspace(args.beta_min, args.beta_max, args.points)
        alphas = phase_boundary_curve(betas)
        sys.stdout.write("beta,alpha\n")
        for b, a in zip(betas, alphas):
            sys.stdout.write(f"{float(b)!r},{float(a)!r}\n")
        return 0
    if args.alpha is None or args.beta is None:
        raise ValueError("--alpha and --beta are required (or use --curve)")
    report = threshold_report(args.alpha, args.beta, args.delta)
    _print_json(
        {
            "phase": report.phase,
            "vote_gamma": report.vote_gamma,
            "sketch_gamma": report.sketch_gamma,
            "conjectured_gamma": report.conjectured_gamma,
            "unbalanced_condition_holds": report.unbalanced_condition_holds,
        }
    )
    return 0


def _cmd_experiment(args):
    spec = parse_grid_config(args.grid)
    results = run_grid(spec, jobs=args.jobs)
    if args.out_csv:
        emit_csv(results, args.out_csv)
    if args.out_svg:
        emit_heatmap_svg(results, args.out_svg, metric=args.metric, overlay=args.overlay)
    ran = [c for c in results if not c.error]
    recovered = sum(1 for c in ran if c.recovered)
    sys.stdout.write(
        f"{len(results)} cells ({len(results) - len(ran)} skipped/failed), "
        f"{recovered}/{len(ran)} recovered\n"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sketchbisect",
        description="Planted-bisection recovery by sketched semidefinite programming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the SDP on an edge-list graph")
    p.add_argument("graph")
    p.add_argument("--out", required=True, help="partition output file")
    p.add_argument("--mu", type=_auto_or_float, default="auto")
    p.add_argument("--max-sweeps", type=int, default=500,
                   help="sweep budget; 0 runs no sweep and writes the sign cut of "
                        "the leading eigenvector of A - mu*J")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="check the dual certificate of a cut")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sketch", help="sketch-and-solve pipeline")
    p.add_argument("graph")
    p.add_argument("--out", required=True, help="partition output file")
    p.add_argument("--gamma", type=_auto_or_float, default="auto",
                   help="vertex sampling rate in (0, 1]; 'auto' (the default) "
                        "needs --alpha and --beta")
    p.add_argument("--alpha", type=float, default=None,
                   help="within-block rate, p = alpha*ln(n)/n; needed by --gamma auto")
    p.add_argument("--beta", type=float, default=None,
                   help="across-block rate, q = beta*ln(n)/n; needed by --gamma auto")
    p.add_argument("--mu", type=_auto_or_float, default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tie-rule", choices=["FAIL", "TO_FIRST", "RANDOM"], default="FAIL")
    p.set_defaults(func=_cmd_sketch)

    p = sub.add_parser("thresholds", help="closed-form threshold quantities")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--curve", choices=["prop1"], default=None,
                   help="emit the recovery boundary as CSV instead")
    p.add_argument("--beta-min", type=float, default=1.0)
    p.add_argument("--beta-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("experiment", help="run a Monte Carlo (alpha, beta) grid")
    p.add_argument("--grid", required=True, help="key = value config file")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.add_argument("--metric", choices=["recovery_rate", "mean_runtime"],
                   default="recovery_rate")
    p.add_argument("--overlay", choices=["none", "prop1_curve", "conjecture_gamma_iso"],
                   default="none")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the CPUs this process may use")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
