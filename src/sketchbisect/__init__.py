"""Planted-bisection recovery through sketched semidefinite programming.

The toolkit samples two-block stochastic block model graphs, solves the
unit-diagonal SDP relaxation max <A - mu*J, X> with a low-rank coordinate
ascent, certifies unique optimality of the rounded cut through a dual
certificate, and scales to large graphs by solving only on a Bernoulli
vertex sketch and extending by majority vote. Closed-form recovery
thresholds and a grid experiment runner round out the package.
"""

from .certificate import (
    CERTIFIED,
    INCONCLUSIVE,
    NOT_CERTIFIED,
    CertificateReport,
    check_certificate,
    exhaustive_unique_opt_check,
)
from .encoding import (
    MuEstimate,
    estimate_mu,
    expected_mu,
    mu_concentration_bound,
)
from .experiments import (
    METHOD_FULL_SDP,
    METHOD_SKETCH,
    CellResult,
    GridSpec,
    emit_csv,
    emit_heatmap_svg,
    parse_csv,
    parse_grid_config,
    run_grid,
)
from .graphs import (
    Graph,
    LogScaleParams,
    Partition,
    SbmParams,
    bernoulli_vertex_sample,
    induced_subgraph,
    load_graph,
    load_partition,
    sample_sbm,
    save_graph,
    save_partition,
)
from .pipeline import (
    TIE_FAIL,
    PipelineResult,
    SketchConfig,
    auto_gamma,
    full_solve,
    recovered_planted,
    sketch_and_solve,
    vote_extend,
)
from .seeding import spawn_seed
from .solver import (
    SdpSolution,
    SolverConfig,
    brute_force_max,
    objective_value,
    solve_sdp,
)
from .thresholds import (
    BOUNDARY,
    IMPOSSIBLE,
    RECOVERABLE,
    ThresholdReport,
    conjectured_gamma_threshold,
    phase_boundary_curve,
    recovery_phase,
    sdp_success_bound,
    sketch_gamma_threshold,
    threshold_report,
    unbalanced_recovery_condition,
    vote_gamma_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY",
    "CERTIFIED",
    "CellResult",
    "CertificateReport",
    "Graph",
    "GridSpec",
    "IMPOSSIBLE",
    "INCONCLUSIVE",
    "LogScaleParams",
    "METHOD_FULL_SDP",
    "METHOD_SKETCH",
    "MuEstimate",
    "NOT_CERTIFIED",
    "Partition",
    "PipelineResult",
    "RECOVERABLE",
    "SbmParams",
    "SdpSolution",
    "SketchConfig",
    "SolverConfig",
    "ThresholdReport",
    "TIE_FAIL",
    "auto_gamma",
    "bernoulli_vertex_sample",
    "brute_force_max",
    "check_certificate",
    "conjectured_gamma_threshold",
    "emit_csv",
    "emit_heatmap_svg",
    "estimate_mu",
    "exhaustive_unique_opt_check",
    "expected_mu",
    "full_solve",
    "induced_subgraph",
    "load_graph",
    "load_partition",
    "mu_concentration_bound",
    "objective_value",
    "parse_csv",
    "parse_grid_config",
    "phase_boundary_curve",
    "recovered_planted",
    "recovery_phase",
    "run_grid",
    "sample_sbm",
    "save_graph",
    "save_partition",
    "sdp_success_bound",
    "sketch_and_solve",
    "sketch_gamma_threshold",
    "solve_sdp",
    "spawn_seed",
    "threshold_report",
    "unbalanced_recovery_condition",
    "vote_extend",
    "vote_gamma_threshold",
]
