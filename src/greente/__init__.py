"""Green traffic engineering: minimum-active-connection subnetworks.

Four solver families over one data model:

* :func:`solve_mspnd` -- exact network design under shortest-path routing
  (branch-and-price with constrained-shortest-path pricing).
* :func:`solve_f_mspnd` -- the fixed-routing baseline.
* :func:`solve_mcps` -- minimum capacity-preserving subgraphs (branch-and-cut).
* :func:`alg_mcf` / :func:`alg_mcf_pp` -- traffic-oblivious cable activation
  by LP rounding.

Routing, max-flow/min-cut, and LP machinery are exposed for reuse.
"""

from .model import (
    Activation,
    Arc,
    FULL_DUPLEX,
    Network,
    Result,
    SIMPLEX,
    TrafficMatrix,
    build_network,
    full_activation,
    scale_traffic,
)
from .routing import (
    Path,
    RoutingResult,
    is_spr_routable,
    k_shortest_paths,
    mlu,
    shortest_path_unique,
    spr_route,
)
from .flows import Cut, FlowResult, all_pairs_maxflow, extract_cut, max_flow
from .lp import LpModel, LpSolution, solve_lp
from .bnb import BnbResult, branch_and_bound
from .mcps import McpsInstance, precompute_lower_bounds, separate_cuts, solve_mcps
from .toca import alg_mcf, alg_mcf_pp, build_toca_lp, supports_scaled_traffic
from .mspnd import (
    MspndModel,
    add_path_column,
    brute_force_mspnd,
    build_root_model,
    price_paths,
    root_lp_value,
    solve_f_mspnd,
    solve_mspnd,
)
from .repetita import parse_repetita_demands, parse_repetita_graph, preprocess
from .bench import ExperimentConfig, ReportRow, RepetitaInstance, emit_report, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "Arc",
    "BnbResult",
    "Cut",
    "ExperimentConfig",
    "FULL_DUPLEX",
    "FlowResult",
    "LpModel",
    "LpSolution",
    "McpsInstance",
    "MspndModel",
    "Network",
    "Path",
    "RepetitaInstance",
    "ReportRow",
    "Result",
    "RoutingResult",
    "SIMPLEX",
    "TrafficMatrix",
    "add_path_column",
    "alg_mcf",
    "alg_mcf_pp",
    "all_pairs_maxflow",
    "branch_and_bound",
    "brute_force_mspnd",
    "build_network",
    "build_root_model",
    "build_toca_lp",
    "emit_report",
    "extract_cut",
    "full_activation",
    "is_spr_routable",
    "k_shortest_paths",
    "max_flow",
    "mlu",
    "parse_repetita_demands",
    "parse_repetita_graph",
    "precompute_lower_bounds",
    "preprocess",
    "price_paths",
    "root_lp_value",
    "run_experiment",
    "scale_traffic",
    "separate_cuts",
    "shortest_path_unique",
    "solve_f_mspnd",
    "solve_lp",
    "solve_mcps",
    "solve_mspnd",
    "spr_route",
    "supports_scaled_traffic",
]
