"""Degree sums over cliques: greedy construction, exact extremal scans, and
balanced multipartite (Turan) graph arithmetic for small graphs."""

from .canonical import canonical_form
from .cliques import DegreeSumResult, enumerate_r_cliques, max_clique_degree_sum
from .graph6 import (
    Graph6ParseError,
    from_graph6,
    load_graph_text,
    to_edge_list_text,
    to_graph6,
)
from .graphs import (
    VERTEX_CAP,
    Graph,
    ResourceLimitError,
    from_edges,
)
from .greedy import (
    DEFAULT_BRANCH_CAP,
    FloorCheckReport,
    GreedySequence,
    MeanCheckReport,
    PreconditionError,
    all_greedy_sequences,
    check_floor_bound,
    check_mean_bound,
    greedy_sequence,
)
from .extremal import (
    ScanRecord,
    StabilityParams,
    VerifyReport,
    band_violation,
    extremal_degree_sum_local_search,
    extremal_degree_sum_min,
    near_regular_graph,
    scan_m,
    stability_experiment,
    verify_all,
)
from .turan import TuranDecomposition, turan_decomposition, turan_graph, turan_size

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BRANCH_CAP",
    "DegreeSumResult",
    "FloorCheckReport",
    "Graph",
    "Graph6ParseError",
    "GreedySequence",
    "MeanCheckReport",
    "PreconditionError",
    "ResourceLimitError",
    "ScanRecord",
    "StabilityParams",
    "TuranDecomposition",
    "VERTEX_CAP",
    "VerifyReport",
    "all_greedy_sequences",
    "band_violation",
    "canonical_form",
    "check_floor_bound",
    "check_mean_bound",
    "enumerate_r_cliques",
    "extremal_degree_sum_local_search",
    "extremal_degree_sum_min",
    "from_edges",
    "from_graph6",
    "greedy_sequence",
    "load_graph_text",
    "max_clique_degree_sum",
    "near_regular_graph",
    "scan_m",
    "stability_experiment",
    "to_edge_list_text",
    "to_graph6",
    "turan_decomposition",
    "turan_graph",
    "turan_size",
    "verify_all",
]
