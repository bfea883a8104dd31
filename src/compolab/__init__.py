"""Exact counting and enumeration of graph compositions and partition statistics.

A graph composition is a partition of a graph's vertex set in which every
block induces a connected subgraph.  This package counts compositions of the
family "complete graph minus a clique on the label prefix" three independent
ways (recursion, explicit Stirling sum, brute-force enumeration), counts the
minimax/maximin statistics of set partitions, realizes the deletion/insertion
bijection linking the two, and cross-validates everything.
"""

from .bijection import BijectionReport, backward, forward, target_graph, verify
from .closedform import (
    MemoStore,
    comp_count_explicit,
    comp_count_paper_literal,
    comp_count_recursive,
    k1_count_formula,
    maximin_count_formula,
    minimax_count_formula,
    row_sum,
)
from .enumeration import (
    BRUTE_FORCE_CAP,
    Composition,
    Partition,
    composition_count_brute,
    compositions,
    is_composition,
    kj_count_brute,
    minimax_count_brute,
    minimax_restricted,
    minimax_vertex,
    partitions_of,
    set_partitions,
)
from .errors import (
    CompolabError,
    InconsistentResultError,
    InvalidParametersError,
    MalformedInputError,
    ResourceLimitError,
)
from .graphs import (
    LabelledGraph,
    complete,
    complete_minus_clique,
    delete_vertex,
    from_edge_list,
    from_vertices_and_edges,
    is_connected_induced,
    label_mask,
    mask_labels,
    parse_graph_file,
)
from .numtheory import bell, binomial, stirling2, stirling_row

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_CAP",
    "BijectionReport",
    "Composition",
    "CompolabError",
    "InconsistentResultError",
    "InvalidParametersError",
    "LabelledGraph",
    "MalformedInputError",
    "MemoStore",
    "Partition",
    "ResourceLimitError",
    "backward",
    "bell",
    "binomial",
    "comp_count_explicit",
    "comp_count_paper_literal",
    "comp_count_recursive",
    "complete",
    "complete_minus_clique",
    "composition_count_brute",
    "compositions",
    "delete_vertex",
    "forward",
    "from_edge_list",
    "from_vertices_and_edges",
    "is_composition",
    "is_connected_induced",
    "k1_count_formula",
    "kj_count_brute",
    "label_mask",
    "mask_labels",
    "maximin_count_formula",
    "minimax_count_brute",
    "minimax_count_formula",
    "minimax_restricted",
    "minimax_vertex",
    "parse_graph_file",
    "partitions_of",
    "row_sum",
    "set_partitions",
    "stirling2",
    "stirling_row",
    "target_graph",
    "verify",
]
