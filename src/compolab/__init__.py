"""Exact counting and enumeration of graph compositions and partition statistics.

A graph composition is a partition of a graph's vertex set in which every
block induces a connected subgraph.  This package counts compositions of the
family "complete graph minus a clique on the label prefix" three independent
ways (recursion, explicit Stirling sum, brute-force enumeration), counts the
minimax/maximin statistics of set partitions, realizes the deletion/insertion
bijection linking the two, and cross-validates everything.

Importing the package loads no submodule: each public name, and each
submodule such as ``compolab.enumeration``, is imported on first use
(PEP 562), so a command loads only the code it runs.
"""

import sys as _sys

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "bijection": ("BijectionReport", "backward", "forward", "target_graph", "verify"),
    "closedform": (
        "MemoStore",
        "comp_count_explicit",
        "comp_count_paper_literal",
        "comp_count_recursive",
        "k1_count_formula",
        "maximin_count_formula",
        "minimax_count_formula",
        "row_sum",
    ),
    "enumeration": ("composition_count_brute",),
    "errors": (
        "BRUTE_FORCE_CAP",
        "CompolabError",
        "InconsistentResultError",
        "InvalidParametersError",
        "MalformedInputError",
        "ResourceLimitError",
    ),
    "graphs": (
        "LabelledGraph",
        "complete",
        "complete_minus_clique",
        "delete_vertex",
        "from_edge_list",
        "from_vertices_and_edges",
        "is_connected_induced",
        "label_mask",
        "mask_labels",
    ),
    "listing": ("parse_graph_file",),
    "numtheory": ("bell", "binomial", "stirling2", "stirling_row"),
    "partitions": (
        "Composition",
        "Partition",
        "compositions",
        "is_composition",
        "minimax_restricted",
        "minimax_vertex",
        "partitions_of",
        "set_partitions",
    ),
    "reading": (),
    "stats": ("kj_count_brute", "minimax_count_brute"),
    "suites": (),
    "tables": (),
    "usage": (),
    "walker": (),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule itself, on first use."""
    module = _SOURCE.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    # The import statement's path, so -X importtime lists the submodule;
    # importlib.import_module would load it unlisted.
    __import__(qualified)
    value = _sys.modules[qualified]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups bind directly, as an eager import would
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_EXPORTS})
