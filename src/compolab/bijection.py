"""Constructive bijection between minimax-classified partitions and compositions.

The identity comp(n, m) = minimax_count(n+1, m+1) has a constructive proof:
take a partition of {1..n+1} whose minimax vertex is v = m+1, delete v, and
what remains is a composition of the graph on {1..n+1} minus v in which the
prefix {1..m} is independent.  Deleting v scatters its block-mates (all of
them lie in the prefix) into singletons; re-inserting v merges it with exactly
the prefix singletons.  ``verify`` realizes both directions and checks them
pointwise and exhaustively — round trips, injectivity, and matching counts;
``verify_row`` checks every m of one n from a single walk.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .enumeration import (
    Partition,
    compositions,
    is_composition,
    minimax_vertex,
    set_partitions,
)
from .errors import InvalidParametersError
from .graphs import LabelledGraph, complete_minus_clique, delete_vertex, label_mask


class BijectionReport(NamedTuple):
    """Outcome of one exhaustive check of the deletion/insertion bijection."""

    n: int
    m: int
    lhs_count: int  # partitions of {1..n+1} with minimax vertex m+1
    rhs_count: int  # compositions of target_graph(n, m)
    round_trip_ok: bool
    injective_ok: bool

    @property
    def ok(self) -> bool:
        return self.round_trip_ok and self.injective_ok and self.lhs_count == self.rhs_count


def target_graph(n: int, m: int) -> LabelledGraph:
    """The graph the bijection lands on: labels {1..n+1} minus m+1, with every
    pair adjacent unless both endpoints lie in {1..m}.

    Built by deleting vertex m+1 from the complete-minus-clique graph on n+1
    labels, which leaves exactly those edges.
    """
    if n < 0 or m < 0 or m > n:
        raise InvalidParametersError(f"need 0 <= m <= n, got n={n}, m={m}")
    return delete_vertex(complete_minus_clique(n + 1, m), m + 1)


def forward(p: Partition, expected_minimax: Optional[int] = None) -> Partition:
    """Delete the minimax vertex; its block-mates become singletons.

    If ``expected_minimax`` is given, the partition's actual minimax vertex
    must equal it.
    """
    v = minimax_vertex(p)
    if v is None:
        raise InvalidParametersError("the empty partition has no minimax vertex")
    if expected_minimax is not None and v != expected_minimax:
        raise InvalidParametersError(
            f"minimax vertex is {v}, expected {expected_minimax}"
        )
    new_blocks: list[tuple[int, ...]] = []
    for block in p.blocks():
        if v in block:
            new_blocks.extend((x,) for x in block if x != v)
        else:
            new_blocks.append(block)
    return Partition.from_blocks(new_blocks)


def backward(c: Partition, n: int, m: int) -> Partition:
    """Insert vertex m+1 into a composition of target_graph(n, m), merging it
    with every singleton block drawn from the independent prefix {1..m}."""
    g = target_graph(n, m)
    if label_mask(c.labels) != g.vertex_mask or not is_composition(g, c):
        raise InvalidParametersError(
            f"expected a composition of the target graph for n={n}, m={m}"
        )
    return _insert(c, m)


def _insert(c: Partition, m: int) -> Partition:
    """``backward`` without its checks, for a ``c`` already known to be a
    composition of the target graph."""
    v = m + 1
    merged = [v]
    new_blocks: list[tuple[int, ...]] = []
    for block in c.blocks():
        if len(block) == 1 and block[0] <= m:
            merged.append(block[0])
        else:
            new_blocks.append(block)
    new_blocks.append(tuple(merged))
    return Partition.from_blocks(new_blocks)


def verify(n: int, m: int, cap: Optional[int] = None) -> BijectionReport:
    """Exhaustively check the bijection at (n, m).

    Walks every partition of {1..n+1} with minimax vertex m+1 and every
    composition of the target graph, checking the structural facts the
    construction relies on, both round trips, and injectivity.
    """
    if n < 0 or m < 0 or m > n:
        raise InvalidParametersError(f"need 0 <= m <= n, got n={n}, m={m}")
    return _verify_cells(n, [m], cap)[0]


def verify_row(n: int, cap: Optional[int] = None) -> list[BijectionReport]:
    """``verify(n, m)`` for every m = 0..n, from one walk over the partitions of {1..n+1}."""
    if n < 0:
        raise InvalidParametersError(f"need n >= 0, got n={n}")
    return _verify_cells(n, range(n + 1), cap)


def _verify_cells(n: int, ms: Iterable[int], cap: Optional[int]) -> list[BijectionReport]:
    """The reports of the cells (n, m), m in ms: one walk over the partitions
    of {1..n+1} hands each to the cell of its minimax vertex."""
    graphs = {m: target_graph(n, m) for m in ms}
    failed: set[int] = set()
    images: dict[int, set[bytes]] = {m: set() for m in graphs}
    lhs_counts = dict.fromkeys(graphs, 0)
    for p in set_partitions(n + 1, cap=cap):
        v = minimax_vertex(p)
        m = v - 1
        if m not in graphs:
            continue
        lhs_counts[m] += 1
        prefix_mask = label_mask(range(1, v))
        # Structural facts forced by the minimax choice: no block may sit
        # entirely inside the independent prefix, and the block of v contains
        # nothing above the prefix except v itself.
        for block_mask in p.block_bitsets():
            if block_mask & ~prefix_mask == 0:
                failed.add(m)
            if (block_mask >> v) & 1 and block_mask & ~prefix_mask != 1 << v:
                failed.add(m)
        image = forward(p, expected_minimax=v)
        g = graphs[m]
        if label_mask(image.labels) != g.vertex_mask or not is_composition(g, image):
            failed.add(m)
        elif _insert(image, m) != p:
            failed.add(m)
        # Its labels are {1..n+1} minus v, so the RGS names it.  target_graph
        # allows at most 64 labels, so each entry fits in one byte.
        images[m].add(bytes(image.rgs))
    reports = []
    for m, g in graphs.items():
        rhs_count = 0
        for comp in compositions(g, cap=cap):
            rhs_count += 1
            back = _insert(comp.partition, m)
            if minimax_vertex(back) != m + 1 or forward(back) != comp.partition:
                failed.add(m)
        reports.append(BijectionReport(
            n=n,
            m=m,
            lhs_count=lhs_counts[m],
            rhs_count=rhs_count,
            round_trip_ok=m not in failed,
            injective_ok=len(images[m]) == lhs_counts[m],
        ))
    return reports
