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

from collections import namedtuple
from collections.abc import Iterable
from functools import reduce
from operator import or_

from .enumeration import _composition_states
from .errors import InvalidParametersError, check_at_least, check_cap, check_cell
from .graphs import (
    LabelledGraph,
    complete_minus_clique,
    delete_vertex,
    label_mask,
    mask_connected,
    mask_labels,
)
from .walker import _block_stream

TYPE_CHECKING = False  # the typing module's constant, without loading typing
if TYPE_CHECKING:  # the maps load the object layer when they run; verify_row never does
    from .partitions import Partition


class BijectionReport(namedtuple(
    "BijectionReport", "n m lhs_count rhs_count round_trip_ok injective_ok"
)):
    """Outcome of one exhaustive check of the deletion/insertion bijection.

    ``lhs_count`` counts the partitions of {1..n+1} with minimax vertex m+1,
    ``rhs_count`` the compositions of target_graph(n, m).
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.round_trip_ok and self.injective_ok and self.lhs_count == self.rhs_count


def target_graph(n: int, m: int) -> LabelledGraph:
    """The graph the bijection lands on: labels {1..n+1} minus m+1, with every
    pair adjacent unless both endpoints lie in {1..m}.

    Built by deleting vertex m+1 from the complete-minus-clique graph on n+1
    labels, which leaves exactly those edges.
    """
    check_cell(n, m)
    return delete_vertex(complete_minus_clique(n + 1, m), m + 1)


def forward(p: Partition, expected_minimax: int | None = None) -> Partition:
    """Delete the minimax vertex; its block-mates become singletons.

    If ``expected_minimax`` is given, the partition's actual minimax vertex
    must equal it.
    """
    from .partitions import Partition, minimax_vertex

    v = minimax_vertex(p)
    if v is None:
        raise InvalidParametersError("the empty partition has no minimax vertex")
    if expected_minimax is not None and v != expected_minimax:
        raise InvalidParametersError(
            f"minimax vertex is {v}, expected {expected_minimax}"
        )
    return Partition.from_blocks(map(mask_labels, _delete(p.block_bitsets(), v)))


def backward(c: Partition, n: int, m: int) -> Partition:
    """Insert vertex m+1 into a composition of target_graph(n, m), merging it
    with every singleton block drawn from the independent prefix {1..m}."""
    from .partitions import Partition, is_composition

    g = target_graph(n, m)
    if label_mask(c.labels) != g.vertex_mask or not is_composition(g, c):
        raise InvalidParametersError(
            f"expected a composition of the target graph for n={n}, m={m}"
        )
    return Partition.from_blocks(map(mask_labels, _insert(c.block_bitsets(), m)))


# The two maps work on partitions given as label bitsets, one per block, and
# return them sorted: a canonical form that lists compare directly.

def _delete(p: Iterable[int], v: int) -> list[int]:
    """``forward`` without its checks: the blocks of p with label v deleted,
    its block-mates split into singletons."""
    bit = 1 << v
    out = []
    for block in p:
        if block & bit:
            rest = block ^ bit
            while rest:
                low = rest & -rest
                out.append(low)
                rest ^= low
        else:
            out.append(block)
    out.sort()
    return out


def _insert(c: Iterable[int], m: int) -> list[int]:
    """``backward`` without its checks, for a ``c`` already known to be a
    composition of the target graph: label m+1 joins every singleton below it."""
    bit = 1 << (m + 1)
    merged = bit
    out = []
    for block in c:
        if block < bit and not block & (block - 1):
            merged |= block
        else:
            out.append(block)
    out.append(merged)
    out.sort()
    return out


def verify(n: int, m: int, cap: int | None = None) -> BijectionReport:
    """Exhaustively check the bijection at (n, m).

    Walks every partition of {1..n+1} with minimax vertex m+1 and every
    composition of the target graph, checking the structural facts the
    construction relies on, both round trips, and injectivity.
    """
    check_cell(n, m)
    return _verify_cells(n, [m], cap)[0]


def verify_row(n: int, cap: int | None = None) -> list[BijectionReport]:
    """``verify(n, m)`` for every m = 0..n, from one walk over the partitions of {1..n+1}."""
    check_at_least("n", n, 0)
    return _verify_cells(n, range(n + 1), cap)


def _verify_cells(n: int, ms: Iterable[int], cap: int | None) -> list[BijectionReport]:
    """The reports of the cells (n, m), m in ms: one walk over the partitions
    of {1..n+1} hands each to the cell of its minimax vertex.

    Partitions are kept as label bitsets throughout and go through the same
    ``_delete`` and ``_insert`` as ``forward`` and ``backward``.
    """
    check_cap(n + 1, cap)
    graphs = {m: target_graph(n, m) for m in ms}
    failed: set[int] = set()
    images: dict[int, set[int]] = {m: set() for m in graphs}
    lhs_counts = dict.fromkeys(graphs, 0)
    # An image's key is its blocks side by side, n + 2 bits each: labels run
    # up to n + 1, and no block is empty, so the key gives back the blocks.
    # One int per image, not the tuple of its block ints, keeps the set small:
    # verify_row(10) peaks at 64 MB with it and at 154 MB with tuples.
    width = n + 2
    for _, blocks in _block_stream(n + 1):
        # Position i of the walk holds label i + 1; the smallest block top is
        # the minimax vertex.
        p = sorted(mask << 1 for mask in blocks[:blocks.index(0)])
        v = min(map(int.bit_length, p)) - 1
        m = v - 1
        if m not in graphs:
            continue
        lhs_counts[m] += 1
        # Structural facts forced by the minimax choice: no block may sit
        # entirely inside the independent prefix {1..m}, and the block of v
        # contains nothing above the prefix except v itself.
        bit = 1 << v
        for block in p:
            above = block >> v << v
            if not above or (block & bit and above != bit):
                failed.add(m)
        image = _delete(p, v)
        g = graphs[m]
        if (
            reduce(or_, image, 0) != g.vertex_mask
            or not all(mask_connected(block, g.adj) for block in image)
            or _insert(image, m) != p
        ):
            failed.add(m)
        key = 0
        for block in image:
            key = key << width | block
        images[m].add(key)
    reports = []
    for m, g in graphs.items():
        v = m + 1
        low = (1 << m) - 1
        rhs_count = 0
        for _, blocks in _composition_states(g, cap):
            rhs_count += 1
            # Position i holds label i + 1 below the deleted vertex v, and
            # label i + 2 from it on.
            c = sorted(
                (mask & low) << 1 | (mask >> m) << (v + 1) for mask in blocks[:blocks.index(0)]
            )
            back = _insert(c, m)
            if min(map(int.bit_length, back)) - 1 != v or _delete(back, v) != c:
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
