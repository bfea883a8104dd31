"""Labelled undirected graphs with bitset adjacency.

Vertices are positive integer labels; a vertex set is an int used as a bitset
(bit v set <=> label v present).  A graph is a named tuple ``(vertex_mask,
adj)`` whose constructor checks it, so it hashes and compares as that tuple
and is safe to share across threads.  ``complete_minus_clique`` is the one
builder of the family obtained from a complete graph by deleting all edges
inside the label prefix {1..m}, which is the family everything else in this
package counts; ``complete(n)`` is its m = 0 member.  It and
``from_edge_list`` (which ``listing``'s graph-file parser calls) hand their
pairs, one at a time, to ``from_vertices_and_edges``, the one loop that sets
adjacency bits from pairs and the one check of an edge (a self-loop, or an
endpoint outside the vertex set), so no pair list is held and each edge is
checked once.  ``_check_count`` and ``_above_max`` are the one check and the
one refusal of a vertex count.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import combinations

from .errors import InvalidParametersError, MalformedInputError, check_at_least, check_cell

# Bitset guard: labels above this are rejected at construction.  Brute-force
# enumeration becomes infeasible far below 64 vertices, so the fixed width
# costs nothing in practice; raise it if you really need wider graphs.
MAX_LABEL = 64


def label_mask(labels: Iterable[int]) -> int:
    """Pack labels into a bitset, refusing a label outside 1..MAX_LABEL."""
    mask = 0
    for v in labels:
        if v < 1 or v > MAX_LABEL:
            raise InvalidParametersError(f"label {v} out of range 1..{MAX_LABEL}")
        mask |= 1 << v
    return mask


def mask_labels(mask: int) -> tuple[int, ...]:
    """Unpack a bitset into ascending labels."""
    check_at_least("mask", mask, 0)  # mask & -mask never clears a negative int
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class LabelledGraph(namedtuple("LabelledGraph", "vertex_mask adj")):
    """Immutable undirected graph on integer labels.

    ``vertex_mask`` is the bitset of present labels; ``adj[v]`` is the
    neighbor bitset of label v (index 0 and absent labels hold 0).
    """

    __slots__ = ()

    def __new__(cls, vertex_mask: int, adj: tuple[int, ...]):
        mask, adj = vertex_mask, tuple(adj)
        if mask & 1 or mask < 0:
            raise InvalidParametersError("vertex labels must be >= 1")
        if mask.bit_length() - 1 > MAX_LABEL:
            raise InvalidParametersError(
                f"labels above {MAX_LABEL} are not supported (got {mask.bit_length() - 1})"
            )
        if len(adj) != max(mask.bit_length(), 1):
            raise InvalidParametersError("adjacency table length does not match labels")
        for v, nbrs in enumerate(adj):
            if nbrs == 0:
                continue
            if not (mask >> v) & 1:
                raise InvalidParametersError(f"adjacency entry for absent label {v}")
            if (nbrs >> v) & 1:
                raise InvalidParametersError(f"self-loop at label {v}")
            if nbrs & ~mask:
                raise InvalidParametersError(f"neighbor of {v} outside the vertex set")
            for u in mask_labels(nbrs):
                if not (adj[u] >> v) & 1:
                    raise InvalidParametersError(f"asymmetric edge {{{v},{u}}}")
        return super().__new__(cls, vertex_mask, adj)

    # namedtuple's _replace builds through _make, and pickle protocols 0 and 1
    # through tuple.__new__: these two lines send both through the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce__ = lambda self: (type(self), tuple(self))

    @property
    def n(self) -> int:
        """Vertex count."""
        return self.vertex_mask.bit_count()

    @property
    def labels(self) -> tuple[int, ...]:
        return mask_labels(self.vertex_mask)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edge set as unordered pairs, normalized to (smaller, larger)."""
        return frozenset((v, u) for v in self.labels
                         for u in mask_labels(self.adj[v] >> (v + 1) << (v + 1)))  # u above v

    @property
    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in self.labels) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """True iff u and v are adjacent; False when either is not a vertex."""
        return 0 < u and 0 < v and bool(self.vertex_mask >> u & 1 and self.adj[u] >> v & 1)


def from_vertices_and_edges(
    labels: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> LabelledGraph:
    """Build a graph on an explicit label set; duplicate edges collapse.

    This is the one loop that sets adjacency bits from pairs: it checks each
    pair as it draws it, so no pair list is held.
    """
    mask = label_mask(labels)
    adj = [0] * max(mask.bit_length(), 1)
    for u, v in pairs:
        if u == v:
            raise MalformedInputError(f"self-loop at label {u}")
        if not (0 < u and 0 < v and mask >> u & mask >> v & 1):  # no shift by a negative label
            raise MalformedInputError(f"edge {{{u},{v}}} has an endpoint outside the vertex set")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return LabelledGraph(mask, adj)


def _above_max(shown: object) -> InvalidParametersError:
    """The refusal of a vertex count above MAX_LABEL, with ``shown`` standing
    for the count (``listing`` shows the cut digits of one too long to read)."""
    return InvalidParametersError(
        f"n = {shown} is above the largest supported vertex count, {MAX_LABEL}"
    )


def _check_count(n: int) -> None:
    """Refuse a vertex count outside 0..MAX_LABEL before any pair is drawn."""
    check_at_least("n", n, 0)
    if n > MAX_LABEL:
        raise _above_max(n)


def complete(n: int) -> LabelledGraph:
    """Complete graph on labels 1..n (n = 0 gives the empty graph)."""
    return complete_minus_clique(n, 0)


def complete_minus_clique(n: int, m: int) -> LabelledGraph:
    """Complete graph on 1..n with all edges inside {1..m} removed.

    The prefix {1..m} becomes an independent set; every pair with at least
    one endpoint above m keeps its edge.
    """
    _check_count(n)  # combinations() lists its pool at once
    check_cell(n, m)
    # u < v, so the pair lies inside {1..m} exactly when v <= m.
    return from_edge_list(n, (pair for pair in combinations(range(1, n + 1), 2) if pair[1] > m))


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> LabelledGraph:
    """Graph on labels 1..n with exactly the given edges, deduplicated.

    Self-loops and endpoints outside 1..n are malformed input, refused by
    ``from_vertices_and_edges`` as the pair that holds one is drawn.
    """
    _check_count(n)
    return from_vertices_and_edges(range(1, n + 1), pairs)


def delete_vertex(g: LabelledGraph, v: int) -> LabelledGraph:
    """Remove a vertex and its incident edges, keeping the remaining labels as-is."""
    if v < 1 or not g.vertex_mask >> v & 1:
        raise InvalidParametersError(f"label {v} is not a vertex")
    keep = g.vertex_mask & ~(1 << v)
    adj = [nbrs & keep for nbrs in g.adj]
    adj[v] = 0
    return LabelledGraph(keep, adj[: max(keep.bit_length(), 1)])


def mask_connected(mask: int, adj: Sequence[int]) -> bool:
    """Bitset BFS: does the vertex set ``mask`` induce a connected subgraph?

    ``adj[v]`` is the neighbor bitset of bit v; the empty set counts as
    connected.  Nothing is cached, so memory stays flat however many graphs
    a process checks.
    """
    reached = mask & -mask
    frontier = reached
    while frontier:
        grown = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            grown |= adj[low.bit_length() - 1]
        frontier = grown & mask & ~reached
        reached |= frontier
    return reached == mask


def is_connected_induced(g: LabelledGraph, s: int | Iterable[int]) -> bool:
    """True iff the subgraph induced by the nonempty vertex set s, a bitset or
    labels, is connected."""
    mask = s if isinstance(s, int) else label_mask(s)
    if mask == 0:
        raise InvalidParametersError("the empty set induces no subgraph")
    if mask & ~g.vertex_mask:
        raise InvalidParametersError("vertex set is not a subset of the graph's vertices")
    return mask_connected(mask, g.adj)
