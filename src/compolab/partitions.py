"""Partitions and compositions as objects, and the statistics read off them.

``Partition`` encodes a set partition as a restricted growth string (RGS):
position i holds the block index of the i-th smallest label, block indices
appear in order of first use, and each entry exceeds every entry before it by
at most one.  ``Composition`` is a partition of a graph's vertices whose blocks
are all connected.  The streams yield these objects in lexicographic RGS
order: ``set_partitions`` walks all Bell(n) partitions with
``walker._block_stream``, and ``compositions`` takes the Bell(n - 1)
partitions of all vertices but the last from ``enumeration``, which places
the last where every block stays connected.  Both are named tuples whose
constructors check their fields; the streams build theirs with
``tuple.__new__``, past checks their walks already meet.

The brute-force counters in ``enumeration`` and ``stats`` build no object and
never load this module.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .enumeration import _composition_states
from .errors import InvalidParametersError, check_cap
from .graphs import LabelledGraph, is_connected_induced, label_mask
from .walker import _State, _block_stream


class Partition(namedtuple("Partition", "labels rgs")):
    """A set partition of a finite label set, canonically encoded as an RGS.

    ``labels`` is the ascending ground set; ``rgs[i]`` is the block index of
    ``labels[i]``.  Because block indices are assigned in order of first
    appearance, blocks come out sorted by their minimum element.
    """

    __slots__ = ()

    def __new__(cls, labels: Sequence[int], rgs: Sequence[int]):
        labels = tuple(labels)
        rgs = tuple(rgs)
        if len(labels) != len(rgs):
            raise InvalidParametersError("labels and rgs must have equal length")
        if labels and labels[0] < 1:
            raise InvalidParametersError("labels must be positive integers")
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise InvalidParametersError("labels must be strictly increasing")
        top = -1
        for value in rgs:
            if value < 0 or value > top + 1:
                raise InvalidParametersError(f"not a restricted growth string: {rgs}")
            if value > top:
                top = value
        return super().__new__(cls, labels, rgs)

    # As for LabelledGraph: _replace and pickling go through the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce__ = lambda self: (type(self), tuple(self))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonicalize explicit blocks (which must be disjoint and nonempty)."""
        block_sets = [frozenset(b) for b in blocks]
        if any(not b for b in block_sets):
            raise InvalidParametersError("blocks must be nonempty")
        owner = {}
        for index, b in enumerate(block_sets):
            for label in b:
                if label in owner:
                    raise InvalidParametersError(f"label {label} appears in two blocks")
                owner[label] = index
        labels = tuple(sorted(owner))
        block_ids: dict[int, int] = {}
        rgs = []
        for label in labels:
            index = owner[label]
            rgs.append(block_ids.setdefault(index, len(block_ids)))
        return cls(labels, rgs)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as ascending label tuples, ordered by minimum element."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for label, b in zip(self.labels, self.rgs):
            out[b].append(label)
        return tuple(tuple(b) for b in out)

    def block_bitsets(self) -> tuple[int, ...]:
        """Blocks as label bitsets, ordered by minimum element."""
        out = [0] * self.block_count
        for label, b in zip(self.labels, self.rgs):
            out[b] |= 1 << label
        return tuple(out)

    def __str__(self):
        """Block-line format, e.g. ``{1,3}|{2}``."""
        return "|".join(
            "{" + ",".join(str(x) for x in block) + "}" for block in self.blocks()
        )


class Composition(namedtuple("Composition", "graph partition")):
    """A partition of a graph's vertex set whose blocks all induce connected subgraphs."""

    __slots__ = ()

    def __new__(cls, graph: LabelledGraph, partition: Partition):
        if not is_composition(graph, partition):
            raise InvalidParametersError(
                "every block must induce a connected subgraph"
            )
        return super().__new__(cls, graph, partition)

    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce__ = lambda self: (type(self), tuple(self))

    def __str__(self):
        return str(self.partition)


def partitions_of(labels: Iterable[int], cap: int | None = None) -> Iterator[Partition]:
    """Every partition of an explicit label set, in lexicographic RGS order."""
    ground = tuple(sorted(set(labels)))
    if ground and ground[0] < 1:
        raise InvalidParametersError("labels must be positive integers")
    check_cap(len(ground), cap)
    return _partition_stream(ground)


def _partition_stream(ground: tuple[int, ...]) -> Iterator[Partition]:
    for rgs, _ in _block_stream(len(ground)):
        yield tuple.__new__(Partition, (ground, tuple(rgs)))


def set_partitions(n: int, cap: int | None = None) -> Iterator[Partition]:
    """Every partition of {1..n}, in lexicographic RGS order.

    Yields exactly bell(n) partitions; n = 0 yields the single empty partition.
    """
    if n < 0:
        raise InvalidParametersError(f"n must be >= 0, got {n}")
    check_cap(n, cap)
    return _partition_stream(tuple(range(1, n + 1)))


def is_composition(g: LabelledGraph, p: Partition) -> bool:
    """True iff p partitions g's vertex set and every block is connected in g."""
    if label_mask(p.labels) != g.vertex_mask:
        raise InvalidParametersError("partition ground set differs from the graph's vertices")
    return all(is_connected_induced(g, block) for block in p.block_bitsets())


def compositions(g: LabelledGraph, cap: int | None = None) -> Iterator[Composition]:
    """Every composition of g, in the set_partitions order of its vertex set."""
    return _composition_stream(g, _composition_states(g, cap))


def _composition_stream(g: LabelledGraph, states: Iterator[_State]) -> Iterator[Composition]:
    labels = g.labels
    for rgs, _ in states:
        yield tuple.__new__(Composition, (g, tuple.__new__(Partition, (labels, tuple(rgs)))))


def minimax_vertex(p: Partition) -> int | None:
    """Smallest among the per-block maximum labels; None for the empty partition."""
    return minimax_restricted(p, p.n) if p.n else None


def minimax_restricted(p: Partition, j: int) -> int | None:
    """Minimax taken only over blocks with at most j labels; None if no block qualifies."""
    if j < 1:
        raise InvalidParametersError(f"j must be >= 1, got {j}")
    best: int | None = None
    for block in p.blocks():
        if len(block) > j:
            continue
        top = block[-1]
        if best is None or top < best:
            best = top
    return best
