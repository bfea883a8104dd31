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
``tuple.__new__``, past checks their walks already meet.  ``Partition.blocks``
is the one decoder of the RGS: the block bitsets, the block-line text and the
minimax statistics are all read off its blocks.

The brute-force counters in ``enumeration`` and ``stats`` build no object and
never load this module.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .enumeration import _composition_states
from .errors import InvalidParametersError, check_at_least, check_cap
from .graphs import LabelledGraph, is_connected_induced, label_mask
from .walker import _block_stream


def _check_labels(labels: Iterable[int]) -> None:
    """Refuse labels, in any order, unless every one is an int of at least 1."""
    if any(type(label) is not int or label < 1 for label in labels):
        raise InvalidParametersError("labels must be positive integers")


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
        _check_labels(labels)
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise InvalidParametersError("labels must be strictly increasing")
        top = -1
        for value in rgs:
            if type(value) is not int or value < 0 or value > top + 1:
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
        _check_labels(owner)  # before sorting, which a label of another type breaks
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

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as ascending label tuples, ordered by minimum element."""
        out: list[list[int]] = [[] for _ in range(max(self.rgs, default=-1) + 1)]
        for label, b in zip(self.labels, self.rgs):
            out[b].append(label)
        return tuple(map(tuple, out))

    def block_bitsets(self) -> tuple[int, ...]:
        """Blocks as label bitsets, ordered by minimum element."""
        return tuple(sum(1 << label for label in block) for block in self.blocks())

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
    ground = set(labels)
    _check_labels(ground)
    check_cap(len(ground), cap)
    return _partition_stream(tuple(sorted(ground)))


def _partition_stream(ground: tuple[int, ...]) -> Iterator[Partition]:
    for rgs, _ in _block_stream(len(ground)):
        yield tuple.__new__(Partition, (ground, tuple(rgs)))


def set_partitions(n: int, cap: int | None = None) -> Iterator[Partition]:
    """Every partition of {1..n}, in lexicographic RGS order.

    Yields exactly bell(n) partitions; n = 0 yields the single empty partition.
    """
    check_at_least("n", n, 0)
    check_cap(n, cap)
    return _partition_stream(tuple(range(1, n + 1)))


def is_composition(g: LabelledGraph, p: Partition) -> bool:
    """True iff p partitions g's vertex set and every block is connected in g."""
    if label_mask(p.labels) != g.vertex_mask:
        raise InvalidParametersError("partition ground set differs from the graph's vertices")
    return all(is_connected_induced(g, block) for block in p.block_bitsets())


def compositions(g: LabelledGraph, cap: int | None = None) -> Iterator[Composition]:
    """Every composition of g, in the set_partitions order of its vertex set."""
    labels = g.labels
    # A generator's first iterable is made at once, so the cap is checked here.
    return (tuple.__new__(Composition, (g, tuple.__new__(Partition, (labels, tuple(rgs)))))
            for rgs, _ in _composition_states(g, cap))


def minimax_vertex(p: Partition) -> int | None:
    """Smallest among the per-block maximum labels; None for the empty partition."""
    return minimax_restricted(p, p.n) if p.n else None


def minimax_restricted(p: Partition, j: int) -> int | None:
    """Minimax taken only over blocks with at most j labels; None if no block qualifies."""
    check_at_least("j", j, 1)
    return min((block[-1] for block in p.blocks() if len(block) <= j), default=None)
