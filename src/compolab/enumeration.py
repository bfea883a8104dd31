"""Brute-force oracles: set partitions in canonical order and statistics by direct count.

Partitions are encoded as restricted growth strings (RGS): position i holds the
block index of the i-th smallest label, block indices appear in order of first
use, and each entry exceeds every entry before it by at most one.  Streams
are yielded in lexicographic RGS order, which fixes a canonical, testable
enumeration order.

One walker, ``_block_stream``, yields that order with every block kept in place
as a bitset of positions: ``bit_length`` is a block's largest label and
``bit_count`` its size.  Objects the streams build skip the public checks.

The counters walk the partitions of all labels but the last two and score
every placement of those two (each alone, together, or joined to blocks) from
one pass over the blocks, so they visit Bell(n - 2) partitions instead of
Bell(n).  A partition of k blocks stands for (k + 2) + k(k + 1) leaves.  One
walk scores a whole cached row of the size-restricted minimax statistic;
minimax is its j = n row.  Each placement is still decided from the
blocks and the connectivity table alone — no closed forms are consulted here,
so these routines can serve as independent oracles for them.  A cap (default
12), checked before the row cache is read, guards against Bell(20)-scale runs.

The composition stream walks Bell(n - 1) partitions and places the last
label where every block stays connected; ``set_partitions`` walks all Bell(n).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BRUTE_FORCE_CAP, InvalidParametersError, ResourceLimitError, check_cap
from .graphs import Frozen, LabelledGraph, is_connected_induced, label_mask, mask_connected

# Largest vertex count whose connectivity table is built, whatever the cap: at
# 20 vertices the table takes 1-2 s and 1 MiB, and a walk over Bell(19)
# partitions would never end anyway.
_TABLE_MAX_N = 20


class Partition(Frozen):
    """A set partition of a finite label set, canonically encoded as an RGS.

    ``labels`` is the ascending ground set; ``rgs[i]`` is the block index of
    ``labels[i]``.  Because block indices are assigned in order of first
    appearance, blocks come out sorted by their minimum element.
    """

    __slots__ = ("labels", "rgs")

    def __init__(self, labels: Sequence[int], rgs: Sequence[int]):
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
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rgs", rgs)

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


class Composition(Frozen):
    """A partition of a graph's vertex set whose blocks all induce connected subgraphs."""

    __slots__ = ("graph", "partition")
    graph: LabelledGraph
    partition: Partition

    def __init__(self, graph: LabelledGraph, partition: Partition):
        if not is_composition(graph, partition):
            raise InvalidParametersError(
                "every block must induce a connected subgraph"
            )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "partition", partition)

    def __str__(self):
        return str(self.partition)


# Stream-built objects skip the public checks: their fields are set through
# the slot descriptors, which also bypass Frozen.__setattr__.
_new = object.__new__
_set_labels = Partition.labels.__set__
_set_rgs = Partition.rgs.__set__
_set_graph = Composition.graph.__set__
_set_partition = Composition.partition.__set__


_State = tuple[list[int], list[int]]  # the walker's (rgs, blocks), see _block_stream


def _block_stream(n: int) -> Iterator[_State]:
    """Yield (rgs, blocks) for every RGS of length n, in lexicographic order.

    Both lists change in place and the same tuple is yielded each time.
    ``blocks[b]`` is the position bitset of block b; later slots, and slot n, are 0.
    """
    rgs = [0] * n
    blocks = [0] * (n + 1)
    blocks[0] = (1 << n) - 1
    # opened[i] = number of blocks used by rgs[:i]; position i may hold 0..opened[i]
    opened = [0] + [1] * (n - 1)
    state = (rgs, blocks)
    yield state
    if not n:
        return
    last = n - 1
    last_bit = 1 << last
    while True:
        # Most steps move only the last position, and need no reset.
        for b in range(rgs[last], opened[last]):
            blocks[b] ^= last_bit
            blocks[b + 1] |= last_bit
            rgs[last] = b + 1
            yield state
        i = last - 1
        while i >= 0 and rgs[i] == opened[i]:
            i -= 1
        if i < 0:
            return
        b = rgs[i]
        blocks[b] ^= 1 << i
        blocks[b + 1] |= 1 << i
        rgs[i] = b + 1
        high = max(opened[i], b + 2)
        for v in range(i + 1, n):
            blocks[rgs[v]] ^= 1 << v
            rgs[v] = 0
            opened[v] = high
        blocks[0] |= (1 << n) - (2 << i)
        yield state


def partitions_of(labels: Iterable[int], cap: Optional[int] = None) -> Iterator[Partition]:
    """Every partition of an explicit label set, in lexicographic RGS order."""
    ground = tuple(sorted(set(labels)))
    check_cap(len(ground), cap)
    return _partition_stream(ground)


def _partition_stream(ground: tuple[int, ...]) -> Iterator[Partition]:
    for rgs, _ in _block_stream(len(ground)):
        partition = _new(Partition)
        _set_labels(partition, ground)
        _set_rgs(partition, tuple(rgs))
        yield partition


def set_partitions(n: int, cap: Optional[int] = None) -> Iterator[Partition]:
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


def compositions(g: LabelledGraph, cap: Optional[int] = None) -> Iterator[Composition]:
    """Every composition of g, in the set_partitions order of its vertex set."""
    return _composition_stream(g, _composition_states(g, cap))


def _composition_states(g: LabelledGraph, cap: Optional[int] = None) -> Iterator[_State]:
    """The ``_block_stream`` state, order and contract at each composition of
    g, position i standing for ``g.labels[i]``; the cap is checked, and the
    connectivity table built, at the call.  The walk covers all positions but
    the last, which joins block B where conn[B | last] and no other block is
    disconnected, and stands alone (last) where no block is disconnected.
    """
    check_cap(g.n, cap)
    conn = _connectivity_table(_position_adjacency(g))
    n = g.n

    def connected() -> Iterator[_State]:
        if not n:
            yield [], [0]
            return
        last = n - 1
        bit = 1 << last
        rgs = [0] * n
        blocks = [0] * (n + 1)
        state = (rgs, blocks)
        for walked_rgs, walked in _block_stream(last):
            x = -1  # the one disconnected block
            for k, mask in enumerate(walked):
                if not mask:
                    break
                if not conn[mask]:
                    if x >= 0:
                        break  # a second one: mask stays nonzero
                    x = k
            if mask or x >= 0 and not conn[walked[x] | bit]:
                continue
            rgs[:last] = walked_rgs
            blocks[:n] = walked
            # r = k is the new singleton: walked[k] is 0, and conn[bit] is 1.
            for r in range(k + 1) if x < 0 else (x,):
                if conn[walked[r] | bit]:
                    rgs[last] = r
                    blocks[r] |= bit
                    yield state
                    blocks[r] = walked[r]

    return connected()


def _composition_stream(g: LabelledGraph, states: Iterator[_State]) -> Iterator[Composition]:
    labels = g.labels
    for rgs, _ in states:
        partition = _new(Partition)
        _set_labels(partition, labels)
        _set_rgs(partition, tuple(rgs))
        composition = _new(Composition)
        _set_graph(composition, g)
        _set_partition(composition, partition)
        yield composition


# ---------------------------------------------------------------------------
# Composition counting
# ---------------------------------------------------------------------------

def _position_adjacency(g: LabelledGraph) -> list[int]:
    """Re-index adjacency onto positions 0..n-1 of the sorted label tuple."""
    labels = g.labels
    position = {v: i for i, v in enumerate(labels)}
    padj = [0] * len(labels)
    for i, v in enumerate(labels):
        rest = g.adj[v]
        while rest:
            low = rest & -rest
            rest ^= low
            padj[i] |= 1 << position[low.bit_length() - 1]
    return padj


def _connectivity_table(padj: list[int]) -> bytearray:
    """conn[mask] = 1 iff the positions in mask induce a connected subgraph."""
    n = len(padj)
    if n > _TABLE_MAX_N:
        raise ResourceLimitError(
            f"{n} vertices need a connectivity table of 2**{n} entries, above the "
            f"limit of 2**{_TABLE_MAX_N} whatever the brute-force cap"
        )
    table = bytearray(1 << n)
    for mask in range(1, 1 << n):
        table[mask] = mask_connected(mask, padj)
    return table


def _count_extensions(n: int, conn: Sequence[int]) -> int:
    """Count the partitions of positions 0..n-1 that have every block connected.

    The walk covers positions 0..n-3 and scores every placement of p = n - 2
    and q = n - 1 at once.  For a block B let a = conn[B|p], b = conn[B|q] and
    c = conn[B|p|q], summed (Σ) over the connected blocks.  A partition with no
    disconnected block counts 1 + conn[p|q] + Σa + Σb + Σc + Σa·Σb − Σab; one
    disconnected block x counts a_x + b_x + c_x + a_x·Σb + b_x·Σa; two, x and
    y, count a_x·b_y + a_y·b_x; three or more count nothing.
    """
    if n < 2:
        return 1  # the empty partition; the singleton {0}
    # One sum over a partition's blocks adds all these terms at once, packed in
    # 8-bit fields: a connected block adds a + b + c − ab, a and b at bits 0, 8
    # and 16; a disconnected one adds a + b + c, a, b, ab and 1 at bits 24, 32,
    # 40, 48 and 56.  The table stops at 20 vertices, so no field reaches 256.
    kinds = []
    for key in range(16):
        whole, a, b, c = key & 1, key >> 1 & 1, key >> 2 & 1, key >> 3
        kinds.append(
            a + b + c - a * b | a << 8 | b << 16 if whole
            else (a + b + c) << 24 | a << 32 | b << 40 | a * b << 48 | 1 << 56
        )
    p = 1 << (n - 2)
    weights = [
        kinds[whole | a << 1 | b << 2 | c << 3]
        for whole, a, b, c in zip(conn[:p], conn[p:2 * p], conn[2 * p:3 * p], conn[3 * p:])
    ]
    weights[0] = 0  # the walker's empty slots
    weigh = weights.__getitem__
    alone = 1 + conn[3 * p]
    count = 0
    for _, blocks in _block_stream(n - 2):
        s = sum(map(weigh, blocks))
        broken = s >> 56
        if broken > 2:
            continue
        sum_a, sum_b = s >> 8 & 255, s >> 16 & 255
        if not broken:
            count += alone + (s & 255) + sum_a * sum_b
        elif broken == 1:
            count += (s >> 24 & 255) + (s >> 32 & 255) * sum_b + (s >> 40 & 255) * sum_a
        else:
            count += (s >> 32 & 255) * (s >> 40 & 255) - (s >> 48 & 255)
    return count


def composition_count_brute(g: LabelledGraph, cap: Optional[int] = None) -> int:
    """Number of compositions of g, by enumerating all partitions of its vertices."""
    check_cap(g.n, cap)
    return _count_extensions(g.n, _connectivity_table(_position_adjacency(g)))


# ---------------------------------------------------------------------------
# Minimax statistics
# ---------------------------------------------------------------------------

def minimax_vertex(p: Partition) -> Optional[int]:
    """Smallest among the per-block maximum labels; None for the empty partition."""
    if p.n == 0:
        return None
    best: Optional[int] = None
    for block in p.blocks():
        top = block[-1]
        if best is None or top < best:
            best = top
    return best


def minimax_restricted(p: Partition, j: int) -> Optional[int]:
    """Minimax taken only over blocks with at most j labels; None if no block qualifies."""
    if j < 1:
        raise InvalidParametersError(f"j must be >= 1, got {j}")
    best: Optional[int] = None
    for block in p.blocks():
        if len(block) > j:
            continue
        top = block[-1]
        if best is None or top < best:
            best = top
    return best


def minimax_count_brute(n: int, m: int, cap: Optional[int] = None) -> int:
    """Number of partitions of {1..n} whose minimax vertex is m, by enumeration."""
    if n < 1 or not (1 <= m <= n):
        raise InvalidParametersError(f"need 1 <= m <= n, got n={n}, m={m}")
    check_cap(n, cap)
    return _statistic_row(n, n)[m]


def kj_count_brute(n: int, m: int, j: int, cap: Optional[int] = None) -> int:
    """Number of partitions of {1..n} whose size-restricted minimax statistic is m.

    The statistic is the smallest per-block maximum over blocks with at most j
    labels; partitions with no such block carry statistic 0, which is what the
    m = 0 column counts.
    """
    if j < 1:
        raise InvalidParametersError(f"j must be >= 1, got {j}")
    if n < 0 or not (0 <= m <= n):
        raise InvalidParametersError(f"need 0 <= m <= n, got n={n}, m={m}")
    check_cap(n, cap)
    return _statistic_row(n, min(j, n))[m]


@lru_cache(maxsize=BRUTE_FORCE_CAP + 1)
def _statistic_row(n: int, j: int) -> tuple[int, ...]:
    """row[m] = number of partitions of {1..n} whose smallest top among blocks
    of at most j labels is m (0: no such block).  Callers check the cap.

    The walk covers labels 1..n-2 and scores every placement of labels n - 1
    and n at once: a placement scores the smallest qualifying top among the
    blocks it leaves untouched, else n - 1 if the block of n - 1 qualifies
    (and lacks n), else n if the block of n qualifies, else 0.
    """
    if n < 2:
        return ((1,), (0, 1))[n]  # the empty partition; the singleton {1}
    # t1 < t2 < t3 are the three smallest qualifying tops (z if missing), b1
    # and b2 the blocks of t1 and t2, and k the number of blocks.  Of the
    # (k + 2) + k(k + 1) placements, k² + 1 leave b1 untouched and score t1,
    # and 2k - 1 of the rest leave b2 untouched and score t2.
    z = n + 1
    row = [0] * (n + 2)  # row[z] counts statistic 0
    every = j >= n - 2  # every block of n - 2 labels qualifies
    for _, blocks in _block_stream(n - 2):
        t1 = t2 = t3 = z
        b1 = b2 = 0
        for k, mask in enumerate(blocks):
            if not mask:
                break
            if every or mask.bit_count() <= j:
                top = mask.bit_length()
                if top < t2:
                    if top < t1:
                        t1, t2, t3, b1, b2 = top, t1, t2, mask, b1
                    else:
                        t2, t3, b2 = top, t2, mask
                elif top < t3:
                    t3 = top
        if t1 == z:  # every block has more than j labels, and so has each join
            row[n - 1] += k + 1  # n - 1 alone
            row[n] += k + (j > 1)  # n alone beside a grown block, or {n - 1, n}
            row[z] += k * k + (j == 1)
            continue
        row[t1] += k * k + 1
        grow1 = b1.bit_count() < j  # b1 still qualifies with one more label
        if t2 < z:
            row[t2] += 2 * k - 1
            if t3 < z:
                row[t3] += 2  # n - 1 joins b1 and n joins b2, or the reverse
            else:
                grow2 = b2.bit_count() < j
                row[n - 1 if grow1 else n if grow2 else z] += 1  # n - 1 joins b1, n joins b2
                row[n - 1 if grow2 else n if grow1 else z] += 1  # the reverse
        else:
            row[n - 1] += 1  # n joins b1
            row[n - 1 if grow1 else n] += 1  # n - 1 joins b1
            row[n if b1.bit_count() + 2 <= j else z] += 1  # both join b1
            row[n - 1 if grow1 else z] += k - 1  # n - 1 joins b1, n another block
            row[n if grow1 else z] += k - 1  # n joins b1, n - 1 another block
    return (row[z], *row[1:z])
