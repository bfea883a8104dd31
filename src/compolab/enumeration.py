"""Brute-force oracles: set partitions in canonical order and statistics by direct count.

Partitions are encoded as restricted growth strings (RGS): position i holds the
block index of the i-th smallest label, block indices appear in order of first
use, and each entry exceeds the running prefix maximum by at most one.  Streams
are yielded in lexicographic RGS order, which fixes a canonical, testable
enumeration order.

One walker, ``_block_stream``, yields that order with every block kept in place
as a bitset of positions: ``bit_length`` is a block's largest label and
``bit_count`` its size.  Objects the streams build skip the public checks.

The counters walk the partitions of all labels but the last and score every
placement of the last label (its own singleton, or a join to each block) from
one pass over the blocks, so they visit Bell(n - 1) partitions instead of
Bell(n).  One walk scores a whole cached row of the size-restricted minimax
statistic; minimax is its j = n row.  Each placement is still decided from the
blocks and the connectivity table alone — no closed forms are consulted here,
so these routines can serve as independent oracles for them.  A cap (default
12), checked before the row cache is read, guards against Bell(20)-scale runs.
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


def _block_stream(n: int, prefix: Sequence[int] = ()) -> Iterator[_State]:
    """Yield (rgs, blocks) for every RGS of length n that extends prefix, in lexicographic order.

    Both lists change in place and the same tuple is yielded each time.
    ``blocks[b]`` is the position bitset of block b; later slots, and slot n, are 0.
    """
    fixed = len(prefix)
    rgs = list(prefix) + [0] * (n - fixed)
    blocks = [0] * (n + 1)
    # opened[i] = number of blocks used by rgs[:i]; position i may hold 0..opened[i]
    opened = [0] * n
    top = 0
    for v, b in enumerate(rgs):
        blocks[b] |= 1 << v
        opened[v] = top
        top = max(top, b + 1)
    state = (rgs, blocks)
    yield state
    if fixed == n:
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
        while i >= fixed and rgs[i] == opened[i]:
            i -= 1
        if i < fixed:
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
    """The walker's state at each composition of g, position i standing for
    ``g.labels[i]``.  The cap is checked at the call."""
    check_cap(g.n, cap)
    return _connected_states(g.n, _connectivity_table(_position_adjacency(g)))


def _connected_states(n: int, conn: Sequence[int]) -> Iterator[_State]:
    """Filter the block stream by connectivity."""
    for state in _block_stream(n):
        for mask in state[1]:
            if not mask:
                yield state
                break
            if not conn[mask]:
                break


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


def _count_extensions(n: int, conn: Sequence[int], prefix: Sequence[int]) -> int:
    """Count the partitions that extend an RGS prefix and have every block connected."""
    if len(prefix) == n:  # n = 0, or the prefix places the last position too
        _, blocks = next(_block_stream(n, prefix))
        return int(all(conn[mask] for mask in blocks if mask))
    # The singleton always counts, and each join to a connected block b with
    # conn[b | last_bit]; one disconnected block leaves only the join to it.
    last_bit = 1 << (n - 1)
    count = 0
    for _, blocks in _block_stream(n - 1, prefix):
        joins, broken = 1, 0
        for mask in blocks:
            if not mask:
                count += conn[broken | last_bit] if broken else joins
                break
            if conn[mask]:
                joins += conn[mask | last_bit]
            elif broken:
                break
            else:
                broken = mask
    return count


def _split_prefixes(n: int, workers: int) -> list[tuple[int, ...]]:
    """RGS prefixes partitioning the search space into at least ~4x workers chunks."""
    length, prefixes = 1, [(0,)]
    while length < n and len(prefixes) < 4 * workers:
        length += 1
        prefixes = [tuple(rgs) for rgs, _ in _block_stream(length)]
    return prefixes


def composition_count_brute(
    g: LabelledGraph, cap: Optional[int] = None, workers: int = 1
) -> int:
    """Number of compositions of g, by enumerating all partitions of its vertices.

    With ``workers > 1`` the RGS space is split by prefix across a process
    pool; totals are identical to the single-worker count.
    """
    check_cap(g.n, cap)
    if workers < 1:
        raise InvalidParametersError(f"workers must be >= 1, got {workers}")
    n = g.n
    conn = _connectivity_table(_position_adjacency(g))
    if workers == 1 or n < 2:
        return _count_extensions(n, conn, ())
    import multiprocessing  # only the split needs it, and it is slow to import

    tasks = [(n, conn, prefix) for prefix in _split_prefixes(n, workers)]
    with multiprocessing.Pool(workers) as pool:
        return sum(pool.starmap(_count_extensions, tasks))


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
    of at most j labels is m (0: no such block).  Callers check the cap."""
    if n == 0:
        return (1,)  # the empty partition
    # With t1 < t2 the two smallest qualifying tops (n + 1 if missing) and b1
    # the block of t1: the singleton {n} and the k - 1 other joins keep t1, and
    # the join to b1 scores t2, or n if b1 still qualifies once grown.
    row = [0] * (n + 2)
    every = j >= n - 1  # every block of n - 1 labels qualifies
    for _, blocks in _block_stream(n - 1):
        t1 = t2 = n + 1
        b1 = 0
        for k, mask in enumerate(blocks):
            if not mask:
                break
            if every or mask.bit_count() <= j:
                top = mask.bit_length()
                if top < t1:
                    t1, t2, b1 = top, t1, mask
                elif top < t2:
                    t2 = top
        row[t1] += k
        row[t2 if t2 <= n or b1.bit_count() >= j else n] += 1
    return (row[-1], *row[1:-1])
