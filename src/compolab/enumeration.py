"""Brute-force oracles: set partitions in canonical order and statistics by direct count.

Partitions are encoded as restricted growth strings (RGS): position i holds the
block index of the i-th smallest label, block indices appear in order of first
use, and each entry exceeds the running prefix maximum by at most one.  Streams
are yielded in lexicographic RGS order, which fixes a canonical, testable
enumeration order.

Counting operations enumerate every partition and filter — no closed forms are
consulted here, so these routines can serve as independent oracles for them.
A cap (default 12) guards against accidentally starting Bell(20)-scale runs.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidParametersError, ResourceLimitError
from .graphs import LabelledGraph, is_connected_induced, label_mask, mask_connected

BRUTE_FORCE_CAP = 12

# Eagerly tabulate subset connectivity up to this many vertices; beyond it the
# table would dominate the (already enormous) enumeration cost.
_EAGER_CONN_LIMIT = 14


def _check_cap(n: int, cap: Optional[int]) -> None:
    limit = BRUTE_FORCE_CAP if cap is None else cap
    if n > limit:
        raise ResourceLimitError(
            f"{n} vertices exceeds the brute-force cap of {limit} "
            f"(pass a higher cap explicitly to proceed)"
        )


class Partition:
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

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.labels == other.labels and self.rgs == other.rgs

    def __hash__(self):
        return hash((self.labels, self.rgs))

    def __repr__(self):
        return f"Partition({self.labels!r}, {self.rgs!r})"

    def __str__(self):
        """Block-line format, e.g. ``{1,3}|{2}``."""
        return "|".join(
            "{" + ",".join(str(x) for x in block) + "}" for block in self.blocks()
        )


@dataclass(frozen=True)
class Composition:
    """A partition of a graph's vertex set whose blocks all induce connected subgraphs."""

    graph: LabelledGraph
    partition: Partition

    def __post_init__(self) -> None:
        if not is_composition(self.graph, self.partition):
            raise InvalidParametersError(
                "every block must induce a connected subgraph"
            )

    def __str__(self):
        return str(self.partition)


def _rgs_stream(n: int) -> Iterator[list[int]]:
    """Yield every RGS of length n in lexicographic order, reusing one list."""
    if n == 0:
        yield []
        return
    rgs = [0] * n
    # prefix_max[i] = max(rgs[0..i-1]); position i may be raised while rgs[i] <= prefix_max[i]
    prefix_max = [0] * n
    while True:
        yield rgs
        i = n - 1
        while i > 0 and rgs[i] > prefix_max[i]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        high = prefix_max[i] if prefix_max[i] > rgs[i] else rgs[i]
        for j in range(i + 1, n):
            rgs[j] = 0
            prefix_max[j] = high


def partitions_of(labels: Iterable[int], cap: Optional[int] = None) -> Iterator[Partition]:
    """Every partition of an explicit label set, in lexicographic RGS order."""
    ground = tuple(sorted(set(labels)))
    _check_cap(len(ground), cap)
    return _partition_stream(ground)


def _partition_stream(ground: tuple[int, ...]) -> Iterator[Partition]:
    for rgs in _rgs_stream(len(ground)):
        yield Partition(ground, rgs)


def set_partitions(n: int, cap: Optional[int] = None) -> Iterator[Partition]:
    """Every partition of {1..n}, in lexicographic RGS order.

    Yields exactly bell(n) partitions; n = 0 yields the single empty partition.
    """
    if n < 0:
        raise InvalidParametersError(f"n must be >= 0, got {n}")
    _check_cap(n, cap)
    return _partition_stream(tuple(range(1, n + 1)))


def is_composition(g: LabelledGraph, p: Partition) -> bool:
    """True iff p partitions g's vertex set and every block is connected in g."""
    if label_mask(p.labels) != g.vertex_mask:
        raise InvalidParametersError("partition ground set differs from the graph's vertices")
    return all(is_connected_induced(g, block) for block in p.block_bitsets())


def compositions(g: LabelledGraph, cap: Optional[int] = None) -> Iterator[Composition]:
    """Every composition of g, in the set_partitions order of its vertex set."""
    _check_cap(g.n, cap)
    return _composition_stream(g, _connectivity_table(_position_adjacency(g)))


def _composition_stream(g: LabelledGraph, conn: Sequence[int]) -> Iterator[Composition]:
    """Filter the RGS stream by block connectivity; build objects only for hits."""
    labels = g.labels
    n = len(labels)
    for rgs in _rgs_stream(n):
        blocks = [0] * n
        for v, b in enumerate(rgs):
            blocks[b] |= 1 << v
        # Unused trailing entries stay 0, and conn[0] is true.
        if all(conn[mask] for mask in blocks):
            yield Composition(g, Partition(labels, rgs))


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


def _connectivity_table(padj: list[int]) -> Sequence[int]:
    """conn[mask] = 1 iff the positions in mask induce a connected subgraph."""
    n = len(padj)
    if n > _EAGER_CONN_LIMIT:
        return _LazyConnectivity(padj)
    table = bytearray(1 << n)
    table[0] = 1  # the empty set; _composition_stream tests unused block slots
    for mask in range(1, 1 << n):
        table[mask] = mask_connected(mask, padj)
    return table


class _LazyConnectivity:
    """Dict-backed fallback for vertex counts where the eager table is too large."""

    __slots__ = ("_padj", "_known")

    def __init__(self, padj: list[int]):
        self._padj = padj
        self._known: dict[int, bool] = {}

    def __getitem__(self, mask: int) -> bool:
        got = self._known.get(mask)
        if got is None:
            got = self._known[mask] = mask_connected(mask, self._padj)
        return got


def _count_extensions(
    n: int, conn: Sequence[int], prefix: Sequence[int]
) -> int:
    """Count partitions that extend a fixed RGS prefix and have all blocks connected.

    Enumerates every completion of the prefix (one leaf per partition) and
    filters by per-block connectivity at the leaves.
    """
    blocks = [0] * (n + 1)
    used = 0
    for v, b in enumerate(prefix):
        blocks[b] |= 1 << v
        if b + 1 > used:
            used = b + 1
    count = 0

    def descend(v: int, used: int) -> None:
        nonlocal count
        if v == n:
            for index in range(used):
                if not conn[blocks[index]]:
                    return
            count += 1
            return
        bit = 1 << v
        for index in range(used):
            blocks[index] |= bit
            descend(v + 1, used)
            blocks[index] ^= bit
        blocks[used] = bit
        descend(v + 1, used + 1)
        blocks[used] = 0

    descend(len(prefix), used)
    return count


def _count_task(args: tuple[int, Sequence[int], tuple[int, ...]]) -> int:
    n, conn, prefix = args
    return _count_extensions(n, conn, prefix)


def _split_prefixes(n: int, workers: int) -> list[tuple[int, ...]]:
    """RGS prefixes partitioning the search space into at least ~4x workers chunks."""
    length = 1
    total = 1
    while length < n and total < 4 * workers:
        length += 1
        total = sum(1 for _ in _rgs_stream(length))
    return [tuple(r) for r in _rgs_stream(length)]


def composition_count_brute(
    g: LabelledGraph, cap: Optional[int] = None, workers: int = 1
) -> int:
    """Number of compositions of g, by enumerating all partitions of its vertices.

    With ``workers > 1`` the RGS space is split by prefix across a process
    pool; totals are identical to the single-worker count.
    """
    _check_cap(g.n, cap)
    if workers < 1:
        raise InvalidParametersError(f"workers must be >= 1, got {workers}")
    n = g.n
    conn = _connectivity_table(_position_adjacency(g))
    if workers == 1 or n < 2:
        return _count_extensions(n, conn, ())
    tasks = [(n, conn, prefix) for prefix in _split_prefixes(n, workers)]
    with multiprocessing.Pool(workers) as pool:
        return sum(pool.map(_count_task, tasks))


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
    _check_cap(n, cap)
    count = 0
    last_position = [0] * n
    for rgs in _rgs_stream(n):
        top = -1
        for v, b in enumerate(rgs):
            if b > top:
                top = b
            last_position[b] = v
        stat = min(last_position[: top + 1]) + 1
        if stat == m:
            count += 1
    return count


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
    _check_cap(n, cap)
    count = 0
    last_position = [0] * n
    sizes = [0] * n
    for rgs in _rgs_stream(n):
        top = -1
        for v, b in enumerate(rgs):
            if b > top:
                top = b
                sizes[b] = 1
            else:
                sizes[b] += 1
            last_position[b] = v
        stat = 0
        for b in range(top + 1):
            if sizes[b] <= j:
                candidate = last_position[b] + 1
                if stat == 0 or candidate < stat:
                    stat = candidate
        if stat == m:
            count += 1
    return count
