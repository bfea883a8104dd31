"""Brute-force counting of graph compositions, by walking set partitions.

Partitions come from ``walker._block_stream``, each block a bitset of
positions.  ``_count_extensions`` walks Bell(n - 3) partitions, places the
third last label in each block and alone, and scores the last two labels of
each placement from a packed sum of per-block weights, once per distinct sum.
Each placement is decided from the blocks and the connectivity table alone —
no closed forms are consulted here, so the count can serve as an independent
oracle for them.  ``errors.check_cap``, run at every entry point before a
connectivity table is built, holds n to the cap (default 12) and to 20
whatever the cap.  ``_composition_states`` walks Bell(n - 1) partitions and
places the last label where every block stays connected.

Of the package this module imports only ``errors`` and ``walker``.  Graphs
are read through their ``n``, ``labels`` and ``adj``, so building a
connectivity table loads no ``graphs`` code.  The brute statistics live in
``stats`` and the object layer (``Partition``, ``Composition`` and their
streams) in ``partitions``; their public names still resolve here, loaded on
first use.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import chain

import compolab

from .errors import check_cap
from .walker import _State, _block_stream

TYPE_CHECKING = False  # the typing module's constant, without loading typing
if TYPE_CHECKING:
    from .graphs import LabelledGraph


def __getattr__(name: str):
    """The public names of ``partitions`` and ``stats``, imported on first use (PEP 562)."""
    for module in ("partitions", "stats"):
        if name in compolab._EXPORTS[module]:
            value = globals()[name] = getattr(getattr(compolab, module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _composition_states(g: LabelledGraph, cap: int | None = None) -> Iterator[_State]:
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


# ---------------------------------------------------------------------------
# Composition counting
# ---------------------------------------------------------------------------

def _position_adjacency(g: LabelledGraph) -> list[int]:
    """Re-index adjacency onto positions 0..n-1 of the sorted label tuple."""
    labels = g.labels
    return [sum(1 << i for i, u in enumerate(labels) if g.adj[v] >> u & 1) for v in labels]


def _connectivity_table(padj: list[int]) -> bytearray:
    """conn[mask] = 1 iff the nonempty set of positions in mask induces a
    connected subgraph; conn[0] is 0.

    A dynamic program over masks, with no search: reach[mask] is the component
    of mask's lowest position.  Masks are visited by their highest position h,
    as r | 1 << h.  If h touches nothing in reach[r], reach[mask] = reach[r]
    (for r = 0, reach[0] = 0 stands for h alone).  Otherwise h merges
    reach[r] with every other component of r it touches; each is reach[rest],
    where rest is r with whole components taken out, so it is already known
    and is one component.  reach holds 4 << n bytes of scratch, freed on return.
    Both callers run ``check_cap`` first, so n is at most ``MAX_BRUTE_N``.
    """
    n = len(padj)
    conn = bytearray(1 << n)
    reach = memoryview(bytearray(4 << n)).cast("I")
    for h, near in enumerate(padj):
        bit = 1 << h
        for r in range(bit):
            got = reach[r] or bit
            if got & near:
                got, rest = got | bit, r & ~got
                while rest & near:
                    part = reach[rest]
                    rest ^= part
                    if part & near:
                        got |= part
            mask = r | bit
            reach[mask] = got
            conn[mask] = got == mask
    return conn


def _count_extensions(n: int, conn: Sequence[int]) -> int:
    """Count the partitions of positions 0..n-1 that have every block connected.

    The walk covers positions 0..n-4.  Position o = n - 3 is placed in each
    block of a walked partition and alone, and every placement of p = n - 2
    and q = n - 1 is scored at once.  For a block B let a = conn[B|p],
    b = conn[B|q] and c = conn[B|p|q], summed (Σ) over the connected blocks.
    A partition of 0..o with no disconnected block counts 1 + conn[p|q] + Σa +
    Σb + Σc + Σa·Σb − Σab; one disconnected block x counts a_x + b_x + c_x +
    a_x·Σb + b_x·Σa; two, x and y, count a_x·b_y + a_y·b_x; three or more
    count nothing.  Placements with equal packed sums are scored once.
    """
    if n < 3:
        return 1 + (n == 2 and conn[3])  # the empty partition; {0}; {0}|{1} and {0, 1}
    # One sum over a partition's blocks adds all these terms at once, packed in
    # 8-bit fields: a connected block adds a + b + c − ab, a and b at bits 0, 8
    # and 16; a disconnected one adds a + b + c, a, b, ab and 1 at bits 24, 32,
    # 40, 48 and 56.  check_cap stops n at 20, so no field reaches 256.
    p = 1 << (n - 2)
    weights = [
        a + b + c - a * b | a << 8 | b << 16 if whole
        else (a + b + c) << 24 | a << 32 | b << 40 | a * b << 48 | 1 << 56
        for whole, a, b, c in zip(conn, conn[p:], conn[2 * p:], conn[3 * p:])
    ]
    weights[0] = 0  # the walker's empty slots
    weigh = weights.__getitem__
    # Joining o to block B (o alone: B = 0) moves the sum by shift[B].
    shift = list(map(int.__sub__, weights[p >> 1:], weights)).__getitem__
    # The walker changes ``blocks`` in place, but each map below is built with
    # its own base and its own slice of the blocks, and ``chain`` pulls the next
    # partition only once the previous map is used up.
    sums = Counter(chain.from_iterable(
        map(sum(map(weigh, blocks)).__add__, map(shift, blocks[:blocks.index(0) + 1]))
        for _, blocks in _block_stream(n - 3)
    ))
    count = 0
    for s, times in sums.items():
        sum_a, sum_b = s >> 8 & 255, s >> 16 & 255
        if s < 3 << 56:  # at most two disconnected blocks
            count += times * (
                1 + conn[3 * p] + (s & 255) + sum_a * sum_b,
                (s >> 24 & 255) + (s >> 32 & 255) * sum_b + (s >> 40 & 255) * sum_a,
                (s >> 32 & 255) * (s >> 40 & 255) - (s >> 48 & 255),
            )[s >> 56]
    return count


def composition_count_brute(g: LabelledGraph, cap: int | None = None) -> int:
    """Number of compositions of g, by enumerating all partitions of its vertices."""
    check_cap(g.n, cap)
    return _count_extensions(g.n, _connectivity_table(_position_adjacency(g)))
