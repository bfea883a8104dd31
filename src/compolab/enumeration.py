"""Brute-force oracles: every count here comes from walking set partitions.

Partitions are walked as restricted growth strings (RGS): position i holds
the block index of the i-th smallest label, block indices appear in order of
first use, and each entry exceeds every entry before it by at most one.  One
walker, ``_block_stream``, yields them in lexicographic RGS order with every
block kept in place as a bitset of positions: ``bit_length`` is a block's
largest label and ``bit_count`` its size.

The counters walk the partitions of all labels but the last few and score
the placements of the rest in aggregate.  ``_statistic_row`` walks Bell(n - 2)
partitions and scores every placement of the last two labels (each alone,
together, or joined to blocks) from one pass over the blocks: a partition of
k blocks stands for (k + 2) + k(k + 1) leaves.  One walk scores a whole
cached row of the size-restricted minimax statistic; minimax is its j = n
row.  ``_count_extensions`` walks Bell(n - 3) partitions, places the third
last label in each block and alone, and scores the last two labels of each
placement from a packed sum of per-block weights, once per distinct sum.
Each placement is still decided from the blocks and the connectivity table
alone — no closed forms are consulted here, so these routines can serve as
independent oracles for them.  ``errors.check_cap``, run at every entry
point before the row cache is read or a connectivity table built, holds n
to the cap (default 12) and to 20 whatever the cap.  ``_composition_states``
walks Bell(n - 1) partitions and places the last label where every block
stays connected.

Of the package this module imports only ``errors``, so a brute-force
statistic loads no other code.  Graphs are read through their ``n``, ``labels``
and ``adj``, so building a connectivity table loads no ``graphs`` code either.
The object layer (``Partition``, ``Composition`` and their streams) lives in
``partitions``; its names still resolve here, loaded on first use.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import chain

from . import _EXPORTS
from .errors import BRUTE_FORCE_CAP, InvalidParametersError, check_cap

TYPE_CHECKING = False  # the typing module's constant, without loading typing
if TYPE_CHECKING:
    from .graphs import LabelledGraph


def __getattr__(name: str):
    """The object layer's public names, imported from ``partitions`` on first use (PEP 562)."""
    if name not in _EXPORTS["partitions"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import partitions

    value = globals()[name] = getattr(partitions, name)
    return value


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


# ---------------------------------------------------------------------------
# Minimax statistics
# ---------------------------------------------------------------------------

def minimax_count_brute(n: int, m: int, cap: int | None = None) -> int:
    """Number of partitions of {1..n} whose minimax vertex is m, by enumeration."""
    if n < 1 or not (1 <= m <= n):
        raise InvalidParametersError(f"need 1 <= m <= n, got n={n}, m={m}")
    check_cap(n, cap)
    return _statistic_row(n, n)[m]


def kj_count_brute(n: int, m: int, j: int, cap: int | None = None) -> int:
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
