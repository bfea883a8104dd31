"""The one walker over set partitions, shared by every brute-force route.

Partitions are walked as restricted growth strings (RGS): position i holds
the block index of the i-th smallest label, block indices appear in order of
first use, and each entry exceeds every entry before it by at most one.
``_block_stream`` yields them in lexicographic RGS order with every block
kept in place as a bitset of positions: ``bit_length`` is a block's largest
label and ``bit_count`` its size.

This module imports nothing, so each counter that walks (``enumeration``,
``stats``, ``partitions``, ``bijection``) compiles only the walker beside
its own code.
"""

from __future__ import annotations

from collections.abc import Iterator

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
