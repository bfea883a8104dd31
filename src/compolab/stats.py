"""Brute-force oracles for the minimax statistics of set partitions.

``_statistic_row`` walks Bell(n - 2) partitions with ``walker._block_stream``
and scores every placement of the last two labels (each alone, together, or
joined to blocks) from one pass over the blocks: a partition of k blocks
stands for (k + 2) + k(k + 1) leaves.  One walk scores a whole cached row of
the size-restricted minimax statistic; minimax is its j = n row.  No closed
form is consulted here, so these counts can serve as independent oracles for
them.  ``errors.check_cap``, run at every entry point before the row cache is
read, holds n to the cap (default 12) and to 20 whatever the cap.

Of the package this module imports only ``errors`` and ``walker``, so a
brute-force statistic loads neither the connectivity table of
``enumeration`` nor any graph code.  Its public names still resolve on
``enumeration`` too, loaded on first use.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BRUTE_FORCE_CAP, InvalidParametersError, check_cap
from .walker import _block_stream


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
