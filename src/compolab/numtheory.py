"""Exact combinatorial number primitives: binomials, Stirling set numbers, Bell numbers.

Every value is a plain Python int, so counts stay exact at any size.  Two
tables are grown on demand and retained for the lifetime of the process: the
Stirling rows that were asked for, each built forward from the highest kept
row below it, and the Bell numbers that ``bell_numbers`` was asked for, from
the Bell (Aitken) triangle of which only the last row is kept.  A single
Stirling number or a single Bell number is one sum and reads neither table.
Growth is serialized behind a lock, so identical inputs give identical
outputs regardless of call interleaving.
"""

from __future__ import annotations

import math
import threading
from itertools import accumulate

from .errors import InvalidParametersError

# _STIRLING[n][k] = number of partitions of an n-set into exactly k blocks,
# for the rows n that were asked for.  Row 0 is (1,) and always kept.
_STIRLING: dict[int, tuple[int, ...]] = {0: (1,)}
# _BELL[n] = number of partitions of an n-set.  _BELL_ROW is the last row of
# the Bell triangle, the one that starts with _BELL[-1].
_BELL: list[int] = [1]
_BELL_ROW: list[int] = [1]
_GROW_LOCK = threading.Lock()


def _require_natural(value: int, name: str) -> int:
    if not isinstance(value, int) or value < 0:
        raise InvalidParametersError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return value


def _grow_stirling(n: int) -> None:
    """Keep Stirling row n, built by S(r, k) = k*S(r-1, k) + S(r-1, k-1) from
    the highest kept row below it; the rows in between are not kept."""
    if n in _STIRLING:
        return
    with _GROW_LOCK:
        if n in _STIRLING:
            return
        r = max(k for k in _STIRLING if k < n)
        row = _STIRLING[r]
        while r < n:
            r += 1
            row = (0, *[k * row[k] + row[k - 1] for k in range(1, r)], 1)
        _STIRLING[n] = row


def _grow_bell(n: int) -> None:
    """Extend _BELL so that B(n) exists.

    Each Bell-triangle row starts with the last entry of the row above, and
    every further entry adds its left neighbour to the entry above that
    neighbour; row r starts with B(r).
    """
    global _BELL_ROW
    if len(_BELL) > n:
        return
    with _GROW_LOCK:
        while len(_BELL) <= n:
            _BELL_ROW = list(accumulate(_BELL_ROW, initial=_BELL_ROW[-1]))
            _BELL.append(_BELL_ROW[0])


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k > n."""
    _require_natural(n, "n")
    _require_natural(k, "k")
    return math.comb(n, k)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks.

    Zero when k > n.  One value is the alternating sum
    S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!, so no table is grown.
    """
    _require_natural(n, "n")
    _require_natural(k, "k")
    if k > n:
        return 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


def stirling_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling triangle as (S(n,0), ..., S(n,n)); the row is kept
    and returned as is."""
    _require_natural(n, "n")
    _grow_stirling(n)
    return _STIRLING[n]


def bell(n: int) -> int:
    """Number of set partitions of an n-element set, grown from no table:
    B(n) = sum_r E(r) (n - r)^n / n!, with E(r) = C(n, r) D(r) and D(r) the
    derangements of r items; D(r) = r D(r-1) + (-1)^r carries E along as
    E(r) = (n - r + 1) E(r-1) + (-1)^r C(n, r).  A loop over many n should
    call ``bell_numbers`` instead."""
    _require_natural(n, "n")
    total = 0
    term = choose = 1  # E(0) and C(n, 0)
    for r in range(n + 1):
        if r:
            choose = choose * (n - r + 1) // r
            term = (n - r + 1) * term + (-choose if r & 1 else choose)
        total += term * (n - r) ** n
    return total // math.factorial(n)


def bell_numbers(n: int) -> tuple[int, ...]:
    """(B(0), ..., B(n)), the Bell numbers up to n in one call."""
    _require_natural(n, "n")
    _grow_bell(n)
    return tuple(_BELL[: n + 1])
