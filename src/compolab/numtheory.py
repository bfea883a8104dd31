"""Exact combinatorial number primitives: binomials, Stirling set numbers, Bell numbers.

Every value is a plain Python int, so counts stay exact at any size.  The
module keeps no table and no lock: ``stirling_row`` and ``bell_numbers``
build from row 0 on every call and return a fresh tuple, and a single
Stirling number or a single Bell number is one sum.  A caller that reads many
rows keeps them in a ``closedform.MemoStore``, which grows them forward from
the rows it holds with the same two step functions.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .errors import InvalidParametersError


def _require_natural(value: int, name: str) -> int:
    if not isinstance(value, int) or value < 0:
        raise InvalidParametersError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return value


def _stirling_from(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Stirling row n, built by S(r, k) = k*S(r-1, k) + S(r-1, k-1) from
    ``row``, an earlier row (row r has r + 1 entries)."""
    r = len(row) - 1
    while r < n:
        r += 1
        row = (0, *[k * row[k] + row[k - 1] for k in range(1, r)], 1)
    return row


def _bell_from(bells: tuple, row: tuple, n: int) -> tuple[tuple, tuple]:
    """The Bell prefix ``bells`` extended to hold B(n), with its last
    Bell-triangle row; ``row`` is the triangle row that starts with bells[-1].

    Each Bell-triangle row starts with the last entry of the row above, and
    every further entry adds its left neighbour to the entry above that
    neighbour; row r starts with B(r).
    """
    grown = list(bells)
    while len(grown) <= n:
        row = tuple(accumulate(row, initial=row[-1]))
        grown.append(row[0])
    return tuple(grown), row


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
    """Row n of the Stirling triangle as (S(n,0), ..., S(n,n)), built from row 0."""
    _require_natural(n, "n")
    return _stirling_from((1,), n)


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
    """(B(0), ..., B(n)), from the Bell triangle built from its row 0."""
    _require_natural(n, "n")
    return _bell_from((1,), (1,), n)[0]
