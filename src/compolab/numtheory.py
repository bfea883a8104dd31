"""Exact combinatorial number primitives: binomials, Stirling set numbers, Bell numbers.

Every value is a plain Python int, so counts stay exact at any size.  The
module keeps no table and no lock: ``stirling_row`` and ``bell_numbers``
build from row 0 on every call and return a fresh tuple, and a single
Stirling number or a single Bell number is one weighted power sum
sum_k c_k k^e, which ``_power_sum`` evaluates with about a third of the
powers a term-by-term loop needs.  A caller that reads many rows keeps them
in a ``closedform.MemoStore``, which grows them forward from the rows it
holds with the same two step functions.
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


def _power_sum(w: list[int], e: int) -> int:
    """sum_k w[k] * k^e over a nonempty list of coefficients, with 0^0 = 1.

    Each k >= 1 is t * 2^a * 3^b with t prime to 6, and its term is
    t^e * 3^(b e) * (w[k] << a e).  So the coefficients are folded onto their
    t in place, in two passes from the top down: first w[k] += w[2k] << e,
    then, for odd k, w[k] += w[3k] * 3^e.  Only the bases t, about a third of
    all k, are then raised to the e-th power and multiplied.  The caller's
    list is left folded.
    """
    size = len(w)
    for k in range((size - 1) // 2, 0, -1):
        w[k] += w[2 * k] << e
    three = 3**e
    top = (size - 1) // 3
    for k in range(top - 1 + top % 2, 0, -2):  # odd k with 3k < size
        w[k] += w[3 * k] * three
    return w[0] * 0**e + sum(pow(t, e) * w[t] for t in range(1, size, 2) if t % 3)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k > n."""
    _require_natural(n, "n")
    _require_natural(k, "k")
    return math.comb(n, k)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks.

    Zero when k > n.  One value is the alternating sum
    S(n, k) = sum_i (-1)^(k-i) C(k, i) i^n / k!, a power sum over the bases
    i = 0..k taken by ``_power_sum``, so no table is grown.
    """
    _require_natural(n, "n")
    _require_natural(k, "k")
    if k > n:
        return 0
    signed = [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
    return _power_sum(signed, n) // math.factorial(k)


def stirling_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling triangle as (S(n,0), ..., S(n,n)), built from row 0."""
    _require_natural(n, "n")
    return _stirling_from((1,), n)


def bell(n: int) -> int:
    """Number of set partitions of an n-element set, grown from no table:
    B(n) = sum_r E(r) (n - r)^n / n!, with E(r) = C(n, r) D(r) and D(r) the
    derangements of r items; D(r) = r D(r-1) + (-1)^r carries E along as
    E(r) = (n - r + 1) E(r-1) + (-1)^r C(n, r).  The weights E(n - k) of the
    bases k = 0..n go to ``_power_sum``.  A loop over many n should call
    ``bell_numbers`` instead."""
    _require_natural(n, "n")
    weights = [1]  # E(0)
    choose = 1  # C(n, r)
    for r in range(1, n + 1):
        choose = choose * (n - r + 1) // r
        weights.append((n - r + 1) * weights[-1] + (-choose if r & 1 else choose))
    weights.reverse()
    return _power_sum(weights, n) // math.factorial(n)


def bell_numbers(n: int) -> tuple[int, ...]:
    """(B(0), ..., B(n)), from the Bell triangle built from its row 0."""
    _require_natural(n, "n")
    return _bell_from((1,), (1,), n)[0]
