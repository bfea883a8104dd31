"""Closed-form and recursive counting for the complete-minus-clique family.

Let comp(n, m) be the number of vertex partitions of the graph on {1..n} with
the prefix {1..m} independent (all other pairs adjacent) such that every block
induces a connected subgraph.  This module computes comp(n, m) three ways that
the test suite plays against each other and against direct enumeration:

* a memoized double-sum recursion over the block containing a marked vertex,
* an explicit Stirling sum, comp(n, m) = sum_{k=1}^{n-m+1} S(n-m, k-1) * k^m,
* the minimax identity comp(n, m) = minimax_count_formula(n+1, m+1).

An explicit Stirling sum that is lent a ``MemoStore`` adds up the store's
weight vector for its diagonal d = n - m, (S(d,0)*1^e, ..., S(d,d)*(d+1)^e).
The store keeps one vector per diagonal, so a table that walks its rows in
order finds each vector one exponent behind and steps it by multiplying each
term by its small base k; each diagonal builds its vector once, from the one
Stirling row the store keeps.  The vectors hold Stirling numbers times powers
of integers and never a comp value, and the recursion never reads them, so
the explicit and recursive routes still share no values.  A sum with no store
computes each power as it adds its term, and so holds one term at a time.
The Stirling and Bell rows are read as ``compolab.numtheory.<name>`` when a
closed form or the store first needs them, so the recursion alone (as
``verify bijection`` runs it) loads no ``numtheory``.

It also provides the two partition statistics the identity rests on (minimax:
smallest per-block maximum; maximin: largest per-block minimum), the
inclusion-exclusion count for minimum-singleton statistics, and row sums.

A word on ``comp_count_paper_literal``: the explicit formula circulates in
print with the summation index misplaced (sum_{k=1}^{m+1} S(m, k-1) * k^(n-m)).
That variant actually evaluates the reflected statistic one size up and
disagrees with the true counts — it yields 4 at (n, m) = (3, 1) where the
recursion, the enumeration oracle, and the published table all give 5.  It is
kept, clearly fenced, so the discrepancy stays documented and regression-tested
rather than silently patched.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from itertools import chain, repeat

import compolab

from .errors import InconsistentResultError, check_at_least, check_cell


class MemoStore:
    """The numbers that one command keeps; they are freed with the store.

    Cells map (n, m) to the recursion's comp counts and are write-once:
    rewriting one with a different value raises, which also makes concurrent
    duplicate computation of a cell harmless (both writers must produce the
    identical value).  The recursion's inner sums, keyed (i, m), live and are
    cleared with the cells but are not cells, so ``len`` and ``items`` do not
    count them.

    The closed forms read the store's number tables, which hold no comp value
    and which the recursion never reads: one weight vector per diagonal for
    the explicit sums, the highest Stirling row built, and a Bell prefix.  A
    call lent no store builds its rows from row 0; a loop of many calls should
    lend one.
    """

    __slots__ = ("_table", "_inner", "_weights", "_row", "_bells")

    def __init__(self) -> None:
        self._table: dict[tuple[int, int], int] = {}
        self._inner: dict[tuple[int, int], int] = {}
        self._weights: dict[int, tuple[int, tuple[int, ...]]] = {}  # d -> (e, weights)
        # Stirling row r and (B(0..r), Bell-triangle row r) are each replaced
        # whole, and so is a diagonal's (e, weights), so that a store shared
        # between threads never pairs a key with another key's numbers.
        self._row: tuple[int, ...] = (1,)
        self._bells: tuple[tuple[int, ...], tuple[int, ...]] = ((1,), (1,))

    def get(self, n: int, m: int) -> int | None:
        return self._table.get((n, m))

    def put(self, n: int, m: int, value: int) -> None:
        key = (n, m)
        existing = self._table.get(key)
        if existing is not None and existing != value:
            raise InconsistentResultError(
                f"memo cell {key} already holds {existing}, refusing to store {value}"
            )
        self._table[key] = value

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._table.items())

    def weights(self, d: int, e: int) -> tuple[int, ...]:
        """(S(d,0)*1**e, S(d,1)*2**e, ..., S(d,d)*(d+1)**e), from diagonal d's vector.

        The same e returns it; e + 1 multiplies each term by its base k; any
        other e, or a diagonal with no vector yet, builds it from Stirling row d
        and drops every vector whose d + e is neither d + e nor one less: a
        walk in row order steps no other, and a loop that jumps keeps no more.
        """
        kept_e, vector = self._weights.get(d, (None, ()))
        if kept_e == e - 1:
            vector = tuple(map(operator.mul, vector, range(1, d + 2)))
        elif kept_e != e:
            vector = tuple(_weight_terms(self.stirling_row(d), e))
            self._weights = {k: kept for k, kept in self._weights.items()
                             if 0 <= d + e - k - kept[0] <= 1}
        self._weights[d] = (e, vector)
        return vector

    def stirling_row(self, d: int) -> tuple[int, ...]:
        """(S(d,0), ..., S(d,d)).  Only the highest row built is kept: a row
        above it is grown from it, and a row below it is built from row 0."""
        row = self._row
        if len(row) <= d:
            row = self._row = compolab.numtheory._stirling_from(row, d)
        return row if len(row) == d + 1 else compolab.numtheory._stirling_from((1,), d)

    def bell_numbers(self, n: int) -> tuple[int, ...]:
        """(B(0), ..., B(n)), from the kept Bell prefix, grown first if too short."""
        bells, row = self._bells
        if len(bells) <= n:
            bells, row = self._bells = compolab.numtheory._bell_from(bells, row, n)
        return bells[: n + 1]

    def clear(self) -> None:
        self.__init__()

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)


def comp_count_recursive(n: int, m: int, memo: MemoStore | None = None) -> int:
    """comp(n, m) by the marked-vertex recursion, memoized.

    Base case n = m is the edgeless graph with exactly one composition.  Each
    recursion step sums over how many of the other free vertices (i) and how
    many independent-prefix vertices (j) are missing from the marked vertex's
    block, which costs comp(i + j, j) compositions for the rest; every
    recursive call strictly decreases the vertex count, so the recursion
    terminates.  ``memo=None`` uses a fresh store for this call only.
    """
    check_cell(n, m)
    return _comp_recursive(n, m, MemoStore() if memo is None else memo)


def _comp_recursive(n: int, m: int, store: MemoStore) -> int:
    """comp(n, m) = sum_i C(n-m-1, i) * inner(i, m), where
    inner(i, m) = sum_j C(m, j) * comp(i + j, j) does not depend on n and is
    kept in ``store._inner``.  Arguments are trusted; the inner sum is
    written inline so that each level of the recursion costs one frame."""
    if n == m:
        return 1
    cached = store.get(n, m)
    if cached is not None:
        return cached
    inners = store._inner
    d = n - m - 1
    total = 0
    for i in range(d + 1):
        inner = inners.get((i, m))
        if inner is None:
            inner = 0
            for j in range(m + 1):
                inner += math.comb(m, j) * _comp_recursive(i + j, j, store)
            inners[(i, m)] = inner
        total += math.comb(d, i) * inner
    store.put(n, m, total)
    return total


def _weight_terms(row: tuple[int, ...], e: int) -> Iterator[int]:
    """S(d, k-1) * k^e for k = 1..d+1, one power at a time, from Stirling row d."""
    return map(operator.mul, row, map(pow, range(1, len(row) + 1), repeat(e)))


def _stirling_power_sum(d: int, e: int, store: MemoStore | None) -> int:
    """sum_{k=1}^{d+1} S(d, k-1) * k^e, from the store's weight vector, or
    with no store, one term at a time."""
    return sum(_weight_terms(compolab.numtheory.stirling_row(d), e) if store is None
               else store.weights(d, e))


def comp_count_explicit(n: int, m: int, memo: MemoStore | None = None) -> int:
    """comp(n, m) by the explicit Stirling sum: sum_{k=1}^{n-m+1} S(n-m, k-1) * k^m.

    ``memo`` lends the vector of diagonal n - m, so that the cells of one
    diagonal, m ascending, step it instead of rebuilding it; with
    ``memo=None`` each power is computed as its term is added.
    """
    check_cell(n, m)
    return _stirling_power_sum(n - m, m, memo)


def comp_count_paper_literal(n: int, m: int, memo: MemoStore | None = None) -> int:
    """The explicit formula as it circulates in print: sum_{k=1}^{m+1} S(m, k-1) * k^(n-m).

    Known-wrong variant (see the module docstring); exposed via the CLI's
    ``--paper-literal`` mode for documentation and regression of the erratum.
    Do not use for real counts.  ``memo`` is used as in ``comp_count_explicit``.
    """
    check_cell(n, m)
    return _stirling_power_sum(m, n - m, memo)


def minimax_count_formula(n: int, m: int, memo: MemoStore | None = None) -> int:
    """Number of partitions of {1..n} whose smallest per-block maximum is m.

    Computed as sum_{k=1}^{n-m+1} S(n-m, k-1) * k^(m-1): reflecting labels
    (i -> n+1-i) turns the maximin closed form into this one.  ``memo`` is
    used as in ``comp_count_explicit``.
    """
    check_cell(n, m, 1)
    return _stirling_power_sum(n - m, m - 1, memo)


def maximin_count_formula(n: int, m: int, memo: MemoStore | None = None) -> int:
    """Number of partitions of {1..n} whose largest per-block minimum is m.

    Direct construction: partition {1..m-1} into k-1 blocks, open a new block
    at m (so m is a block minimum and no later element may open another), then
    drop each of the n-m larger elements into any of the k blocks, giving
    sum_{k=1}^{m} S(m-1, k-1) * k^(n-m).  ``memo`` is used as in
    ``comp_count_explicit``.
    """
    check_cell(n, m, 1)
    return _stirling_power_sum(m - 1, n - m, memo)


def k1_count_formula(n: int, m: int, memo: MemoStore | None = None) -> int:
    """Number of partitions of {1..n} whose smallest singleton block is {m}.

    For m >= 1 this is the inclusion-exclusion sum
    sum_{j=1}^{m} (-1)^(j+1) * C(m-1, j-1) * B(n-j) over forced singletons
    below m.  The m = 0 value a(n) counts partitions with no singleton at
    all.  Joining the singletons of a partition of {1..n-1} into one block
    with n maps the B(n-1) partitions of {1..n-1} one-to-one onto those of
    {1..n} with no singleton but {n}, so a(n) + a(n-1) = B(n-1), and a(n) is
    the alternating Bell sum sum_{i=0}^{n-1} (-1)^(n-1-i) * B(i) + (-1)^n;
    it is 1 at n = 0 (the empty partition).  ``memo`` lends its Bell prefix;
    ``memo=None`` uses a fresh store for this call only.
    """
    check_cell(n, m)
    b = (MemoStore() if memo is None else memo).bell_numbers(n)
    if m == 0:
        terms = chain(reversed(b[:n]), [1])  # B(n-1), B(n-2), ..., B(0), then 1
    else:
        terms = (math.comb(m - 1, j - 1) * b[n - j] for j in range(1, m + 1))
    return sum(t if k % 2 == 0 else -t for k, t in enumerate(terms))


def row_sum(n: int, memo: MemoStore | None = None) -> int:
    """sum_{m=0}^{n} comp(n, m); equals bell(n+1) because every partition of
    {1..n+1} is classified by its minimax vertex."""
    check_at_least("n", n, 0)
    store = MemoStore() if memo is None else memo
    return sum(comp_count_recursive(n, m, store) for m in range(n + 1))
