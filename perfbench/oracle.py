"""Expected outputs for the benchmark's jobs, computed without compolab.

Nothing here imports compolab.  The routes are deliberately different from
the library's: Bell numbers come from the Bell (Aitken) triangle rather than
Stirling row sums, the no-singleton sequence from its own recurrence rather
than inclusion-exclusion, and compositions from a recursive enumerator with a
set-based BFS rather than the library's RGS stream and bitset BFS.
"""

from __future__ import annotations

import math


def bell_numbers(n_max: int) -> list[int]:
    """B(0..n_max) from the Bell triangle, keeping one row at a time."""
    out = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        out.append(row[0])
    return out


def comp_table(n_max: int) -> dict[tuple[int, int], int]:
    """comp(n, m) for 0 <= m <= n <= n_max by the Stirling sum
    comp(n, m) = sum_{k=1}^{d+1} S(d, k-1) * k^m with d = n - m."""
    table: dict[tuple[int, int], int] = {}
    row = [1]  # S(d, 0..d)
    for d in range(n_max + 1):
        if d:
            prev = row + [0]
            row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, d + 1)]
        ks = range(1, d + 2)
        terms = list(row)  # S(d, k-1) * k^0
        for m in range(n_max - d + 1):
            table[(m + d, m)] = sum(terms)
            terms = [t * k for t, k in zip(terms, ks)]
    return table


def no_singleton_counts(n_max: int) -> list[int]:
    """a(0..n_max): partitions of an n-set with no singleton block, by
    a(n+1) = sum_{k=1}^{n} C(n, k) a(n-k) (the block of the new element)."""
    a = [1, 0]
    for n in range(1, n_max):
        a.append(sum(math.comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a[: n_max + 1]


def kj_counts(n: int, j: int) -> list[int]:
    """kj(n, m, j) for m = 0..n: partitions of {1..n} by the smallest largest
    label over blocks of at most j labels (0 when there is no such block),
    counted over a recursive enumeration of the partitions."""
    counts = [0] * (n + 1)
    blocks: list[list[int]] = []

    def place(v: int) -> None:
        if v > n:
            # Labels are placed in increasing order, so a block's largest is last.
            counts[min((b[-1] for b in blocks if len(b) <= j), default=0)] += 1
            return
        for block in blocks:
            block.append(v)
            place(v + 1)
            block.pop()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(1)
    return counts


def _connected(members: list[int], nbrs: dict[int, set[int]]) -> bool:
    want = set(members)
    seen = {members[0]}
    todo = [members[0]]
    while todo:
        for u in nbrs[todo.pop()] & want:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(want)


def compositions(n: int, edges: list[tuple[int, int]]) -> list[str]:
    """Every composition of the graph on 1..n, rendered as ``{1,3}|{2}`` lines,
    in lexicographic restricted-growth-string order."""
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    ok: dict[tuple[int, ...], bool] = {}
    out: list[str] = []
    blocks: list[list[int]] = []

    def place(v: int) -> None:
        if v > n:
            for block in blocks:
                key = tuple(block)
                if key not in ok:
                    ok[key] = _connected(block, nbrs)
                if not ok[key]:
                    return
            out.append("|".join("{" + ",".join(map(str, b)) + "}" for b in blocks))
            return
        for block in blocks:
            block.append(v)
            place(v + 1)
            block.pop()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(1)
    return out
