"""Binomials, Stirling set numbers, and Bell numbers against independent oracles."""

import random
import sys
import threading
import tracemalloc

import pytest
from conftest import enumerate_partitions, pascal_triangle

from compolab import (
    InvalidParametersError,
    MemoStore,
    bell,
    binomial,
    comp_count_explicit,
    k1_count_formula,
    set_partitions,
    stirling2,
    stirling_row,
)
from compolab.numtheory import _power_sum, bell_numbers


def test_binomial_examples():
    assert binomial(0, 0) == 1
    assert binomial(3, 7) == 0


def test_binomial_against_pascal_oracle():
    triangle = pascal_triangle(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == triangle[n][k], (n, k)
    assert binomial(5, 2) == triangle[5][2] == 10


def test_binomial_symmetry():
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


def test_stirling_examples():
    assert stirling2(0, 0) == 1
    assert stirling2(6, 6) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(2, 9) == 0
    # k = 0 is the base 0 alone: 0^0 = 1 at n = 0, and 0 for every n > 0.
    for n in range(1, 40):
        assert stirling2(n, 0) == 0, n
        assert stirling2(n, n) == 1, n
        for k in range(n + 1, n + 4):
            assert stirling2(n, k) == 0, (n, k)


def test_power_sum_matches_the_plain_sum():
    # Lengths 1..64 hold every fold depth: k = 2^a 3^b up to 32 and 27, and
    # the exponents include 0, where 0^0 = 1.
    rng = random.Random(2024)
    for size in range(1, 65):
        for e in range(81):
            coeffs = [rng.randint(-10**6, 10**6) for _ in range(size)]
            plain = sum(c * k**e for k, c in enumerate(coeffs))
            assert _power_sum(coeffs, e) == plain, (size, e)


def test_stirling_against_enumeration_oracle():
    # S(n, k) counts the oracle's partitions with exactly k blocks.
    for n in range(8):
        partitions = enumerate_partitions(range(1, n + 1))
        for k in range(n + 1):
            assert stirling2(n, k) == sum(1 for p in partitions if len(p) == k)
    assert stirling2(4, 2) == 7


def test_stirling_recurrence_consistency():
    for n in range(1, 26):
        row, prev = stirling_row(n), stirling_row(n - 1)
        assert stirling_row(n) == row
        assert row[0] == 0
        assert row[n] == 1
        for k in range(1, n):
            assert row[k] == k * prev[k] + prev[k - 1]


def test_stirling2_matches_the_triangle_row():
    store = MemoStore()
    for n in range(151):
        row = store.stirling_row(n)
        for k in range(n + 1):
            assert stirling2(n, k) == row[k], (n, k)


def _bytes_kept(warm_up, run):
    """Bytes still allocated after ``run()``, counted under tracemalloc.

    ``warm_up()`` runs first, untraced, so that imports and first-call caches
    stay out of the count.
    """
    warm_up()
    tracemalloc.start()
    try:
        run()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept


def test_stirling2_keeps_no_triangle():
    kept = _bytes_kept(lambda: stirling2(2, 1), lambda: stirling2(400, 200))
    assert kept < 64 * 1024, kept


def test_explicit_sum_keeps_only_the_rows_it_asked_for():
    # With no store lent, the sums keep nothing; a store keeps the highest
    # Stirling row asked for, and no row below it.
    def sums():
        for n in range(0, 601, 20):
            comp_count_explicit(n, n // 2)

    kept = _bytes_kept(lambda: comp_count_explicit(2, 1), sums)
    assert kept < 64 * 1024, kept
    store = MemoStore()
    comp_count_explicit(400, 0, memo=store)
    assert store._row == stirling_row(400) and list(store._weights) == [400]


def test_bell_keeps_no_stirling_triangle():
    kept = _bytes_kept(lambda: bell(2), lambda: bell(400))
    assert kept < 64 * 1024, kept


def test_no_table_outlives_a_call():
    # With no store lent, the k1 formula and the row builders keep nothing
    # once they return.
    def run():
        k1_count_formula(600, 0)
        stirling_row(400)
        bell_numbers(400)

    def warm_up():
        k1_count_formula(2, 0)
        stirling_row(2)
        bell_numbers(2)

    kept = _bytes_kept(warm_up, run)
    assert kept < 64 * 1024, kept


def test_bell_examples():
    assert bell(0) == 1
    assert bell(6) == 203
    assert bell(7) == 877


def test_stirling_rows_sum_to_bell():
    for n in range(26):
        assert sum(stirling_row(n)) == bell(n)


def test_bell_triangle_matches_stirling_row_sums_to_300():
    # bell() is a single sum over derangement counts, stirling_row() comes
    # from the Stirling triangle: two independent kernels.
    store = MemoStore()
    for n in range(301):
        assert bell(n) == sum(store.stirling_row(n)), n


def test_bell_at_the_benchmark_sizes_matches_the_triangle():
    # The exact workload's `value bell` job draws n from 996..1004.
    triangle = bell_numbers(1004)
    for n in range(996, 1005):
        assert bell(n) == triangle[n], n


def test_bell_satisfies_touchards_congruence():
    # B(n + p) = B(n) + B(n + 1) (mod p) for every prime p: a check that
    # shares no code with the Dobinski sum or the Bell triangle.
    values = [bell(n) for n in range(314)]
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(301):
            assert (values[n + p] - values[n] - values[n + 1]) % p == 0, (n, p)


def test_bell_numbers_prefix():
    assert bell_numbers(0) == (1,)
    assert bell_numbers(7) == (1, 1, 2, 5, 15, 52, 203, 877)
    # bell() sums one value alone, bell_numbers() grows the Bell triangle.
    assert bell_numbers(400) == tuple(bell(n) for n in range(401))
    with pytest.raises(InvalidParametersError):
        bell_numbers(-1)


def test_bell_recurrence():
    # B(n+1) = sum_k C(n, k) * B(k)
    for n in range(25):
        assert bell(n + 1) == sum(binomial(n, k) * bell(k) for k in range(n + 1))


def test_bell_matches_partition_iterator():
    for n in range(10):
        assert bell(n) == sum(1 for _ in set_partitions(n))


def test_bell_large_values_are_exact():
    # Well beyond machine words; round trip through decimal text.
    value = bell(40)
    assert value == 157450588391204931289324344702531067
    assert int(str(value)) == value


@pytest.mark.parametrize("func", [lambda: bell(-1), lambda: stirling2(-2, 0), lambda: binomial(3, -1)])
def test_negative_arguments_rejected(func):
    with pytest.raises(InvalidParametersError):
        func()


def test_concurrent_growth_is_consistent():
    # Six threads share one store and grow its Stirling row, weight vectors
    # and Bell prefix in whatever order the switches fall; every value must
    # equal the one a fresh store gives.
    store, fresh = MemoStore(), MemoStore()
    diagonals = range(0, 121, 5)
    cells = [(m + d, m) for d in diagonals for m in range(0, 40, 5)]
    k1_cells = [(n, m) for n in range(0, 130, 9) for m in sorted({0, min(n, 1), n // 2, n})]
    expected = ([fresh.stirling_row(d) for d in range(150)],
                [comp_count_explicit(n, m, memo=MemoStore()) for n, m in cells],
                [k1_count_formula(n, m, memo=MemoStore()) for n, m in k1_cells])
    results = []

    def worker(seed):
        # Each thread takes its own order of the rows, the diagonals and the
        # k1 cells, so the kept row is replaced while others read it, and the
        # weight vectors and the Bell prefix rise and fall.
        rng = random.Random(seed)
        rows = {d: store.stirling_row(d) for d in rng.sample(range(150), 150)}
        order = [i for d in rng.sample(range(len(diagonals)), len(diagonals))
                 for i in range(d * 8, d * 8 + 8)]
        sums = {i: comp_count_explicit(*cells[i], memo=store) for i in order}
        k1 = {i: k1_count_formula(*k1_cells[i], memo=store)
              for i in rng.sample(range(len(k1_cells)), len(k1_cells))}
        results.append(tuple([got[i] for i in range(len(got))] for got in (rows, sums, k1)))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 6
