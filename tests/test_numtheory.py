"""Binomials, Stirling set numbers, and Bell numbers against independent oracles."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import enumerate_partitions, pascal_triangle

import compolab
from compolab import InvalidParametersError, bell, binomial, set_partitions, stirling2, stirling_row
from compolab.numtheory import bell_numbers


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
        assert stirling_row(n) is row  # the kept row, not a copy
        assert row[0] == 0
        assert row[n] == 1
        for k in range(1, n):
            assert row[k] == k * prev[k] + prev[k - 1]


def test_stirling2_matches_the_triangle_row():
    for n in range(151):
        row = stirling_row(n)
        for k in range(n + 1):
            assert stirling2(n, k) == row[k], (n, k)


def test_stirling2_keeps_no_triangle():
    env = dict(os.environ, PYTHONPATH=str(Path(compolab.__file__).resolve().parents[1]))
    code = (
        "from compolab import numtheory, stirling2\n"
        "stirling2(400, 200)\n"
        "print(len(numtheory._STIRLING))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1"]


def test_explicit_sum_keeps_only_the_rows_it_asked_for():
    env = dict(os.environ, PYTHONPATH=str(Path(compolab.__file__).resolve().parents[1]))
    code = (
        "from compolab import comp_count_explicit, numtheory\n"
        "comp_count_explicit(400, 0)\n"
        "print(len(numtheory._STIRLING))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) <= 2


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
    for n in range(301):
        assert bell(n) == sum(stirling_row(n)), n


def test_bell_numbers_prefix():
    assert bell_numbers(0) == (1,)
    assert bell_numbers(7) == (1, 1, 2, 5, 15, 52, 203, 877)
    # bell() sums one value alone, bell_numbers() grows the Bell triangle.
    assert bell_numbers(400) == tuple(bell(n) for n in range(401))
    with pytest.raises(InvalidParametersError):
        bell_numbers(-1)


def test_bell_keeps_no_stirling_triangle():
    env = dict(os.environ, PYTHONPATH=str(Path(compolab.__file__).resolve().parents[1]))
    code = (
        "from compolab import bell, numtheory\n"
        "bell(400)\n"
        "print(len(numtheory._STIRLING), len(numtheory._BELL_ROW))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1", "1"]  # bell() grows neither table


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
    results = []

    def worker():
        results.append((bell(150), stirling2(140, 70)))

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0][0] == bell(150)
