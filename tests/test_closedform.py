"""Closed forms against the reference tables, the enumeration oracle, and each other."""

import random

import pytest
from conftest import COMP_TABLE, K1_TABLE, enumerate_partitions

from compolab import (
    InvalidParametersError,
    MemoStore,
    bell,
    comp_count_explicit,
    comp_count_paper_literal,
    comp_count_recursive,
    complete_minus_clique,
    composition_count_brute,
    k1_count_formula,
    kj_count_brute,
    maximin_count_formula,
    minimax_count_brute,
    minimax_count_formula,
    row_sum,
    stirling2,
    stirling_row,
)


def test_recursive_against_reference_table():
    for n, row in COMP_TABLE.items():
        for m, expected in enumerate(row):
            assert comp_count_recursive(n, m) == expected, (n, m)


def test_recursive_examples():
    assert comp_count_recursive(3, 2) == 4
    assert comp_count_recursive(5, 2) == 47
    assert comp_count_recursive(4, 0) == 15
    for n in range(10):
        assert comp_count_recursive(n, n) == 1
    with pytest.raises(InvalidParametersError):
        comp_count_recursive(2, 3)


def test_explicit_against_reference_table():
    for n, row in COMP_TABLE.items():
        for m, expected in enumerate(row):
            assert comp_count_explicit(n, m) == expected, (n, m)


def test_explicit_examples():
    assert comp_count_explicit(3, 1) == 5
    assert comp_count_explicit(4, 2) == 13
    assert comp_count_explicit(5, 3) == 35
    with pytest.raises(InvalidParametersError):
        comp_count_explicit(1, 2)


def test_paper_literal_documents_the_erratum():
    # The printed variant evaluates to 4 where every sound route gives 5.
    assert comp_count_paper_literal(3, 1) == 4
    assert comp_count_explicit(3, 1) == 5
    assert comp_count_recursive(3, 1) == 5
    assert composition_count_brute(complete_minus_clique(3, 1)) == 5


def test_three_way_agreement_small():
    for n in range(8):
        for m in range(n + 1):
            recursive = comp_count_recursive(n, m)
            explicit = comp_count_explicit(n, m)
            brute = composition_count_brute(complete_minus_clique(n, m))
            assert recursive == explicit == brute, (n, m)


def test_composition_count_equals_shifted_minimax_count():
    for n in range(8):
        for m in range(n + 1):
            assert comp_count_recursive(n, m) == minimax_count_brute(n + 1, m + 1)


def test_composition_count_equals_shifted_minimax_histogram_to_n9():
    # Same identity through n = 9, with the brute side done as one
    # enumeration pass per n+1 instead of one pass per cell.
    from compolab import minimax_vertex, set_partitions

    for n in range(10):
        histogram = {m: 0 for m in range(1, n + 2)}
        for p in set_partitions(n + 1):
            histogram[minimax_vertex(p)] += 1
        for m in range(n + 1):
            assert comp_count_recursive(n, m) == histogram[m + 1], (n, m)


def test_minimax_formula_examples():
    assert minimax_count_formula(3, 1) == 2
    assert minimax_count_formula(4, 2) == 5
    for n in range(1, 12):
        assert minimax_count_formula(n, n) == 1
    with pytest.raises(InvalidParametersError):
        minimax_count_formula(3, 0)
    with pytest.raises(InvalidParametersError):
        minimax_count_formula(3, 4)


def test_maximin_formula_examples():
    assert maximin_count_formula(3, 1) == 1
    assert maximin_count_formula(3, 3) == 2
    for n in range(1, 12):
        assert maximin_count_formula(n, 1) == 1
    with pytest.raises(InvalidParametersError):
        maximin_count_formula(2, 0)


def test_maximin_formula_against_enumeration_oracle():
    # Largest per-block minimum, tallied over the oracle's partitions.
    for n in range(1, 8):
        histogram = {m: 0 for m in range(1, n + 1)}
        for partition in enumerate_partitions(range(1, n + 1)):
            histogram[max(min(block) for block in partition)] += 1
        for m in range(1, n + 1):
            assert maximin_count_formula(n, m) == histogram[m]


def test_reflection_identity():
    for n in range(1, 9):
        for m in range(1, n + 1):
            reflected = maximin_count_formula(n, n + 1 - m)
            formula = minimax_count_formula(n, m)
            assert reflected == formula == minimax_count_brute(n, m), (n, m)


def test_k1_formula_against_reference_table():
    for n, row in K1_TABLE.items():
        for m, expected in enumerate(row):
            assert k1_count_formula(n, m) == expected, (n, m)


def test_k1_formula_examples():
    assert k1_count_formula(7, 4) == 87
    assert k1_count_formula(2, 2) == 0
    assert k1_count_formula(8, 8) == 162
    assert k1_count_formula(6, 0) == 41
    assert k1_count_formula(0, 0) == 1
    with pytest.raises(InvalidParametersError):
        k1_count_formula(3, 4)


def test_k1_columns_sum_to_bell():
    # Every partition has a smallest singleton or none; the m = 0 column is
    # computed on its own, not as the complement of the others.
    store = MemoStore()
    for n in range(1, 81):
        others = sum(k1_count_formula(n, m, memo=store) for m in range(1, n + 1))
        assert k1_count_formula(n, 0, memo=store) + others == bell(n), n


def test_k1_formula_matches_brute_force():
    for n in range(1, 9):
        for m in range(n + 1):
            assert k1_count_formula(n, m) == kj_count_brute(n, m, 1), (n, m)


def test_k1_formula_matches_singleton_statistic_to_n10():
    # Brute side as one enumeration pass per n, classifying every partition by
    # its smallest singleton block (0 when there is none).
    from compolab import minimax_restricted, set_partitions

    for n in (9, 10):
        histogram = {m: 0 for m in range(n + 1)}
        for p in set_partitions(n):
            stat = minimax_restricted(p, 1)
            histogram[0 if stat is None else stat] += 1
        for m in range(n + 1):
            assert k1_count_formula(n, m) == histogram[m], (n, m)


def test_column_identity():
    # Making one vertex independent never splits any block's connectivity.
    for n in range(1, 21):
        assert comp_count_recursive(n, 0) == comp_count_recursive(n, 1) == bell(n)


def test_row_sum_examples():
    assert row_sum(3) == 15
    assert row_sum(0) == 1
    assert row_sum(6) == 877


def test_row_sum_equals_next_bell():
    for n in range(21):
        assert row_sum(n) == bell(n + 1)


def test_memo_store_soundness():
    store = MemoStore()
    first = comp_count_recursive(12, 5, memo=store)
    assert len(store) > 0
    assert ((12, 5) in store) and store.get(12, 5) == first
    store.clear()
    assert len(store) == 0
    assert comp_count_recursive(12, 5, memo=store) == first
    # Distinct stores agree with each other and with the fresh store that
    # memo=None gives each call.
    assert comp_count_recursive(12, 5, memo=MemoStore()) == first
    assert comp_count_recursive(12, 5) == first


def test_memo_store_write_once():
    store = MemoStore()
    store.put(4, 2, 13)
    store.put(4, 2, 13)  # same value is fine
    with pytest.raises(ValueError):
        store.put(4, 2, 14)


def test_recursion_over_one_store_matches_explicit_sum():
    store, explicit = MemoStore(), MemoStore()
    for n in range(101):
        for m in range(n + 1):
            assert comp_count_recursive(n, m, memo=store) == comp_count_explicit(
                n, m, memo=explicit), (n, m)
    assert len(store) == sum(range(101))  # one cell per n > m
    for n, m in ((100, 0), (100, 50), (77, 76), (64, 3)):
        assert comp_count_recursive(n, m, memo=MemoStore()) == store.get(n, m), (n, m)


def test_memo_store_inner_sums_follow_the_store():
    store = MemoStore()
    comp_count_recursive(20, 7, memo=store)
    cells = len(store)
    assert store._inner and len(store.items()) == cells
    store.clear()
    assert not store._inner and len(store) == 0


def test_memo_store_weights_follow_a_random_call_sequence():
    # The exponent repeats, steps up by one, jumps and falls, and d stays or
    # changes; every call must still see the exact weights.
    rng = random.Random(8)
    store = MemoStore()
    d = e = 0
    for _ in range(400):
        step = rng.choice(("same", "same", "up", "up", "up", "jump", "fall"))
        if step == "up":
            e += 1
        elif step == "jump":
            e += rng.randint(2, 9)
        elif step == "fall":
            e = rng.randint(0, e)
        if rng.random() < 0.3:
            d = rng.randint(0, 40)
        expected = tuple(stirling2(d, k - 1) * k**e for k in range(1, d + 2))
        assert store.weights(d, e) == expected, (d, e)
    assert store.weights(7, e + 1) and store._weights[7][0] == e + 1
    # Stirling rows and Bell prefixes asked for rising, falling and jumping,
    # on both sides of a clear(); only the highest row asked for is kept.
    for rows, prefixes in (([*range(9), 8, 3, 0, 30, 12, 31, 80, 79, 45], [0, 5, 3, 40, 2, 41]),
                           ([50, 49, 2, 51, 0, 20], [60, 1, 0, 61])):
        store.clear()
        assert store._weights == {} and store._bells == ((1,), (1,))
        for d in rows:
            assert store.stirling_row(d) == tuple(stirling2(d, k) for k in range(d + 1)), d
        assert store._row == stirling_row(max(rows))
        for n in prefixes:
            assert store.bell_numbers(n) == tuple(map(bell, range(n + 1))), n
        assert len(store._bells[0]) == max(prefixes) + 1
    store.clear()
    assert store._row == (1,)


def test_memo_store_keeps_the_vectors_a_row_walk_steps_next():
    # A walk in row order keeps a vector for every diagonal; a loop whose
    # rows jump, up or down, keeps only its last sum's vector.
    store = MemoStore()
    for n in range(31):
        for m in range(n + 1):
            comp_count_explicit(n, m, memo=store)
    assert sorted(store._weights) == list(range(31))
    for rows in (range(0, 400, 20), range(400, 0, -20)):
        store = MemoStore()
        for n in rows:
            assert comp_count_explicit(n, n // 2, memo=store) == comp_count_explicit(n, n // 2)
        assert list(store._weights) == [n - n // 2], n


def test_explicit_sums_share_one_store_without_touching_its_cells():
    store = MemoStore()
    for m in range(31):
        for n in range(m, 31):
            assert comp_count_explicit(n, m, memo=store) == comp_count_explicit(n, m), (n, m)
            assert comp_count_paper_literal(n, m, memo=store) == comp_count_paper_literal(n, m)
    assert len(store) == 0 and not store._inner
    assert store._weights[30][0] == 0  # diagonal 30's last sum: paper-literal at (30, 30)
    for n in range(31):
        for m in range(n + 1):
            assert k1_count_formula(n, m, memo=store) == k1_count_formula(n, m), (n, m)
    assert len(store) == 0 and not store._inner and len(store._bells[0]) == 31
    for n in range(1, 31):
        for m in range(1, n + 1):
            assert minimax_count_formula(n, m, memo=store) == minimax_count_formula(n, m), (n, m)
            assert maximin_count_formula(n, m, memo=store) == maximin_count_formula(n, m), (n, m)
    assert len(store) == 0 and not store._inner


def test_large_arguments_stay_exact():
    value = comp_count_recursive(30, 15, memo=MemoStore())
    assert value == comp_count_explicit(30, 15)
    assert value > 10**18  # far beyond machine words
    assert int(str(value)) == value
