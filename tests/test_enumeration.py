"""Partition streams, composition filtering, and statistic counts by enumeration."""

import os
import pickle
import random
import resource
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest
from conftest import MINIMAX_EXAMPLE_3, bfs_connected, blocks_of, enumerate_partitions

from compolab import (
    BijectionReport,
    Composition,
    InvalidParametersError,
    LabelledGraph,
    Partition,
    ResourceLimitError,
    bell,
    comp_count_explicit,
    complete,
    complete_minus_clique,
    composition_count_brute,
    compositions,
    from_edge_list,
    from_vertices_and_edges,
    is_composition,
    is_connected_induced,
    kj_count_brute,
    minimax_count_brute,
    minimax_restricted,
    minimax_vertex,
    partitions_of,
    set_partitions,
)
from compolab import enumeration
from compolab.enumeration import (
    _composition_states,
    _connectivity_table,
    _count_extensions,
    _position_adjacency,
)
from compolab.graphs import mask_connected
from compolab.walker import _block_stream


# ---------------------------------------------------------------------------
# Partition type
# ---------------------------------------------------------------------------

def test_partition_from_blocks_canonicalizes():
    p = Partition.from_blocks([{3}, {1, 5}])
    assert p.labels == (1, 3, 5)
    assert p.rgs == (0, 1, 0)
    assert p.blocks() == ((1, 5), (3,))
    assert str(p) == "{1,5}|{3}"
    assert Partition.from_blocks(p.blocks()) == p


def test_partition_blocks_sorted_by_minimum():
    p = Partition.from_blocks([{2, 4}, {1, 6}, {3}, {5}])
    assert [block[0] for block in p.blocks()] == [1, 2, 3, 5]


def test_partition_rejects_bad_input():
    with pytest.raises(InvalidParametersError):
        Partition((1, 2), (0,))  # length mismatch
    with pytest.raises(InvalidParametersError):
        Partition((2, 1), (0, 0))  # labels out of order
    with pytest.raises(InvalidParametersError):
        Partition((1, 2), (0, 2))  # growth violated
    with pytest.raises(InvalidParametersError):
        Partition((1, 2), (1, 0))  # must start at 0
    with pytest.raises(InvalidParametersError):
        Partition.from_blocks([{1}, {1, 2}])  # overlap
    with pytest.raises(InvalidParametersError):
        Partition.from_blocks([set()])  # empty block
    # Labels and RGS entries must be ints, not merely numbers that compare.
    with pytest.raises(InvalidParametersError, match="labels must be positive integers"):
        Partition((1, 2.5), (0, 0))
    with pytest.raises(InvalidParametersError, match="labels must be positive integers"):
        Partition.from_blocks([{1.0, 2}])
    with pytest.raises(InvalidParametersError, match="not a restricted growth string"):
        Partition((1, 2), (0.0, 1))
    for labels in (("a", "b"), (1, None), (True, 2)):
        with pytest.raises(InvalidParametersError, match="labels must be positive integers"):
            Partition(labels, (0, 0))
    with pytest.raises(InvalidParametersError, match="labels must be positive integers"):
        Partition.from_blocks([{1, "a"}])  # refused before sorting meets the str


def test_partition_views_match_the_independent_oracle():
    # Every view of a partition is read off Partition.blocks(). Each must agree
    # with the blocks of the recursive enumeration in conftest, turned into
    # partitions by from_blocks, which decodes no RGS.
    for n in range(8):
        oracle = enumerate_partitions(range(1, n + 1))
        built = [Partition.from_blocks(blocks) for blocks in oracle]
        assert len(built) == bell(n) and set(built) == set(set_partitions(n))
        for blocks, p in zip(oracle, built):
            expected = tuple(sorted(tuple(sorted(block)) for block in blocks))
            assert p.blocks() == expected
            assert p.block_bitsets() == tuple(sum(2**v for v in block) for block in expected)
            assert str(p) == "|".join("{" + ",".join(map(str, b)) + "}" for b in expected)
            assert minimax_vertex(p) == min((b[-1] for b in expected), default=None)
            for j in range(1, n + 2):
                tops = [b[-1] for b in expected if len(b) <= j]
                assert minimax_restricted(p, j) == min(tops, default=None), (p, j)


def test_streamed_partitions_equal_checked_ones():
    # The streams build their objects without the constructors' checks; the
    # public constructors, checks included, must give equal objects.
    for n in range(9):
        for p in set_partitions(n):
            assert Partition(p.labels, p.rgs) == p and type(p) is Partition
    g = complete_minus_clique(6, 3)
    for c in compositions(g):
        assert Composition(c.graph, Partition(*c.partition)) == c and type(c) is Composition


def test_partition_is_immutable_and_hashable():
    # And so is every other value type of the package.
    p = Partition.from_blocks([{1, 2}])
    split = Partition((1, 2), (0, 1))
    g = complete(2)
    report = BijectionReport(n=2, m=1, lhs_count=2, rhs_count=2, round_trip_ok=True,
                             injective_ok=True)
    cases = [  # (value, a field, an equal value built apart, an unequal value,
               #  a value of the field that the type's checks refuse, if it checks)
        (p, "rgs", Partition((1, 2), (0, 0)), split, (0, 2)),
        (g, "adj", from_edge_list(2, [(2, 1)]), from_edge_list(2, []), (0, 0, 1)),
        (Composition(g, p), "partition", Composition(complete(2), Partition((1, 2), (0, 0))),
         Composition(g, split), Partition((1, 3), (0, 0))),
        (report, "injective_ok", report._replace(), report._replace(injective_ok=False), None),
    ]
    types = {t.__name__: t for t in (Partition, LabelledGraph, Composition, BijectionReport)}
    for value, field, same, other, bad in cases:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        assert value == same and hash(value) == hash(same) and value != other
        assert len({value, same, other}) == 2
        # Each is a named tuple of its fields, hashing as that tuple does.
        assert value == tuple(value) and hash(value) == hash(tuple(value))
        assert eval(repr(value), types) == value
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
        if bad is None:
            continue
        # Every path that builds a value runs the checks: the constructor,
        # _replace, _make and unpickling, whatever the protocol.
        fields = [bad if name == field else v for name, v in zip(value._fields, value)]
        with pytest.raises(InvalidParametersError):
            type(value)(*fields)
        with pytest.raises(InvalidParametersError):
            value._replace(**{field: bad})
        with pytest.raises(InvalidParametersError):
            type(value)._make(fields)
        unchecked = tuple.__new__(type(value), fields)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(InvalidParametersError):
                pickle.loads(pickle.dumps(unchecked, protocol))
    assert repr(g) == "LabelledGraph(vertex_mask=6, adj=(0, 4, 2))"
    assert repr(report).startswith("BijectionReport(n=2, m=1, lhs_count=2,")


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def test_set_partitions_counts():
    assert [sum(1 for _ in set_partitions(n)) for n in range(9)] == [
        bell(n) for n in range(9)
    ]


def test_set_partitions_zero():
    (only,) = list(set_partitions(0))
    assert only.labels == () and only.blocks() == ()


def test_set_partitions_order_is_lexicographic_and_unique():
    for n in range(7):
        seen = list(set_partitions(n))
        assert len(set(seen)) == len(seen)
        rgs_list = [p.rgs for p in seen]
        assert rgs_list == sorted(rgs_list)
    first, *_, last = list(set_partitions(4))
    assert first == Partition.from_blocks([{1, 2, 3, 4}])
    assert last == Partition.from_blocks([{1}, {2}, {3}, {4}])


def test_set_partitions_match_independent_oracle():
    for n in range(8):
        ours = {blocks_of(p) for p in set_partitions(n)}
        oracle = set(enumerate_partitions(range(1, n + 1)))
        assert ours == oracle


def test_block_stream_blocks_and_prefix_streams():
    for n in range(10):
        full = []
        for rgs, blocks in _block_stream(n):
            rebuilt = [0] * (n + 1)
            for v, b in enumerate(rgs):
                rebuilt[b] |= 1 << v
            assert blocks == rebuilt, rgs
            full.append(tuple(rgs))
        assert len(full) == bell(n)


def test_partitions_of_arbitrary_labels():
    parts = list(partitions_of([4, 2, 9]))
    assert len(parts) == 5
    assert all(p.labels == (2, 4, 9) for p in parts)
    # A ground set the constructor would refuse is refused at the call.
    for labels in ([-3, 0], [0], [5, -1], [1, 2.5], [1, "a"]):
        with pytest.raises(InvalidParametersError, match="labels must be positive integers"):
            partitions_of(labels)


def test_streams_are_independent():
    first = set_partitions(4)
    second = set_partitions(4)
    head = [next(first) for _ in range(3)]
    assert list(second)[:3] == head  # advancing one stream never moves the other


def test_cap_guards_enumeration():
    with pytest.raises(ResourceLimitError):
        set_partitions(13)
    with pytest.raises(ResourceLimitError):
        set_partitions(5, cap=4)
    with pytest.raises(ResourceLimitError):
        composition_count_brute(complete(6), cap=5)
    assert composition_count_brute(complete(6), cap=6) == bell(6)
    # Above 20 vertices a walk is refused whatever the cap, by the call
    # itself, before any next().
    path21 = from_edge_list(21, [(v, v + 1) for v in range(1, 21)])
    with pytest.raises(ResourceLimitError, match="brute-force limit of 20"):
        compositions(path21, cap=30)
    with pytest.raises(ResourceLimitError, match="brute-force limit of 20"):
        composition_count_brute(path21, cap=30)


def test_streams_over_20_labels_are_refused_at_the_call(monkeypatch):
    # Whatever the cap, a partition stream over more than 20 labels is refused
    # by the call itself, before any next(); unrefused, its walk would never
    # end, so the walker raises instead.
    from compolab import partitions

    def never(n):
        raise AssertionError(f"a walk over {n} positions started")

    monkeypatch.setattr(partitions, "_block_stream", never)
    with pytest.raises(ResourceLimitError, match="brute-force limit of 20"):
        set_partitions(21, cap=30)
    with pytest.raises(ResourceLimitError, match="brute-force limit of 20"):
        partitions_of(range(1, 22), cap=30)


def test_connectivity_table_matches_is_connected_induced_at_16_vertices():
    rng = random.Random(16)
    edges = [(u, v) for u in range(1, 17) for v in range(u + 1, 17) if rng.random() < 0.2]
    g = from_edge_list(16, edges)
    table = _connectivity_table(_position_adjacency(g))
    assert len(table) == 1 << 16
    # Position i holds label i + 1.
    assert all(table[mask] == is_connected_induced(g, mask << 1) for mask in range(1, 1 << 16))


def test_connectivity_table_matches_mask_connected_on_every_mask():
    # The table merges whole components mask by mask; a BFS per set over the
    # graph's own label adjacency is the oracle.  A path through the labels in
    # scrambled order, and a star centred at the highest position, make the
    # highest position join many components at once.
    rng = random.Random(19)
    graphs = []
    for n in range(13):
        labels = list(range(1, n + 1))
        scrambled = rng.sample(labels, n)
        graphs += [from_edge_list(n, []), complete(n),
                   *(complete_minus_clique(n, m) for m in range(n + 1)),
                   from_edge_list(n, list(zip(labels, labels[1:]))),
                   from_edge_list(n, list(zip(scrambled, scrambled[1:]))),
                   from_edge_list(n, [(1, v) for v in labels[1:]]),
                   from_edge_list(n, [(v, n) for v in labels[:-1]])]
    for i in range(40):
        n, density = 3 + i % 10, 0.1 + 0.9 * i / 39
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        graphs.append(from_edge_list(n, [pair for pair in pairs if rng.random() < density]))
    for g in graphs:
        table = _connectivity_table(_position_adjacency(g))
        # Position i holds label i + 1; the empty mask reads 0.
        want = [0] + [mask_connected(mask << 1, g.adj) for mask in range(1, 1 << g.n)]
        assert list(table) == want, (g.n, sorted(g.edges))


def test_connectivity_table_at_20_vertices_counts_the_closed_forms():
    # Four 2**20-entry tables, built in a child process under a 300 MB
    # address-space limit, against the number of connected vertex sets: a
    # path has one per interval, 20 * 21 / 2; the complete graph has every
    # nonempty set; the edgeless graph only the singletons; a star every set
    # holding its centre and the 19 other singletons.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    script = (
        "from compolab.enumeration import _connectivity_table, _position_adjacency\n"
        "from compolab.graphs import complete, from_edge_list\n"
        "graphs = [from_edge_list(20, [(v, v + 1) for v in range(1, 20)]), complete(20),\n"
        "          from_edge_list(20, []), from_edge_list(20, [(v, 20) for v in range(1, 20)])]\n"
        "print(*(sum(_connectivity_table(_position_adjacency(g))) for g in graphs))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(enumeration.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.split() == [str(c) for c in (210, 2**20 - 1, 20, 2**19 + 19)]


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def test_is_composition_examples():
    k3 = complete(3)
    path = from_edge_list(3, [(1, 2), (2, 3)])
    edgeless = from_edge_list(3, [])
    assert is_composition(k3, Partition.from_blocks([{2}, {1, 3}]))
    assert not is_composition(path, Partition.from_blocks([{2}, {1, 3}]))
    assert is_composition(edgeless, Partition.from_blocks([{1}, {2}, {3}]))
    with pytest.raises(InvalidParametersError):
        is_composition(k3, Partition.from_blocks([{1, 2}]))


def test_composition_type_validates():
    path = from_edge_list(3, [(1, 2), (2, 3)])
    Composition(path, Partition.from_blocks([{1, 2}, {3}]))
    with pytest.raises(InvalidParametersError):
        Composition(path, Partition.from_blocks([{1, 3}, {2}]))


def test_composition_count_examples():
    assert composition_count_brute(complete(3)) == 5
    assert composition_count_brute(from_edge_list(3, [(1, 2), (2, 3)])) == 4
    assert composition_count_brute(complete_minus_clique(6, 4)) == 97
    assert composition_count_brute(from_edge_list(5, [])) == 1
    assert composition_count_brute(complete(0)) == 1


def test_composition_count_against_reference_table():
    from conftest import COMP_TABLE

    for n, row in COMP_TABLE.items():
        for m, expected in enumerate(row):
            assert composition_count_brute(complete_minus_clique(n, m)) == expected


def test_brute_comp_matches_the_explicit_sum_up_to_the_cap():
    for n in range(13):
        for m in range(n + 1):
            got = composition_count_brute(complete_minus_clique(n, m))
            assert got == comp_count_explicit(n, m), (n, m)


def test_complete_graph_count_is_bell():
    for n in range(11):
        assert composition_count_brute(complete(n)) == bell(n), n


def test_composition_count_matches_oracle_filter():
    # Count the oracle's partitions whose blocks all pass a from-scratch check.
    rng = random.Random(52)
    for _ in range(25):
        n = rng.randint(0, 6)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = from_edge_list(n, edges)
        edge_set = set(edges)

        def connected(block):
            reached = {min(block)} if block else set()
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for u, v in edge_set:
                    for a, b in ((u, v), (v, u)):
                        if a == x and b in block and b not in reached:
                            reached.add(b)
                            frontier.append(b)
            return reached == set(block)

        expected = sum(
            1
            for p in enumerate_partitions(range(1, n + 1))
            if all(connected(block) for block in p)
        )
        assert composition_count_brute(g) == expected


def test_compositions_stream():
    assert [str(c) for c in compositions(complete(2))] == ["{1,2}", "{1}|{2}"]
    assert [str(c) for c in compositions(from_edge_list(2, []))] == ["{1}|{2}"]
    assert sum(1 for _ in compositions(complete_minus_clique(3, 2))) == 4
    k3 = list(compositions(complete(3)))
    assert [str(c) for c in k3] == [
        "{1,2,3}",
        "{1,2}|{3}",
        "{1,3}|{2}",
        "{1}|{2,3}",
        "{1}|{2}|{3}",
    ]


def test_compositions_match_filtered_partitions_on_random_graphs():
    rng = random.Random(1709)
    for _ in range(40):
        labels = sorted(rng.sample(range(1, 15), rng.randint(0, 8)))
        density = rng.random()
        edges = [
            (u, v)
            for i, u in enumerate(labels)
            for v in labels[i + 1:]
            if rng.random() < density
        ]
        g = from_vertices_and_edges(labels, edges)
        expected = [
            p
            for p in partitions_of(labels)
            if all(bfs_connected(edges, block) for block in p.blocks())
        ]
        assert [c.partition for c in compositions(g)] == expected
        assert all(is_composition(g, c.partition) for c in compositions(g))
    with pytest.raises(ResourceLimitError):
        compositions(complete(13))  # raised by the call, before any next()


def test_composition_states_match_a_filter_over_every_partition():
    # The stream walks all positions but the last and places that one only
    # where every block stays connected.  Filtering the whole walk must give
    # the same states in the same order, zero tail included, and each class
    # of walked partition (0, 1, 2 or more disconnected blocks) must occur.
    def filtered(g):
        conn = _connectivity_table(_position_adjacency(g))
        for rgs, blocks in _block_stream(g.n):
            if all(conn[mask] for mask in blocks if mask):
                yield tuple(rgs), tuple(blocks)

    rng = random.Random(31)
    graphs = []
    for n in (0, 1, 2, 5, 10):
        graphs += [from_edge_list(n, []), from_edge_list(n, [(v, v + 1) for v in range(1, n)]),
                   complete(n)]
    for _ in range(40):
        n, density = rng.randint(0, 10), rng.choice((0.1, 0.2, 0.3, 0.5, 0.7, 1.0))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        graphs.append(from_edge_list(n, [pair for pair in pairs if rng.random() < density]))
    classes = [0] * 3
    for g in graphs:
        if g.n:
            conn = _connectivity_table(_position_adjacency(g))
            for _, blocks in _block_stream(g.n - 1):
                classes[min(sum(not conn[mask] for mask in blocks if mask), 2)] += 1
        states = ((tuple(rgs), tuple(blocks)) for rgs, blocks in _composition_states(g))
        for got, want in zip_longest(states, filtered(g)):
            assert got == want, (g.n, g.edges)
    assert all(classes), classes


def test_count_extensions_matches_a_leaf_by_leaf_count():
    # The counter walks the partitions of all positions but the last three,
    # places position n - 3 in each block and alone, and scores the last two
    # in aggregate by how many blocks of that placed partition are
    # disconnected: 0, 1, 2, or 3 and more.  Counting the leaves one by one
    # must agree, at every n including 0, 1, 2 and 3 (a walk over the one
    # empty partition), and every class of placed partition must occur.
    def leaf_count(n, conn):
        return sum(all(conn[mask] for mask in blocks if mask) for _, blocks in _block_stream(n))

    def random_graph(rng, n, density):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        return from_edge_list(n, [pair for pair in pairs if rng.random() < density])

    rng = random.Random(23)
    graphs = [from_edge_list(n, []) for n in (0, 1, 2, 3, 5, 8)]
    graphs += [from_edge_list(n, [(v, v + 1) for v in range(1, n)]) for n in (3, 6, 8)]
    graphs += [complete(3), from_edge_list(3, [(1, 3)])]
    graphs += [random_graph(rng, rng.randint(0, 8), rng.choice((0.1, 0.2, 0.4, 0.7)))
               for _ in range(24)]
    classes = [0] * 4
    for g in graphs:
        n = g.n
        conn = _connectivity_table(_position_adjacency(g))
        if n >= 3:
            for _, blocks in _block_stream(n - 3):
                k = blocks.index(0)
                for r in range(k + 1):
                    placed = blocks[:k + 1]
                    placed[r] |= 1 << (n - 3)
                    classes[min(sum(not conn[mask] for mask in placed if mask), 3)] += 1
        assert _count_extensions(n, conn) == leaf_count(n, conn), (n, g.edges)
    assert all(classes), classes
    for n, density in ((9, 0.1), (9, 0.4), (10, 0.3), (11, 0.3)):
        g = random_graph(rng, n, density)
        conn = _connectivity_table(_position_adjacency(g))
        assert _count_extensions(n, conn) == leaf_count(n, conn), (n, g.edges)


def test_edge_addition_monotonicity():
    rng = random.Random(77)
    pairs = 0
    while pairs < 40:
        n = rng.randint(2, 7)
        present = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.4
        ]
        absent = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in present
        ]
        if not absent:
            continue
        extra = rng.choice(absent)
        smaller = composition_count_brute(from_edge_list(n, present))
        larger = composition_count_brute(from_edge_list(n, present + [extra]))
        assert smaller <= larger
        pairs += 1


# ---------------------------------------------------------------------------
# Minimax statistics
# ---------------------------------------------------------------------------

def test_minimax_vertex_examples():
    for blocks, expected in MINIMAX_EXAMPLE_3:
        assert minimax_vertex(Partition.from_blocks(blocks)) == expected
    assert minimax_vertex(Partition.from_blocks([])) is None


def test_minimax_restricted_examples():
    assert minimax_restricted(Partition.from_blocks([{1, 2, 3}]), 1) is None
    assert minimax_restricted(Partition.from_blocks([{1}, {2, 3}]), 1) == 1
    assert minimax_restricted(Partition.from_blocks([{3}, {1, 2}]), 2) == 2
    with pytest.raises(InvalidParametersError):
        minimax_restricted(Partition.from_blocks([{1}]), 0)


def test_minimax_count_examples():
    assert minimax_count_brute(3, 2) == 2
    assert minimax_count_brute(3, 3) == 1
    assert minimax_count_brute(4, 2) == 5
    with pytest.raises(InvalidParametersError):
        minimax_count_brute(4, 0)
    with pytest.raises(InvalidParametersError):
        minimax_count_brute(4, 5)


def test_minimax_count_matches_statistic_histogram():
    for n in range(1, 9):
        histogram = {m: 0 for m in range(1, n + 1)}
        for p in set_partitions(n):
            histogram[minimax_vertex(p)] += 1
        for m in range(1, n + 1):
            assert minimax_count_brute(n, m) == histogram[m]
        assert sum(histogram.values()) == bell(n)


def test_kj_count_examples():
    assert kj_count_brute(5, 3, 1) == 7
    assert kj_count_brute(3, 0, 1) == 1
    assert kj_count_brute(3, 1, 2) == 2
    assert kj_count_brute(0, 0, 1) == 1
    for m in range(1, 8):
        for j in (7, 8, 10**20):
            assert kj_count_brute(7, m, j) == minimax_count_brute(7, m)
    with pytest.raises(InvalidParametersError):
        kj_count_brute(3, 1, 0)
    with pytest.raises(InvalidParametersError):
        kj_count_brute(3, 4, 1)


def test_kj_counts_partition_bell_completely():
    for n in range(1, 8):
        for j in range(1, n + 2):
            total = sum(kj_count_brute(n, m, j) for m in range(n + 1))
            assert total == bell(n), (n, j)


def test_kj_completeness_at_larger_n():
    # One enumeration pass per n builds the statistic histogram for every j at
    # once; each histogram must partition bell(n), and every cell must match
    # the counting operation itself, with j = n + 1 reading the j = n column.
    for n in (9, 10):
        histograms = {j: {m: 0 for m in range(n + 1)} for j in range(1, n + 1)}
        for p in set_partitions(n):
            blocks = p.blocks()
            for j in range(1, n + 1):
                qualifying = [block[-1] for block in blocks if len(block) <= j]
                stat = min(qualifying) if qualifying else 0
                histograms[j][stat] += 1
        for j in range(1, n + 1):
            assert sum(histograms[j].values()) == bell(n), (n, j)
        for j in range(1, n + 2):
            for m in range(n + 1):
                assert kj_count_brute(n, m, j) == histograms[min(j, n)][m], (n, m, j)


def test_kj_count_matches_restricted_statistic_histogram():
    for n in range(7):
        for j in range(1, n + 2):
            histogram = {m: 0 for m in range(n + 1)}
            for p in set_partitions(n):
                stat = minimax_restricted(p, j)
                histogram[0 if stat is None else stat] += 1
            for m in range(n + 1):
                assert kj_count_brute(n, m, j) == histogram[m]


def test_kj_count_matches_restricted_statistic_histogram_through_n_8():
    for n in range(9):
        partitions = list(set_partitions(n))
        for j in range(1, n + 2):
            histogram = {m: 0 for m in range(n + 1)}
            for p in partitions:
                stat = minimax_restricted(p, j)
                histogram[0 if stat is None else stat] += 1
            for m in range(n + 1):
                assert kj_count_brute(n, m, j) == histogram[m], (n, m, j)
