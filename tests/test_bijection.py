"""The deletion/insertion bijection: construction, round trips, exhaustive checks."""

import pytest

from compolab import (
    InvalidParametersError,
    Partition,
    ResourceLimitError,
    backward,
    bijection,
    comp_count_recursive,
    complete_minus_clique,
    forward,
    minimax_vertex,
    set_partitions,
    target_graph,
    verify,
)
from compolab.graphs import from_vertices_and_edges


def test_target_graph_examples():
    g = target_graph(2, 1)
    assert g.labels == (1, 3) and g.edges == frozenset({(1, 3)})
    g = target_graph(2, 0)
    assert g.labels == (2, 3) and g.edges == frozenset({(2, 3)})
    g = target_graph(3, 2)
    assert g.labels == (1, 2, 4) and g.edges == frozenset({(1, 4), (2, 4)})
    with pytest.raises(InvalidParametersError):
        target_graph(2, 3)


def test_target_graph_is_isomorphic_to_complete_minus_clique():
    # The order-preserving relabeling onto 1..n sends the target graph to the
    # complete-minus-clique graph exactly.
    for n in range(7):
        for m in range(n + 1):
            g = target_graph(n, m)
            relabel = {old: new for new, old in enumerate(g.labels, start=1)}
            relabeled = from_vertices_and_edges(
                relabel.values(),
                [(relabel[u], relabel[v]) for u, v in g.edges],
            )
            assert relabeled == complete_minus_clique(n, m), (n, m)


def test_forward_examples():
    # The two partitions of {1,2,3} with minimax vertex 2 map to the two
    # distinct compositions of the graph on {1, 3}.
    assert forward(Partition.from_blocks([{2}, {1, 3}])) == Partition.from_blocks([{1, 3}])
    assert forward(Partition.from_blocks([{1, 2}, {3}])) == Partition.from_blocks([{1}, {3}])
    assert forward(Partition.from_blocks([{1}])) == Partition.from_blocks([])


def test_forward_scatters_blockmates_into_singletons():
    p = Partition.from_blocks([{1, 2, 4}, {3, 5}])  # minimax vertex is 4
    assert minimax_vertex(p) == 4
    assert forward(p) == Partition.from_blocks([{1}, {2}, {3, 5}])


def test_forward_validation():
    with pytest.raises(InvalidParametersError):
        forward(Partition.from_blocks([]))
    with pytest.raises(InvalidParametersError):
        forward(Partition.from_blocks([{1}, {2, 3}]), expected_minimax=2)


def test_backward_examples():
    assert backward(Partition.from_blocks([{1, 3}]), 2, 1) == Partition.from_blocks(
        [{2}, {1, 3}]
    )
    assert backward(Partition.from_blocks([{1}, {3}]), 2, 1) == Partition.from_blocks(
        [{1, 2}, {3}]
    )
    assert backward(Partition.from_blocks([{2, 3}]), 2, 0) == Partition.from_blocks(
        [{1}, {2, 3}]
    )


def test_backward_minimax_is_the_inserted_vertex():
    from compolab import compositions

    for n in range(6):
        for m in range(n + 1):
            for comp in compositions(target_graph(n, m)):
                assert minimax_vertex(backward(comp.partition, n, m)) == m + 1


def test_backward_rejects_non_compositions():
    # {1, 2} is not connected in the target graph for n=3, m=2.
    with pytest.raises(InvalidParametersError):
        backward(Partition.from_blocks([{1, 2}, {4}]), 3, 2)
    # Wrong ground set.
    with pytest.raises(InvalidParametersError):
        backward(Partition.from_blocks([{1}, {2}]), 2, 1)


def test_verify_examples():
    report = verify(2, 1)
    assert (report.lhs_count, report.rhs_count) == (2, 2)
    assert report.round_trip_ok and report.injective_ok and report.ok
    report = verify(3, 3)
    assert (report.lhs_count, report.rhs_count) == (1, 1) and report.ok
    report = verify(5, 2)
    assert (report.lhs_count, report.rhs_count) == (47, 47) and report.ok


def test_verify_exhaustive_small():
    for n in range(7):
        for m in range(n + 1):
            report = verify(n, m)
            assert report.ok, (n, m, report)
            assert report.lhs_count == comp_count_recursive(n, m), (n, m)


def test_round_trip_on_every_minimax_class():
    # backward(forward(p)) == p for every partition, grouped by minimax vertex.
    for n in range(1, 7):
        for p in set_partitions(n):
            v = minimax_vertex(p)
            image = forward(p)
            assert backward(image, n - 1, v - 1) == p


def test_verify_builds_the_target_graph_once(monkeypatch):
    calls = []

    def counting(n, m):
        calls.append((n, m))
        return target_graph(n, m)

    monkeypatch.setattr(bijection, "target_graph", counting)
    assert verify(5, 2).ok
    assert calls == [(5, 2)]


def test_verify_row_equals_verify_per_cell(monkeypatch):
    for n in range(7):
        assert bijection.verify_row(n) == [verify(n, m) for m in range(n + 1)], n
    with pytest.raises(InvalidParametersError):
        bijection.verify_row(-1)
    # A failure in one cell is reported in that cell alone.
    real_insert = bijection._insert
    monkeypatch.setattr(
        bijection, "_insert", lambda c, m: c if m == 2 else real_insert(c, m)
    )
    reports = bijection.verify_row(4)
    assert [r.round_trip_ok for r in reports] == [m != 2 for m in range(5)]


def test_verify_over_the_cap_raises_a_resource_limit():
    # Checked before any target graph is built: one on 71 labels has no bitset.
    for check in (lambda: bijection.verify_row(70), lambda: verify(70, 3),
                  lambda: bijection.verify_row(6, cap=5)):
        with pytest.raises(ResourceLimitError, match="exceeds the brute-force cap"):
            check()


def _tuple_forward(p):
    """forward as built from label tuples, the reference for the bitset map."""
    v = minimax_vertex(p)
    blocks = []
    for block in p.blocks():
        if v in block:
            blocks.extend((x,) for x in block if x != v)
        else:
            blocks.append(block)
    return Partition.from_blocks(blocks)


def _tuple_insert(c, m):
    """backward's insertion as built from label tuples."""
    merged = [m + 1]
    blocks = []
    for block in c.blocks():
        if len(block) == 1 and block[0] <= m:
            merged.append(block[0])
        else:
            blocks.append(block)
    return Partition.from_blocks(blocks + [merged])


def test_bitset_maps_match_the_tuple_maps():
    for n in range(1, 8):
        for p in set_partitions(n):
            v = minimax_vertex(p)
            image = _tuple_forward(p)
            back = _tuple_insert(image, v - 1)
            assert bijection._delete(p.block_bitsets(), v) == sorted(image.block_bitsets()), p
            assert bijection._insert(image.block_bitsets(), v - 1) == sorted(back.block_bitsets()), p
            assert forward(p) == image and backward(image, n - 1, v - 1) == back, p


def test_verify_row_reports_a_merged_image_in_its_cell_alone(monkeypatch):
    # A forward map that sends every partition of cell m = 2 to one image.
    real_delete = bijection._delete
    first = {}

    def merging(p, v):
        image = real_delete(p, v)
        return first.setdefault(v, image) if v == 3 else image

    monkeypatch.setattr(bijection, "_delete", merging)
    reports = bijection.verify_row(4)
    assert [r.injective_ok for r in reports] == [m != 2 for m in range(5)]
    assert reports[2].lhs_count > 1
