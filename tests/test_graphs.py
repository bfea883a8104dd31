"""Graph construction, connectivity queries, and the graph file format."""

import random
from itertools import combinations

import pytest
from conftest import bfs_connected

from compolab import (
    InvalidParametersError,
    MalformedInputError,
    binomial,
    complete,
    complete_minus_clique,
    delete_vertex,
    from_edge_list,
    from_vertices_and_edges,
    is_connected_induced,
    parse_graph_file,
)
from compolab.graphs import MAX_LABEL, LabelledGraph, label_mask, mask_labels


def test_complete_examples():
    empty = complete(0)
    assert empty.n == 0 and empty.edges == frozenset()
    k3 = complete(3)
    assert k3.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert complete(5).edge_count == 10
    for n in range(13):
        assert complete(n) == complete_minus_clique(n, 0)
        assert complete(n).edges == frozenset(combinations(range(1, n + 1), 2))


def test_complete_minus_clique_examples():
    assert complete_minus_clique(3, 0) == complete(3)
    assert complete_minus_clique(3, 1) == complete(3)
    assert complete_minus_clique(4, 2).edges == frozenset(
        {(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    )
    for n in range(7):
        assert complete_minus_clique(n, n).edge_count == 0


def test_complete_minus_clique_rejects_m_above_n():
    with pytest.raises(InvalidParametersError):
        complete_minus_clique(3, 4)


def test_complete_minus_clique_edge_count_identity():
    # Removing the clique deletes exactly C(m, 2) of the C(n, 2) edges.
    for n in range(21):
        for m in range(n + 1):
            g = complete_minus_clique(n, m)
            assert g.edge_count == binomial(n, 2) - binomial(m, 2)


def test_prefix_is_independent_and_rest_is_joined():
    g = complete_minus_clique(6, 3)
    for u in range(1, 7):
        for v in range(u + 1, 7):
            assert g.has_edge(u, v) == (v > 3)
    # A label that is not a vertex has no edge, negative ones included.
    for u, v in ((-1, 5), (5, -1), (0, 5), (5, 0), (5, 99), (99, 5)):
        assert g.has_edge(u, v) is False


def test_from_edge_list():
    path = from_edge_list(3, [(1, 2), (2, 3)])
    assert path.edges == frozenset({(1, 2), (2, 3)})
    assert from_edge_list(4, [(1, 2), (2, 1)]).edges == frozenset({(1, 2)})
    with pytest.raises(MalformedInputError):
        from_edge_list(2, [(1, 1)])
    for edge in ((1, 4), (0, 2)):
        with pytest.raises(MalformedInputError, match="has an endpoint outside the vertex set"):
            from_edge_list(3, [edge])
    with pytest.raises(MalformedInputError, match="self-loop at label 5"):  # though 5 > n
        from_edge_list(3, [(5, 5)])
    with pytest.raises(MalformedInputError):  # not a negative shift count
        from_vertices_and_edges([], [(-1, 3)])

    # Each pair is checked as it is drawn: a self-loop is refused before the
    # next pair is asked for.
    def pairs():
        yield 1, 2
        yield 3, 3
        raise AssertionError("drew past the self-loop")

    with pytest.raises(MalformedInputError, match="self-loop at label 3"):
        from_edge_list(3, pairs())
    with pytest.raises(MalformedInputError, match="self-loop at label 3"):
        from_vertices_and_edges(range(1, 4), pairs())


def test_is_connected_induced_examples():
    path = from_edge_list(3, [(1, 2), (2, 3)])
    assert not is_connected_induced(path, {1, 3})
    assert is_connected_induced(path, {2})
    k4 = complete(4)
    for mask in range(1, 16):
        labels = [v + 1 for v in range(4) if (mask >> v) & 1]
        assert is_connected_induced(k4, labels)
    assert not is_connected_induced(complete_minus_clique(4, 2), {1, 2})


def test_is_connected_induced_rejects_bad_sets():
    k3 = complete(3)
    with pytest.raises(InvalidParametersError):
        is_connected_induced(k3, set())
    with pytest.raises(InvalidParametersError):
        is_connected_induced(k3, {1, 5})
    for label in (-1, 0, MAX_LABEL + 1):
        with pytest.raises(InvalidParametersError, match=f"label {label} out of range 1..64"):
            is_connected_induced(k3, [label])


def test_connectivity_differential_against_bfs_oracle():
    rng = random.Random(1203)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.4
        ]
        g = from_edge_list(n, edges)
        for _ in range(12):
            subset = {v for v in range(1, n + 1) if rng.random() < 0.5}
            if not subset:
                subset = {rng.randint(1, n)}
            assert is_connected_induced(g, subset) == bfs_connected(edges, subset)


def test_delete_vertex_preserves_labels():
    d = delete_vertex(complete(3), 2)
    assert d.labels == (1, 3)
    assert d.edges == frozenset({(1, 3)})
    assert delete_vertex(complete(1), 1).n == 0
    path = from_edge_list(3, [(1, 2), (2, 3)])
    assert delete_vertex(path, 2).edges == frozenset()
    for label in (4, 0, -1):
        with pytest.raises(InvalidParametersError, match=f"label {label} is not a vertex"):
            delete_vertex(path, label)


def test_delete_vertex_twice():
    g = delete_vertex(delete_vertex(complete(4), 2), 4)
    assert g.labels == (1, 3)
    assert g.edges == frozenset({(1, 3)})


def test_graph_equality_is_structural():
    assert from_edge_list(3, [(1, 2)]) == from_edge_list(3, [(2, 1)])
    assert from_edge_list(3, [(1, 2)]) != from_edge_list(3, [(1, 3)])
    assert hash(complete(4)) == hash(complete(4))
    # An adjacency list is kept as a tuple, so the graph hashes as complete(2) does.
    listed = LabelledGraph(6, [0, 4, 2])
    assert listed == complete(2) and hash(listed) == hash(complete(2))


def test_label_mask_round_trip():
    assert mask_labels(label_mask([3, 1, 7])) == (1, 3, 7)
    assert mask_labels(0) == ()
    for label in (-1, 0, MAX_LABEL + 1):
        with pytest.raises(InvalidParametersError, match=f"label {label} out of range"):
            label_mask([2, label])
    # mask & -mask never clears a negative int, so the walk would never end.
    with pytest.raises(InvalidParametersError, match="mask must be >= 0, got -4"):
        mask_labels(-4)


def test_max_label_guard():
    with pytest.raises(InvalidParametersError):
        complete(MAX_LABEL + 1)
    assert complete_minus_clique(MAX_LABEL, MAX_LABEL).n == MAX_LABEL


def test_adjacency_validation():
    # Asymmetric adjacency must be rejected at construction.
    with pytest.raises(InvalidParametersError):
        LabelledGraph(0b110, (0, 0b100, 0))
    # -2 has bit 0 clear, and its labels would never end.
    with pytest.raises(InvalidParametersError, match="vertex labels must be >= 1"):
        LabelledGraph(-2, (0, 0))


def test_parse_graph_file():
    g = parse_graph_file("# a path\nn 3\n1 2\n\n2 3\n")
    assert g == from_edge_list(3, [(1, 2), (2, 3)])
    single = parse_graph_file("n 1\n")
    assert single.labels == (1,)
    # Leading zeros do not count toward the digits a label may have.
    assert parse_graph_file("n 0003\n0001 00002\n002 3\n") == g
    assert parse_graph_file("n 064\n0064 63\n").edge_count == 1
    # Nor do leading zeros of any script, as int() reads them (Arabic-Indic here).
    assert parse_graph_file("n \u0660\u0660\u0665\n1 2\n").n == 5
    assert parse_graph_file("n 3\n\u0660\u0660\u06601 2\n2 3\n") == g


def test_parse_graph_file_reads_a_line_at_a_time():
    # The count, and each edge, is refused as soon as its line is read.
    def lines(*head):
        yield from head
        raise AssertionError("read past the line at fault")

    for head, error in ((["n 65"], InvalidParametersError), (["n 3", "1 4"], MalformedInputError),
                        (["# c", "n 3", "2 2"], MalformedInputError),
                        (["n 3", "1 2", "1 x"], MalformedInputError)):
        with pytest.raises(error):
            parse_graph_file(lines(*head))
    assert parse_graph_file(iter(["n 3", "1 2", "2 3"])) == from_edge_list(3, [(1, 2), (2, 3)])
    # Text is cut into lines as a file is: at "\n", "\r" and "\r\n" only, so a
    # form feed is whitespace inside a line.
    assert parse_graph_file("n 3\r1 2\r\n2 3") == from_edge_list(3, [(1, 2), (2, 3)])
    with pytest.raises(MalformedInputError, match="line 2: expected 'u v'"):
        parse_graph_file("n 3\n1 2\x0c2 3\n")


def test_parse_graph_file_cuts_what_it_echoes():
    for text in (f"n 3\n1 2 {'9' * 500}\n", f"n 3\n1 {'9' * 500}\n", f"n {'9' * 500}\n"):
        with pytest.raises(ValueError) as exc:
            parse_graph_file(text)
        assert len(str(exc.value)) < 100, text[:20]


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "1 2\n",  # data before header
        "n 3\n1\n",  # short edge line
        "n 3\n1 2 3\n",  # long edge line
        "n 3\nx y\n",  # non-integer edge
        "n -2\n",  # negative count
        "n \u00b2\n",  # a digit to isdigit() that int() rejects
        "n \u00b2\u00b2\u00b2\n",  # three of them: a malformed header, not a count above 64
        "n 2\n1 1\n",  # self-loop
        "n 2\n1 3\n",  # out of range
    ],
)
def test_parse_graph_file_malformed(text):
    with pytest.raises(MalformedInputError):
        parse_graph_file(text)
