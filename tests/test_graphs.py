"""Multigraph container, text format, and cycle-edge cutting."""
import pytest

from trivalent.graphs import (
    GraphError,
    classify_edges,
    cut_edge,
    degree_sequence,
    find_cycle_edge,
    format_graph,
    make_graph,
    on_cycle,
    parse_graph,
    same_labeled_graph,
    spanning_tree,
    validate_13,
)
from trivalent.catalog import (
    claw,
    connected_13_classes,
    dumbbell,
    k4,
    lollipop,
    t4,
    theta,
    tree_caterpillar_four,
    tree_spider_four,
)

CLAW_TEXT = """\
# star with three leaves
v 4
e 1 1 2
e 2 1 3
e 3 1 4
"""


def test_parse_and_format_round_trip():
    g = parse_graph(CLAW_TEXT)
    assert g.edge_list == ((1, 1, 2), (2, 1, 3), (3, 1, 4))
    assert parse_graph(format_graph(g)) == g


def test_parse_rejects_bad_input():
    with pytest.raises(GraphError):
        parse_graph("v 2\ne 1 1 3\n")  # endpoint out of range
    with pytest.raises(GraphError):
        parse_graph("v 2\ne 2 1 2\n")  # edge ids must be 1..m
    with pytest.raises(GraphError):
        parse_graph("v 2\ne 1 1 2\ne 1 1 2\n")  # duplicate id
    with pytest.raises(GraphError):
        parse_graph("v 2\nx 1 1 2\n")


def test_loops_count_twice():
    g = lollipop()  # loop plus a pendant edge
    assert g.degrees[1] == 3
    u, v = g.endpoints(1)
    assert u == v  # edge 1 is the loop
    assert sorted(degree_sequence(g)) == [1, 3]
    assert g.slots(1) == (1, 1, 2)


def test_validate_13():
    validate_13(claw())
    validate_13(theta())
    validate_13(k4())
    with pytest.raises(GraphError):
        validate_13(make_graph([(1, 1, 2)]))  # two degree-1 ends
    with pytest.raises(GraphError):
        # degree 2 vertex
        validate_13(make_graph([(1, 1, 2), (2, 2, 3)]))


def test_classify_edges():
    assert classify_edges(claw()) == ((1, 2, 3), ())
    assert classify_edges(theta()) == ((), (1, 2, 3))
    ext, internal = classify_edges(dumbbell())
    assert ext == () and set(internal) == {1, 2, 3}


def test_connectivity_helpers():
    g = theta()
    assert g.is_connected()
    assert not g.is_tree()
    assert g.cycle_rank() == 2
    t = claw()
    assert t.is_tree() and t.cycle_rank() == 0


def test_same_labeled_graph_ignores_vertex_names():
    a = make_graph([(1, 1, 2), (2, 1, 3), (3, 1, 4)])
    b = make_graph([(1, 9, 5), (2, 9, 6), (3, 9, 7)])
    assert same_labeled_graph(a, b)
    c = make_graph([(1, 1, 2), (3, 1, 3), (2, 1, 4)])
    assert same_labeled_graph(a, c)  # leaves are interchangeable
    d = theta()
    assert not same_labeled_graph(a, d)


# the census classes and the named graphs; theta, dumbbell, lollipop and t4
# carry loops and parallel edges
VIEW_GRAPHS = [
    *(g for _, group in sorted(connected_13_classes(7).items()) for g in group),
    claw(), theta(), dumbbell(), k4(), t4(), lollipop(),
    tree_caterpillar_four(), tree_spider_four(),
]


def test_incident_edges_as_distinct_sorted_adjacency():
    for g in VIEW_GRAPHS:
        for v in g.vertex_ids:
            assert g.incident_edges(v) == tuple(sorted({e for e, _ in g.adjacency[v]}))


def test_same_labeled_graph_compares_slot_multisets():
    def renamed(g):  # the same labeled graph on vertex ids reversed
        top = max(g.vertex_ids) + 1
        return make_graph([(e, top - u, top - v) for e, u, v in g.edge_list])

    def multisets(g):
        return sorted(g.slots(v) for v in g.vertex_ids)

    graphs = VIEW_GRAPHS + [renamed(g) for g in VIEW_GRAPHS]
    for a in graphs:
        for b in graphs:
            expect = set(a.edges) == set(b.edges) and multisets(a) == multisets(b)
            assert same_labeled_graph(a, b) == expect
    assert all(same_labeled_graph(g, renamed(g)) for g in VIEW_GRAPHS)


def test_spanning_tree_frozen_choices():
    assert spanning_tree(theta()) == frozenset({1})
    assert spanning_tree(dumbbell()) == frozenset({3})
    assert spanning_tree(k4()) == frozenset({1, 2, 3})


def test_on_cycle_and_find_cycle_edge():
    g = dumbbell()
    assert on_cycle(g, 1) and on_cycle(g, 2)
    assert not on_cycle(g, 3)  # the bridge
    e = find_cycle_edge(g)
    assert e in {1, 2}
    e2 = find_cycle_edge(g, forbidden=frozenset({e}))
    assert e2 != e and on_cycle(g, e2)
    with pytest.raises(GraphError):
        find_cycle_edge(claw())


def test_cut_restores_degrees_and_adds_stubs():
    g = theta()
    h, stubs = cut_edge(g, 2)
    validate_13(h)
    assert stubs == (4, 5)
    # edge 2 = (1, 2) becomes stubs 4 = (1, leaf 3) and 5 = (2, leaf 4)
    assert h.edge_list == ((1, 1, 2), (3, 1, 2), (4, 1, 3), (5, 2, 4))
    assert h.vertex_ids == frozenset({1, 2, 3, 4})
    assert h.is_tree() is False  # still one cycle left

    hh, _ = cut_edge(h, find_cycle_edge(h))
    assert hh.is_tree()
    validate_13(hh)


def test_cut_loop():
    g = dumbbell()
    h, stubs = cut_edge(g, 1)  # cutting a loop gives two pendant edges at v1
    validate_13(h)
    assert stubs == (4, 5)
    assert h.edge_list == ((2, 2, 2), (3, 1, 2), (4, 1, 3), (5, 1, 4))
    assert h.slots(1) == (3, 4, 5)
