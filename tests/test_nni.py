"""NNI moves, canonical caterpillar normalization, and sequence search."""
import random
from itertools import combinations

import pytest

from trivalent import nni
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
    tree_three_internal,
    tree_two_internal,
)
from trivalent.graphs import (
    Graph,
    GraphError,
    classify_edges,
    make_graph,
    same_labeled_graph,
    spanning_tree,
    validate_13,
)
from trivalent.nni import (
    MoveSequence,
    NniError,
    Trail,
    apply_nni,
    canonical_caterpillar_sequence,
    graph_sequence,
    is_caterpillar,
    legal_trails,
    replay,
    reverse_sequence,
    tree_sequence,
)

from labeled_trees import random_four_internal, trees_three_internal, trees_two_internal


def reference_replay(g, moves):
    """Replay as one Graph rebuild per slid end: the oracle for replay."""
    for t in moves:
        g = _rebuild_end(_rebuild_end(g, t.a, t.u, t.v), t.b, t.v, t.u)
    return g


def _rebuild_end(g, e, src, dst):
    p, q = g.endpoints(e)
    keep = q if p == src else p
    lo, hi = min(keep, dst), max(keep, dst)
    return Graph(
        g.vertex_ids,
        tuple((x, lo, hi) if x == e else (x, a, b) for x, a, b in g.edge_list),
    )


def _loops(g):
    return sum(1 for _, u, v in g.edge_list if u == v)


def _replay_cases():
    graphs = [g for group in connected_13_classes(7).values() for g in group]
    return graphs + [theta(), dumbbell(), lollipop()]


def test_apply_nni_theta_to_dumbbell():
    g = theta()
    h = apply_nni(g, Trail(a=1, u=1, e=3, v=2, b=2))
    validate_13(h)
    assert same_labeled_graph(h, dumbbell())


def test_apply_nni_rejects_illegal_trails():
    g = theta()
    with pytest.raises(NniError):
        apply_nni(g, Trail(1, 1, 1, 2, 1))  # a == b
    with pytest.raises(NniError):
        apply_nni(g, Trail(1, 1, 1, 2, 2))  # a == e
    d = dumbbell()
    with pytest.raises(NniError):
        apply_nni(d, Trail(1, 2, 3, 1, 2))  # a does not sit at u
    with pytest.raises(NniError):
        apply_nni(d, Trail(3, 1, 1, 1, 3))  # loop pivot
    with pytest.raises(NniError, match="edge 9 does not exist"):
        apply_nni(g, Trail(9, 1, 3, 2, 2))  # a does not exist
    with pytest.raises(NniError, match="edge 9 does not exist"):
        apply_nni(g, Trail(1, 1, 3, 2, 9))  # b does not exist
    with pytest.raises(NniError, match="pivot edge 9 does not exist"):
        apply_nni(g, Trail(1, 1, 9, 2, 2))
    # a legal move followed by an illegal one: replay stops at the second
    with pytest.raises(NniError, match="pivot edge 1 is a loop"):
        replay(g, [Trail(1, 1, 3, 2, 2), Trail(3, 1, 1, 1, 3)])


def assert_maps_are_fresh(h):
    """The maps a move handed to h equal those a fresh Graph builds."""
    assert {"incidence", "edges", "degrees", "_slot_map"} <= vars(h).keys()
    fresh = Graph(h.vertex_ids, h.edge_list)
    assert h.incidence == fresh.incidence
    assert h.edges == fresh.edges
    assert h.degrees == fresh.degrees
    assert all(h.slots(v) == fresh.slots(v) for v in fresh.vertex_ids)
    assert h.adjacency == fresh.adjacency
    assert h.components == fresh.components


def assert_moves_hand_on_fresh_maps(g, moves):
    """Each Graph apply_nni builds along moves, and the one replay builds,
    carries maps equal to rebuilt ones.  Reads nni's functions from the
    module, so a patched replay is the one tested."""
    h = g
    for trail in moves:
        h = nni.apply_nni(h, trail)
        assert_maps_are_fresh(h)
    assert_maps_are_fresh(nni.replay(g, moves))


def test_moves_hand_on_maps_equal_to_rebuilt_ones():
    pairs = [
        (g1, g2) for group in connected_13_classes(7).values() for g1 in group for g2 in group
    ]
    sequences = [
        (g1, graph_sequence(g1, g2, restrict_to_spanning_trees=restrict))
        for g1, g2 in pairs for restrict in (False, True)
    ]
    sequences.append((k4(), graph_sequence(k4(), t4())))
    assert len(sequences) == 2 * 136 + 1
    for g, seq in sequences:
        assert_moves_hand_on_fresh_maps(g, seq.moves)
    assert sum(len(seq.moves) for _, seq in sequences) > 2000


def test_replay_matches_reference_on_every_legal_move():
    made = broken = 0
    for g in _replay_cases():
        for trail in legal_trails(g):
            h = apply_nni(g, trail)
            assert h == reference_replay(g, [trail]), (g, trail)
            assert_maps_are_fresh(h)
            made += _loops(h) > _loops(g)
            broken += _loops(h) < _loops(g)
    assert made and broken  # moves that make and break loops were covered


def test_replay_matches_reference_on_seeded_walks():
    rng = random.Random(6011)
    for g in _replay_cases():
        for _ in range(4):
            walk, h = [], g
            for _ in range(8):
                trails = list(legal_trails(h))
                if not trails:
                    break
                walk.append(rng.choice(trails))
                h = apply_nni(h, walk[-1])
            assert replay(g, walk) == reference_replay(g, walk) == h, (g, walk)


def test_reverse_move_round_trip():
    g = tree_two_internal()
    for trail in legal_trails(g):
        h = apply_nni(g, trail)
        validate_13(h)
        back = apply_nni(h, Trail(trail.a, trail.v, trail.e, trail.u, trail.b))
        assert back == g


def test_legal_trails_list_both_orientations():
    g = tree_two_internal()
    trails = set(legal_trails(g))
    assert trails
    for t in trails:
        mirror = Trail(t.b, t.v, t.e, t.u, t.a)
        assert mirror in trails  # the same swap written from the other side
        assert apply_nni(g, mirror) == apply_nni(g, t)


def test_replay_and_reverse_sequence():
    g = tree_three_internal()
    moves = []
    h = g
    for trail in list(legal_trails(g))[:1]:
        h = apply_nni(g, trail)
        moves.append(trail)
    seq = MoveSequence(tuple(moves))
    assert replay(g, seq) == h
    assert replay(h, reverse_sequence(seq)) == g


def test_move_sequence_json_round_trip():
    seq = MoveSequence((Trail(1, 1, 3, 2, 2),), relabel=((1, 3), (3, 1)))
    back = MoveSequence.from_json(seq.to_json())
    assert back == seq
    assert back.relabel_map == {1: 3, 3: 1}


def test_is_caterpillar():
    assert is_caterpillar(claw())
    assert is_caterpillar(tree_caterpillar_four())
    assert not is_caterpillar(tree_spider_four())


def test_tree_sequence_same_tree_is_empty():
    g = tree_three_internal()
    assert tree_sequence(g, g).moves == ()


def test_tree_sequence_spider_to_caterpillar():
    a = tree_spider_four()
    b = tree_caterpillar_four()
    # align label data: spider and caterpillar share edge ids 1..9 with the
    # same internal/external split in the catalog
    assert set(classify_edges(a)[0]) == set(classify_edges(b)[0])
    seq = tree_sequence(a, b)
    assert same_labeled_graph(replay(a, seq.moves), b)
    back = tree_sequence(b, a)
    assert same_labeled_graph(replay(b, back.moves), a)


def test_tree_sequence_rejects_mismatched_labels():
    a = claw()
    b = tree_two_internal()
    with pytest.raises(GraphError):
        tree_sequence(a, b)


@pytest.mark.parametrize(
    "edges, swap",
    [
        # vertex 1 has degree 4
        ([(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 1, 5), (5, 2, 6), (6, 2, 7)], (2, 5)),
        # vertex 2 has degree 2
        ([(1, 1, 2), (2, 2, 3), (3, 1, 4), (4, 1, 5), (5, 3, 6), (6, 3, 7)], (3, 5)),
    ],
)
def test_trees_outside_13_are_rejected(edges, swap):
    a = make_graph(edges)
    b = a.rename_edges({swap[0]: swap[1], swap[1]: swap[0]})
    assert a.is_tree() and not same_labeled_graph(a, b)
    with pytest.raises(GraphError, match="degrees must be 1 or 3"):
        canonical_caterpillar_sequence(a)
    with pytest.raises(GraphError, match="degrees must be 1 or 3"):
        tree_sequence(a, b)
    with pytest.raises(GraphError, match="degrees must be 1 or 3"):
        tree_sequence(a, a)


def _spine_from_lower_end(c: Graph) -> list[int]:
    """The non-leaf path of caterpillar c, read from its lower-id end vertex."""
    nonleaf = {v for v in c.vertex_ids if c.degrees[v] > 1}
    inner = {v: [w for _, w in c.adjacency[v] if w in nonleaf] for v in nonleaf}
    path = [min(v for v in nonleaf if len(inner[v]) <= 1)]
    while len(path) < len(nonleaf):
        path.append(next(w for w in inner[path[-1]] if w not in path))
    return path


def test_canonical_caterpillar_ascends_from_lower_end_vertex():
    rng = random.Random(13)
    trees = [claw(), *trees_two_internal()]
    trees += [t for pair in combinations(range(1, 8), 2) for t in trees_three_internal(pair)]
    trees += [random_four_internal(rng, spider=i % 2 == 0) for i in range(20)]
    for t in trees:
        _, c = canonical_caterpillar_sequence(t)
        assert is_caterpillar(c)
        path = _spine_from_lower_end(c)
        internal = [
            min(e for e, w in c.adjacency[x] if w == y) for x, y in zip(path, path[1:])
        ]
        external = [
            e for x in path for e in sorted(e for e, w in c.adjacency[x] if c.degrees[w] == 1)
        ]
        assert internal == sorted(internal), t
        assert external == sorted(external), t


def test_graph_sequence_theta_dumbbell_frozen():
    seq = graph_sequence(theta(), dumbbell())
    assert seq.moves == (Trail(a=2, u=1, e=3, v=2, b=1),)
    assert seq.relabel == ()
    assert same_labeled_graph(replay(theta(), seq.moves), dumbbell())


def test_graph_sequence_restricted_theta_dumbbell_frozen():
    seq = graph_sequence(theta(), dumbbell(), restrict_to_spanning_trees=True)
    assert seq.moves == (Trail(a=3, u=1, e=1, v=2, b=2),)
    assert seq.relabel == ((1, 3), (2, 1), (3, 2))
    h = replay(theta(), seq.moves).rename_edges(seq.relabel_map)
    assert same_labeled_graph(h, dumbbell())
    assert all(mv.e in spanning_tree(theta()) for mv in seq.moves)


def test_graph_sequence_k4_t4():
    seq = graph_sequence(k4(), t4())
    h = replay(k4(), seq.moves).rename_edges(seq.relabel_map)
    assert same_labeled_graph(h, t4())


def test_graph_sequence_needs_equal_degree_data():
    with pytest.raises(GraphError):
        graph_sequence(theta(), k4())


def test_canonical_cache_returns_fresh_lists():
    g = tree_spider_four()
    moves, c = canonical_caterpillar_sequence(g)
    expected = list(moves)
    assert expected  # the spider is not a caterpillar
    moves.clear()
    again, c2 = canonical_caterpillar_sequence(g)
    assert again == expected and c2 == c


def test_canonical_cache_keys_on_graph_value():
    edges = [(1, 1, 2), (2, 2, 3), (3, 1, 4), (4, 1, 5), (5, 2, 6), (6, 3, 7), (7, 3, 8)]
    a, b = make_graph(edges), make_graph(edges)
    assert a == b and a is not b
    first = canonical_caterpillar_sequence(a)
    hits = nni._canonical.cache_info().hits
    assert canonical_caterpillar_sequence(b) == first
    assert nni._canonical.cache_info().hits == hits + 1


def test_canonical_cache_matches_cold_computation():
    trees = [t for pair in combinations(range(1, 8), 2) for t in trees_three_internal(pair)]
    assert len(trees) == 1260
    for t in trees:
        canonical_caterpillar_sequence(t)
        cached = canonical_caterpillar_sequence(t)  # read from the cache
        nni._canonical.cache_clear()
        assert canonical_caterpillar_sequence(t) == cached, t
