from collections import Counter
from functools import cache
from itertools import permutations, product

import pytest

from trivalent import catalog
from trivalent.catalog import (
    TABLE_TREES,
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
from trivalent.graphs import classify_edges, degree_sequence, same_labeled_graph, validate_13


def test_named_graphs_are_valid():
    for g in (claw(), theta(), dumbbell(), k4(), t4(), lollipop(),
              tree_caterpillar_four(), tree_spider_four()):
        validate_13(g)
        assert g.is_connected()


def test_cubic_pairs_share_size():
    assert sorted(degree_sequence(theta())) == sorted(degree_sequence(dumbbell()))
    assert sorted(degree_sequence(k4())) == sorted(degree_sequence(t4()))
    assert not same_labeled_graph(k4(), t4())


def test_table_trees():
    assert sorted(TABLE_TREES) == [3, 5, 7, 9]
    for m, trees in TABLE_TREES.items():
        for t in trees:
            validate_13(t)
            assert t.is_tree()
            assert len(t.edges) == m
    assert len(TABLE_TREES[9]) == 2


@pytest.fixture(scope="module")
def classes_9():
    return connected_13_classes(9)


def test_connected_classes_group_sizes(classes_9):
    # up to m = 8 the sizes agree with the brute force scan below (at m = 8
    # once, outside the suite: the scan takes minutes); m = 9 is the
    # search's, its cubic counts (n = 2m/3: 2, 5, 17) those of OEIS A005967
    # and its trees those of TABLE_TREES
    sizes = {key: len(v) for key, v in classes_9.items()}
    assert sizes == {
        (2, 2): 1, (2, 3): 2, (4, 3): 1, (4, 4): 2, (4, 5): 3, (4, 6): 5,
        (6, 5): 1, (6, 6): 3, (6, 7): 9, (6, 8): 12, (6, 9): 17,
        (8, 7): 1, (8, 8): 6, (8, 9): 19, (10, 9): 2,
    }
    assert [sizes[2 * m // 3, m] for m in (3, 6, 9)] == [2, 5, 17]
    trees = [g for group in classes_9.values() for g in group if g.is_tree()]
    table = [t for ts in TABLE_TREES.values() for t in ts]
    assert sorted(map(_class_key, trees)) == sorted(map(_class_key, table))


def test_connected_classes_canonical_labels(classes_9):
    for (n, m), group in classes_9.items():
        ext_sets = {frozenset(classify_edges(g)[0]) for g in group}
        assert len(ext_sets) == 1  # shared labels make groups comparable
        for g in group:
            validate_13(g)
            assert g.is_connected()
            assert len(g.edges) == m and len(g.vertex_ids) == n
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert not same_labeled_graph(a, b)
    # pairwise non-isomorphic
    keys = [_class_key(g) for group in classes_9.values() for g in group]
    assert len(set(keys)) == len(keys) == 84


# -- the brute force, as the oracle of the search ------------------------------


def _brute_force_key(k, mult):
    """Isomorphism key of a core: its lexicographically smallest edge
    multiset over all k! relabelings."""
    best = None
    for perm in permutations(range(1, k + 1)):
        relab = {i + 1: perm[i] for i in range(k)}
        bag = []
        for (u, v), c in mult.items():
            if c:
                a, b = relab[u], relab[v]
                bag.extend([(min(a, b), max(a, b))] * c)
        key = tuple(sorted(bag))
        if best is None or key < best:
            best = key
    return best


@cache
def _brute_force_classes(max_edges):
    """connected_13_classes by a scan of every multiplicity vector, keeping
    the first member of each class (a loop per vertex at most, and at most
    three parallel edges)."""
    out = {}
    seen = set()
    for k in range(1, (2 * max_edges) // 3 + 1):
        positions = catalog._core_positions(k)
        ranges = [range(2) if u == v else range(4) for u, v in positions]
        for mults in product(*ranges):
            mult = dict(zip(positions, mults))
            deg = [0] * (k + 1)
            for (u, v), c in mult.items():
                deg[u] += c
                deg[v] += c  # loop counted twice, as it should be
            if any(d > 3 for d in deg):
                continue
            m = 3 * k - sum(mults)
            if m > max_edges:
                continue
            bag = [pos for pos, c in mult.items() for _ in range(c)]
            g = catalog._labeled_from_core(bag, deg)
            if not g.is_connected():
                continue
            key = (k, _brute_force_key(k, mult))
            if key in seen:
                continue
            seen.add(key)
            out.setdefault((len(g.vertex_ids), m), []).append(g)
    for group in out.values():
        group.sort(key=lambda g: g.edge_list)
    return out


def _class_key(g):
    """The brute force's key of a {1,3}-graph: that of its core, the
    multigraph on its degree-3 vertices, relabeled 1..k in order."""
    core = {v: i for i, v in enumerate(sorted(v for v in g.vertex_ids if g.degrees[v] == 3), 1)}
    mult = Counter((core[u], core[v]) for _, u, v in g.edge_list if u in core and v in core)
    return len(core), _brute_force_key(len(core), mult)


def _as_lists(classes):
    return [(key, [g.edge_list for g in group]) for key, group in classes.items()]


def assert_matches_brute_force(max_edges):
    # the scan at m <= 7 holds the scan at each smaller bound: its m <= 7
    # classes filtered by size, in the same order
    expect = {key: group for key, group in _brute_force_classes(7).items()
              if key[1] <= max_edges}
    assert _as_lists(catalog.connected_13_classes(max_edges)) == _as_lists(expect)


@pytest.mark.parametrize("max_edges", range(8))
def test_classes_match_the_brute_force(max_edges):
    # keys, labels and order; at max_edges = 8 the two agree too (46
    # classes), but the scan takes minutes there
    assert_matches_brute_force(max_edges)
