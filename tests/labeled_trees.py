"""Labeled {1,3}-tree enumerators shared by the NNI tests."""
from __future__ import annotations

from itertools import combinations

from trivalent.graphs import make_graph, validate_13


def trees_two_internal():
    """Every {1,3}-tree on edge ids 1..5 (internal pair of vertices fixed)."""
    out = []
    for mid in range(1, 6):
        rest = [e for e in range(1, 6) if e != mid]
        for pair in combinations(rest, 2):
            other = tuple(e for e in rest if e not in pair)
            out.append(
                make_graph(
                    [
                        (mid, 1, 2),
                        (pair[0], 1, 3),
                        (pair[1], 1, 4),
                        (other[0], 2, 5),
                        (other[1], 2, 6),
                    ]
                )
            )
    return out


def trees_three_internal(internal_pair):
    """Every {1,3}-tree on edge ids 1..7 whose internal ids are the given pair."""
    out = []
    ia, ib = internal_pair
    ext = [e for e in range(1, 8) if e not in internal_pair]
    for e12, e23 in ((ia, ib), (ib, ia)):
        for left in combinations(ext, 2):
            rest = [e for e in ext if e not in left]
            for midleaf in rest:
                right = tuple(e for e in rest if e != midleaf)
                out.append(
                    make_graph(
                        [
                            (e12, 1, 2),
                            (e23, 2, 3),
                            (left[0], 1, 4),
                            (left[1], 1, 5),
                            (midleaf, 2, 6),
                            (right[0], 3, 7),
                            (right[1], 3, 8),
                        ]
                    )
                )
    return out


def random_four_internal(rng, spider):
    """A random labeled {1,3}-tree with 4 internal vertices.

    Internal edge ids are 1..3 and external ids 4..9 so that caterpillar and
    spider labelings share their label data and can be paired directly.
    """
    internal = rng.sample((1, 2, 3), 3)
    ext = rng.sample(range(4, 10), 6)
    if spider:
        edges = [(internal[i], 1, 2 + i) for i in range(3)]
        leaf = 5
        for arm in (2, 3, 4):
            edges += [(ext.pop(), arm, leaf), (ext.pop(), arm, leaf + 1)]
            leaf += 2
    else:
        edges = [(internal[i], 1 + i, 2 + i) for i in range(3)]
        groups = [(1, 2), (2, 1), (3, 1), (4, 2)]
        leaf = 5
        for v, k in groups:
            for _ in range(k):
                edges += [(ext.pop(), v, leaf)]
                leaf += 1
    g = make_graph(edges)
    validate_13(g)
    return g
