"""Named small graphs and exhaustive enumeration of connected {1,3}-graphs.

Every connected graph with all degrees in {1,3} is a connected multigraph
"core" on its degree-3 vertices (per-vertex degree at most 3, so at most one
loop per vertex) with 3 - deg(core) pendant leaves attached to each core
vertex.  With k core vertices and c core edges (loops count once), the total
edge count is m = 3k - c, so m <= 7 already forces k <= 4 and the whole
enumeration is tiny.
"""
from __future__ import annotations

from itertools import combinations, permutations, product

from .graphs import Graph, make_graph, validate_13


# -- hand-labeled standards --------------------------------------------------


def claw() -> Graph:
    """One degree-3 vertex, three leaves."""
    return make_graph([(1, 1, 2), (2, 1, 3), (3, 1, 4)])


def theta() -> Graph:
    """Two vertices joined by three parallel edges."""
    return make_graph([(1, 1, 2), (2, 1, 2), (3, 1, 2)])


def dumbbell() -> Graph:
    """Two loops joined by a bar: loop 1 at vertex 1, loop 2 at vertex 2."""
    return make_graph([(1, 1, 1), (2, 2, 2), (3, 1, 2)])


def k4() -> Graph:
    """Complete graph on 4 vertices."""
    return make_graph(
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)]
    )


def t4() -> Graph:
    """Star core with a loop on each outer vertex (cubic, 4 vertices, 6 edges)."""
    return make_graph(
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 2), (5, 3, 3), (6, 4, 4)]
    )


def lollipop() -> Graph:
    """Loop plus pendant edge: the smallest {1,3}-graph (2 edges)."""
    return make_graph([(1, 1, 1), (2, 1, 2)])


def tree_two_internal() -> Graph:
    """The unique {1,3}-tree with 5 edges."""
    return make_graph([(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 5), (5, 2, 6)])


def tree_three_internal() -> Graph:
    """The unique {1,3}-tree with 7 edges (internal spine 1-2-3)."""
    return make_graph(
        [
            (1, 1, 2),
            (2, 2, 3),
            (3, 1, 4),
            (4, 1, 5),
            (5, 2, 6),
            (6, 3, 7),
            (7, 3, 8),
        ]
    )


def tree_caterpillar_four() -> Graph:
    """The 9-edge {1,3}-caterpillar: internal spine 1-2-3-4."""
    return make_graph(
        [
            (1, 1, 2),
            (2, 2, 3),
            (3, 3, 4),
            (4, 1, 5),
            (5, 1, 6),
            (6, 2, 7),
            (7, 3, 8),
            (8, 4, 9),
            (9, 4, 10),
        ]
    )


def tree_spider_four() -> Graph:
    """The 9-edge {1,3}-spider: central vertex 1 with internal arms to 2, 3, 4."""
    return make_graph(
        [
            (1, 1, 2),
            (2, 1, 3),
            (3, 1, 4),
            (4, 2, 5),
            (5, 2, 6),
            (6, 3, 7),
            (7, 3, 8),
            (8, 4, 9),
            (9, 4, 10),
        ]
    )


TABLE_TREES: dict[int, tuple[Graph, ...]] = {
    3: (claw(),),
    5: (tree_two_internal(),),
    7: (tree_three_internal(),),
    9: (tree_caterpillar_four(), tree_spider_four()),
}


# -- exhaustive enumeration ---------------------------------------------------


def _core_positions(k: int) -> list[tuple[int, int]]:
    return [(i, i) for i in range(1, k + 1)] + list(
        combinations(range(1, k + 1), 2)
    )


def _canonical_core(k: int, mult: dict[tuple[int, int], int]) -> tuple:
    """Isomorphism key: lexicographically smallest edge multiset over relabelings."""
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


def _labeled_from_core(k: int, core_edges: tuple[tuple[int, int], ...]) -> Graph:
    """Canonical labeling: core edges first (sorted), then pendants by vertex."""
    deg = {i: 0 for i in range(1, k + 1)}
    for u, v in core_edges:
        deg[u] += 1
        deg[v] += 1  # a loop (u, u) lands here twice: degree 2, as it should
    edges = [(i + 1, u, v) for i, (u, v) in enumerate(sorted(core_edges))]
    next_edge = len(core_edges) + 1
    next_vertex = k + 1
    for v in range(1, k + 1):
        for _ in range(3 - deg[v]):
            edges.append((next_edge, v, next_vertex))
            next_edge += 1
            next_vertex += 1
    return make_graph(edges, vertices=range(1, next_vertex))


def connected_13_classes(max_edges: int) -> dict[tuple[int, int], list[Graph]]:
    """All connected {1,3}-graphs with at most max_edges edges, up to isomorphism.

    Returns {(n_vertices, n_edges): [canonical labeled representative, ...]}.
    Within one key, every representative has the same degree sequence, the
    same external edge ids, and the same internal edge ids (cores are labeled
    1..c, pendants c+1..m), which is exactly what move-sequence construction
    between two members requires.
    """
    out: dict[tuple[int, int], list[Graph]] = {}
    seen: set[tuple] = set()
    max_k = (2 * max_edges) // 3
    for k in range(1, max_k + 1):
        positions = _core_positions(k)
        ranges = [range(2) if u == v else range(4) for u, v in positions]
        for mults in product(*ranges):
            mult = dict(zip(positions, mults))
            deg = {i: 0 for i in range(1, k + 1)}
            for (u, v), c in mult.items():
                deg[u] += c
                deg[v] += c  # loop counted twice, as it should be
            if any(d > 3 for d in deg.values()):
                continue
            c_edges = sum(mults)
            m = 3 * k - c_edges
            if m > max_edges:
                continue
            bag: list[tuple[int, int]] = []
            for (u, v), cnt in mult.items():
                bag.extend([(u, v)] * cnt)
            g = _labeled_from_core(k, tuple(bag))
            if not g.is_connected():
                continue
            key = (k, _canonical_core(k, mult))
            if key in seen:
                continue
            seen.add(key)
            validate_13(g)
            n = len(g.vertex_ids)
            out.setdefault((n, m), []).append(g)
    for group in out.values():
        group.sort(key=lambda g: g.edge_list)
    return out
