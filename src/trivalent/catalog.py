"""Named small graphs and exhaustive enumeration of connected {1,3}-graphs.

Every connected graph with all degrees in {1,3} is a connected multigraph
"core" on its degree-3 vertices (per-vertex degree at most 3, so at most one
loop per vertex) with 3 - deg(core) pendant leaves attached to each core
vertex.  With k core vertices and c core edges (loops count once), the total
edge count is m = 3k - c.

A core is a multiplicity vector over _core_positions(k), the loops (i, i)
and then the pairs (i, j).  Its canonical form is the lexicographically
least of its images under the k! relabelings (orderly generation: Read,
"Every one a winner", 1978).  One backtracking search per k assigns the
positions in order, each multiplicity ascending from 0, so it meets vectors
in lexicographic order, as a scan of the product of all multiplicities would:
the first vector such a scan meets of each class is the class's least, and
so the search keeps the same representatives in the same order.  It cuts a
branch once a degree passes 3 or the free degree cannot hold the core edges
m <= max_edges needs, and keeps a complete vector only if none of its k! - 1
other images is lower: m <= 9 (84 classes, k <= 6) takes about 0.3 s
(CPython 3.11, 2-core x86-64 VM), where the scan took minutes at m <= 8.
"""
from __future__ import annotations

from itertools import combinations, permutations
from operator import itemgetter

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
    return [(i, i) for i in range(1, k + 1)] + list(combinations(range(1, k + 1), 2))


def _labeled_from_core(core_edges: list[tuple[int, int]], deg: list[int]) -> Graph:
    """Canonical labeling: core edges first (sorted), then pendants by vertex;
    core vertex v (1..k) has degree deg[v] in the core."""
    k, c = len(deg) - 1, len(core_edges)
    leaves = [v for v in range(1, k + 1) for _ in range(3 - deg[v])]
    edges = [(e, u, v) for e, (u, v) in enumerate(sorted(core_edges), 1)]
    return make_graph(edges + [(c + i, v, k + i) for i, v in enumerate(leaves, 1)])


def connected_13_classes(max_edges: int) -> dict[tuple[int, int], list[Graph]]:
    """All connected {1,3}-graphs with at most max_edges edges, up to isomorphism.

    Returns {(n_vertices, n_edges): [canonical labeled representative, ...]}.
    Within one key, every representative has the same degree sequence, the
    same external edge ids, and the same internal edge ids (cores are labeled
    1..c, pendants c+1..m), which is exactly what move-sequence construction
    between two members requires.
    """
    out: dict[tuple[int, int], list[Graph]] = {}
    for k in range(1, (2 * max_edges) // 3 + 1):
        positions = _core_positions(k)
        index = {pos: i for i, pos in enumerate(positions)}
        # each relabeling but the identity, as the positions its image reads
        images = [
            itemgetter(*(index[tuple(sorted((perm[u - 1], perm[v - 1])))] for u, v in positions))
            for perm in permutations(range(1, k + 1))
        ][1:]
        need = 3 * k - max_edges  # core edges at least, for m <= max_edges
        mults = [0] * len(positions)
        deg = [0] * (k + 1)

        def extend(i: int, edges: int, free: int) -> None:
            if edges + free // 2 < need:  # an edge takes 2 of the free degree
                return
            if i < len(positions):
                u, v = positions[i]
                while deg[u] <= 3 and deg[v] <= 3:  # a loop adds 2 to deg[u]
                    extend(i + 1, edges + mults[i], free - 2 * mults[i])
                    mults[i] += 1
                    deg[u] += 1
                    deg[v] += 1
                deg[u] -= mults[i]
                deg[v] -= mults[i]
                mults[i] = 0
                return
            vector = tuple(mults)
            if edges < need or any(image(vector) < vector for image in images):
                return
            g = _labeled_from_core(
                [pos for pos, c in zip(positions, vector) for _ in range(c)], deg
            )
            if g.is_connected():
                validate_13(g)
                out.setdefault((len(g.vertex_ids), 3 * k - edges), []).append(g)

        extend(0, 0, 3 * k)
    for group in out.values():
        group.sort(key=lambda g: g.edge_list)
    return out
