"""Edge-slide moves and deterministic move-sequence construction.

A move is described by a trail (a, u, e, v, b): e = {u, v} is the pivot (never
a loop), a is an edge with a slot at u, b an edge with a slot at v, and a, e, b
are pairwise distinct.  Applying the move detaches a's u-slot and reattaches it
at v, and symmetrically moves b's v-slot to u.  Degrees, the edge-label set,
and the external/internal split are all preserved.

The constructive results: any two {1,3}-trees with equal edge-label sets and
equal external labels are connected by such moves (tree_sequence), and the
same holds for connected {1,3}-graphs with equal degree data once cut edges
are matched up by an explicit relabeling bijection (graph_sequence).
"""
from __future__ import annotations

import json
from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .graphs import (
    Graph,
    GraphError,
    classify_edges,
    cut_edge,
    degree_sequence,
    find_cycle_edge,
    same_labeled_graph,
    spanning_tree,
    validate_13,
)


class NniError(GraphError):
    """Raised when a trail is illegal on the graph it is applied to."""


@dataclass(frozen=True)
class Trail:
    """One move: slide a's u-end to v and b's v-end to u across pivot e."""

    a: int
    u: int
    e: int
    v: int
    b: int

    def reversed(self) -> "Trail":
        # after the move a sits at v and b at u; the reverse slides them back
        return Trail(self.a, self.v, self.e, self.u, self.b)


@dataclass(frozen=True)
class MoveSequence:
    """Moves plus an edge relabeling applied after replay.

    ``relabel`` is a sorted tuple of (old_id, new_id) pairs, identity entries
    omitted.  Tree-level sequences always have an empty relabel; sequences
    between graphs with cycles may need to permute the labels of cut edges.
    """

    moves: tuple[Trail, ...]
    relabel: tuple[tuple[int, int], ...] = ()

    @property
    def relabel_map(self) -> dict[int, int]:
        return dict(self.relabel)

    def to_jsonable(self) -> dict:
        """The JSON form: moves as [a, u, e, v, b] lists, relabel as pairs."""
        return {
            "moves": [[t.a, t.u, t.e, t.v, t.b] for t in self.moves],
            "relabel": [list(p) for p in self.relabel],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MoveSequence":
        """Parse the JSON form; ValueError unless it is an object whose
        "moves" are lists of five integers and "relabel" lists of two."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a move sequence must be a JSON object")
        moves = tuple(Trail(*entry) for entry in _int_lists(payload, "moves", 5))
        relabel = tuple(sorted((a, b) for a, b in _int_lists(payload, "relabel", 2)))
        return MoveSequence(moves, relabel)


def _int_lists(payload: dict, key: str, length: int) -> list[list[int]]:
    """payload[key] (empty when absent), checked to be lists of `length` integers."""
    entries = payload.get(key, [])
    if not isinstance(entries, list) or not all(
        isinstance(entry, list)
        and len(entry) == length
        and all(type(x) is int for x in entry)
        for entry in entries
    ):
        raise ValueError(f'"{key}" must be a list of lists of {length} integers')
    return entries


def apply_nni(g: Graph, trail: Trail) -> Graph:
    """Apply one move; raises NniError if the trail is illegal on g.

    The Graph returned carries g's degrees and edge ids, and g's slot map
    with the entries of u and v replaced (see replay).
    """
    return replay(g, (trail,))


def replay(g: Graph, moves: MoveSequence | Iterable[Trail]) -> Graph:
    """Apply a whole sequence of moves (the relabel, if any, is NOT applied).

    The moves run on one mutable edge -> ends map and update the slot
    multisets of the vertices they touch; one Graph is built at the end.  It
    is handed its maps instead of rebuilding them: the ends map as its
    incidence, g's degrees and edge ids (a move keeps both), and g's slot map
    with the touched vertices' entries replaced.  Raises NniError at the
    first illegal trail.
    """
    if isinstance(moves, MoveSequence):
        moves = moves.moves
    ends = {e: (p, q) for e, p, q in g.edge_list}
    base = g._slot_map
    touched: dict[int, list[int]] = {}
    for trail in moves:
        _slide(ends, trail)
        a, u, v, b = trail.a, trail.u, trail.v, trail.b
        if u not in touched:
            touched[u] = list(base[u])
        if v not in touched:
            touched[v] = list(base[v])
        at_u, at_v = touched[u], touched[v]
        at_u.remove(a)
        insort(at_v, a)
        at_v.remove(b)
        insort(at_u, b)
    h = _graph(g.vertex_ids, ends)
    slot_map = dict(base)
    for x, slots in touched.items():
        slot_map[x] = tuple(slots)
    vars(h).update(incidence=ends, edges=g.edges, degrees=g.degrees, _slot_map=slot_map)
    return h


def _slide(ends: dict[int, tuple[int, int]], trail: Trail) -> None:
    """Check one trail against an edge -> (lo, hi) map and apply it in place:
    a's u-end moves to v and b's v-end to u (a loop moves one of its ends)."""
    a, u, e, v, b = trail.a, trail.u, trail.e, trail.v, trail.b
    pivot = ends.get(e)
    if pivot is None:
        raise NniError(f"pivot edge {e} does not exist")
    pu, pv = pivot
    if pu == pv:
        raise NniError(f"pivot edge {e} is a loop")
    if not ((pu == u and pv == v) or (pu == v and pv == u)):
        raise NniError(f"pivot edge {e} joins {pu},{pv}, not {u},{v}")
    if a == e or b == e or a == b:
        raise NniError(f"edges a={a}, e={e}, b={b} must be pairwise distinct")
    at_a = ends.get(a)
    if at_a is None:
        raise NniError(f"edge {a} does not exist")
    p, q = at_a
    if u != p and u != q:
        raise NniError(f"edge {a} has no end at vertex {u}")
    at_b = ends.get(b)
    if at_b is None:
        raise NniError(f"edge {b} does not exist")
    r, s = at_b
    if v != r and v != s:
        raise NniError(f"edge {b} has no end at vertex {v}")
    keep = q if p == u else p
    ends[a] = (keep, v) if keep <= v else (v, keep)
    keep = s if r == v else r
    ends[b] = (keep, u) if keep <= u else (u, keep)


def _graph(vertex_ids: frozenset[int], ends: dict[int, tuple[int, int]]) -> Graph:
    return Graph(vertex_ids, tuple([(e, p, q) for e, (p, q) in ends.items()]))


def reverse_sequence(seq: MoveSequence) -> MoveSequence:
    inverse = {new: old for old, new in seq.relabel}
    return MoveSequence(
        tuple(t.reversed() for t in reversed(seq.moves)),
        tuple(sorted(inverse.items())),
    )


def legal_trails(g: Graph) -> Iterator[Trail]:
    """Enumerate every legal trail of g (deterministic order)."""
    for e, u, v in g.edge_list:
        if u == v:
            continue
        for uu, vv in ((u, v), (v, u)):
            for a in g.incident_edges(uu):
                if a == e:
                    continue
                for b in g.incident_edges(vv):
                    if b == e or b == a:
                        continue
                    yield Trail(a, uu, e, vv, b)


# -- caterpillar machinery ----------------------------------------------------


class _Tree:
    """Mutable working form of a tree: edge ends plus adjacency.

    ``adjacency`` lists (edge_id, other_end) per vertex in no fixed order:
    in a tree every choice the stages make from it is a min or unique.
    Degrees and tree-ness do not change under a move, so ``degrees`` is the
    input's.
    """

    __slots__ = ("vertex_ids", "degrees", "ends", "adjacency")

    def __init__(self, t: Graph):
        self.vertex_ids = t.vertex_ids
        self.degrees = t.degrees
        self.ends = {e: (p, q) for e, p, q in t.edge_list}
        self.adjacency = {v: list(pairs) for v, pairs in t.adjacency.items()}

    def move(self, trail: Trail) -> None:
        a, b = trail.a, trail.b
        before = ((a, self.ends[a]), (b, self.ends[b]))
        _slide(self.ends, trail)
        for x, (p, q) in before:
            self.adjacency[p].remove((x, q))
            self.adjacency[q].remove((x, p))
        for x in (a, b):
            p, q = self.ends[x]
            self.adjacency[p].append((x, q))
            self.adjacency[q].append((x, p))


def _nonleaf_vertices(g: Graph | _Tree) -> list[int]:
    return sorted(v for v in g.vertex_ids if g.degrees[v] > 1)


def is_caterpillar(t: Graph) -> bool:
    """True for trees whose non-leaf vertices form a path (or fewer than 2)."""
    if not t.is_tree():
        return False
    nonleaf = set(_nonleaf_vertices(t))
    for v in nonleaf:
        inner = sum(1 for _, w in t.adjacency[v] if w in nonleaf)
        if inner > 2:
            return False
    return True


def _spine(c: _Tree) -> list[int]:
    """Non-leaf vertices of a caterpillar, read from the lower-id end vertex."""
    nonleaf = set(_nonleaf_vertices(c))
    if len(nonleaf) <= 1:
        return sorted(nonleaf)
    ends = [
        v
        for v in nonleaf
        if sum(1 for _, w in c.adjacency[v] if w in nonleaf) == 1
    ]
    seq = [min(ends)]
    prev = None
    while True:
        nxt = [
            w for _, w in c.adjacency[seq[-1]] if w in nonleaf and w != prev
        ]
        if not nxt:
            return seq
        prev = seq[-1]
        seq.append(nxt[0])


def _edge_between(g: _Tree, x: int, y: int) -> int:
    cands = [e for e, w in g.adjacency[x] if w == y]
    if not cands:
        raise GraphError(f"no edge between vertices {x} and {y}")
    return min(cands)


def _lowest_leaf_edge(g: _Tree, v: int) -> int:
    # every spine vertex of a {1,3}-caterpillar carries a pendant leaf
    return min(e for e, w in g.adjacency[v] if g.degrees[w] == 1)


def _bfs_farthest(g: _Tree, src: int) -> tuple[int, dict[int, tuple[int, int]]]:
    dist = {src: 0}
    parent: dict[int, tuple[int, int]] = {}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for e, w in g.adjacency[x]:
            if w not in dist:
                dist[w] = dist[x] + 1
                parent[w] = (x, e)
                queue.append(w)
    far = max(dist.values())
    target = min(v for v, d in dist.items() if d == far)
    return target, parent


def _longest_path(g: _Tree) -> list[int]:
    x, _ = _bfs_farthest(g, min(g.vertex_ids))
    y, parent = _bfs_farthest(g, x)
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]][0])
    return path[::-1]


def _caterpillarize(g: _Tree) -> list[Trail]:
    """Moves turning tree g into a caterpillar (longest path grows each move)."""
    moves: list[Trail] = []
    while True:
        path = _longest_path(g)
        onpath = set(path)
        candidates = []
        for idx in range(1, len(path) - 1):
            u = path[idx]
            for eid, w in g.adjacency[u]:
                if w not in onpath and g.degrees[w] > 1:
                    candidates.append((eid, idx, u, w))
        if not candidates:
            break
        eid, idx, u, v = min(candidates)
        prev_e = _edge_between(g, path[idx - 1], u)
        next_e = _edge_between(g, u, path[idx + 1])
        a = min(prev_e, next_e)
        b = min(x for x, _ in g.adjacency[v] if x != eid)
        trail = Trail(a, u, eid, v, b)
        g.move(trail)
        moves.append(trail)
    return moves


def _sort_internal(g: _Tree) -> list[Trail]:
    """Sort internal edge ids into ascending order along the spine.

    An adjacent transposition takes three moves: rotate the two path edges
    around their shared vertex using a pendant leaf at each outer vertex.  The
    side effect -- one leaf swapped between the outer vertices -- is cleaned up
    later by external sorting.
    """
    moves: list[Trail] = []
    sp = _spine(g)
    if len(sp) <= 2:
        return moves
    order = [_edge_between(g, sp[i], sp[i + 1]) for i in range(len(sp) - 1)]
    changed = True
    while changed:
        changed = False
        for i in range(len(order) - 1):
            if order[i] <= order[i + 1]:
                continue
            vi, vm, vk = sp[i], sp[i + 1], sp[i + 2]
            e1, e2 = order[i], order[i + 1]
            leaf2 = _lowest_leaf_edge(g, vk)
            m1 = Trail(e1, vm, e2, vk, leaf2)
            g.move(m1)
            leaf0 = _lowest_leaf_edge(g, vi)
            m2 = Trail(e2, vk, e1, vi, leaf0)
            g.move(m2)
            m3 = Trail(e1, vi, e2, vm, leaf2)
            g.move(m3)
            moves.extend((m1, m2, m3))
            order[i], order[i + 1] = e2, e1
            changed = True
    return moves


def _sort_external(g: _Tree) -> list[Trail]:
    """Sort external edge ids ascending left-to-right along the spine."""
    sp = _spine(g)
    ext_at = [{e for e, w in g.adjacency[v] if g.degrees[w] == 1} for v in sp]
    target = sorted(set().union(*ext_at))
    moves: list[Trail] = []
    caps = [len(s) for s in ext_at]
    slices = []
    offset = 0
    for cap in caps:
        slices.append(set(target[offset : offset + cap]))
        offset += cap
    for j in range(len(sp)):
        while ext_at[j] != slices[j]:
            r = min(slices[j] - ext_at[j])
            p = next(idx for idx in range(j + 1, len(sp)) if r in ext_at[idx])
            for step in range(p, j, -1):
                u, v = sp[step - 1], sp[step]
                e = _edge_between(g, u, v)
                if step - 1 == j:
                    victim = min(ext_at[j] - slices[j])
                else:
                    victim = min(ext_at[step - 1])
                trail = Trail(victim, u, e, v, r)
                g.move(trail)
                moves.append(trail)
                ext_at[step - 1].remove(victim)
                ext_at[step - 1].add(r)
                ext_at[step].remove(r)
                ext_at[step].add(victim)
    return moves


# Bound of the canonical-form cache.  Sequences between all ordered pairs of a
# label class canonicalize each tree many times; 64 entries catch those
# repeats, while 4,096 entries raised nni-pairs' peak RSS by 12%.
_CANONICAL_CACHE_SIZE = 64


def canonical_caterpillar_sequence(t: Graph) -> tuple[list[Trail], Graph]:
    """Normalize a {1,3}-tree to the canonical labeled caterpillar of its class.

    The class is determined by (internal edge ids, external edge ids); the
    canonical form has internal ids ascending along the spine, read from its
    lower-id end vertex, and external ids ascending left-to-right.  Raises
    GraphError unless t is a tree with all degrees in {1, 3}.  Results are
    cached per exact Graph; each call returns a fresh move list.
    """
    moves, c = _canonical(t)
    return list(moves), c


@lru_cache(maxsize=_CANONICAL_CACHE_SIZE)
def _canonical(t: Graph) -> tuple[tuple[Trail, ...], Graph]:
    if not t.is_tree():
        raise GraphError("canonical caterpillars are only defined for trees")
    validate_13(t)
    g = _Tree(t)
    moves = _caterpillarize(g)
    moves += _sort_internal(g)
    moves += _sort_external(g)
    return tuple(moves), _graph(g.vertex_ids, g.ends)


def _vertex_bijection(src: Graph, dst: Graph) -> dict[int, int]:
    """Map src vertices to dst vertices by their slot multisets (trees only)."""
    sig_dst: dict[tuple[int, ...], int] = {}
    for v in dst.vertex_ids:
        sig = dst.slots(v)
        if sig in sig_dst:
            raise GraphError("ambiguous vertex signatures; not a tree?")
        sig_dst[sig] = v
    out = {}
    for v in src.vertex_ids:
        sig = src.slots(v)
        if sig not in sig_dst:
            raise GraphError("graphs do not share vertex signatures")
        out[v] = sig_dst[sig]
    return out


def _check_common_labels(a: Graph, b: Graph) -> None:
    if degree_sequence(a) != degree_sequence(b):
        raise GraphError(
            f"degree sequences differ: {degree_sequence(a)} vs {degree_sequence(b)}"
        )
    if set(a.edges) != set(b.edges):
        raise GraphError("edge label sets differ")
    ext_a, _ = classify_edges(a)
    ext_b, _ = classify_edges(b)
    if set(ext_a) != set(ext_b):
        raise GraphError(
            f"external edge sets differ: {sorted(ext_a)} vs {sorted(ext_b)}"
        )


def tree_sequence(t1: Graph, t2: Graph) -> MoveSequence:
    """Moves carrying t1 to t2 exactly (same labels; vertices up to bijection).

    Both must be {1,3}-trees with equal edge-label sets and equal external
    labels.  Each is normalized to the common canonical caterpillar; the
    second normalization is reversed, translated through the canonical forms'
    vertex bijection, and appended.
    """
    if not t1.is_tree() or not t2.is_tree():
        raise GraphError("tree_sequence expects two trees")
    _check_common_labels(t1, t2)
    if same_labeled_graph(t1, t2):
        validate_13(t1)  # unequal trees are validated as they are canonicalized
        return MoveSequence(())
    mv1, c1 = canonical_caterpillar_sequence(t1)
    mv2, c2 = canonical_caterpillar_sequence(t2)
    phi = _vertex_bijection(c2, c1)  # raises unless c1 and c2 are equal
    back = [
        Trail(t.a, phi[t.v], t.e, phi[t.u], t.b) for t in reversed(mv2)
    ]
    total = tuple(mv1 + back)
    if not same_labeled_graph(replay(t1, total), t2):
        raise GraphError("move sequence failed replay verification")
    return MoveSequence(total)


def graph_sequence(
    g1: Graph, g2: Graph, restrict_to_spanning_trees: bool = False
) -> MoveSequence:
    """Moves plus relabel carrying g1 to g2 (connected, all degrees in {1, 3}).

    Postcondition: replay(g1, seq).rename_edges(seq.relabel_map) equals g2 up
    to a vertex bijection.  The relabel permutes cut-edge labels only and is
    the identity on external edges.

    With restrict_to_spanning_trees=True, cycle edges are cut outside the
    deterministic spanning trees T1 of g1 and T2 of g2; every pivot then lies
    in T1 and is internal in g1, and its relabel image lies in T2 and is
    internal in g2.
    """
    validate_13(g1)
    validate_13(g2)
    if not g1.is_connected() or not g2.is_connected():
        raise GraphError("graph_sequence expects connected graphs")
    _check_common_labels(g1, g2)
    f1 = spanning_tree(g1) if restrict_to_spanning_trees else frozenset()
    f2 = spanning_tree(g2) if restrict_to_spanning_trees else frozenset()
    moves, relabel = _graph_seq(g1, g2, f1, f2)
    final = replay(g1, moves).rename_edges(relabel)
    if not same_labeled_graph(final, g2):
        raise GraphError("move sequence failed replay verification")
    return MoveSequence(tuple(moves), tuple(sorted(relabel.items())))


def _graph_seq(
    a: Graph, b: Graph, fa: frozenset[int], fb: frozenset[int]
) -> tuple[list[Trail], dict[int, int]]:
    if a.is_tree():
        return list(tree_sequence(a, b).moves), {}
    ea = find_cycle_edge(a, fa)
    eb = find_cycle_edge(b, fb)
    ha, stubs = cut_edge(a, ea)
    hb, stubs_b = cut_edge(b, eb)
    if stubs != stubs_b:
        raise GraphError("edge label sets diverged during cutting")
    fresh = set(stubs)
    if ea != eb:
        # align labels: call b's cut edge by a's label in the recursion
        hb = hb.rename_edges({ea: eb})
        fb = frozenset(eb if x == ea else x for x in fb)
    sub_moves, sub_rel = _graph_seq(ha, hb, fa, fb)
    moves = []
    for t in sub_moves:
        if t.e in fresh:
            raise GraphError("internal error: pivot on a cut stub")
        aa = ea if t.a in fresh else t.a
        bb = ea if t.b in fresh else t.b
        if aa == bb:
            # both extremes are the two stubs of the cut edge: the projected
            # move only shuffles that edge's own ends -> identity
            continue
        moves.append(Trail(aa, t.u, t.e, t.v, bb))
    swap = {ea: eb, eb: ea}
    relabel = {}
    for x in a.edges:
        y = sub_rel.get(x, x)
        y = swap.get(y, y)
        if y != x:
            relabel[x] = y
    return moves, relabel
