"""Undirected multigraphs with labeled edges, plus the degree-{1,3} toolkit.

Loops and parallel edges are first-class: a loop contributes 2 to the degree
of its vertex and occupies two of its slots.  Graphs are immutable; every
operation returns a new Graph.

A Graph's maps (incidence, edge ids, adjacency, degrees, slots, components)
are built lazily, once per instance, and cached without a lock.  A move
(nni.replay) hands the Graph it builds the maps it already knows: its edge
ends, its source's degrees and edge ids, and its source's slot map with only
the touched vertices' entries replaced.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping


class GraphError(ValueError):
    """Raised for malformed graphs, bad input files, or violated preconditions."""


class _cached:
    """A lazily computed attribute, stored in the instance's __dict__ on first
    access; later reads find it there and skip this descriptor.  Unlike
    CPython 3.11's functools.cached_property it takes no lock (3.12 dropped
    the lock too).  A value may be placed in __dict__ before first access."""

    def __init__(self, func: Callable):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Graph:
    """Multigraph with integer vertex ids and integer edge labels.

    ``edge_list`` holds ``(edge_id, u, v)`` triples with ``u <= v``, sorted by
    edge id.  ``vertex_ids`` may include vertices beyond the edge endpoints
    (they show up as isolated vertices and are rejected by validate_13).
    """

    vertex_ids: frozenset[int]
    edge_list: tuple[tuple[int, int, int], ...]

    # -- basic accessors ---------------------------------------------------

    @_cached
    def incidence(self) -> dict[int, tuple[int, int]]:
        return {e: (u, v) for e, u, v in self.edge_list}

    @_cached
    def edges(self) -> tuple[int, ...]:
        return tuple(e for e, _, _ in self.edge_list)

    @_cached
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """vertex -> tuple of (edge_id, other_end), sorted by edge id.

        A loop at v appears once, as (edge_id, v).
        """
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertex_ids}
        for e, u, v in self.edge_list:
            if u == v:
                adj[u].append((e, u))
            else:
                adj[u].append((e, v))
                adj[v].append((e, u))
        return {v: tuple(sorted(pairs)) for v, pairs in adj.items()}

    @_cached
    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertex_ids}
        for e, u, v in self.edge_list:
            deg[u] += 1
            deg[v] += 1  # a loop hits the same vertex twice
        return deg

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self.incidence[e]
        except KeyError:
            raise GraphError(f"no edge with id {e}") from None

    @_cached
    def _slot_map(self) -> dict[int, tuple[int, ...]]:
        """vertex -> sorted multiset of its edge ids, built in one pass."""
        out: dict[int, list[int]] = {v: [] for v in self.vertex_ids}
        for e, a, b in self.edge_list:
            out[a].append(e)
            out[b].append(e)  # a loop lands twice at the same vertex
        return {v: tuple(sorted(es)) for v, es in out.items()}

    def slots(self, v: int) -> tuple[int, ...]:
        """Edge ids at v as a sorted multiset; a loop appears twice."""
        try:
            return self._slot_map[v]
        except KeyError:
            raise GraphError(f"no vertex with id {v}") from None

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Distinct edge ids at v, sorted (a loop appears once)."""
        return tuple(dict.fromkeys(self.slots(v)))

    def other_end(self, e: int, v: int) -> int:
        u, w = self.endpoints(e)
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"edge {e} is not incident to vertex {v}")

    # -- structure ---------------------------------------------------------

    @_cached
    def components(self) -> tuple[frozenset[int], ...]:
        """Vertex sets of the connected components, by their lowest vertex."""
        remaining = set(self.vertex_ids)
        out = []
        while remaining:
            start = min(remaining)
            seen = {start}
            queue = deque([start])
            while queue:
                for _, w in self.adjacency[queue.popleft()]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            out.append(frozenset(seen))
            remaining -= seen
        return tuple(out)

    def is_connected(self) -> bool:
        return len(self.vertex_ids) <= 1 or len(self.components) == 1

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edge_list) == len(self.vertex_ids) - 1

    def cycle_rank(self) -> int:
        return len(self.edge_list) - len(self.vertex_ids) + len(self.components)

    # -- rebuilding --------------------------------------------------------

    def rename_edges(self, mapping: Mapping[int, int]) -> "Graph":
        """Relabel edges: id x becomes mapping[x] (ids not in mapping keep their id)."""
        new_ids = [mapping.get(e, e) for e, _, _ in self.edge_list]
        if len(set(new_ids)) != len(new_ids):
            raise GraphError(f"edge rename is not injective: {dict(mapping)}")
        new_list = sorted(
            (mapping.get(e, e), u, v) for e, u, v in self.edge_list
        )
        return Graph(self.vertex_ids, tuple(new_list))


def make_graph(
    edges: Iterable[tuple[int, int, int]], vertices: Iterable[int] = ()
) -> Graph:
    """Build a Graph from (edge_id, u, v) triples; extra vertex ids may be passed."""
    edge_list = []
    seen_ids = set()
    vs = set(vertices)
    for e, u, v in edges:
        if e in seen_ids:
            raise GraphError(f"duplicate edge id {e}")
        seen_ids.add(e)
        edge_list.append((e, min(u, v), max(u, v)))
        vs.add(u)
        vs.add(v)
    return Graph(frozenset(vs), tuple(sorted(edge_list)))


# -- text format -----------------------------------------------------------
#
#   # comment
#   v 4
#   e 1 1 2
#
# One "v" line declaring the number of vertices (ids 1..n), then one "e" line
# per edge: id, endpoint, endpoint.  Edge ids must be exactly 1..m.


def parse_graph(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if n is not None:
                raise GraphError(f"line {lineno}: repeated vertex-count line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphError(f"line {lineno}: expected 'v <count>'")
            n = int(parts[1])
            if n < 1:
                raise GraphError(f"line {lineno}: vertex count must be positive")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge line before vertex-count line")
            if len(parts) != 4:
                raise GraphError(f"line {lineno}: expected 'e <id> <u> <v>'")
            try:
                e, u, v = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer field") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"line {lineno}: endpoint outside 1..{n}")
            edges.append((e, u, v))
        else:
            raise GraphError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise GraphError("missing 'v <count>' line")
    ids = sorted(e for e, _, _ in edges)
    if ids != list(range(1, len(edges) + 1)):
        raise GraphError(f"edge ids must be exactly 1..{len(edges)}, got {ids}")
    return make_graph(edges, vertices=range(1, n + 1))


def format_graph(g: Graph) -> str:
    if g.vertex_ids != frozenset(range(1, len(g.vertex_ids) + 1)):
        raise GraphError("text format requires vertex ids 1..n")
    lines = [f"v {len(g.vertex_ids)}"]
    lines += [f"e {e} {u} {v}" for e, u, v in g.edge_list]
    return "\n".join(lines) + "\n"


# -- degree-{1,3} specifics --------------------------------------------------


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """All vertex degrees, sorted descending."""
    return tuple(sorted(g.degrees.values(), reverse=True))


def validate_13(g: Graph) -> None:
    """Check that every degree is 1 or 3 and every edge touches a degree-3 vertex.

    Raises GraphError otherwise.  A connected component consisting of a single
    edge between two leaves is rejected explicitly: its edge is unconstrained,
    so the associated polytope would be unbounded.
    """
    for v in sorted(g.vertex_ids):
        d = g.degrees[v]
        if d not in (1, 3):
            raise GraphError(f"vertex {v} has degree {d}; degrees must be 1 or 3")
    for e, u, v in g.edge_list:
        if g.degrees[u] != 3 and g.degrees[v] != 3:
            raise GraphError(
                f"edge {e} joins two degree-1 vertices; "
                "every edge must touch a degree-3 vertex"
            )


def classify_edges(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split edge ids into (external, internal).

    External edges touch a degree-1 vertex; internal edges (loops included)
    have both endpoints of degree >= 2.
    """
    ext, internal = [], []
    for e, u, v in g.edge_list:
        if g.degrees[u] == 1 or g.degrees[v] == 1:
            ext.append(e)
        else:
            internal.append(e)
    return tuple(ext), tuple(internal)


def same_labeled_graph(a: Graph, b: Graph) -> bool:
    """True if some vertex bijection maps a onto b with edge labels fixed.

    Edge labels must match exactly; vertex ids need not.  Works on multigraphs:
    two vertices can share a slot multiset only if they are the two ends of a
    bundle of parallel edges, in which case they are interchangeable, so
    comparing the multiset of per-vertex slot multisets decides equality.
    """
    if set(a.edges) != set(b.edges):
        return False
    return sorted(a._slot_map.values()) == sorted(b._slot_map.values())


# -- trees, cycles, cutting --------------------------------------------------


def spanning_tree(g: Graph) -> frozenset[int]:
    """Edge ids of the depth-first spanning tree from the lowest vertex.

    Deterministic: at each vertex, incident edges are explored in ascending
    edge-id order.  Every pendant edge is included.  Raises on disconnected
    input.
    """
    if not g.is_connected():
        raise GraphError("spanning tree of a disconnected graph")
    root = min(g.vertex_ids)
    visited = {root}
    tree: set[int] = set()
    stack = [root]
    while stack:
        v = stack.pop()
        for e, w in g.adjacency[v]:
            if w not in visited:
                visited.add(w)
                tree.add(e)
                stack.append(w)
    return frozenset(tree)


def on_cycle(g: Graph, e: int) -> bool:
    """True if edge e lies on some cycle (loops always do)."""
    u, v = g.endpoints(e)
    if u == v:
        return True
    # e is on a cycle iff u and v stay connected after deleting this copy of e
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for eid, w in g.adjacency[x]:
            if eid == e and {x, w} == {u, v}:
                continue
            if w not in seen:
                if w == v:
                    return True
                seen.add(w)
                queue.append(w)
    return False


def find_cycle_edge(g: Graph, forbidden: frozenset[int] = frozenset()) -> int:
    """Lowest edge id outside ``forbidden`` that lies on a cycle."""
    for e in g.edges:
        if e not in forbidden and on_cycle(g, e):
            return e
    raise GraphError("no cycle edge available outside the forbidden set")


def cut_edge(g: Graph, e: int) -> tuple[Graph, tuple[int, int]]:
    """Sever cycle edge e into two pendant stubs.

    Edge e = {u, v} is removed and replaced by fresh external edges
    M+1 = (u, new leaf) and M+2 = (v, new leaf), where M is the current
    maximum edge id.  For a loop both stubs attach to the loop vertex.
    Degrees are preserved at u and v; the cycle rank drops by one.  Returns
    the cut graph and the stub ids (M+1, M+2).
    """
    if not on_cycle(g, e):
        raise GraphError(f"edge {e} is not on a cycle; cutting would disconnect")
    u, v = g.endpoints(e)
    m = max(g.edges, default=0)
    nv = max(g.vertex_ids, default=0)
    e1, e2 = m + 1, m + 2
    l1, l2 = nv + 1, nv + 2
    edges = [(eid, a, b) for eid, a, b in g.edge_list if eid != e]
    edges.append((e1, u, l1))
    edges.append((e2, v, l2))
    h = make_graph(edges, vertices=g.vertex_ids | {l1, l2})
    return h, (e1, e2)
