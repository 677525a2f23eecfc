"""Exact lattice-point counting for graph inequality systems.

Three independent routes:

* count_backtracking -- pure-Python depth-first search with per-row interval
  pruning (the search iter_lattice_points expands into points).  Slow but
  straightforward; serves as the reference oracle.
* count_tree_dp -- message passing along a tree with all degrees in {1, 3};
  O(n * t^3) via int64 tensor contractions.
* count_elimination -- vertex-by-vertex tensor contraction for arbitrary
  graphs that pass validate_13 (cycles allowed); needed where backtracking is
  hopeless, e.g. quasi-polynomial extraction at t around 35.

The tensor routes evaluate the rows of polytope.KINDS on one vertex's slot
values.  Rational dilation parameters are handled exactly by clearing
denominators; all comparisons happen in integers.

Work that does not depend on the count is done once.  A graph's elimination
plan (vertex order, one einsum script per vertex, paired axes per step)
depends only on the graph, so _plan is cached per exact Graph.  The vals^3
slot indicator depends only on the dilation, kind and strictness, so every
graph shares one read-only bool tensor per (lo, hi, p, q, kind, strict);
each call casts it to the dtype it needs.  That cache holds up to
_INDICATOR_CACHE_SIZE tensors of at most _INDICATOR_CACHE_MAX bytes each
(at most 8 MiB, and far less in practice: a full quasi-polynomial sweep of a
9-edge graph holds about 0.7 MB); larger tensors are built per call, so a big
t never pins memory.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .graphs import Graph, GraphError, validate_13
from .polytope import KINDS, SIGN_PATTERNS, InequalitySystem, inequality_system

_INT64_LIMIT = 2**62


def _dilation(t, box: str) -> tuple[int, int, int, int]:
    """(p, q, lo, hi) for a dilation t = p/q: the value range lo..hi of one
    coordinate of a lattice point in the t-th dilate of a system with this box."""
    t = Fraction(t)
    if t < 0:
        raise GraphError("dilation parameter must be nonnegative")
    p, q = t.numerator, t.denominator
    hi = p // q
    return p, q, (0 if box == "nonneg" else -hi), hi


def _last_ranges(
    sys: InequalitySystem, t, strict: bool = False
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Pruned depth-first search over the lattice points of the t-th dilate.

    Yields (prefix, xlo, xhi) for every assignment prefix of all coordinates
    but the last that extends to a lattice point, in lexicographic order; its
    extensions are the values xlo..xhi of the last coordinate.  A system
    without coordinates yields ((), 0, 0) when the origin satisfies it.
    Rows are scaled by q, so every comparison is in integers; strict=True
    lowers every right-hand side by one, which in integers is strictness.
    """
    p, q, lo, hi = _dilation(t, sys.box)
    coeff = [tuple(c * q for c in coeffs) for coeffs, _, _ in sys.rows]
    rhs = [alpha * p + beta * q - int(strict) for _, alpha, beta in sys.rows]
    m = len(sys.edge_order)
    if m == 0:
        if all(r >= 0 for r in rhs):
            yield (), 0, 0
        return

    nrows = len(rhs)
    # minrest[j][r]: smallest possible contribution of variables j.. to row r
    minrest = [[0] * nrows for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        for r in range(nrows):
            c = coeff[r][j]
            minrest[j][r] = minrest[j + 1][r] + min(c * lo, c * hi)

    def descend(
        j: int, prefix: tuple[int, ...], partial: list[int]
    ) -> Iterator[tuple[tuple[int, ...], int, int]]:
        xlo, xhi = lo, hi
        for r in range(nrows):
            c = coeff[r][j]
            room = rhs[r] - partial[r] - minrest[j + 1][r]
            if c > 0:
                xhi = min(xhi, room // c)
            elif c < 0:
                xlo = max(xlo, -(room // (-c)))
            elif room < 0:
                return
        if xlo > xhi:
            return
        if j == m - 1:
            yield prefix, xlo, xhi
            return
        for x in range(xlo, xhi + 1):
            yield from descend(
                j + 1, prefix + (x,), [partial[r] + coeff[r][j] * x for r in range(nrows)]
            )

    yield from descend(0, (), [0] * nrows)


def count_backtracking(sys: InequalitySystem, t, strict: bool = False) -> int:
    """Count lattice points of the t-th dilate by pruned depth-first search.

    strict=True counts the strict interior (every row satisfied strictly).
    """
    return sum(xhi - xlo + 1 for _, xlo, xhi in _last_ranges(sys, t, strict))


def iter_lattice_points(sys: InequalitySystem, t) -> Iterator[tuple[int, ...]]:
    """Yield the lattice points of the t-th dilate in lexicographic order."""
    m = len(sys.edge_order)
    for prefix, xlo, xhi in _last_ranges(sys, t):
        for x in range(xlo, xhi + 1):
            yield prefix + (x,) if m else ()


# -- local indicator ----------------------------------------------------------


# Bounds of the indicator cache.  One sweep of a census graph (its
# quasi-polynomial, h*, reflexivity and semi-reflexive counts) and the prism's
# quasi-polynomial each visit fewer than 64 distinct dilations, and
# quasi_polynomial visits them in a cycle, so the cache must hold a whole
# sweep or it misses on every call.  Tensors above _INDICATOR_CACHE_MAX bytes
# (len(vals) > 40: membership t >= 40, reflexive t >= 20) are not cached.
_INDICATOR_CACHE_SIZE = 128
_INDICATOR_CACHE_MAX = 2**16


def _slot_indicator(
    vals: np.ndarray, p: int, q: int, kind: str, strict: bool, dtype
) -> np.ndarray:
    """0/1 tensor over vals^3: the rows of KINDS[kind] for one vertex, on its
    three slot values, at the dilation p/q.  vals is the range lo..hi.

    A vertex whose slots repeat an edge (a loop) takes the diagonal of this
    tensor, so one tensor serves every degree-3 vertex of a graph.  Each call
    returns a fresh array of the given dtype.
    """
    key = (int(vals[0]), int(vals[-1]), p, q, kind, strict)
    if len(vals) ** 3 > _INDICATOR_CACHE_MAX:
        return _bool_indicator(*key).astype(dtype)
    return _shared_indicator(*key).astype(dtype)


def _bool_indicator(
    lo: int, hi: int, p: int, q: int, kind: str, strict: bool
) -> np.ndarray:
    bounds, _ = KINDS[kind]
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    slots = (q * vals[:, None, None], q * vals[None, :, None], q * vals[None, None, :])
    ind = np.ones((len(vals),) * 3, dtype=bool)
    for pattern, (alpha, beta) in zip(SIGN_PATTERNS, bounds):
        row = sum(sign * x for sign, x in zip(pattern, slots))
        bound = alpha * p + beta * q
        ind &= (row < bound) if strict else (row <= bound)
    return ind


@lru_cache(maxsize=_INDICATOR_CACHE_SIZE)
def _shared_indicator(
    lo: int, hi: int, p: int, q: int, kind: str, strict: bool
) -> np.ndarray:
    """_bool_indicator, cached and read-only: every caller shares it."""
    ind = _bool_indicator(lo, hi, p, q, kind, strict)
    ind.flags.writeable = False
    return ind


# -- tree dynamic programming -------------------------------------------------


def count_tree_dp(g: Graph, t) -> int:
    """Exact count for a {1,3}-tree by message passing toward a root vertex.

    Each edge e carries a table M_e[x] = number of valid assignments of the
    subtree hanging below e when e takes value x; an internal vertex combines
    its two child tables through the local indicator tensor.
    """
    validate_13(g)
    if not g.is_tree():
        raise GraphError("count_tree_dp expects a tree")
    p, q, lo, hi = _dilation(t, KINDS["membership"][1])
    if (hi - lo + 1) ** len(g.edges) >= _INT64_LIMIT:
        raise GraphError("count too large for int64 message passing")
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    ind = _slot_indicator(vals, p, q, "membership", False, np.int64)
    internal = [v for v in sorted(g.vertex_ids) if g.degrees[v] == 3]
    root = internal[0]

    order: list[tuple[int, int | None]] = []
    stack: list[tuple[int, int | None]] = [(root, None)]
    while stack:
        v, pe = stack.pop()
        order.append((v, pe))
        for e in g.slots(v):
            if e == pe:
                continue
            w = g.other_end(e, v)
            if g.degrees[w] == 3:
                stack.append((w, e))

    up: dict[int, np.ndarray] = {}
    ones = np.ones(len(vals), dtype=np.int64)

    def child_table(v: int, e: int) -> np.ndarray:
        w = g.other_end(e, v)
        return ones if g.degrees[w] == 1 else up[e]

    for v, pe in reversed(order):
        children = [e for e in g.slots(v) if e != pe]
        tables = [child_table(v, e) for e in children]
        if pe is None:
            total = np.einsum("ijk,i,j,k->", ind, *tables)
            return int(total)
        up[pe] = np.einsum("pij,i,j->p", ind, *tables)
    raise AssertionError("unreachable")


# -- vertex elimination for general graphs ------------------------------------


def _contract(
    frontier: np.ndarray, tensor: np.ndarray, shared: tuple[list[int], list[int]]
) -> np.ndarray:
    """Sum frontier x tensor over the paired axes in ``shared``.

    The result keeps the unpaired frontier axes, then the unpaired tensor
    axes, as np.tensordot orders them.  tensordot copies an operand whose
    summed axes are not contiguous; when the result is smaller than the
    frontier, the contraction runs in slabs along the first kept frontier
    axis, so each copy is one slab and the peak stays near the frontier's
    size.
    """
    f_shared, t_shared = shared
    kept = [k for k in range(frontier.ndim) if k not in f_shared]
    new_ndim = tensor.ndim - len(t_shared)
    if not kept or new_ndim >= len(f_shared):
        return np.tensordot(frontier, tensor, axes=shared)
    k0 = kept[0]
    slab_shared = [k - (k > k0) for k in f_shared]
    out_shape = [frontier.shape[k] for k in kept] + [
        n for k, n in enumerate(tensor.shape) if k not in t_shared
    ]
    out = np.empty(out_shape, dtype=frontier.dtype)
    for i, slab in enumerate(np.moveaxis(frontier, k0, 0)):
        out[i] = np.tensordot(slab, tensor, axes=(slab_shared, t_shared))
    return out


# Bound of the plan cache, as nni's canonical-form cache: the counts of one
# graph (a quasi-polynomial's dilations, then h*, reflexivity and
# semi-reflexive checks) come together, so a small cache catches them.
_PLAN_CACHE_SIZE = 64

# One elimination step: the einsum script that takes a vertex's tensor from
# the slot indicator, and the (frontier axes, tensor axes) it pairs.
_Step = tuple[str, tuple[tuple[int, ...], tuple[int, ...]]]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(g: Graph) -> tuple[_Step, ...]:
    """The elimination steps of g: one per degree-3 vertex, in greedy order.

    The next vertex is the one that leaves the fewest open edges on the
    frontier, ties broken by vertex id.  An edge stays open until every
    degree-3 endpoint has been processed; edges whose only degree-3 endpoint
    is the vertex itself (pendants, loops) are summed out in its script.
    """
    owners: dict[int, set[int]] = {}
    for e, u, w in g.edge_list:
        owners[e] = {x for x in (u, w) if g.degrees[x] == 3}

    def open_axes(v: int) -> list[int]:
        return [e for e in g.incident_edges(v) if owners[e] != {v}]

    def vertex_script(v: int) -> str:
        # slot letters repeat for a loop (diagonal)
        slots = g.slots(v)
        letter = {e: "abc"[i] for i, e in enumerate(dict.fromkeys(slots))}
        return (
            "".join(letter[e] for e in slots)
            + "->"
            + "".join(letter[e] for e in open_axes(v))
        )

    remaining = [v for v in sorted(g.vertex_ids) if g.degrees[v] == 3]
    frontier_axes: list[int] = []
    processed: set[int] = set()

    def frontier_growth(v: int) -> int:
        new = set(frontier_axes) | set(open_axes(v))
        return sum(1 for e in new if not owners[e] <= processed | {v})

    steps: list[_Step] = []
    while remaining:
        best = min(remaining, key=lambda v: (frontier_growth(v), v))
        remaining.remove(best)
        axes = open_axes(best)
        processed.add(best)
        # an edge on both sides has both endpoints processed now: it closes
        shared = (
            tuple(k for k, e in enumerate(frontier_axes) if e in axes),
            tuple(axes.index(e) for e in frontier_axes if e in axes),
        )
        steps.append((vertex_script(best), shared))
        frontier_axes = [e for e in frontier_axes if e not in axes] + [
            e for e in axes if e not in frontier_axes
        ]

    if frontier_axes:
        raise AssertionError("unclosed axes after processing all vertices")
    return tuple(steps)


def _eliminate(g: Graph, ind: np.ndarray) -> int:
    """Contract g's network, one copy of ind per degree-3 vertex, by its plan."""
    frontier = np.ones((), dtype=ind.dtype)
    for script, shared in _plan(g):
        frontier = _contract(frontier, np.einsum(script, ind), shared)
    return int(frontier)


def count_elimination(
    g: Graph, t, kind: str = "membership", strict: bool = False
) -> int:
    """Count lattice points of the t-th dilate by vertex-by-vertex contraction.

    kind="membership" counts the graph polytope; kind="reflexive" counts the
    dilates of the reflexive candidate (variables range over [-t, t]).
    strict=True counts strict interiors.  Works for any graph accepted by
    validate_13, including graphs with loops, parallel edges and cycles.

    Each step is one tensor contraction run by BLAS in float64, which is
    exact here: a frontier entry counts the assignments of the edges closed
    so far, so it is a nonnegative integer of at most len(vals)**m, and every
    partial sum of nonnegative products is bounded by its final entry.  While
    len(vals)**m < 2**53 every intermediate value is therefore an integer
    that float64 represents exactly.  From 2**53 up to the int64 limit the
    same contraction runs on int64 arrays; beyond it the count is refused.
    """
    validate_13(g)
    if kind not in KINDS:
        raise GraphError(f"unknown system kind {kind!r}")
    p, q, lo, hi = _dilation(t, KINDS[kind][1])
    bound = (hi - lo + 1) ** len(g.edges)
    if bound >= _INT64_LIMIT:
        raise GraphError("count too large for int64 contraction")
    dtype = np.float64 if bound < 2**53 else np.int64
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    return _eliminate(g, _slot_indicator(vals, p, q, kind, strict, dtype))


def count_points(g: Graph, t, method: str = "auto") -> int:
    """Count lattice points of the graph polytope's t-th dilate."""
    if method == "auto":
        method = "tree-dp" if g.is_tree() else "elimination"
    if method == "tree-dp":
        return count_tree_dp(g, t)
    if method == "elimination":
        return count_elimination(g, t, kind="membership")
    if method == "backtracking":
        return count_backtracking(inequality_system(g), t)
    raise GraphError(f"unknown counting method {method!r}")
