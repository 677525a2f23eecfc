"""Exact lattice-point counting for graph inequality systems.

One tensor route and its oracle:

* count_elimination -- contraction of the graph's tensor network for any
  graph that passes validate_13 (cycles allowed); needed where backtracking
  is hopeless, e.g. quasi-polynomial extraction, whose closed and strict
  counts reach t around 20 on 9-edge graphs.
  count_tree_dp is its entry point for {1,3}-trees, on which contracting
  leaves first is message passing.
* count_backtracking -- pure-Python depth-first search with per-row interval
  pruning (the search iter_lattice_points expands into points).  Slow but
  straightforward; serves as the independent reference oracle.

The tensor route evaluates the rows of polytope.KINDS on one vertex's slot
values.  Rational dilation parameters are handled exactly by clearing
denominators; all comparisons happen in integers.

count_elimination runs a contraction tree: each leaf is one degree-3
vertex's copy of the slot indicator (pendants and loops summed in), each
internal node one pairwise contraction of its children.  The tree comes from
an exact DP over subsets of the degree-3 vertices (the narrowest widest
intermediate, then the fewest flops) while there are at most
_DP_MAX_VERTICES of them, and from a greedy rule beyond.  A tree's widest
intermediate is governed by treewidth, where a linear frontier's is at least
the cutwidth of its vertex order: 4 against 5 axes on K3,3, 4 against 11 on
the 10-prism.  A shrinking contraction whose first operand has at least
_SLAB_MIN_ENTRIES entries runs in slabs, which keeps its copies small;
smaller ones run in one call.  Contractions are float64 BLAS products, exact
while len(vals)**m < 2**53 and, beyond, whenever every step's largest entry
stays below 2**53 (checked after the fact); otherwise the count reruns in
int64 or is refused.  A plan whose tensors held at once (the indicator, the
stack, a step's result and tensordot's copies) would exceed _TENSOR_BUDGET
bytes is refused before anything is allocated.

Work that does not depend on the count is done once.  A graph's contraction
plan (the tree in postorder, one einsum script per vertex, paired axes per
contraction) depends only on the graph, so _plan is cached per exact Graph.
The vals^3 slot indicator depends only on the dilation, kind and strictness,
so every graph shares one read-only bool tensor per (lo, hi, p, q, kind,
strict); each call takes a float64 copy.  That cache holds up to
_INDICATOR_CACHE_SIZE tensors of at most _INDICATOR_CACHE_MAX bytes each
(at most 8 MiB, and far less in practice: a full quasi-polynomial sweep of a
9-edge graph holds 44 tensors, about 0.14 MB in all); larger tensors are
built per call, so a big t never pins memory.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import le
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .graphs import Graph, GraphError, validate_13
from .polytope import KINDS, SIGN_PATTERNS, InequalitySystem, inequality_system

# Bounds of exact float64 arithmetic and of the int64 rerun: every tensor
# entry counts at most len(vals)**m assignments.
_FLOAT_EXACT = 2**53
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


# The most bytes the 8-byte tensors of count_elimination may hold at once:
# every set of tensors its plan holds together, the vals^3 indicator
# included, is checked against it before anything is allocated.
_TENSOR_BUDGET = 2**31


def _check_budget(n_vals: int, peaks: tuple[tuple[int, ...], ...]) -> None:
    """Refuse when some set of tensors held at once, given by their numbers
    of axes over n_vals values, would take more than _TENSOR_BUDGET bytes."""
    need = 8 * max(sum(n_vals**rank for rank in ranks) for ranks in peaks)
    if need > _TENSOR_BUDGET:
        raise GraphError(
            f"count too large for memory: its tensors would take {need} bytes "
            f"at once, over the {_TENSOR_BUDGET >> 30} GiB budget"
        )


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


# Bounds of the indicator cache.  Strict keys share it with closed ones: the
# prism's quasi-polynomial visits 44 keys (closed t <= 22, strict s <= 21), a
# whole census-7 pass (quasi-polynomials, h*, reflexivity and semi-reflexive
# counts of all 28 graphs) 59, and quasi_polynomial visits them in a cycle,
# so the cache must hold a whole sweep or it misses on every call.  Tensors
# above _INDICATOR_CACHE_MAX bytes (len(vals) > 40: membership t >= 40,
# reflexive t >= 20) are not cached.
_INDICATOR_CACHE_SIZE = 128
_INDICATOR_CACHE_MAX = 2**16


def _slot_indicator(
    vals: np.ndarray, p: int, q: int, kind: str, strict: bool
) -> np.ndarray:
    """0/1 tensor over vals^3: the rows of KINDS[kind] for one vertex, on its
    three slot values, at the dilation p/q.  vals is the range lo..hi.

    A vertex whose slots repeat an edge (a loop) takes the diagonal of this
    tensor, so one tensor serves every degree-3 vertex of a graph.  Each call
    returns a fresh float64 array.
    """
    key = (int(vals[0]), int(vals[-1]), p, q, kind, strict)
    if len(vals) ** 3 > _INDICATOR_CACHE_MAX:
        return _bool_indicator(*key).astype(np.float64)
    return _shared_indicator(*key).astype(np.float64)


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


# Building the indicator holds an int64 vals^3 row sum beside the bool tensor,
# and casting it holds the bool tensor beside the cast: at most two 8-byte
# vals^3 tensors at once.
_INDICATOR_PEAK = (3, 3)


# -- contraction-tree elimination for general graphs ---------------------------


# _contract slabs a shrinking step only when its first operand has at least
# this many entries.  Smaller operands are copied whole by one tensordot call,
# which costs less than a loop of slab calls; from here up, slabs keep the
# peak near the operand's size (measured in BENCH_13.json).
_SLAB_MIN_ENTRIES = 2**16


def _contract(
    frontier: np.ndarray, tensor: np.ndarray, shared: tuple[list[int], list[int]]
) -> np.ndarray:
    """Sum frontier x tensor over the paired axes in ``shared``.

    The result keeps the unpaired frontier axes, then the unpaired tensor
    axes, as np.tensordot orders them.  tensordot copies an operand whose
    summed axes are not contiguous; when the result has fewer axes than the
    frontier and the frontier has at least _SLAB_MIN_ENTRIES entries, the
    contraction runs in slabs along the first kept frontier axis, so each copy
    is one slab and the peak stays near the frontier's size.
    """
    f_shared, t_shared = shared
    kept = [k for k in range(frontier.ndim) if k not in f_shared]
    new_ndim = tensor.ndim - len(t_shared)
    if not kept or new_ndim >= len(f_shared) or frontier.size < _SLAB_MIN_ENTRIES:
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

# Plans of graphs with at most this many degree-3 vertices come from the
# exact subset DP, whose cost grows as 3**n; larger graphs use the greedy
# rule, whose cost grows as n**3.
_DP_MAX_VERTICES = 10

# The DP weighs a step over k distinct edges as _PLAN_VALUES**k flops, a
# mid-range dilation; this only orders trees of equal widest intermediate.
_PLAN_VALUES = 32

# A contraction tree as a list of merges: leaves are nodes 0..n-1, and merge
# k, a pair of earlier nodes, is node n + k.
_Merges = list[tuple[int, int]]


class _Plan(NamedTuple):
    """A contraction tree in postorder, the most axes any of its tensors has,
    and the sets of tensors a run may hold at once that can be the largest,
    each as its tensors' numbers of axes (the indicator included).  A str step pushes one degree-3
    vertex's tensor (an einsum script on the slot indicator); a pair (first
    axes, second axes) pops two tensors and pushes their _contract over those
    paired axes."""

    steps: tuple[str | tuple[tuple[int, ...], tuple[int, ...]], ...]
    widest: int
    peaks: tuple[tuple[int, ...], ...]


def _leaves(g: Graph) -> list[tuple[str, list[int]]]:
    """(einsum script, open edges) of each degree-3 vertex, by vertex id.

    An edge stays open until both its degree-3 endpoints are merged; an edge
    whose only degree-3 endpoint is the vertex itself (a pendant, a loop) is
    summed out in its script, and a loop takes the indicator's diagonal.
    """
    owners = {
        e: {x for x in (u, w) if g.degrees[x] == 3} for e, u, w in g.edge_list
    }
    leaves = []
    for v in sorted(g.vertex_ids):
        if g.degrees[v] != 3:
            continue
        axes = [e for e in g.incident_edges(v) if owners[e] != {v}]
        slots = g.slots(v)
        letter = {e: "abc"[i] for i, e in enumerate(dict.fromkeys(slots))}
        script = "".join(letter[e] for e in slots) + "->"
        leaves.append((script + "".join(letter[e] for e in axes), axes))
    return leaves


def _dp_tree(masks: list[int]) -> _Merges:
    """The tree with the narrowest widest intermediate, then the fewest flops.

    masks[i] is the bit set of leaf i's open edges.  An open edge joins two
    leaves, so the open edges of a set of leaves are the XOR of their masks.
    A first pass over every split of every subset finds the narrowest widest
    intermediate; a second finds the fewest flops under that width.
    """
    n = len(masks)
    full = (1 << n) - 1
    open_ = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        open_[s] = open_[s ^ low] ^ masks[low.bit_length() - 1]
    rank = [x.bit_count() for x in open_]

    def splits(s: int) -> Iterator[int]:
        # the parts containing s's lowest leaf, s itself excluded
        low = s & -s
        rest = sub = s ^ low
        while sub:
            sub = (sub - 1) & rest
            yield low | sub

    width = rank[:]
    for s in range(1, full + 1):
        if s & (s - 1):
            width[s] = max(rank[s], min(max(width[a], width[s ^ a]) for a in splits(s)))

    cap = width[full]
    flops = [_PLAN_VALUES**k for k in range(max(rank) * 2 + 1)]
    cost = [0.0 if x <= cap else float("inf") for x in rank]
    split = [0] * (full + 1)
    for s in range(1, full + 1):
        if s & (s - 1) and rank[s] <= cap:
            cost[s], split[s] = min(
                (cost[a] + cost[b] + flops[(open_[a] | open_[b]).bit_count()], a)
                for a in splits(s)
                for b in (s ^ a,)
            )

    merges: _Merges = []

    def build(s: int) -> int:
        if not s & (s - 1):
            return s.bit_length() - 1
        a = split[s]
        merges.append((build(a), build(s ^ a)))
        return n + len(merges) - 1

    if n:
        build(full)
    return merges


def _greedy_tree(masks: list[int]) -> _Merges:
    """Repeatedly merge the two adjacent tensors whose result has the fewest
    open edges (ties: fewer edges in the step, then lowest node ids); tensors
    that share no edge are merged only when no adjacent pair is left."""
    live = dict(enumerate(masks))
    merges: _Merges = []
    while len(live) > 1:
        *_, i, j = min(
            (not live[i] & live[j], (live[i] ^ live[j]).bit_count(),
             (live[i] | live[j]).bit_count(), i, j)
            for i, j in combinations(live, 2)
        )
        live[len(masks) + len(merges)] = live.pop(i) ^ live.pop(j)
        merges.append((i, j))
    return merges


def _build_plan(g: Graph, tree: Callable[[list[int]], _Merges]) -> _Plan:
    """Compile the tree that ``tree`` (_dp_tree or _greedy_tree) finds for g.

    Of each merge, the child with more axes is computed first and becomes
    _contract's first operand, the one it slabs.  While a contraction runs,
    the run holds the indicator, the stack (both operands included) and the
    result, and tensordot may copy each operand; a slabbed step also holds
    one slab's product.  Those sets of tensors are the plan's peaks.
    """
    leaves = _leaves(g)
    bit = {e: 1 << k for k, e in enumerate(g.edges)}
    masks = [sum(bit[e] for e in axes) for _, axes in leaves]
    merges = tree(masks)
    for i, j in merges:
        masks.append(masks[i] ^ masks[j])
    steps: list = []
    widest = 0
    held = [3]  # the float64 indicator, then the stack
    peaks = {_INDICATOR_PEAK}

    def emit(node: int) -> list[int]:
        nonlocal widest
        if node < len(leaves):
            script, axes = leaves[node]
            steps.append(script)
            peaks.add((*held, len(axes)))
        else:
            pair = merges[node - len(leaves)]
            first, second = sorted(pair, key=lambda k: -masks[k].bit_count())
            a, b = emit(first), emit(second)
            steps.append((
                tuple(k for k, e in enumerate(a) if e in b),
                tuple(b.index(e) for e in a if e in b),
            ))
            axes = [e for e in a if e not in b] + [e for e in b if e not in a]
            peaks.add((*held, len(a), len(b), len(axes), len(axes)))
            del held[-2:]
        held.append(len(axes))
        widest = max(widest, len(axes))
        return axes

    if leaves:
        emit(len(masks) - 1)
    # a set no larger, axis for axis, than another set is never the peak
    peaks = {tuple(sorted(p, reverse=True)) for p in peaks}
    peaks = {
        p for p in peaks
        if not any(p != q and len(p) <= len(q) and all(map(le, p, q)) for q in peaks)
    }
    return _Plan(tuple(steps), widest, tuple(sorted(peaks)))


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(g: Graph) -> _Plan:
    """g's contraction tree: exact DP while g is small, the greedy rule beyond.

    On the benchmark's cubic graphs both give the same widest intermediate
    and nearly the same flops, yet the DP's trees run faster: the prism's
    quasi-polynomial takes 0.66 s against 0.91 s (BENCH_13.json).
    """
    n = sum(1 for v in g.vertex_ids if g.degrees[v] == 3)
    return _build_plan(g, _dp_tree if n <= _DP_MAX_VERTICES else _greedy_tree)


def _eliminate(g: Graph, ind: np.ndarray, limit: int | None = None) -> int | None:
    """Contract g's network, one copy of ind per degree-3 vertex, by its plan.

    With a limit, returns None as soon as a contraction's largest entry
    reaches it.
    """
    stack: list[np.ndarray] = []
    for step in _plan(g).steps:
        if isinstance(step, str):
            stack.append(np.einsum(step, ind))
            continue
        second = stack.pop()
        out = _contract(stack.pop(), second, step)
        if limit is not None and out.max() >= limit:
            return None
        stack.append(out)
    return int(stack.pop()) if stack else 1


def count_elimination(
    g: Graph, t, kind: str = "membership", strict: bool = False
) -> int:
    """Count lattice points of the t-th dilate by contracting g's network.

    kind="membership" counts the graph polytope; kind="reflexive" counts the
    dilates of the reflexive candidate (variables range over [-t, t]).
    strict=True counts strict interiors.  Works for any graph accepted by
    validate_13, including graphs with loops, parallel edges and cycles.

    Each step of the plan is one tensor contraction run by BLAS in float64.
    An entry counts the assignments of the edges summed so far, so it is a
    nonnegative integer of at most len(vals)**m, and so is every partial sum
    of nonnegative products inside it.  While len(vals)**m < 2**53 float64
    is therefore exact.  Beyond, the same contraction runs and each step's
    largest entry is checked: rounding is monotone, so a sum whose exact value
    reaches 2**53 is computed as at least 2**53, and a plan whose every step
    stays below it was exact throughout.  Otherwise the contraction reruns on
    int64 arrays while len(vals)**m < 2**62, and the count is refused beyond.
    A plan whose tensors held at once would exceed _TENSOR_BUDGET bytes is
    refused before anything is allocated.
    """
    validate_13(g)
    if kind not in KINDS:
        raise GraphError(f"unknown system kind {kind!r}")
    p, q, lo, hi = _dilation(t, KINDS[kind][1])
    n_vals = hi - lo + 1
    _check_budget(n_vals, _plan(g).peaks)
    bound = n_vals ** len(g.edges)
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    ind = _slot_indicator(vals, p, q, kind, strict)
    count = _eliminate(g, ind, _FLOAT_EXACT if bound >= _FLOAT_EXACT else None)
    if count is not None:
        return count
    if bound >= _INT64_LIMIT:
        raise GraphError(
            "count too large: a float64 step reached 2**53 and int64 could overflow"
        )
    ind = ind.astype(np.int64)
    return _eliminate(g, ind)


def count_tree_dp(g: Graph, t) -> int:
    """Exact count for a {1,3}-tree: count_elimination, once g is known to be
    one."""
    validate_13(g)
    if not g.is_tree():
        raise GraphError("count_tree_dp expects a tree")
    return count_elimination(g, t)


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
