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

The tensor route evaluates the rows of polytope.LOCAL_ROWS on one vertex's
slot values, each over 0..floor(t/2), the range the rows allow.  Rational
dilation parameters are handled exactly by clearing denominators; all
comparisons happen in integers.

count_elimination runs a contraction tree: each leaf is one degree-3
vertex, each internal node one pairwise contraction of its children.  The
tree comes from an exact DP over subsets of the degree-3 vertices (the
narrowest widest intermediate, then the fewest flops) while there are at most
_DP_MAX_VERTICES of them, and from a greedy rule beyond.  A tree's widest
intermediate is governed by treewidth, where a linear frontier's is at least
the cutwidth of its vertex order: 4 against 5 axes on K3,3, 4 against 11 on
the 10-prism.

Every permutation of the slots (a, b, c) maps LOCAL_ROWS onto itself, so the
0/1 vertex indicator N over vals^3 is symmetric (the structure constants
N_abc of an even-label fusion algebra), and a leaf in any axis order is one
of six tensors (_marginals): N for three open slots; N summed over one, two
or three slots for as many pendants; the loop diagonal sum_l N[l, l, a]
beside an open slot, and its sum beside a pendant.

The tree is compiled once into a program of matrix products: each is one
np.matmul(a, b, out=...) of 2-D views (a transposed view goes to BLAS as
is), or a batch of them over one leading axis, of leaf tensors and
intermediates in the axis orders the plan chooses; only an intermediate no
order serves is copied.  Intermediates are spans of one float64 workspace per
thread, packed by when each is alive, and reused by the next count; a
workspace over _TENSOR_BUDGET >> 5 bytes is released after its count.
Products are exact while len(vals)**m < 2**53 and, beyond, whenever every
step's largest entry stays below 2**53 (checked after the fact); otherwise
the count is refused or reruns in a fresh int64 workspace, the float64 one
released first.  A count whose program's peak would exceed _TENSOR_BUDGET
bytes is refused before anything is allocated.

Work that does not depend on the count is done once.  A graph's plan (the
tree in postorder, each tensor's axis order and slot) is cached per exact
Graph by _plan, and its spans and shapes at n values per axis per (graph, n)
by _program.  The leaf tensors depend only on the dilation and strictness,
so every graph shares one read-only set per (p, q, hi, strict) while N takes
at most _LEAF_CACHE_MAX = 2**16 bytes (n <= 20 values, t <= 39): the cache
holds under 9 MB, and a larger key is built per call, so a big t never pins
memory.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .graphs import Graph, GraphError, validate_13
from .polytope import LOCAL_ROWS, InequalitySystem, inequality_system

# Bounds of exact float64 arithmetic and of the int64 rerun: every tensor
# entry counts at most len(vals)**m assignments.
_FLOAT_EXACT = 2**53
_INT64_LIMIT = 2**62


def _dilation(t) -> tuple[int, int, int]:
    """(p, q, hi) for a dilation t = p/q: a coordinate of a lattice point of
    the t-th dilate lies in 0..hi, as 2w <= t (see polytope)."""
    if isinstance(t, int):  # the common case, without a Fraction
        p, q = t, 1
    else:
        t = Fraction(t)
        p, q = t.numerator, t.denominator
    if p < 0:
        raise GraphError("dilation parameter must be nonnegative")
    return p, q, p // (2 * q)


# The most bytes a count may hold at once: its program's workspace beside the
# leaf tensors, or their build if that is more (_Program.peak).
# A count over it is refused before anything is allocated.
_TENSOR_BUDGET = 2**31


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
    p, q, hi = _dilation(t)
    coeff = [tuple(c * q for c in coeffs) for coeffs, _ in sys.rows]
    rhs = [alpha * p - int(strict) for _, alpha in sys.rows]
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
            minrest[j][r] = minrest[j + 1][r] + min(0, c * hi)

    def descend(
        j: int, prefix: tuple[int, ...], partial: list[int]
    ) -> Iterator[tuple[tuple[int, ...], int, int]]:
        xlo, xhi = 0, hi
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


# -- leaf tensors --------------------------------------------------------------


# Bounds of the leaf cache.  Strict keys share it with closed ones: the
# prism's quasi-polynomial visits 44 keys (closed t <= 22, strict s <= 21), a
# whole census-7 pass (quasi-polynomials, h*, reflexivity and semi-reflexive
# counts of all 28 graphs) 49, and quasi_polynomial visits them in a cycle,
# so the cache must hold a whole sweep or it misses on every call.  A key
# whose float64 N takes over _LEAF_CACHE_MAX bytes (len(vals) > 20: t >= 40)
# is not cached; a cached set takes under 68 KB.
_LEAF_CACHE_SIZE = 128
_LEAF_CACHE_MAX = 2**16


def _indicator(p: int, q: int, hi: int, strict: bool) -> np.ndarray:
    """0/1 float64 tensor over vals^3, vals the range 0..hi: the rows of
    LOCAL_ROWS for one vertex, on its three slot values, at the dilation p/q."""
    vals = np.arange(hi + 1, dtype=np.int64)
    slots = (q * vals[:, None, None], q * vals[None, :, None], q * vals[None, None, :])
    ind = np.ones((len(vals),) * 3, dtype=bool)
    for pattern, alpha in LOCAL_ROWS:  # in integers, row < b is row <= b - 1
        ind &= sum(sign * x for sign, x in zip(pattern, slots)) <= alpha * p - strict
    return ind.astype(np.float64)


def _marginals(three: np.ndarray) -> tuple[np.ndarray, ...]:
    """The six leaf tensors of a vertex tensor, flat, in the kinds' order:
    three open slots (the tensor itself), two and one (summed over the
    pendants' slots), none (the claw); then a loop beside one open slot (its
    diagonal summed) and beside a pendant (the lollipop).

    A leaf's axes may stand in any order only because the tensor is
    symmetric, so one that is not equal to its transposes is refused.
    """
    # two transpositions generate all six permutations of the slots
    if not all(np.array_equal(three, three.transpose(axes)) for axes in ((1, 0, 2), (0, 2, 1))):
        raise ValueError("the vertex tensor is not symmetric in its slots")
    two = three.sum(axis=2)
    one = two.sum(axis=1)
    loop = np.trace(three)  # sum_l three[l, l, :]
    return tuple(np.ravel(x) for x in (three, two, one, one.sum(), loop, loop.sum()))


def _leaf_tensors(p: int, q: int, hi: int, strict: bool) -> tuple[np.ndarray, ...]:
    """_marginals of the vertex indicator at the dilation p/q: shared and
    read-only while N takes at most _LEAF_CACHE_MAX bytes, else built per
    call."""
    if 8 * (hi + 1) ** 3 > _LEAF_CACHE_MAX:
        return _marginals(_indicator(p, q, hi, strict))
    return _shared_leaves(p, q, hi, strict)


@lru_cache(maxsize=_LEAF_CACHE_SIZE)
def _shared_leaves(p: int, q: int, hi: int, strict: bool) -> tuple[np.ndarray, ...]:
    """_leaf_tensors of a small key, cached and read-only."""
    leaves = _marginals(_indicator(p, q, hi, strict))
    for x in leaves:
        x.flags.writeable = False
    return leaves


# Building the leaves holds N as bool beside an int64 vals^3 row sum and its
# bool comparison, then beside N in float64: 10 bytes per entry of N,
# traced at 48 values and more.
_LEAF_BUILD_BYTES = 10

# A count's small allocations beside its tensors (the value range, views,
# scalars, numpy's iteration buffers in the leaves' build, and its program
# when that is not cached yet): under 140 KB traced at 8 to 80 values.
_RUN_SMALL_BYTES = 2**18


# -- the contraction program ---------------------------------------------------


# Bound of the plan cache, as nni's canonical-form cache: the counts of one
# graph (a quasi-polynomial's dilations, then h*, reflexivity and
# semi-reflexive checks) come together, so a small cache catches them.
_PLAN_CACHE_SIZE = 64

# Bound of the program cache, one program per (graph, value count).  A whole
# census-7 pass makes 339 programs and visits them in a cycle, so the cache
# holds a pass, or it would miss on every call; a program is a few hundred
# bytes of ints.
_PROGRAM_CACHE_SIZE = 1024

# Plans of graphs with at most this many degree-3 vertices come from the
# exact subset DP, whose cost grows as 3**n; larger graphs use the greedy
# rule, whose cost grows as n**3.
_DP_MAX_VERTICES = 10

# Plan costs weigh a step over k distinct edges as _PLAN_VALUES**k flops and
# a copy of a k-axis tensor as 8 * _PLAN_VALUES**k bytes, a mid-range dilation.
_PLAN_VALUES = 32

# A merge may run as a batch of matrix products over one axis of one factor
# instead of copying it; each product of the batch is weighed as this many
# flops, about its call overhead.
_BATCH_COST = 2**13

# Choosing layouts keeps at most this many axis orders per tree node, the
# cheapest: every order of a 4-axis tensor, and a bound on wider trees.
_LAYOUT_ORDERS = 24

# A contraction tree as a list of merges: leaves are nodes 0..n-1, and merge
# k, a pair of earlier nodes, is node n + k.
_Merges = list[tuple[int, int]]


class _Plan(NamedTuple):
    """A contraction tree compiled into steps over the leaf tensors and the
    slots of a workspace.

    A tensor is named by (source, slot): source 0 is the workspace, whose
    slot s holds tensors of at most ranks[s] axes (at n values per axis,
    n**ranks[s] entries), and source 1 + kind is that kind's leaf tensor
    (slot 0).  A tensor's entries are stored in the row-major order of its
    axes.  The count ends in result (None when g has no degree-3 vertex).
    The steps, in postorder:

    * ("mul", a, b, out): out = a @ b.  a is (source, slot, batch axes, row
      axes, column axes, transposed): the tensor viewed as n**batch matrices
      of n**rows x n**cols (one matrix when batch is 0), each transposed when
      the flag is set; b likewise, and out is a workspace slot's (0, slot,
      batch axes, row axes, column axes, False).  At most one factor has a
      batch axis; the other is used for every matrix of the batch.
    * ("copy", src, perm, dst, rank): workspace slot src's tensor with its
      axes permuted into slot dst.

    widest is the most axes any tensor has.
    """

    steps: tuple
    ranks: tuple[int, ...]
    result: tuple[int, int] | None
    widest: int


def _leaves(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """(leaf kind, open edges) of each degree-3 vertex, by vertex id.

    An edge stays open until both its degree-3 endpoints are merged; an edge
    whose only degree-3 endpoint is the vertex itself (a pendant, a loop) is
    summed into the vertex's leaf tensor.  The kind indexes _marginals: 3
    less the open edges, and two more with a loop.
    """
    owners = {e: {x for x in (u, w) if g.degrees[x] == 3} for e, u, w in g.edge_list}
    leaves = []
    for v in sorted(g.vertex_ids):
        if g.degrees[v] == 3:
            axes = tuple(e for e in g.incident_edges(v) if owners[e] != {v})
            loop = len(set(g.slots(v))) < 3
            leaves.append((3 - len(axes) + 2 * loop, axes))
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


def _forms(
    order: tuple[int, ...], shared: frozenset[int]
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], bool]]:
    """The ways a tensor stored in this axis order is a matrix factor over the
    shared axes: (batch axes, shared block, other axes, whether the block
    comes first), where the batch is at most one leading axis."""
    k = len(shared)
    forms = []
    for b in range(min(2, len(order) - k + 1)):
        head, tail = order[:b], order[b:]
        if set(tail[:k]) == shared:
            forms.append((head, tail[:k], tail[k:], True))
        if k and set(tail[len(tail) - k:]) == shared:
            forms.append((head, tail[len(tail) - k:], tail[:len(tail) - k], False))
    return forms


def _layout(
    leaves: list[tuple[int, tuple[int, ...]]],
    merges: _Merges,
    nodes: list[frozenset[int]],
) -> tuple[list, list, list]:
    """For each node of the tree, the axis order it is computed in and the
    order it is used in (another order costs a copy), and for each merge
    (whether its first child is the left factor, the first child's form, the
    second's); chosen for the lowest cost in copies and batches.

    A merge is one matrix product when both children hold their shared axes
    as one block at one end, in the same order: each child is then a 2-D
    view, transposed when the block leads the left factor or trails the
    right one.  The result holds the left factor's other axes, then the
    right one's.  When one child has one more axis before the block, the
    merge is a batch of such products over that axis, and the result leads
    with it.  A child whose order fits neither way is copied into one that
    does; a leaf tensor is symmetric, so every order of it is free.  Tables
    map each order a node can be computed in to its cheapest (cost, choice),
    bottom up.
    """
    n_leaves = len(leaves)
    copy_cost = [8 * _PLAN_VALUES ** len(axes) for axes in nodes]
    tables: list[dict] = [
        {order: (0, None) for order in permutations(axes)} for _, axes in leaves
    ]
    for i, j in merges:
        shared = nodes[i] & nodes[j]
        seqs = {tuple(sorted(shared))}
        for k in (i, j):
            seqs.update(f[1] for o in tables[k] for f in _forms(o, shared))

        def uses(k: int) -> list:
            # (order used, order computed, cost, form)
            best, (cost, _) = min(tables[k].items(), key=lambda kv: (kv[1][0], kv[0]))
            rest = tuple(e for e in best if e not in shared)
            return [
                (o, o, c, f) for o, (c, _) in tables[k].items() for f in _forms(o, shared)
            ] + [(rest + s, best, cost + copy_cost[k], ((), s, rest, False)) for s in sorted(seqs)]

        options: dict = {}
        for ua, sa, ca, fa in uses(i):
            for ub, sb, cb, fb in uses(j):
                if fa[1] != fb[1] or (fa[0] and fb[0]):
                    continue
                batch = fa[0] + fb[0]
                cost = ca + cb
                if batch:  # each product of the batch packs the other factor again
                    other = len(nodes[j] if fa[0] else nodes[i])
                    cost += _PLAN_VALUES ** len(batch) * (
                        _BATCH_COST + 4 * _PLAN_VALUES**other)
                for order, i_left in (
                    (batch + fa[2] + fb[2], True), (batch + fb[2] + fa[2], False)
                ):
                    if order not in options or cost < options[order][0]:
                        options[order] = (cost, (sa, ua, fa, sb, ub, fb, i_left))
        kept = sorted(options.items(), key=lambda kv: (kv[1][0], kv[0]))
        tables.append(dict(kept[:_LAYOUT_ORDERS]))

    computed: list = [None] * len(nodes)
    used: list = [None] * len(nodes)
    forms: list = [None] * len(nodes)
    if nodes:
        root = len(nodes) - 1
        computed[root] = min(tables[root].items(), key=lambda kv: kv[1][0])[0]
        used[root] = computed[root]
        for k in range(root, n_leaves - 1, -1):  # parents before children
            i, j = merges[k - n_leaves]
            computed[i], used[i], fi, computed[j], used[j], fj, i_left = (
                tables[k][computed[k]][1]
            )
            forms[k] = (i_left, fi, fj)
    return computed, used, forms


def _build_plan(g: Graph, tree: Callable[[list[int]], _Merges]) -> _Plan:
    """Compile the tree that ``tree`` (_dp_tree or _greedy_tree) finds for g.

    _layout picks each tensor's axis order; leaves are the leaf tensors, in
    no workspace slot.  Of each merge, the child whose subtree needs less
    room beside the other's result is computed first.  Each intermediate
    then lives from the step that writes it to the last step that reads it,
    and they are packed into slots largest first, each into the first slot
    whose tensors all live at other times ("greedy by size" for shared
    objects, Pisarchyk and Lee 2020): a slot's size is then a power of the
    value count, so the packing holds for every count.
    """
    leaves = _leaves(g)
    bit = {e: 1 << k for k, e in enumerate(g.edges)}
    merges = tree([sum(bit[e] for e in axes) for _, axes in leaves])
    nodes = [frozenset(axes) for _, axes in leaves]
    for i, j in merges:
        nodes.append(nodes[i] ^ nodes[j])
    computed, used, forms = _layout(leaves, merges, nodes)
    n_leaves = len(leaves)

    # workspace entries a subtree needs at once, and holds once done, at
    # _PLAN_VALUES
    size = [_PLAN_VALUES ** len(axes) for axes in nodes]
    held = [0] * n_leaves + size[n_leaves:]
    need = [0] * n_leaves
    first = []
    for k, (i, j) in enumerate(merges, n_leaves):
        a, b = min((i, j), (j, i), key=lambda ab: (
            max(need[ab[0]], held[ab[0]] + need[ab[1]]), -len(nodes[ab[0]]), ab[0]))
        first.append((a, b))
        copy = 2 * size[k] if used[k] != computed[k] else 0
        need.append(max(need[a], held[a] + need[b], held[i] + held[j] + size[k], copy))

    buffers = []  # rank, first and last step of each workspace tensor
    steps: list = []

    def new(rank: int) -> tuple[int, int]:
        buffers.append([rank, len(steps), len(steps)])
        return 0, len(buffers) - 1

    def read(*tensors: tuple[int, int]) -> None:
        for source, b in tensors:
            if not source:
                buffers[b][2] = len(steps)

    def emit(k: int) -> tuple[int, int]:
        """(source, buffer) of node k's tensor, as _Plan names it."""
        if k < n_leaves:
            return 1 + leaves[k][0], 0
        i, j = merges[k - n_leaves]
        a, b = first[k - n_leaves]
        held_buf = {a: emit(a)}
        held_buf[b] = emit(b)
        i_left, form_i, form_j = forms[k]
        (left, (bl, sl, rl, l_first)), (right, (br, _, rr, r_first)) = (
            ((i, form_i), (j, form_j)) if i_left else ((j, form_j), (i, form_i))
        )
        read(held_buf[left], held_buf[right])
        out = new(len(nodes[k]))
        # the left factor is rows x shared: as stored when its block trails,
        # else transposed; the right one is shared x columns
        ks = len(sl)
        lrc = (ks, len(rl)) if l_first else (len(rl), ks)
        rrc = (ks, len(rr)) if r_first else (len(rr), ks)
        steps.append((
            "mul",
            (held_buf[left], len(bl), *lrc, l_first),
            (held_buf[right], len(br), *rrc, not r_first),
            (out, len(bl) + len(br), len(rl), len(rr), False),
        ))
        if used[k] != computed[k]:
            read(out)
            src, out = out, new(len(nodes[k]))
            perm = tuple(computed[k].index(e) for e in used[k])
            steps.append(("copy", src[1], perm, out[1], len(nodes[k])))
        return out

    result = emit(len(nodes) - 1) if nodes else None

    slot_of = [0] * len(buffers)
    ranks: list[int] = []
    lives: list[list[tuple[int, int]]] = []
    for b in sorted(range(len(buffers)), key=lambda b: (-buffers[b][0], buffers[b][1])):
        rank, lo, hi = buffers[b]
        slot = next(
            (s for s, spans in enumerate(lives) if all(hi < x or y < lo for x, y in spans)),
            len(ranks),
        )
        if slot == len(ranks):
            ranks.append(rank)
            lives.append([])
        lives[slot].append((lo, hi))
        slot_of[b] = slot

    def place(source: int, b: int) -> tuple[int, int]:
        return source, b if source else slot_of[b]

    def at(step):
        kind, *args = step
        if kind == "mul":
            return (kind, *((*place(*t), *rest) for t, *rest in args))
        return (kind, slot_of[args[0]], args[1], slot_of[args[2]], args[3])

    return _Plan(
        steps=tuple(map(at, steps)),
        ranks=tuple(ranks),
        result=None if result is None else place(*result),
        widest=max(map(len, nodes), default=0),
    )


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(g: Graph) -> _Plan:
    """g's contraction plan: exact DP tree while g is small, greedy beyond.

    g is checked by validate_13 here, once per cached plan; lru_cache stores
    no exception, so an invalid graph raises on every call.

    On the benchmark's cubic graphs both give the same widest intermediate
    and nearly the same cost, yet the DP's trees run faster: cubic-qp makes
    5 % more items per second with them (BENCH_16.json).
    """
    validate_13(g)
    n = sum(1 for v in g.vertex_ids if g.degrees[v] == 3)
    return _build_plan(g, _dp_tree if n <= _DP_MAX_VERTICES else _greedy_tree)


class _Program(NamedTuple):
    """A plan at n values per axis.  Each step reads and writes spans (see
    _program), a factor's followed by whether it is transposed; result is the
    source and entry holding the count, size the workspace's entries and
    peak the bytes a count holds at once: the workspace beside the leaf
    tensors (and beside their int64 copies too, where an int64 rerun may
    follow), or their build if that is more, and the count's small
    allocations."""

    steps: tuple
    result: tuple[int, int] | None
    size: int
    peak: int


@lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _program(g: Graph, n: int) -> _Program:
    """g's plan as spans at n values per axis.

    A span is (source, first entry, end entry, shape), its entries those of
    the workspace or of a leaf tensor.  Equal numbers and shapes are stored
    once, which halves a program's memory: a census-7 pass keeps 339
    programs.
    """
    plan = _plan(g)
    stored: dict = {}

    def keep(x):
        return stored.setdefault(x, x)

    start = [0]
    for rank in plan.ranks:
        start.append(start[-1] + n**rank)

    def span(source: int, slot: int, rank: int, shape: tuple[int, ...] | None = None):
        i = keep(0 if source else start[slot])
        return source, i, keep(i + n**rank), keep(tuple(map(keep, shape or (n,) * rank)))

    def matrix(source: int, slot: int, batch: int, rows: int, cols: int):
        shape = (n**rows, n**cols) if not batch else (n**batch, n**rows, n**cols)
        return span(source, slot, batch + rows + cols, shape)

    steps = []
    for kind, *args in plan.steps:
        if kind == "mul":
            (*a, ta), (*b, tb), (*o, _) = args
            steps.append((kind, *matrix(*a), ta, *matrix(*b), tb, *matrix(*o)[1:]))
        else:
            src, perm, dst, rank = args
            steps.append((kind, *span(0, src, rank)[1:3], perm, *span(0, dst, rank)[1:]))
    size = start[-1]
    leaves = n**3 + n**2 + 2 * n + 2  # entries of the six leaf tensors
    # an int64 rerun holds its leaves beside the float64 ones
    copies = 2 if _FLOAT_EXACT <= n ** len(g.edges) < _INT64_LIMIT else 1
    return _Program(
        tuple(steps),
        None if plan.result is None else span(*plan.result, 0)[:2],
        size,
        max(8 * (size + copies * leaves), _LEAF_BUILD_BYTES * n**3) + _RUN_SMALL_BYTES,
    )


# Each thread's float64 workspace: grown when a count needs more, reused by
# the next count, and released after a count when it is larger than
# _TENSOR_BUDGET >> 5 bytes, so a big count pins no memory.
_thread = threading.local()


def _workspace(size: int) -> np.ndarray:
    buf = getattr(_thread, "workspace", None)
    if buf is None or len(buf) < size:
        _thread.workspace = None  # freed before the larger one is allocated
        _thread.workspace = buf = np.empty(size)
    return buf


def _run(
    program: _Program, leaves: tuple[np.ndarray, ...], limit: int | None = None
) -> int | None:
    """Run program on the six leaf tensors (_marginals): in the thread's
    float64 workspace, or in a fresh int64 one when the leaves are int64.

    With a limit, returns None as soon as a product's largest entry reaches
    it.
    """
    if program.result is None:
        return 1
    int64 = leaves[0].dtype == np.int64
    buf = np.empty(program.size, dtype=np.int64) if int64 else _workspace(program.size)
    sources = (buf, *leaves)
    try:
        for step in program.steps:
            if step[0] == "mul":
                _, sa, i, j, shape_a, ta, sb, k, m, shape_b, tb, o, p, shape_o = step
                a = sources[sa][i:j].reshape(shape_a)
                b = sources[sb][k:m].reshape(shape_b)
                out = buf[o:p].reshape(shape_o)
                np.matmul(a.swapaxes(-1, -2) if ta else a,
                          b.swapaxes(-1, -2) if tb else b, out=out)
                if limit is not None and out.max() >= limit:
                    return None
            else:
                _, i, j, perm, o, p, shape_o = step
                np.copyto(buf[o:p].reshape(shape_o), buf[i:j].reshape(shape_o).transpose(perm))
        source, entry = program.result
        return int(sources[source][entry])
    finally:
        if buf.dtype == np.float64 and buf.nbytes > _TENSOR_BUDGET >> 5:
            _thread.workspace = None


def _gib(nbytes: int) -> str:
    """nbytes in GiB to three significant digits, or as a power of two past
    2**60 bytes, where the digits would run long."""
    if nbytes > 2**60:
        return f"about 2**{round(math.log2(nbytes))} bytes"
    return f"{nbytes / 2**30:.3g} GiB"


def count_elimination(g: Graph, t, strict: bool = False) -> int:
    """Count lattice points of the graph polytope's t-th dilate by contracting
    g's network.

    strict=True counts strict interiors.  Works for any graph accepted by
    validate_13, including graphs with loops, parallel edges and cycles.

    Each merge of the plan is one matrix product run by BLAS in float64.
    An entry counts the assignments of the edges summed so far, so it is a
    nonnegative integer of at most len(vals)**m, and so is every partial sum
    of nonnegative products inside it.  While len(vals)**m < 2**53 float64
    is therefore exact.  Beyond, the same contraction runs and each step's
    largest entry is checked: rounding is monotone, so a sum whose exact value
    reaches 2**53 is computed as at least 2**53, and a plan whose every step
    stays below it was exact throughout.  Otherwise the contraction reruns on
    int64 arrays while len(vals)**m < 2**62, and the count is refused beyond.
    A program whose peak would exceed _TENSOR_BUDGET bytes is refused before
    anything is allocated.
    """
    p, q, hi = _dilation(t)
    n_vals = hi + 1
    program = _program(g, n_vals)  # validates g, through _plan
    if program.peak > _TENSOR_BUDGET:
        raise GraphError(
            f"count too large for memory: its tensors would take "
            f"{_gib(program.peak)} at once, over the {_gib(_TENSOR_BUDGET)} budget"
        )
    bound = n_vals ** len(g.edges)
    leaves = _leaf_tensors(p, q, hi, strict)
    count = _run(program, leaves, _FLOAT_EXACT if bound >= _FLOAT_EXACT else None)
    if count is not None:
        return count
    if bound >= _INT64_LIMIT:
        raise GraphError(
            "count too large: a float64 step reached 2**53 and int64 could overflow"
        )
    _thread.workspace = None  # the rerun's int64 workspace takes its place
    return _run(program, tuple(x.astype(np.int64) for x in leaves))


def count_tree_dp(g: Graph, t) -> int:
    """Exact count for a {1,3}-tree: count_elimination, once g is known to be
    one (count_elimination validates it)."""
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
        return count_elimination(g, t)
    if method == "backtracking":
        return count_backtracking(inequality_system(g), t)
    raise GraphError(f"unknown counting method {method!r}")
