"""Cross-checks between the tensor counting route and the backtracking oracle."""
import json
import math
import string
import threading
import tracemalloc
from fractions import Fraction
from importlib.resources import files
from itertools import permutations, product

import numpy as np
import pytest

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
    tree_two_internal,
)
import trivalent.counting as counting
from trivalent.counting import (
    _LEAF_CACHE_MAX,
    _TENSOR_BUDGET,
    _build_plan,
    _dilation,
    _dp_tree,
    _greedy_tree,
    _leaf_tensors,
    _marginals,
    _plan,
    _program,
    _run,
    _shared_leaves,
    count_backtracking,
    count_elimination,
    count_points,
    count_tree_dp,
    iter_lattice_points,
)
from trivalent.ehrhart import verlinde_count
from trivalent.graphs import GraphError, make_graph
from trivalent.polytope import LOCAL_ROWS, inequality_system


def prism():
    """Triangular prism: two triangles joined by three rungs (cubic, 9 edges)."""
    return make_graph(
        [(1, 1, 2), (2, 2, 3), (3, 1, 3), (4, 4, 5), (5, 5, 6), (6, 4, 6),
         (7, 1, 4), (8, 2, 5), (9, 3, 6)]
    )


def k33():
    """Complete bipartite K3,3 (cubic, 9 edges)."""
    return make_graph(
        [(3 * (i - 1) + (j - 3), i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    )


def k_prism(k):
    """The k-prism: two k-cycles joined by k rungs (cubic, 3k edges)."""
    edges = []
    for r in range(1, k + 1):
        nxt = r % k + 1
        edges += [(3 * r - 2, r, nxt), (3 * r - 1, r + k, nxt + k), (3 * r, r, r + k)]
    return make_graph(edges)


def test_claw_small_values():
    g = claw()
    assert count_points(g, 0) == 1
    assert count_points(g, 1) == 1
    assert count_points(g, 2) == 4
    assert count_points(g, 3) == 5
    assert count_points(g, Fraction(5, 2)) == 4


def test_theta_small_values():
    counts = [count_points(theta(), t) for t in range(7)]
    assert counts == [1, 1, 4, 5, 11, 14, 24]


@pytest.mark.parametrize("g", [claw(), theta(), dumbbell(), lollipop(), tree_two_internal()])
def test_routes_agree_integer_t(g):
    sys = inequality_system(g)
    for t in range(6):
        expect = count_backtracking(sys, t)
        assert count_elimination(g, t) == expect
        if g.is_tree():
            assert count_tree_dp(g, t) == expect


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(5, 4), Fraction(7, 3), Fraction(10, 3)])
def test_routes_agree_rational_t(t):
    for g in (claw(), theta(), dumbbell()):
        sys = inequality_system(g)
        expect = count_backtracking(sys, t)
        assert count_elimination(g, t) == expect
        if g.is_tree():
            assert count_tree_dp(g, t) == expect


def test_strict_counting():
    g = claw()
    sys = inequality_system(g)
    # open polytope at t=3 drops boundary points of the closed one
    assert count_backtracking(sys, 3, strict=True) <= count_backtracking(sys, 3)
    assert count_backtracking(sys, 3, strict=True) == count_elimination(
        g, 3, strict=True
    )


def _box_points(coeffs, bounds, values, strict=False):
    """Reference: every point of values^m, in lexicographic order, kept when
    it satisfies each row coeffs . w <= bound (strictly, with strict=True)."""
    m = len(coeffs[0])
    axes = np.meshgrid(*[np.array(values, dtype=np.int64)] * m, indexing="ij")
    box = np.stack(axes, axis=-1).reshape(-1, m)
    lhs = box @ np.array(coeffs, dtype=np.int64).T
    bound = np.array(bounds, dtype=np.int64)
    keep = (lhs < bound) if strict else (lhs <= bound)
    return list(map(tuple, box[keep.all(axis=1)].tolist()))


def _membership_points(sys, t, strict=False):
    """_box_points of the t-th dilate over the loose box [0, t]^m, twice the
    range 0..t/2 its rows allow."""
    coeffs = [c for c, _ in sys.rows]
    bounds = [alpha * t for _, alpha in sys.rows]
    return _box_points(coeffs, bounds, range(t + 1), strict)


def test_iter_lattice_points_matches_membership():
    # every class with at most 7 edges
    assert len(CENSUS) == 28
    for g in CENSUS:
        system = inequality_system(g)
        for t in range(5):
            pts = list(iter_lattice_points(system, t))
            assert pts == _membership_points(system, t), (g, t)
            assert count_backtracking(system, t) == len(pts), (g, t)
            assert count_backtracking(system, t, strict=True) == len(
                _membership_points(system, t, strict=True)
            ), (g, t)


def test_q_rows_have_right_hand_side_one():
    # Q = 4P - 1: in the coordinates v = 4w - 1 a row c.w <= alpha*t reads
    # c.v <= (4 alpha - sum(c)) t, on every class with at most 7 edges
    for g in CENSUS:
        assert {4 * alpha - sum(c) for c, alpha in inequality_system(g).rows} == {1}


def test_q_brute_force_is_p_at_4t():
    # tQ, Q's four rows per vertex bounded by t over its box [-t, t]^m, is
    # 4tP moved by -t*1, so its counts are P's at 4t, closed and strict
    for g in CENSUS:
        coeffs = [c for c, _ in inequality_system(g).rows]
        for t in range(3):
            for strict in (False, True):
                points = _box_points(coeffs, [t] * len(coeffs), range(-t, t + 1), strict)
                assert len(points) == count_elimination(g, 4 * t, strict=strict), (g, t)
    claw_q = [c for c, _ in inequality_system(claw()).rows]
    assert len(_box_points(claw_q, [1] * 4, range(-1, 2))) == 11


def test_elimination_reflexive_kind():
    # Q = 4P - 1 of the claw, counted as P at 4t: 11 lattice points at t=1
    assert count_elimination(claw(), 4) == 11
    assert count_elimination(claw(), 0) == 1
    # interior counts at t+1 reproduce closed counts at t for a reflexive body
    assert count_elimination(claw(), 8, strict=True) == 11


@pytest.mark.parametrize(
    "g", [claw(), theta(), dumbbell(), k4(), t4(), prism()],
    ids=["claw", "theta", "dumbbell", "k4", "t4", "prism"],
)
@pytest.mark.parametrize("t", [0, 1, 2, 3, Fraction(5, 2)], ids=str)
def test_backtracking_matches_elimination_on_reflexive(g, t):
    # tQ is counted as P at 4t, by both routes
    sys = inequality_system(g)
    for strict in (False, True):
        assert count_backtracking(sys, 4 * t, strict=strict) == count_elimination(
            g, 4 * t, strict=strict
        )


def test_k4_counts():
    assert [count_points(k4(), t) for t in range(5)] == [1, 1, 8, 15, 49]


@pytest.mark.parametrize("g", [k4(), prism(), k33()], ids=["k4", "prism", "k33"])
@pytest.mark.parametrize("t", [0, 1, 2, 3, Fraction(5, 2)])
def test_elimination_matches_backtracking_on_cycles(g, t):
    sys = inequality_system(g)
    for strict in (False, True):
        assert count_elimination(g, t, strict=strict) == count_backtracking(
            sys, t, strict=strict
        )


@pytest.mark.parametrize("hi", [57, 59])
def test_elimination_at_the_float64_boundary(hi):
    # slot values 0..hi at t = 2 hi + 1; 58**9 < 2**53 <= 60**9: hi = 57 is
    # exact in float64 by the a-priori bound, hi = 59 by the check of every
    # step's largest entry
    assert (58**9 < 2**53) and (60**9 >= 2**53)
    t = 2 * hi + 1
    assert _dilation(t)[2] == hi
    assert count_elimination(prism(), t) == verlinde_count(6, t)


@pytest.mark.parametrize("count", [count_elimination, count_tree_dp])
def test_huge_dilation_is_refused_before_allocating(count):
    # (10**15 + 1)**3 is past the int64 ceiling; a value range of that length
    # would need 8 PB, so the bound must be checked on the length alone
    with pytest.raises(GraphError, match="count too large"):
        count(claw(), 10**15)


@pytest.mark.parametrize(
    "k,n,t", [(8, 16, 11), (8, 16, 13), (10, 20, 9)],
    ids=["11-8-prism", "13-8-prism", "9-10-prism"],
)
def test_large_prisms_exact_past_the_bound(k, n, t):
    # (t//2 + 1)**(3k), over slot values 0..t//2, is past 2**62, but every
    # step's largest entry stays below 2**53, so the float64 contraction is
    # exact; the 8-prism at t = 15 and the 10-prism at t = 11 are not
    assert (t // 2 + 1) ** (3 * k) >= 2**62
    assert count_elimination(k_prism(k), t) == verlinde_count(n, t)


def test_k33_count_at_t_81():
    # slot values 0..40: K3,3's widest tensors hold 41**4 float64 entries,
    # 23 MB each
    assert count_elimination(k33(), 81) == verlinde_count(6, 81)


def test_inexact_float_count_is_refused():
    # the 10-prism at t = 11 has a step entry above 2**53 (plain float64 is
    # off by 25 there) and its bound 6**30, over slot values 0..5, is past
    # int64
    with pytest.raises(GraphError, match="count too large"):
        count_elimination(k_prism(10), 11)


def test_inexact_float_count_reruns_in_int64(monkeypatch):
    # with the float64 limit lowered, the prism's steps fail the check and the
    # count is made again on int64 arrays; with the int64 limit lowered too it
    # is refused
    monkeypatch.setattr(counting, "_FLOAT_EXACT", 2**10)
    assert count_elimination(prism(), 19) == verlinde_count(6, 19)
    monkeypatch.setattr(counting, "_INT64_LIMIT", 2**20)
    with pytest.raises(GraphError, match="count too large"):
        count_elimination(prism(), 19)


@pytest.mark.parametrize("count", [count_elimination, count_tree_dp])
def test_tensor_budget_is_checked_before_allocating(count):
    # K4's widest tensor has 4 axes; the claw's only tensor is the indicator
    g, t = (k4(), 400) if count is count_elimination else (claw(), 1400)
    rank = _plan(g).widest if count is count_elimination else 3
    n = t // 2 + 1
    assert 8 * n**rank > _TENSOR_BUDGET > 8 * n ** (rank - 1)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="budget"):
            count(g, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tensor_budget_counts_the_tensors_held_at_once(monkeypatch):
    # K3,3's widest tensor alone takes exactly the budget at 128 values, but a
    # run holds it beside the other factor, the result and the indicator; the
    # count itself is refused under a budget scaled down to 32 values, so a
    # guard that checked the widest tensor only would run it, not ask for GBs
    g = k33()
    assert 8 * 128 ** _plan(g).widest == _TENSOR_BUDGET
    assert _program(g, 128).peak > _TENSOR_BUDGET
    with pytest.raises(GraphError, match="budget"):
        count_elimination(g, 255)
    monkeypatch.setattr(counting, "_TENSOR_BUDGET", 8 * 32 ** _plan(g).widest)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="budget"):
            count_elimination(g, 63)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("g", [k4(), prism(), k33()], ids=["k4", "prism", "k33"])
def test_plan_peaks_bound_the_traced_memory(g):
    # at t = 95 (48 values per axis) the leaf tensors are built per call and
    # the workspace, released first, is allocated in the count, so both are
    # traced.  K3,3's widest step holds both 4-axis factors and the result,
    # and nothing else of that size: no copy of a factor
    t, n = 95, 48
    assert 8 * n**3 > _LEAF_CACHE_MAX
    bound = _program(g, n).peak
    counting._thread.workspace = None
    tracemalloc.start()
    try:
        count = count_elimination(g, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == verlinde_count(len(g.vertex_ids), t)
    assert 8 * n ** _plan(g).widest < peak <= bound
    if g == k33():
        # three 48**4 float64 tensors, beside the leaf tensors (N and its
        # marginals, under 9 bytes per entry of N) and the run's small
        # allocations
        assert bound <= 3 * 8 * n**4 + 9 * n**3 + counting._RUN_SMALL_BYTES


def test_plan_peak_bounds_the_int64_rerun(monkeypatch):
    # with the float64 bound lowered to 2**10, K3,3 at t = 47 (24 values)
    # reruns in int64: the float64 workspace is released first, and the
    # peak counts the int64 leaves beside the float64 ones
    g = k33()
    monkeypatch.setattr(counting, "_FLOAT_EXACT", 2**10)
    counting._program.cache_clear()
    try:
        program = _program(g, 24)
        counting._thread.workspace = None
        tracemalloc.start()
        try:
            count = count_elimination(g, 47)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        counting._program.cache_clear()
    assert counting._thread.workspace is None  # kept at 8 MB had it not rerun
    assert count == verlinde_count(6, 47)
    assert 8 * program.size < peak <= program.peak


def test_large_workspace_is_released_and_small_one_reused():
    # K3,3 at t = 95 (48 values) needs over 64 MiB of workspace, which is
    # released after the count; at t = 47 (24 values) it needs 8 MB, which
    # the next count reuses
    g = k33()
    assert 8 * _program(g, 48).size > _TENSOR_BUDGET >> 5
    assert count_elimination(g, 95) == verlinde_count(6, 95)
    assert getattr(counting._thread, "workspace", None) is None
    assert count_elimination(g, 47) == verlinde_count(6, 47)
    workspace = counting._thread.workspace
    assert workspace.nbytes == 8 * _program(g, 24).size
    tracemalloc.start()
    try:
        assert count_elimination(g, 47) == verlinde_count(6, 47)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counting._thread.workspace is workspace
    assert peak < 2**20


def test_threads_count_in_their_own_workspaces():
    # each thread runs in its own workspace: a shared one would let one
    # thread's products overwrite the other's tensors
    jobs = [(g, t) for t in range(15, 21) for g in (k33(), prism())]
    serial = [count_elimination(g, t) for g, t in jobs]
    results: dict = {}

    def run(name, order):
        results[name] = [
            (k, count_elimination(*jobs[k])) for _ in range(3) for k in order
        ]

    threads = [
        threading.Thread(target=run, args=("up", range(len(jobs)))),
        threading.Thread(target=run, args=("down", range(len(jobs) - 1, -1, -1))),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for got in results.values():
        assert [count for _, count in got] == [serial[k] for k, _ in got]


@pytest.mark.parametrize("tree", [tree_caterpillar_four(), tree_spider_four()],
                         ids=["caterpillar", "spider"])
def test_nine_edge_trees_match_the_tree_table(tree):
    # the bundled table's odd row, evaluated far past the dilations it was
    # interpolated from
    table = json.loads(files("trivalent").joinpath("data/tree_table.json").read_text())
    t = 43
    expect = sum(Fraction(n, d) * t**k for k, (n, d) in enumerate(table["9"]["odd"]))
    assert count_points(tree, t) == expect



CENSUS = [g for _, group in sorted(connected_13_classes(7).items()) for g in group]

NETWORKS = {
    "k4": k4(), "prism": prism(), "k33": k33(), "theta": theta(),
    "dumbbell": dumbbell(), "lollipop": lollipop(),
    **{f"census{i}": g for i, g in enumerate(CENSUS)},
}


def _symmetric(rng, n, high, dtype=np.int64):
    """A random n x n x n tensor made symmetric: the sum of its six transposes."""
    ind = rng.integers(0, high, size=(n, n, n)).astype(dtype)
    assert not np.array_equal(ind, ind.transpose(1, 0, 2))
    return sum(ind.transpose(axes) for axes in permutations(range(3)))


def _one_einsum(g, three):
    """Reference: g's network of one tensor per degree-3 vertex over its
    slots, contracted along einsum's greedy path without its size cap."""
    letter = dict(zip(g.edges, string.ascii_letters))
    cubic = [v for v in sorted(g.vertex_ids) if g.degrees[v] == 3]
    subscripts = ",".join("".join(letter[e] for e in g.slots(v)) for v in cubic)
    operands = [subscripts + "->", *[three] * len(cubic)]
    path, _ = np.einsum_path(*operands, optimize=("greedy", 2**40))
    return np.einsum(*operands, optimize=path)


# The vertex indicator is symmetric (test_local_rows_are_symmetric), so a
# program reads each leaf in whatever axis order suits it and _marginals
# refuses any other tensor; the wiring is therefore checked on a random
# symmetric tensor.  Its entries still differ across slot values, so pairing
# the wrong edges of two tensors, or reading a loop's or a pendant's sum off
# the wrong leaf, changes the value, where a count of another graph of the
# class would not.
@pytest.mark.parametrize("g", NETWORKS.values(), ids=NETWORKS.keys())
def test_eliminate_matches_one_einsum(g):
    rng = np.random.default_rng(len(g.edges) * 100 + len(g.vertex_ids))
    three = _symmetric(rng, 3, 5)
    assert _run(_program(g, len(three)), _marginals(three)) == int(_one_einsum(g, three))


# Counts cannot catch a program that pairs the wrong axes: the miswired
# network is often another graph with the same degree data, hence (by the
# invariance theorem) the same count.  So each program runs on a symmetric
# float64 tensor that is otherwise random, at 17 values, where each plan's
# widest tensors have 17**4 entries: the products run on transposed views, in
# batches, and after copies.  Past 2**53 both sides round, so they agree to
# a relative 1e-12 rather than exactly.  einsum's default path caps every
# intermediate at the size of an input, which here would mean one 17**9
# loop, so _one_einsum runs its greedy path without that cap.
@pytest.mark.parametrize(
    "g", [k4(), prism(), k33(), k_prism(10)], ids=["k4", "prism", "k33", "10-prism"]
)
def test_program_matches_one_einsum(g):
    three = _symmetric(np.random.default_rng(17), 17, 3, np.float64)
    expect = _one_einsum(g, three)
    assert 17 ** _plan(g).widest >= 2**16
    got = _run(_program(g, len(three)), _marginals(three))
    assert got == pytest.approx(float(expect), rel=1e-12)


def test_plan_widest_frontier():
    # pins the contraction tree: a linear frontier needs 5 axes on K3,3
    assert _plan(k4()).widest == 4
    assert _plan(prism()).widest == 4
    assert _plan(k33()).widest == 4


@pytest.mark.parametrize(
    "g", [*CENSUS, k33()], ids=[*(f"census{i}" for i in range(28)), "k33"]
)
def test_dp_and_greedy_trees_agree(g, monkeypatch):
    dp, greedy = _build_plan(g, _dp_tree), _build_plan(g, _greedy_tree)
    assert dp.widest <= greedy.widest
    leaves = _marginals(_symmetric(np.random.default_rng(len(g.edges)), 3, 5))
    counts = {}
    for name, plan in (("dp", dp), ("greedy", greedy)):
        monkeypatch.setattr(counting, "_plan", lambda g, plan=plan: plan)
        _program.cache_clear()  # else both would run the cached program
        counts[name] = [count_elimination(g, t) for t in (0, 1, 2, 5, Fraction(7, 2))]
        counts[name].append(_run(_program(g, 3), leaves))
    _program.cache_clear()
    assert counts["dp"] == counts["greedy"]


def test_greedy_tree_on_the_ten_prism():
    # a linear frontier needs 11 axes here
    assert _build_plan(k_prism(10), _greedy_tree).widest <= 4


def test_plan_cache_hits_on_equal_graph():
    a, b = k33(), k33()
    assert a is not b and a == b
    first = _plan(a)
    hits = _plan.cache_info().hits
    assert _plan(b) is first
    assert _plan.cache_info().hits == hits + 1


def test_cold_plan_equals_cached():
    assert len(CENSUS) == 28
    cached = [_plan(g) for g in CENSUS]
    _plan.cache_clear()
    assert [_plan(g) for g in CENSUS] == cached
    assert _plan.cache_info().misses == len(CENSUS)


def _reference_indicator(n, rows, strict):
    """Each slot triple x of 0..n-1 tested row by row in Fractions, a row
    (signs, shift, bound) reading signs . (x - shift) <= bound."""
    out = np.zeros((n, n, n), dtype=bool)
    for x in product(range(n), repeat=3):
        lhs = [(sum(s * (v - shift) for s, v in zip(signs, x)), bound)
               for signs, shift, bound in rows]
        out[x] = all((a < b) if strict else (a <= b) for a, b in lhs)
    return out


def _p_rows(t):
    """P's rows at t, for _reference_indicator."""
    return [(signs, 0, alpha * t) for signs, alpha in LOCAL_ROWS]


# The six leaf tensors of a vertex indicator, in _marginals' order: three
# open slots, two, one, none, a loop beside an open slot, beside a pendant.
LEAF_SCRIPTS = ("abc->abc", "abc->ab", "abc->a", "abc->", "aab->b", "aab->")


def test_local_rows_are_symmetric():
    # every permutation of the slots (a, b, c) maps the four rows onto
    # themselves, so the indicator is symmetric and _marginals accepts it;
    # a tensor that is not symmetric is refused
    rows = set(LOCAL_ROWS)
    for perm in permutations(range(3)):
        assert {(tuple(signs[i] for i in perm), alpha) for signs, alpha in rows} == rows
    three = np.zeros((2, 2, 2))
    three[0, 0, 1] = 1  # symmetric in the first two slots only
    with pytest.raises(ValueError, match="not symmetric"):
        _marginals(three)
    three[0, 1, 0] = 1  # in the last two only
    with pytest.raises(ValueError, match="not symmetric"):
        _marginals(three)
    three[1, 0, 0] = 1
    assert len(_marginals(three)) == len(LEAF_SCRIPTS)


@pytest.mark.parametrize(
    "t", [0, 1, 3, 9, Fraction(7, 2), Fraction(10, 3), Fraction(11, 4)], ids=str
)
@pytest.mark.parametrize("strict", [False, True], ids=["closed", "strict"])
def test_rows_bound_every_slot_by_half_t(t, strict):
    # over the loose range 0..floor(t), every triple with a slot past
    # floor(t/2) fails a row; the indicator is the rest, and at the top
    # value floor(t/2) some closed triple holds, so the range is tight.  Each
    # leaf tensor, cold and from the cache, is its einsum of the rest
    half = math.floor(Fraction(t) / 2)
    loose = _reference_indicator(math.floor(t) + 1, _p_rows(Fraction(t)), strict)
    for axis in range(3):
        assert not np.take(loose, range(half + 1, len(loose)), axis=axis).any()
    expect = loose[: half + 1, : half + 1, : half + 1].astype(np.float64)
    assert strict or expect[half].any()
    _shared_leaves.cache_clear()
    for _ in range(2):  # cold, then from the cache
        leaves = _leaf_tensors(*_dilation(t), strict)
        assert len(leaves) == len(LEAF_SCRIPTS)
        for leaf, script in zip(leaves, LEAF_SCRIPTS):
            assert leaf.dtype == np.float64 and leaf.ndim == 1
            assert np.array_equal(leaf, np.ravel(np.einsum(script, expect))), script
    assert _shared_leaves.cache_info().hits == 1


@pytest.mark.parametrize("t", [0, 3, Fraction(7, 2), Fraction(10, 3)], ids=str)
@pytest.mark.parametrize("kind", ["membership", "reflexive"])
@pytest.mark.parametrize("strict", [False, True], ids=["closed", "strict"])
def test_slot_indicator_matches_reference(t, kind, strict):
    # the vertex indicator N, the first leaf tensor.  membership: P at t over
    # 0..floor(t/2).  reflexive: Q at t, four rows bounded by t over the box
    # [-t, t] moved by t*1, which is P at 4t over 0..floor(2t)
    t = Fraction(t)
    if kind == "membership":
        dilation, n, rows = t, math.floor(t / 2) + 1, _p_rows(t)
    else:
        dilation, n, rows = 4 * t, math.floor(2 * t) + 1, [
            (signs, t, t) for signs, _ in LOCAL_ROWS
        ]
    expect = _reference_indicator(n, rows, strict)
    _shared_leaves.cache_clear()
    for _ in range(2):  # cold, then from the cache
        leaves = _leaf_tensors(*_dilation(dilation), strict)
        assert np.array_equal(leaves[0].reshape((n,) * 3), expect)
        # shared: every caller reads one set
        assert not any(leaf.flags.writeable for leaf in leaves)


def test_shared_indicator_is_read_only():
    for leaf in _shared_leaves(7, 1, 3, False):
        with pytest.raises(ValueError):
            leaf[0] = 0


def test_large_indicator_is_not_cached():
    # 21 values (t = 40) is the first key past the cap; 20 values are cached
    hi = 20
    assert 8 * hi**3 <= _LEAF_CACHE_MAX < 8 * (hi + 1) ** 3
    _shared_leaves.cache_clear()
    leaves = _leaf_tensors(2 * hi, 1, hi, False)
    assert leaves[0].shape == ((hi + 1) ** 3,) and leaves[0].flags.writeable
    assert _shared_leaves.cache_info().currsize == 0
    assert not _leaf_tensors(2 * hi - 2, 1, hi - 1, False)[0].flags.writeable
    assert _shared_leaves.cache_info().currsize == 1


@pytest.mark.parametrize(
    "g", [*CENSUS, k4(), prism(), k33()],
    ids=[*(f"census{i}" for i in range(28)), "k4", "prism", "k33"],
)
def test_plans_are_products_only(g):
    # a leaf is read from its leaf tensor in any order, and these trees need
    # no copy of a product either
    assert {kind for kind, *_ in _plan(g).steps} <= {"mul"}


def test_invalid_graph_raises_on_every_count():
    # validate_13 runs where the plan is built and cached; lru_cache keeps no
    # exception, so a bad graph is refused on each call, not only the first;
    # count_tree_dp relies on it too, and the degree-2 path is a tree
    path = make_graph([(1, 1, 2), (2, 2, 3)])
    assert path.is_tree()
    bad = [
        (path, "degree 2"),
        (make_graph([(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 5, 6)]), "two degree-1"),
    ]
    for g, message in bad:
        for _ in range(2):
            with pytest.raises(GraphError, match=message):
                count_elimination(g, 3)
            with pytest.raises(GraphError, match=message):
                count_elimination(g, Fraction(5, 2), strict=True)
            if g is path:
                with pytest.raises(GraphError, match=message):
                    count_tree_dp(g, 3)
        with pytest.raises(GraphError, match=message):
            _plan(g)


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(11, 4), Fraction(10, 3)], ids=str)
def test_rational_dilations_count_as_before(t):
    # semi_reflexive_check's samples go through _dilation's Fraction path,
    # and its floors through the int path; both agree with backtracking
    floor = t.numerator // t.denominator
    assert _dilation(floor) == _dilation(Fraction(floor))
    assert _dilation(t) == (t.numerator, t.denominator, math.floor(t / 2))
    for g in (claw(), theta(), dumbbell(), k4()):
        sys = inequality_system(g)
        assert count_elimination(g, t) == count_backtracking(sys, t)
        assert count_elimination(g, floor) == count_elimination(g, Fraction(floor))
        assert count_elimination(g, floor) == count_backtracking(sys, floor)
    for negative in (-1, Fraction(-1, 2)):
        with pytest.raises(GraphError, match="nonnegative"):
            count_elimination(claw(), negative)
