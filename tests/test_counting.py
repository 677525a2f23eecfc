"""Cross-checks between the tensor counting route and the backtracking oracle."""
import json
import string
import threading
import tracemalloc
from fractions import Fraction
from importlib.resources import files
from itertools import product

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
    _INDICATOR_CACHE_MAX,
    _TENSOR_BUDGET,
    _build_plan,
    _dilation,
    _dp_tree,
    _greedy_tree,
    _plan,
    _program,
    _run,
    _shared_indicator,
    _slot_indicator,
    count_backtracking,
    count_elimination,
    count_points,
    count_tree_dp,
    iter_lattice_points,
)
from trivalent.ehrhart import verlinde_count
from trivalent.graphs import GraphError, make_graph
from trivalent.polytope import KINDS, SIGN_PATTERNS, inequality_system, reflexive_system


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


def _box_points(sys, t, strict=False):
    """Reference: every point of the box, in lexicographic order, kept when it
    satisfies each row (strictly, with strict=True)."""
    m = len(sys.edge_order)
    lo = 0 if sys.box == "nonneg" else -t
    box = np.array(list(product(range(lo, t + 1), repeat=m)), dtype=np.int64)
    coeffs = np.array([c for c, _, _ in sys.rows], dtype=np.int64)
    bound = np.array([alpha * t + beta for _, alpha, beta in sys.rows], dtype=np.int64)
    lhs = box @ coeffs.T
    keep = (lhs < bound) if strict else (lhs <= bound)
    return [tuple(map(int, p)) for p in box[keep.all(axis=1)]]


def test_iter_lattice_points_matches_membership():
    # every class with at most 7 edges; the reflexive box [-t, t]^7 is kept small
    graphs = [g for group in connected_13_classes(7).values() for g in group]
    assert len(graphs) == 28
    for g in graphs:
        for system, t_max in ((inequality_system(g), 4), (reflexive_system(g), 2)):
            for t in range(t_max + 1):
                pts = list(iter_lattice_points(system, t))
                assert pts == _box_points(system, t), (g, system.box, t)
                assert count_backtracking(system, t) == len(pts), (g, system.box, t)
                assert count_backtracking(system, t, strict=True) == len(
                    _box_points(system, t, strict=True)
                ), (g, system.box, t)


def test_elimination_reflexive_kind():
    # reflexive-candidate body of the claw at t=1 contains 11 lattice points
    assert count_elimination(claw(), 1, kind="reflexive") == 11
    assert count_elimination(claw(), 0, kind="reflexive") == 1
    # interior counts at t+1 reproduce closed counts at t for a reflexive body
    assert count_elimination(claw(), 2, kind="reflexive", strict=True) == 11


@pytest.mark.parametrize(
    "g", [claw(), theta(), dumbbell(), k4(), t4(), prism()],
    ids=["claw", "theta", "dumbbell", "k4", "t4", "prism"],
)
@pytest.mark.parametrize("t", [0, 1, 2, 3, Fraction(5, 2)], ids=str)
def test_backtracking_matches_elimination_on_reflexive(g, t):
    sys = reflexive_system(g)
    for strict in (False, True):
        assert count_backtracking(sys, t, strict=strict) == count_elimination(
            g, t, kind="reflexive", strict=strict
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


@pytest.mark.parametrize("t", [57, 59])
def test_elimination_at_the_float64_boundary(t):
    # 58**9 < 2**53 <= 60**9: t = 57 is exact in float64 by the a-priori
    # bound, t = 59 by the check of every step's largest entry
    assert (58**9 < 2**53) and (60**9 >= 2**53)
    assert count_elimination(prism(), t) == verlinde_count(6, t)


@pytest.mark.parametrize("count", [count_elimination, count_tree_dp])
def test_huge_dilation_is_refused_before_allocating(count):
    # (10**15 + 1)**3 is past the int64 ceiling; a value range of that length
    # would need 8 PB, so the bound must be checked on the length alone
    with pytest.raises(GraphError, match="count too large"):
        count(claw(), 10**15)


@pytest.mark.parametrize("k,n", [(8, 16), (10, 20)], ids=["8-prism", "10-prism"])
@pytest.mark.parametrize("t", [5, 7, 9])
def test_large_prisms_exact_past_the_bound(k, n, t):
    # (t+1)**(3k) is past 2**62, but every step's largest entry stays below
    # 2**53, so the float64 contraction is exact
    assert (t + 1) ** (3 * k) >= 2**62
    assert count_elimination(k_prism(k), t) == verlinde_count(n, t)


def test_inexact_float_count_is_refused():
    # the 10-prism at t = 11 has a step entry above 2**53 (plain float64 is
    # off by 39 there) and its bound 12**30 is past int64
    with pytest.raises(GraphError, match="count too large"):
        count_elimination(k_prism(10), 11)


def test_inexact_float_count_reruns_in_int64(monkeypatch):
    # with the float64 limit lowered, the prism's steps fail the check and the
    # count is made again on int64 arrays; with the int64 limit lowered too it
    # is refused
    monkeypatch.setattr(counting, "_FLOAT_EXACT", 2**10)
    assert count_elimination(prism(), 9) == verlinde_count(6, 9)
    monkeypatch.setattr(counting, "_INT64_LIMIT", 2**20)
    with pytest.raises(GraphError, match="count too large"):
        count_elimination(prism(), 9)


@pytest.mark.parametrize("count", [count_elimination, count_tree_dp])
def test_tensor_budget_is_checked_before_allocating(count):
    # K4's widest tensor has 4 axes; the claw's only tensor is the indicator
    g, t = (k4(), 200) if count is count_elimination else (claw(), 700)
    rank = _plan(g).widest if count is count_elimination else 3
    assert 8 * (t + 1) ** rank > _TENSOR_BUDGET > 8 * (t + 1) ** (rank - 1)
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
        count_elimination(g, 127)
    monkeypatch.setattr(counting, "_TENSOR_BUDGET", 8 * 32 ** _plan(g).widest)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="budget"):
            count_elimination(g, 31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("g", [k4(), prism(), k33()], ids=["k4", "prism", "k33"])
def test_plan_peaks_bound_the_traced_memory(g):
    # at t = 47 the indicator is built per call and the workspace, released
    # first, is allocated in the count, so both are traced.  K3,3's widest
    # step holds both 4-axis factors and the result, and nothing else of that
    # size: no copy of a factor
    t = 47
    assert (t + 1) ** 3 > _INDICATOR_CACHE_MAX
    bound = _program(g, t + 1).peak
    counting._thread.workspace = None
    tracemalloc.start()
    try:
        count = count_elimination(g, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == verlinde_count(len(g.vertex_ids), t)
    assert 8 * (t + 1) ** _plan(g).widest < peak <= bound
    if g == k33():
        # three 48**4 float64 tensors, beside the indicator as float64 and
        # bool and the run's small allocations
        assert bound <= 3 * 8 * (t + 1) ** 4 + 9 * (t + 1) ** 3 + counting._RUN_SMALL_BYTES


def test_large_workspace_is_released_and_small_one_reused():
    # K3,3 at t = 47 needs over 64 MiB of workspace, which is released after
    # the count; at t = 23 it needs 8 MB, which the next count reuses
    g = k33()
    assert 8 * _program(g, 48).size > _TENSOR_BUDGET >> 5
    assert count_elimination(g, 47) == verlinde_count(6, 47)
    assert getattr(counting._thread, "workspace", None) is None
    assert count_elimination(g, 23) == verlinde_count(6, 23)
    workspace = counting._thread.workspace
    assert workspace.nbytes == 8 * _program(g, 24).size
    tracemalloc.start()
    try:
        assert count_elimination(g, 23) == verlinde_count(6, 23)
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


# A random tensor that is not symmetric in its three slots sees the wiring:
# pairing the wrong axes, or reading a loop's diagonal off the wrong slots,
# changes the value, where a count of another graph of the class would not.
@pytest.mark.parametrize("g", NETWORKS.values(), ids=NETWORKS.keys())
def test_eliminate_matches_one_einsum(g):
    rng = np.random.default_rng(len(g.edges) * 100 + len(g.vertex_ids))
    ind = rng.integers(0, 5, size=(3, 3, 3), dtype=np.int64)
    assert not np.array_equal(ind, ind.transpose(1, 0, 2))
    letter = dict(zip(g.edges, string.ascii_letters))
    cubic = [v for v in sorted(g.vertex_ids) if g.degrees[v] == 3]
    subscripts = ",".join("".join(letter[e] for e in g.slots(v)) for v in cubic)
    expect = np.einsum(subscripts + "->", *[ind] * len(cubic), optimize=True)
    assert _run(_program(g, len(ind)), ind) == int(expect)


# Counts cannot catch a program that pairs the wrong axes: the miswired
# network is often another graph with the same degree data, hence (by the
# invariance theorem) the same count.  So each program runs on a float64
# tensor that is not symmetric in its slots, at 17 values, where each plan's
# widest tensors have 17**4 entries: the products run on transposed views, in
# batches, and after copies.  Past 2**53 both sides round, so they agree to
# a relative 1e-12 rather than exactly.  einsum's default path caps every
# intermediate at the size of an input, which here means one 17**9 loop, so
# its greedy path runs without that cap.
@pytest.mark.parametrize(
    "g", [k4(), prism(), k33(), k_prism(10)], ids=["k4", "prism", "k33", "10-prism"]
)
def test_program_matches_one_einsum(g):
    rng = np.random.default_rng(17)
    ind = rng.integers(0, 3, size=(17, 17, 17)).astype(np.float64)
    assert not np.array_equal(ind, ind.transpose(1, 0, 2))
    assert not np.array_equal(ind, ind.transpose(0, 2, 1))
    letter = dict(zip(g.edges, string.ascii_letters))
    cubic = [v for v in sorted(g.vertex_ids) if g.degrees[v] == 3]
    subscripts = ",".join("".join(letter[e] for e in g.slots(v)) for v in cubic)
    operands = [subscripts + "->", *[ind] * len(cubic)]
    path, _ = np.einsum_path(*operands, optimize=("greedy", 2**40))
    expect = np.einsum(*operands, optimize=path)
    assert 17 ** _plan(g).widest >= 2**16
    assert _run(_program(g, len(ind)), ind) == pytest.approx(float(expect), rel=1e-12)


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
    rng = np.random.default_rng(len(g.edges))
    ind = rng.integers(0, 5, size=(3, 3, 3), dtype=np.int64)
    counts = {}
    for name, plan in (("dp", dp), ("greedy", greedy)):
        monkeypatch.setattr(counting, "_plan", lambda g, plan=plan: plan)
        counts[name] = [count_elimination(g, t) for t in (0, 1, 2, 5, Fraction(7, 2))]
        counts[name].append(_run(_program(g, len(ind)), ind))
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


def _reference_indicator(t, kind, strict):
    """Each slot triple tested row by row, in integers."""
    p, q, lo, hi = _dilation(t, KINDS[kind][1])
    n = hi - lo + 1
    out = np.zeros((n, n, n), dtype=bool)
    for a, b, c in product(range(lo, hi + 1), repeat=3):
        ok = True
        for pattern, (alpha, beta) in zip(SIGN_PATTERNS, KINDS[kind][0]):
            lhs = q * sum(s * x for s, x in zip(pattern, (a, b, c)))
            bound = alpha * p + beta * q
            ok = ok and (lhs < bound if strict else lhs <= bound)
        out[a - lo, b - lo, c - lo] = ok
    return out


@pytest.mark.parametrize("t", [0, 3, Fraction(7, 2), Fraction(10, 3)], ids=str)
@pytest.mark.parametrize("kind", ["membership", "reflexive"])
@pytest.mark.parametrize("strict", [False, True], ids=["closed", "strict"])
def test_slot_indicator_matches_reference(t, kind, strict):
    p, q, lo, hi = _dilation(t, KINDS[kind][1])
    expect = _reference_indicator(t, kind, strict)
    _shared_indicator.cache_clear()
    for _ in range(2):  # cold, then from the cache
        ind = _slot_indicator(lo, hi, p, q, kind, strict)
        assert ind.dtype == bool
        assert np.array_equal(ind, expect)
        assert not ind.flags.writeable  # shared: every caller reads one tensor


def test_shared_indicator_is_read_only():
    ind = _shared_indicator(0, 3, 3, 1, "membership", False)
    with pytest.raises(ValueError):
        ind[0, 0, 0] = False


def test_large_indicator_is_not_cached():
    t = 45
    assert (t + 1) ** 3 > _INDICATOR_CACHE_MAX
    before = _shared_indicator.cache_info()
    ind = _slot_indicator(0, t, t, 1, "membership", False)
    assert ind.shape == (t + 1,) * 3 and ind.dtype == bool
    assert _shared_indicator.cache_info() == before


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
                count_elimination(g, Fraction(5, 2), kind="reflexive", strict=True)
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
    assert _dilation(floor, "nonneg") == _dilation(Fraction(floor), "nonneg")
    assert _dilation(t, "symmetric") == (t.numerator, t.denominator, -floor, floor)
    for g in (claw(), theta(), dumbbell(), k4()):
        sys = inequality_system(g)
        assert count_elimination(g, t) == count_backtracking(sys, t)
        assert count_elimination(g, floor) == count_elimination(g, Fraction(floor))
        assert count_elimination(g, floor) == count_backtracking(sys, floor)
    for negative in (-1, Fraction(-1, 2)):
        with pytest.raises(GraphError, match="nonnegative"):
            count_elimination(claw(), negative)
