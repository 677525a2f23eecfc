"""The benchmark's four workloads.

A workload is built once per process by its setup function, which returns a
`Workload`.  `Workload.items(k)` gives the items of pass k: each item has a
`run` (the timed call into the library) and a `check` (an independent route
to the same answer, run afterwards and untimed).  A check receives the item's
output and the outputs of the whole pass by item name, for checks that
compare items with each other.

The library is always reached through module attributes (`tv.ehrhart.
quasi_polynomial`, never a name bound at import), so a traced run sees every
call through the wrappers that `tracer.Tracer` installs.

Checks compare against invariants and oracles only: closed forms, the bundled
table, invariance within a class, a second counting route.  Implementation
counts such as the number of scissors pieces are recorded by the traced run,
never asserted, so a correct change that alters them does not read as a
failure.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Any, Callable


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], bool]


@dataclass
class Workload:
    name: str
    seeded: bool
    items: Callable[[int], list[Item]]
    # id(graph) -> name, for graphs the traced run reports by name
    labels: dict[int, str] = field(default_factory=dict)
    # fingerprint(seed, k): the inputs of pass k, comparable with ==
    fingerprint: Callable[[int, int], Any] | None = None


def _odd_constituents(qp) -> list:
    return [qp.constituents[r % qp.period] for r in (1, 3)]


# -- cubic-qp -------------------------------------------------------------------


def prism(tv):
    """Triangular prism: two triangles joined by three rungs (cubic, 9 edges)."""
    return tv.graphs.make_graph(
        [(1, 1, 2), (2, 2, 3), (3, 1, 3), (4, 4, 5), (5, 5, 6), (6, 4, 6),
         (7, 1, 4), (8, 2, 5), (9, 3, 6)]
    )


def k33(tv):
    """Complete bipartite K3,3 (cubic, 9 edges): the prism's class, wider elimination."""
    return tv.graphs.make_graph(
        [(3 * (i - 1) + (j - 3), i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    )


K33_DILATIONS = (19, 21, 23)


def cubic_qp(tv, seed: int) -> Workload:
    g_prism, g_k4, g_k33 = prism(tv), tv.catalog.k4(), k33(tv)

    def qp_check(g):
        n = len(g.vertex_ids)

        def check(qp, _outputs):
            zagier = tv.ehrhart.zagier_polynomial(n)
            return (
                all(c == zagier for c in _odd_constituents(qp))
                and tv.ehrhart.volume_check(g, qp).ok
            )

        return check

    def count_check(t):
        def check(count, outputs):
            ok = count == tv.ehrhart.verlinde_count(6, t)
            qp = outputs.get("qp:prism")
            if qp is None:  # the prism item failed; fall back to its closed form
                poly = tv.ehrhart.zagier_polynomial(6)
                return ok and count == sum(c * t**i for i, c in enumerate(poly))
            return ok and count == qp.evaluate(t)

        return check

    items = [
        Item("qp:prism", lambda: tv.ehrhart.quasi_polynomial(g_prism), qp_check(g_prism)),
        Item("qp:k4", lambda: tv.ehrhart.quasi_polynomial(g_k4), qp_check(g_k4)),
    ]
    for t in K33_DILATIONS:
        items.append(
            Item(f"count:k33:{t}", lambda t=t: tv.counting.count_elimination(g_k33, t),
                 count_check(t))
        )
    return Workload("cubic-qp", False, lambda k: items,
                    labels={id(g_prism): "prism", id(g_k33): "k33"})


# -- census-7 -------------------------------------------------------------------

SEMI_SAMPLES = (Fraction(1, 2), Fraction(11, 4), Fraction(10, 3))
VERTEX_MAX_EDGES = 5


def census_7(tv, seed: int) -> Workload:
    classes = tv.catalog.connected_13_classes(7)
    import trivalent.cli as cli

    def run_graph(g):
        m = len(g.edges)
        return {
            "qp": tv.ehrhart.quasi_polynomial(g),
            "hstar": tv.reflexive.h_star(g),
            "reflexive": tv.reflexive.reflexivity_check(g, t_max=3),
            "semi": tv.ehrhart.semi_reflexive_check(g, SEMI_SAMPLES),
            "vertices": tv.reflexive.vertex_enumeration(g) if m <= VERTEX_MAX_EDGES else None,
        }

    def check_graph(g, siblings):
        m = len(g.edges)

        def check(out, outputs):
            qp, hs = out["qp"], out["hstar"]
            lead = qp.constituents[0][-1]
            ok = (
                out["reflexive"].ok
                and out["semi"].ok
                and hs.palindromic
                and hs.nonnegative
                and all(c[-1] == lead for c in qp.constituents)
                and hs.normalized_volume == factorial(m) * lead * 4**m
            )
            # invariance: equal to the first sibling whose item succeeded
            ref = next((outputs[s]["qp"] for s in siblings if s in outputs), qp)
            ok = ok and qp == ref
            if out["vertices"] is not None:
                # Q = 4P - 1 is a lattice polytope with the origin inside
                ok = ok and len(out["vertices"]) > m and all(
                    x.denominator == 1 for v in out["vertices"] for x in v
                )
            return ok

        return check

    items = []
    for (n, m), group in sorted(classes.items()):
        names = [f"graph:{n}:{m}:{i}" for i in range(len(group))]
        for name, g in zip(names, group):
            items.append(Item(name, lambda g=g: run_graph(g), check_graph(g, names)))
    items.append(
        Item("tree-table:9", lambda: cli.computed_tree_table(9),
             lambda table, _outputs: table == cli.bundled_tree_table())
    )
    return Workload("census-7", False, lambda k: items)


# -- scissors-k4t4 --------------------------------------------------------------


def scissors_k4t4(tv, seed: int) -> Workload:
    pairs = (
        ("k4-t4", tv.catalog.k4(), tv.catalog.t4(), range(5)),
        ("theta-dumbbell", tv.catalog.theta(), tv.catalog.dumbbell(), range(7)),
    )

    def run(src, dst, dilations):
        seq = tv.nni.graph_sequence(src, dst)
        d = tv.scissors.build_decomposition(src, seq)
        return tv.scissors.verify_decomposition(d, dilations)

    def check(src):
        def go(report, _outputs):
            return (
                report.ok
                and all(x in (1, -1) for x in report.determinants)
                and all(c.points == tv.counting.count_points(src, c.t) for c in report.dilations)
            )

        return go

    items = [
        Item(f"scissors:{name}", lambda s=s, d=d, r=r: run(s, d, r), check(s))
        for name, s, d, r in pairs
    ]
    return Workload("scissors-k4t4", False, lambda k: items)


# -- nni-pairs ------------------------------------------------------------------

INTERNAL_PAIRS = tuple(combinations(range(1, 8), 2))
TREES_PER_INTERNAL_PAIR = 13
FOUR_INTERNAL_TREES = 30
FOUR_INTERNAL_PAIRS = 120
TRANSPORT_T = 4
TRANSPORT_POINTS = 3


def three_internal_trees(tv, internal_pair):
    """Every {1,3}-tree on edge ids 1..7 whose internal edges are the given pair (60 trees)."""
    ia, ib = internal_pair
    ext = [e for e in range(1, 8) if e not in internal_pair]
    out = []
    for e12, e23 in ((ia, ib), (ib, ia)):
        for left in combinations(ext, 2):
            rest = [e for e in ext if e not in left]
            for mid in rest:
                right = [e for e in rest if e != mid]
                out.append(tv.graphs.make_graph(
                    [(e12, 1, 2), (e23, 2, 3), (left[0], 1, 4), (left[1], 1, 5),
                     (mid, 2, 6), (right[0], 3, 7), (right[1], 3, 8)]
                ))
    return out


def four_internal_tree(tv, rng, spider: bool):
    """A random labeled {1,3}-tree with 4 internal vertices, internal ids 1..3."""
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
        leaf = 5
        for v, k in ((1, 2), (2, 1), (3, 1), (4, 2)):
            for _ in range(k):
                edges.append((ext.pop(), v, leaf))
                leaf += 1
    return tv.graphs.make_graph(edges)


def nni_pairs(tv, seed: int) -> Workload:
    classes = tv.catalog.connected_13_classes(7)
    points = {
        g: list(tv.counting.iter_lattice_points(tv.polytope.inequality_system(g), TRANSPORT_T))
        for group in classes.values() for g in group
    }
    tree_groups = [three_internal_trees(tv, pair) for pair in INTERNAL_PAIRS]

    def inputs(seed_: int, k: int):
        """Pass k: for each internal-edge pair, every ordered pair of a seeded
        choice of its trees; 120 four-internal pairs; and every ordered pair
        within each catalog class, with source lattice points to transport.

        Taking a few trees from every internal-edge pair, rather than all
        trees of a few pairs, keeps the pass's cost independent of the seed:
        the cost of a tree pair depends on its labels."""
        rng = random.Random(f"nni-pairs/{seed_}/{k}")
        tree_pairs = []
        for group in tree_groups:
            chosen = rng.sample(group, TREES_PER_INTERNAL_PAIR)
            tree_pairs += [(a, b) for a in chosen for b in chosen]
        four = [four_internal_tree(tv, rng, spider=bool(i % 2)) for i in range(FOUR_INTERNAL_TREES)]
        tree_pairs += [(rng.choice(four), rng.choice(four)) for _ in range(FOUR_INTERNAL_PAIRS)]
        graph_pairs = [
            (g1, g2, tuple(rng.sample(points[g1], min(TRANSPORT_POINTS, len(points[g1])))))
            for _, group in sorted(classes.items())
            for g1 in group for g2 in group
        ]
        return tree_pairs, graph_pairs

    def tree_item(a, b):
        def check(seq, _outputs):
            return tv.graphs.same_labeled_graph(tv.nni.replay(a, seq.moves), b)

        return Item("tree", lambda: tv.nni.tree_sequence(a, b), check)

    def graph_item(g1, g2, weights):
        def run():
            plain = tv.nni.graph_sequence(g1, g2)
            restricted = tv.nni.graph_sequence(g1, g2, restrict_to_spanning_trees=True)
            moved = [
                tv.weighted.replay_weighted(g1, dict(zip(g1.edges, w)), plain.moves)
                for w in weights
            ]
            return plain, restricted, moved

        def check(out, _outputs):
            plain, restricted, moved = out
            ok = True
            for seq in (plain, restricted):
                rel = seq.relabel_map
                image = tv.nni.replay(g1, seq.moves).rename_edges(rel)
                ok = ok and tv.graphs.same_labeled_graph(image, g2)
            t1, t2 = tv.graphs.spanning_tree(g1), tv.graphs.spanning_tree(g2)
            internal2 = set(tv.graphs.classify_edges(g2)[1])
            rel = restricted.relabel_map
            ok = ok and all(
                mv.e in t1 and rel.get(mv.e, mv.e) in t2 & internal2 for mv in restricted.moves
            )
            target = tv.polytope.inequality_system(g2)
            rel = plain.relabel_map
            for graph, w in moved:
                ok = ok and tv.graphs.same_labeled_graph(graph.rename_edges(rel), g2)
                image = {rel.get(e, e): x for e, x in w.items()}
                ok = ok and tv.polytope.contains(target, image, TRANSPORT_T)
            return ok

        return Item("graph", run, check)

    def items(k: int) -> list[Item]:
        tree_pairs, graph_pairs = inputs(seed, k)
        return [tree_item(a, b) for a, b in tree_pairs] + [
            graph_item(g1, g2, w) for g1, g2, w in graph_pairs
        ]

    return Workload("nni-pairs", True, items, fingerprint=inputs)


WORKLOADS = {
    "cubic-qp": cubic_qp,
    "census-7": census_7,
    "scissors-k4t4": scissors_k4t4,
    "nni-pairs": nni_pairs,
}
