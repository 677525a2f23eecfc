"""Acceptance suite: one test per published capability, one line per run.

Each test is self-contained and exact; random checks are seeded so failures
reproduce.  Expected values that double as oracles are written out literally.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib.resources import files
from itertools import combinations
from math import factorial

from trivalent.catalog import (
    TABLE_TREES,
    claw,
    connected_13_classes,
    dumbbell,
    k4,
    t4,
    theta,
)
from trivalent.counting import count_backtracking, count_points, count_tree_dp
from trivalent.ehrhart import (
    quasi_polynomial,
    semi_reflexive_check,
    verlinde_count,
    volume_check,
    zagier_polynomial,
)
from trivalent.graphs import (
    classify_edges,
    make_graph,
    same_labeled_graph,
    spanning_tree,
)
from trivalent.nni import graph_sequence, replay, tree_sequence
from trivalent.polytope import inequality_system
from trivalent.reflexive import h_star, hstar_consistent_with_volume, reflexivity_check
from trivalent.scissors import build_decomposition, verify_decomposition

from labeled_trees import random_four_internal, trees_three_internal, trees_two_internal
from wnni_properties import (
    check_boundary_continuity,
    check_involution,
    check_membership,
    check_piecewise_matches_max,
    polytope_points,
    sample_membership_case,
    sample_weights,
    site_pool,
)

F = Fraction


def test_criterion_01_tree_table_reproduction():
    reference = json.loads(
        files("trivalent").joinpath("data/tree_table.json").read_text()
    )
    for m, trees in sorted(TABLE_TREES.items()):
        qps = [quasi_polynomial(g) for g in trees]
        # trees with equal edge count share one row (both 4-internal trees)
        assert all(qp == qps[0] for qp in qps[1:]), m
        qp = qps[0]
        assert qp.period in (1, 2)
        even = [[c.numerator, c.denominator] for c in qp.constituents[0]]
        odd = [[c.numerator, c.denominator] for c in qp.constituents[1 % qp.period]]
        assert even == reference[str(m)]["even"], m
        assert odd == reference[str(m)]["odd"], m


def test_criterion_02_quasi_polynomial_invariance():
    classes = connected_13_classes(7)
    assert sum(len(v) for v in classes.values()) == 28
    for (n, m), group in sorted(classes.items()):
        qps = [quasi_polynomial(g) for g in group]
        assert all(qp == qps[0] for qp in qps[1:]), (n, m)


def test_criterion_03_verlinde_agreement():
    cubic = {2: theta(), 4: k4()}
    for n, g in cubic.items():
        poly = zagier_polynomial(n)
        for t in (1, 3, 5):
            enumerated = count_points(g, t)
            assert verlinde_count(n, t) == enumerated, (n, t)
            assert sum(c * t**k for k, c in enumerate(poly)) == enumerated, (n, t)
    assert verlinde_count(2, 1) == 1
    assert verlinde_count(2, 3) == 5
    # odd constituent of the n=2 quasi-polynomial, coefficient by coefficient
    qp = quasi_polynomial(theta())
    assert zagier_polynomial(2) == qp.constituents[1 % qp.period]


def test_criterion_04_volume_closed_form():
    for g, lead in (
        (theta(), F(1, 24)),
        (dumbbell(), F(1, 24)),
        (k4(), F(1, 1440)),
        (t4(), F(1, 1440)),
    ):
        report = volume_check(g)
        assert report.ok and report.expected_leading == lead
        assert all(c == lead for c in report.leading)


def test_criterion_05_scissors_tiling(k4_t4):
    # theta -> dumbbell: exactly two pieces with the advertised matrices
    seq = graph_sequence(theta(), dumbbell())
    d = build_decomposition(theta(), seq)
    assert len(d.pieces) == 2
    frozen = sorted((p.constraints, p.matrix) for p in d.pieces)
    assert frozen == [
        ((((-1, 1, 0), "<"),), ((1, 0, 0), (0, 1, 0), (-1, 1, 1))),
        ((((-1, 1, 0), ">="),), ((1, 0, 0), (0, 1, 0), (1, -1, 1))),
    ]
    report = verify_decomposition(d, range(7))
    assert report.ok and set(report.determinants) <= {1, -1}
    for check in report.dilations:
        assert check.unique_cover and check.matches_replay and check.image_is_target

    # K4 -> T4 along the constructed sequence
    seq, d = k4_t4
    assert same_labeled_graph(
        replay(k4(), seq.moves).rename_edges(seq.relabel_map), t4()
    )
    report = verify_decomposition(d, range(5))
    assert report.ok and set(report.determinants) <= {1, -1}
    for check in report.dilations:
        assert check.unique_cover and check.matches_replay and check.image_is_target


def test_criterion_06_weighted_nni_properties():
    pool = site_pool()
    points = {g: polytope_points(g) for g, _ in pool}
    cases = 1000

    rng = random.Random(61001)
    for _ in range(cases):
        g, trail = rng.choice(pool)
        check_involution(g, trail, sample_weights(rng, len(g.edges)))

    rng = random.Random(61002)
    for _ in range(cases):
        g, trail = rng.choice(pool)
        t, w = sample_membership_case(rng, g, points[g])
        check_membership(g, trail, t, w)

    rng = random.Random(61003)
    for _ in range(cases):
        g, trail = rng.choice(pool)
        check_piecewise_matches_max(g, trail, sample_weights(rng, len(g.edges)))

    rng = random.Random(61004)
    for _ in range(cases):
        g, trail = rng.choice(pool)
        check_boundary_continuity(g, trail, sample_weights(rng, len(g.edges)))


def test_criterion_07_reflexivity():
    assert h_star(claw()).coefficients == (1, 7, 7, 1)
    for (n, m), group in sorted(connected_13_classes(7).items()):
        for g in group:
            assert reflexivity_check(g, t_max=3).ok, (n, m)
            hs = h_star(g)
            assert hs.palindromic and hs.nonnegative, (n, m)
            qp = quasi_polynomial(g)
            lead = qp.constituents[0][-1]
            assert all(c[-1] == lead for c in qp.constituents)
            assert hstar_consistent_with_volume(g, hs, lead), (n, m)
            # the h* entries resum to the normalized volume of the body
            assert sum(hs.coefficients) == factorial(m) * lead * 4**m


def test_criterion_08_semi_reflexivity():
    samples = (F(1, 2), F(5, 4), F(11, 4), F(10, 3))
    for g in (claw(), theta(), dumbbell()):
        report = semi_reflexive_check(g, samples)
        assert report.ok
        for s, count, floor_count in report.samples:
            assert count == floor_count == count_points(g, int(s))


def test_criterion_09_nni_engine_soundness():
    # tree_sequence: exhaustive over labeled trees with 1..3 internal vertices
    one = [make_graph([(1, 1, 2), (2, 1, 3), (3, 1, 4)])]
    for a in one:
        for b in one:
            assert same_labeled_graph(replay(a, tree_sequence(a, b).moves), b)

    two = trees_two_internal()
    by_internal = {}
    for g in two:
        by_internal.setdefault(frozenset(classify_edges(g)[1]), []).append(g)
    for group in by_internal.values():
        for a in group:
            for b in group:
                seq = tree_sequence(a, b)
                assert same_labeled_graph(replay(a, seq.moves), b)

    for internal_pair in combinations(range(1, 8), 2):
        group = trees_three_internal(internal_pair)
        for a in group:
            for b in group:
                seq = tree_sequence(a, b)
                assert same_labeled_graph(replay(a, seq.moves), b)

    # four internal vertices: seeded samples, including caterpillar/spider pairs
    rng = random.Random(61009)
    trees = [random_four_internal(rng, spider=bool(i % 2)) for i in range(30)]
    for _ in range(120):
        a, b = rng.choice(trees), rng.choice(trees)
        seq = tree_sequence(a, b)
        assert same_labeled_graph(replay(a, seq.moves), b)

    # graph_sequence: every ordered pair of connected graphs with m <= 6,
    # plain and with the spanning-tree pivot restriction
    for (n, m), group in sorted(connected_13_classes(6).items()):
        for g1 in group:
            for g2 in group:
                seq = graph_sequence(g1, g2)
                image = replay(g1, seq.moves).rename_edges(seq.relabel_map)
                assert same_labeled_graph(image, g2), (n, m)

                seq = graph_sequence(g1, g2, restrict_to_spanning_trees=True)
                t1, t2 = spanning_tree(g1), spanning_tree(g2)
                internal2 = set(classify_edges(g2)[1])
                rel = seq.relabel_map
                for mv in seq.moves:
                    assert mv.e in t1, (n, m, mv)
                    assert rel.get(mv.e, mv.e) in t2 & internal2, (n, m, mv)
                image = replay(g1, seq.moves).rename_edges(rel)
                assert same_labeled_graph(image, g2), (n, m)


def test_criterion_10_counting_oracle_equivalence():
    trees = [g for group in connected_13_classes(7).values() for g in group
             if g.is_tree()]
    assert len(trees) == 3  # one shape each for 1, 2, 3 internal vertices
    for g in trees:
        sys = inequality_system(g)
        for t in range(13):
            assert count_tree_dp(g, t) == count_backtracking(sys, t), (g, t)
