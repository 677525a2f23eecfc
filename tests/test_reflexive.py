from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from test_exactlin import _fraction_solve

from trivalent import exactlin
from trivalent.catalog import claw, connected_13_classes, dumbbell, k4, theta
from trivalent.counting import count_elimination
from trivalent.ehrhart import quasi_polynomial
from trivalent.graphs import GraphError
from trivalent.polytope import contains, inequality_system
from trivalent.reflexive import (
    HStarVector,
    h_star,
    hstar_consistent_with_volume,
    reflexivity_check,
    vertex_enumeration,
)


def test_reflexivity_claw_counts():
    report = reflexivity_check(claw(), t_max=3)
    assert report.ok and report.t_max == 3
    assert [(c.closed, c.interior_next) for c in report.counts] == [
        (1, 1), (11, 11), (45, 45), (119, 119),
    ]


@pytest.mark.parametrize("g", [theta(), dumbbell(), k4()])
def test_reflexivity_small_graphs(g):
    assert reflexivity_check(g, t_max=3).ok


def test_h_star_claw():
    hs = h_star(claw())
    assert hs.coefficients == (1, 7, 7, 1)
    assert hs.palindromic
    assert hs.nonnegative
    assert hs.normalized_volume == 16


def test_h_star_vector_properties():
    assert HStarVector((1, 2, 2, 1)).palindromic
    assert not HStarVector((1, 2, 3)).palindromic
    assert not HStarVector((1, -1, 1)).nonnegative


def test_h_star_consistent_with_volume():
    g = claw()
    qp = quasi_polynomial(g)
    lead = qp.constituents[0][-1]
    assert hstar_consistent_with_volume(g, h_star(g), lead)
    assert not hstar_consistent_with_volume(g, HStarVector((1, 0, 0, 1)), lead)


def test_h_star_matches_binomial_expansion():
    # E(j) = sum_k h_k * C(j + m - k, m) reproduces the dilation counts
    from math import comb

    g = theta()
    m = len(g.edges)
    hs = h_star(g).coefficients
    for j in range(4):
        expected = sum(hs[k] * comb(j + m - k, m) for k in range(len(hs)))
        assert count_elimination(g, 4 * j) == expected


def test_vertex_enumeration_claw():
    verts = vertex_enumeration(claw())
    assert verts == (
        (-1, -1, -1),
        (-1, 1, 1),
        (1, -1, 1),
        (1, 1, -1),
    )


def test_vertex_enumeration_guard():
    from trivalent.catalog import tree_caterpillar_four  # nine edges

    with pytest.raises(GraphError):
        vertex_enumeration(tree_caterpillar_four())


def _in_q(g, v) -> bool:
    """v is in Q = 4P - 1 exactly when (v + 1)/4 is in P."""
    return contains(inequality_system(g), [(Fraction(x) + 1) / 4 for x in v], 1)


def test_vertices_are_lattice_points_inside():
    for g in (theta(), dumbbell()):
        for v in vertex_enumeration(g):
            assert _in_q(g, v)
            assert all(x.denominator == 1 for x in map(Fraction, v))
        assert not _in_q(g, [2] + [0] * (len(g.edges) - 1))


def _fraction_vertices(g):
    """Reference: every m-subset of facet rows solved and tested in Fractions."""
    system = inequality_system(g)
    m = len(system.edge_order)
    rows = [row[0] for row in system.rows]
    vertices = set()
    for subset in combinations(rows, m):
        point = _fraction_solve(subset, [1] * m)
        if point is None:
            continue
        if all(sum(c * x for c, x in zip(row, point)) <= 1 for row in rows):
            vertices.add(point)
    return tuple(sorted(vertices))


def test_vertex_enumeration_matches_fraction_loop():
    graphs = [
        g for (_, m), group in sorted(connected_13_classes(7).items()) if m <= 5
        for g in group
    ]
    assert len(graphs) == 10
    for g in graphs:
        got = vertex_enumeration(g)
        assert got == _fraction_vertices(g)
        assert all(type(x) is Fraction for v in got for x in v)


def _solve_each_subset(g):
    """Reference: every m-subset of the distinct facet rows solved on its own
    by exactlin.solve_square, each solution tested against every row in
    integers."""
    system = inequality_system(g)
    m = len(system.edge_order)
    rows = list(dict.fromkeys(row[0] for row in system.rows))
    vertices = set()
    for subset in combinations(rows, m):
        point = exactlin.solve_square(subset, [1] * m)
        if point is None:
            continue
        den = lcm(*(x.denominator for x in point))
        num = [x.numerator * (den // x.denominator) for x in point]
        if all(sum(c * x for c, x in zip(row, num)) <= den for row in rows):
            vertices.add(point)
    return tuple(sorted(vertices))


CENSUS = sorted(connected_13_classes(7).items())


def test_vertex_enumeration_matches_solving_each_subset():
    # every class with m = 6, and two with m = 7: the one with the fewest
    # distinct rows and one with 16, the widest stack (C(16, 7) subsets)
    graphs = [g for (_, m), group in CENSUS if m == 6 for g in group]
    sevens = [g for (_, m), group in CENSUS if m == 7 for g in group]
    widths = [len(set(row[0] for row in inequality_system(g).rows)) for g in sevens]
    graphs.append(sevens[widths.index(min(widths))])
    graphs.append(sevens[widths.index(16)])
    assert len(graphs) == 10
    for g in graphs:
        assert vertex_enumeration(g) == _solve_each_subset(g)


def test_every_vertex_of_q_is_integral():
    # the premise of the quasi-polynomial's period 4 and of reflexivity:
    # Q = 4P - 1 is a lattice polytope, on every class with m <= 7
    graphs = [g for _, group in CENSUS for g in group]
    assert len(graphs) == 28
    for g in graphs:
        vertices = vertex_enumeration(g)
        assert len(vertices) > len(g.edges)  # full-dimensional
        assert all(x.denominator == 1 for v in vertices for x in v)
        assert all(_in_q(g, v) for v in vertices)


def test_vertex_enumeration_checks_each_vertex_by_an_exact_solve(monkeypatch):
    solve_square = exactlin.solve_square
    calls = []

    def counted(m, rhs):
        calls.append(m)
        return solve_square(m, rhs)

    def perturbed(m, rhs):
        x = counted(m, rhs)
        return None if x is None else (x[0] + Fraction(1, 2), *x[1:])

    g = theta()
    expected = vertex_enumeration(g)
    monkeypatch.setattr(exactlin, "solve_square", perturbed)
    with pytest.raises(GraphError, match="disagrees"):
        vertex_enumeration(g)
    assert len(calls) == 1

    # one exact solve per distinct vertex, none for the other subsets
    monkeypatch.setattr(exactlin, "solve_square", counted)
    calls.clear()
    assert vertex_enumeration(g) == expected
    assert len(calls) == len(expected)
