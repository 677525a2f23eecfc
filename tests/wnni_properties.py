"""Shared samplers and invariant checks for weighted-NNI property tests.

The acceptance suite drives these with seeded loops; the unit tests wrap the
same checks in hypothesis strategies.  Everything is exact Fraction
arithmetic, so a failed check is a real counterexample, not noise.
"""
from __future__ import annotations

import random
from fractions import Fraction

from trivalent.catalog import connected_13_classes, tree_three_internal
from trivalent.counting import iter_lattice_points
from trivalent.exactlin import determinant, matvec
from trivalent.graphs import Graph
from trivalent.nni import Trail, legal_trails
from trivalent.polytope import contains, inequality_system
from trivalent.weighted import (
    apply_weighted_nni,
    case_delta,
    case_matrix,
    case_of,
    resolve_site,
    weight_delta,
)


def site_pool() -> list[tuple[Graph, Trail]]:
    """All (graph, trail) pairs with a degree-3 pivot on both ends."""
    graphs = [g for group in connected_13_classes(6).values() for g in group]
    graphs.append(tree_three_internal())
    pool = []
    for g in graphs:
        for trail in legal_trails(g):
            u, v = trail.u, trail.v
            if g.degrees[u] == 3 and g.degrees[v] == 3:
                pool.append((g, trail))
    return pool


def polytope_points(g: Graph, t: int = 3) -> list[tuple[int, ...]]:
    return list(iter_lattice_points(inequality_system(g), t))


def sample_weights(rng: random.Random, m: int) -> list[Fraction]:
    """Arbitrary rational weights, including negatives and ties."""
    return [
        Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4)))
        for _ in range(m)
    ]


def sample_membership_case(
    rng: random.Random, g: Graph, pts: list[tuple[int, ...]]
) -> tuple[Fraction, list[Fraction]]:
    """A rational t in [0, 5] and an exact point of the t-dilate.

    Convex combinations of lattice points of the 3-dilate are rescaled by
    t/3; all membership rows are homogeneous in t, so the rescaling is exact.
    """
    den = rng.randint(1, 8)
    t = Fraction(rng.randint(0, 5 * den), den)
    p = rng.choice(pts)
    q = rng.choice(pts)
    lam = Fraction(rng.randint(0, 8), 8)
    return t, [
        (lam * a + (1 - lam) * b) * t / 3 for a, b in zip(p, q)
    ]


def check_involution(g: Graph, trail: Trail, w_vals: list[Fraction]) -> None:
    w = dict(zip(g.edges, w_vals))
    h, w2 = apply_weighted_nni(g, w, trail)
    back = Trail(trail.a, trail.v, trail.e, trail.u, trail.b)
    g2, w3 = apply_weighted_nni(h, w2, back)
    assert g2 == g, (trail, w_vals)
    assert w3 == w, (trail, w_vals)


def check_membership(g: Graph, trail: Trail, t: Fraction, w_vals: list[Fraction]) -> None:
    w = dict(zip(g.edges, w_vals))
    assert contains(inequality_system(g), w, t)
    h, w2 = apply_weighted_nni(g, w, trail)
    assert contains(inequality_system(h), w2, t), (trail, t, w_vals)


def check_piecewise_matches_max(g: Graph, trail: Trail, w_vals: list[Fraction]) -> None:
    w = dict(zip(g.edges, w_vals))
    site = resolve_site(g, trail)
    case = case_of(site, w)
    assert case_delta(site, case, w) == weight_delta(site, w), (trail, w_vals)
    mat = case_matrix(site, case, g.edges)
    assert determinant(mat) in (1, -1)
    _, w2 = apply_weighted_nni(g, w, trail)
    image = matvec(mat, [w[e] for e in g.edges])
    assert list(image) == [w2[e] for e in g.edges], (trail, w_vals)


def check_boundary_continuity(g: Graph, trail: Trail, w_vals: list[Fraction]) -> None:
    """On either case hyperplane the two adjacent linear formulas agree."""
    w = dict(zip(g.edges, w_vals))
    site = resolve_site(g, trail)
    a, b = site.trail.a, site.trail.b
    c, d = site.c, site.d
    # force w onto the h1 = 0 hyperplane: w_a + w_c = w_b + w_d
    w1 = dict(w)
    w1[d] = w1[a] + w1[c] - w1[b]
    if d not in (a, b, c):
        assert case_delta(site, "A", w1) == case_delta(site, "C", w1)
        assert case_delta(site, "B", w1) == case_delta(site, "D", w1)
        assert weight_delta(site, w1) == case_delta(site, case_of(site, w1), w1)
    # and onto h2 = 0: w_a + w_d = w_b + w_c
    w2 = dict(w)
    w2[d] = w2[b] + w2[c] - w2[a]
    if d not in (a, b, c):
        assert case_delta(site, "A", w2) == case_delta(site, "B", w2)
        assert case_delta(site, "C", w2) == case_delta(site, "D", w2)
        assert weight_delta(site, w2) == case_delta(site, case_of(site, w2), w2)
