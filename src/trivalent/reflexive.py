"""Reflexivity suite for the shifted fourfold dilate of a graph polytope.

For a graph G with all degrees in {1, 3} let Q = 4 P_G - 1 (translate the
fourfold dilate by minus the all-ones vector).  Q is a lattice polytope whose
facet system is, per degree-3 vertex with slot multiset {a, b, c}, the four
sign-pattern rows

    +w_a + w_b + w_c <= 1      +w_a - w_b - w_c <= 1
    -w_a + w_b - w_c <= 1      -w_a - w_b + w_c <= 1

These are the rows of P_G's system in the coordinates v = 4w - 1 (see
polytope), and tQ is 4t P_G moved by the integer vector -t*1, so every count
of Q is a count of P_G at 4t.

This module checks reflexivity (interior-point count of (t+1)Q equals the
closed count of tQ), extracts the h* vector of Q from exact counts, and
enumerates vertices of Q by solving every facet subsystem at once in one
batched fraction-free elimination, each distinct vertex confirmed by an
exact solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial

import numpy as np

from . import exactlin
from .counting import count_elimination
from .graphs import Graph, GraphError
from .polytope import inequality_system


@dataclass(frozen=True)
class DilationCounts:
    t: int
    closed: int
    interior_next: int


@dataclass(frozen=True)
class ReflexivityReport:
    t_max: int
    counts: tuple[DilationCounts, ...]
    ok: bool


def reflexivity_check(g: Graph, t_max: int = 3) -> ReflexivityReport:
    """Compare |tQ ∩ Z^m| against |int((t+1)Q) ∩ Z^m| for t = 0..t_max.

    Equality for all t (Ehrhart reciprocity's fingerprint of a reflexive
    polytope) is reported; the t = 0 row asserts the origin is the unique
    interior lattice point of Q itself.  Both counts are of P at 4t and
    4t + 4.
    """
    rows = []
    ok = True
    for t in range(t_max + 1):
        closed = count_elimination(g, 4 * t)
        interior = count_elimination(g, 4 * t + 4, strict=True)
        rows.append(DilationCounts(t=t, closed=closed, interior_next=interior))
        ok = ok and closed == interior
    return ReflexivityReport(t_max=t_max, counts=tuple(rows), ok=ok)


@dataclass(frozen=True)
class HStarVector:
    coefficients: tuple[int, ...]

    @property
    def palindromic(self) -> bool:
        return self.coefficients == self.coefficients[::-1]

    @property
    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coefficients)

    @property
    def normalized_volume(self) -> int:
        return sum(self.coefficients)


def h_star(g: Graph) -> HStarVector:
    """h* vector of Q from exact lattice-point counts at dilations 0..m,
    |jQ ∩ Z^m| being the count of P at 4j.

    Solves sum_k h_k * C(j + m - k, m) = |jQ ∩ Z^m| triangularly; raises if
    the counts are not consistent with integer coefficients (they always are
    for a lattice polytope, so a failure flags a counting bug).
    """
    m = len(g.edges)
    ehrhart = [count_elimination(g, 4 * j) for j in range(m + 1)]
    coeffs: list[int] = []
    for j, value in enumerate(ehrhart):
        acc = value - sum(coeffs[k] * comb(j + m - k, m) for k in range(j))
        coeffs.append(acc)
    if coeffs[0] != 1:
        raise GraphError(f"h* computation lost the origin: h0 = {coeffs[0]}")
    return HStarVector(tuple(coeffs))


def hstar_consistent_with_volume(g: Graph, vector: HStarVector, leading: Fraction) -> bool:
    """Does sum(h*) equal m! times the leading Ehrhart coefficient of Q?

    `leading` is the leading coefficient of the counting polynomial of the
    *graph polytope*; Q scales it by 4^m.
    """
    m = len(g.edges)
    return Fraction(vector.normalized_volume) == leading * 4**m * factorial(m)


def vertex_enumeration(g: Graph) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of Q, sorted: the solutions of its m x m facet
    subsystems that satisfy every facet row.

    Q's facet rows are the coefficient vectors of P's rows, each with
    right-hand side 1.  Repeated rows (from a loop or a parallel pair at one
    vertex, or two vertices with the same slots) are dropped first: a repeat
    adds no constraint, and a subset that holds one is singular.  Every
    m-subset of the distinct rows R, with right-hand side 1, is one layer of
    an int64 stack solved at once by `exactlin.solve_batched`, which gives
    each nonsingular layer's determinant d and y = d x.  Signs are
    normalised to d > 0, so x is a point of Q exactly when R y <= d row by
    row, a test in integers.  Each kept [y | d] is divided by its gcd, which
    makes equal points equal rows, and the distinct rows become Fractions.
    Each distinct vertex is then solved again by `exactlin.solve_square` on
    one of its subsets, an independent exact route; a disagreement raises
    GraphError.

    Rows have entries in -2..2, so with m <= 7 Hadamard's bound stays under
    2**10 and the stack is at most C(16, 7) = 11,440 layers (a graph with
    m <= 7 edges has at most 4 degree-3 vertices, so at most 16 rows).
    Guarded to at most 7 edges: the subset count C(4k, m) explodes beyond
    that, and the acceptance workloads never need more.
    """
    system = inequality_system(g)
    m = len(system.edge_order)
    if m > 7:
        raise GraphError(f"vertex enumeration supports at most 7 edges, got {m}")
    rows = list(dict.fromkeys(row[0] for row in system.rows))
    facets = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    count = comb(len(rows), m)
    subsets = np.fromiter(
        chain.from_iterable(combinations(range(len(rows)), m)), np.intp, count * m
    ).reshape(count, m)
    stack = np.ones((count, m, m + 1), dtype=np.int64)
    for j in range(m):
        stack[:, j, :m] = facets[subsets[:, j]]
    nonsingular, det, y = exactlin.solve_batched(stack)
    flip = det < 0
    det[flip] *= -1
    y[flip] *= -1
    inside = nonsingular
    for row in facets:
        inside &= (y * row).sum(axis=1) <= det
    points = np.concatenate((y, det[:, None]), axis=1)[inside]
    points //= np.gcd.reduce(points, axis=1)[:, None]
    defining: dict[tuple[int, ...], list[int]] = {}
    for point, subset in zip(map(tuple, points.tolist()), subsets[inside].tolist()):
        defining.setdefault(point, subset)

    vertices = []
    for (*num, den), subset in defining.items():
        point = tuple(Fraction(x, den) for x in num)
        if exactlin.solve_square([rows[i] for i in subset], [1] * m) != point:
            raise GraphError(f"vertex {point} disagrees with its exact solve")
        vertices.append(point)
    return tuple(sorted(vertices))
