"""The inequality system of a graph polytope P_G.

Every row comes from one local system per degree-3 vertex v with slot
multiset {a, b, c} (a loop occupies two slots): the four sign patterns

    +w_a + w_b + w_c      +w_a - w_b - w_c
    -w_a + w_b - w_c      -w_a - w_b + w_c

the perimeter row bounded by t and the three metric rows (w_a <= w_b + w_c,
one per slot instance) by 0 (the table LOCAL_ROWS below).

The rows bound every coordinate.  Two metric rows at v add up to 2 w_c >= 0,
and a metric row plus the perimeter row to 2 w_a <= t; every edge touches a
degree-3 vertex, so a lattice point of the t-th dilate lies in
[0, floor(t/2)]^E.

The reflexive body Q = 4 P_G - 1 needs no rows of its own: tQ is 4t P_G
moved by the integer vector -t*1, so it is counted as P_G at 4t.  Written
in Q's coordinates v = 4w - 1, a row c.w <= alpha reads c.v <= 4 alpha -
sum(c), and the right-hand side is 1 for all four patterns.

Rows are stored as (coeffs, alpha) meaning sum_i coeffs_i * w_i <= alpha*t.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graphs import Graph, GraphError, validate_13

Row = tuple[tuple[int, ...], int]

# (signs on the slots (a, b, c), alpha) of one vertex's four rows
LOCAL_ROWS = (((1, 1, 1), 1), ((1, -1, -1), 0), ((-1, 1, -1), 0), ((-1, -1, 1), 0))


@dataclass(frozen=True)
class InequalitySystem:
    """Rows sum(c*w) <= alpha*t over variables in edge_order."""

    edge_order: tuple[int, ...]
    rows: tuple[Row, ...]


def inequality_system(g: Graph) -> InequalitySystem:
    """The rows of LOCAL_ROWS, vertices in ascending id order: per degree-3
    vertex the perimeter row, then one metric row per slot instance.

    Coefficients are built additively, so a loop's two slots add up.
    """
    validate_13(g)
    order = g.edges
    idx = {e: i for i, e in enumerate(order)}
    rows: list[Row] = []
    for v in sorted(g.vertex_ids):
        if g.degrees[v] != 3:
            continue
        slots = g.slots(v)
        for pattern, alpha in LOCAL_ROWS:
            vec = [0] * len(order)
            for sign, s in zip(pattern, slots):
                vec[idx[s]] += sign
            rows.append((tuple(vec), alpha))
    return InequalitySystem(order, tuple(rows))


def contains(sys: InequalitySystem, w: Mapping[int, Fraction] | Sequence, t) -> bool:
    """Exact membership of w in the t-th dilate (w as mapping or edge-ordered sequence)."""
    t = Fraction(t)
    if isinstance(w, Mapping):
        vec = [Fraction(w[e]) for e in sys.edge_order]
    else:
        vec = [Fraction(x) for x in w]
        if len(vec) != len(sys.edge_order):
            raise GraphError("weight vector length does not match edge count")
    for coeffs, alpha in sys.rows:
        if sum(c * x for c, x in zip(coeffs, vec)) > alpha * t:
            return False
    return True
