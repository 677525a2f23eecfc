"""Edge-weight inequality systems attached to a graph.

For each degree-3 vertex v with slot multiset {a, b, c} (a loop occupies two
slots) the local system S(v) is

    w_a + w_b + w_c <= t          (perimeter)
    w_a <= w_b + w_c              (one metric row per slot instance)
    w_b <= w_a + w_c
    w_c <= w_a + w_b

The graph polytope is the solution set of the union of all S(v); it sits
inside [0, t]^E because every edge touches a degree-3 vertex.  Rows are stored
as (coeffs, alpha, beta) meaning  sum_i coeffs_i * w_i <= alpha*t + beta.

A second row family encodes the reflexive-candidate polytope obtained by
scaling the unit-dilation polytope by 4 and centering at the all-ones/4 point:
per vertex, the four sign patterns

    +w_a + w_b + w_c <= 1,  +w_a - w_b - w_c <= 1,
    -w_a + w_b - w_c <= 1,  -w_a - w_b + w_c <= 1,

whose solution set lives in [-1, 1]^E.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graphs import Graph, GraphError, validate_13

Row = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class InequalitySystem:
    """Rows sum(c*w) <= alpha*t + beta over variables in edge_order.

    box is "nonneg" (solutions lie in [0, t]^E) or "symmetric" (in [-s, s]^E
    where s is the unit-row bound); it steers lattice enumeration only, the
    bounds being implied by the rows.
    """

    edge_order: tuple[int, ...]
    rows: tuple[Row, ...]
    box: str = "nonneg"


def _vertex_slot_rows(slots: Sequence[int], idx: Mapping[int, int], width: int) -> list[tuple[int, ...]]:
    """Metric rows for one vertex, one per slot instance, built additively."""
    rows = []
    for i in range(len(slots)):
        vec = [0] * width
        for j, s in enumerate(slots):
            vec[idx[s]] += 1 if j == i else -1
        rows.append(tuple(vec))
    return rows


def inequality_system(g: Graph) -> InequalitySystem:
    """Membership rows of the graph polytope, vertices in ascending id order."""
    validate_13(g)
    order = g.edges
    idx = {e: i for i, e in enumerate(order)}
    rows: list[Row] = []
    for v in sorted(g.vertex_ids):
        if g.degrees[v] != 3:
            continue
        slots = g.slots(v)
        perim = [0] * len(order)
        for s in slots:
            perim[idx[s]] += 1
        rows.append((tuple(perim), 1, 0))
        for vec in _vertex_slot_rows(slots, idx, len(order)):
            rows.append((vec, 0, 0))
    return InequalitySystem(order, tuple(rows), box="nonneg")


def reflexive_system(g: Graph) -> InequalitySystem:
    """Rows of the reflexive candidate: 4 sign-pattern rows per degree-3 vertex."""
    validate_13(g)
    order = g.edges
    idx = {e: i for i, e in enumerate(order)}
    rows: list[Row] = []
    for v in sorted(g.vertex_ids):
        if g.degrees[v] != 3:
            continue
        slots = g.slots(v)
        patterns = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        for pat in patterns:
            vec = [0] * len(order)
            for sign, s in zip(pat, slots):
                vec[idx[s]] += sign
            rows.append((tuple(vec), 0, 1))
    return InequalitySystem(order, tuple(rows), box="symmetric")


def contains(sys: InequalitySystem, w: Mapping[int, Fraction] | Sequence, t) -> bool:
    """Exact membership of w in the t-th dilate (w as mapping or edge-ordered sequence)."""
    t = Fraction(t)
    if isinstance(w, Mapping):
        vec = [Fraction(w[e]) for e in sys.edge_order]
    else:
        vec = [Fraction(x) for x in w]
        if len(vec) != len(sys.edge_order):
            raise GraphError("weight vector length does not match edge count")
    for coeffs, alpha, beta in sys.rows:
        if sum(c * x for c, x in zip(coeffs, vec)) > alpha * t + beta:
            return False
    return True
