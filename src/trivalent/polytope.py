"""Edge-weight inequality systems attached to a graph.

Every row comes from one local system per degree-3 vertex v with slot
multiset {a, b, c} (a loop occupies two slots): the four sign patterns

    +w_a + w_b + w_c      +w_a - w_b - w_c
    -w_a + w_b - w_c      -w_a - w_b + w_c

each bounded by alpha*t + beta, with (alpha, beta) fixed per pattern by the
kind of system (the table KINDS below).

* "membership", the graph polytope P_G: the perimeter row is bounded by t and
  the three metric rows (w_a <= w_b + w_c, one per slot instance) by 0.  It
  sits inside [0, t]^E because every edge touches a degree-3 vertex.
* "reflexive", the candidate Q = 4 P_G - 1 obtained by scaling the
  unit-dilation polytope by 4 and centering it at the all-ones/4 point: all
  four rows are bounded by t, so the t-th dilate tQ lives in [-t, t]^E.

Rows are stored as (coeffs, alpha, beta) meaning
sum_i coeffs_i * w_i <= alpha*t + beta.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graphs import Graph, GraphError, validate_13

Row = tuple[tuple[int, ...], int, int]

SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

# kind -> ((alpha, beta) for each of SIGN_PATTERNS, box)
KINDS = {
    "membership": (((1, 0), (0, 0), (0, 0), (0, 0)), "nonneg"),
    "reflexive": (((1, 0),) * 4, "symmetric"),
}


@dataclass(frozen=True)
class InequalitySystem:
    """Rows sum(c*w) <= alpha*t + beta over variables in edge_order.

    box is "nonneg" (solutions of the t-th dilate lie in [0, t]^E) or
    "symmetric" (in [-t, t]^E); it steers lattice enumeration only, the
    bounds being implied by the rows.
    """

    edge_order: tuple[int, ...]
    rows: tuple[Row, ...]
    box: str = "nonneg"


def _system(g: Graph, kind: str) -> InequalitySystem:
    """The rows of KINDS[kind], vertices in ascending id order, each vertex's
    four rows in the order of SIGN_PATTERNS.

    Coefficients are built additively, so a loop's two slots add up.
    """
    validate_13(g)
    bounds, box = KINDS[kind]
    order = g.edges
    idx = {e: i for i, e in enumerate(order)}
    rows: list[Row] = []
    for v in sorted(g.vertex_ids):
        if g.degrees[v] != 3:
            continue
        slots = g.slots(v)
        for pattern, (alpha, beta) in zip(SIGN_PATTERNS, bounds):
            vec = [0] * len(order)
            for sign, s in zip(pattern, slots):
                vec[idx[s]] += sign
            rows.append((tuple(vec), alpha, beta))
    return InequalitySystem(order, tuple(rows), box)


def inequality_system(g: Graph) -> InequalitySystem:
    """Membership rows of the graph polytope: per degree-3 vertex the
    perimeter row, then one metric row per slot instance."""
    return _system(g, "membership")


def reflexive_system(g: Graph) -> InequalitySystem:
    """Rows of the reflexive candidate: 4 sign-pattern rows per degree-3 vertex."""
    return _system(g, "reflexive")


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
