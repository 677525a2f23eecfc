"""Weight transport along moves: the piecewise-unimodular edge-weight map.

For a move with trail (a, u, e, v, b) on a graph whose pivot endpoints both
have degree 3, let c be the remaining slot at u besides {a, e} and d the
remaining slot at v besides {b, e}.  Only the pivot weight changes:

    w'_e = w_e + max(w_a + w_c, w_b + w_d) - max(w_b + w_c, w_a + w_d)

All other coordinates are fixed.  The map is an involution (composing with the
reversed trail restores w), maps integer weights to integer weights, and
carries the dilated weight polytope of the source graph onto that of the
target graph.

The max expression splits into four linear cases on the sign pattern of

    h1 = w_a + w_c - w_b - w_d        h2 = w_a + w_d - w_b - w_c

    h1 >= 0, h2 >= 0  (case A):  w'_e = w_e + w_c - w_d
    h1 >= 0, h2 <  0  (case B):  w'_e = w_e + w_a - w_b
    h1 <  0, h2 >= 0  (case C):  w'_e = w_e + w_b - w_a
    h1 <  0, h2 <  0  (case D):  w'_e = w_e + w_d - w_c

HYPERPLANES and CASES below hold this table; everything that reads a case
(case_of, case_delta, case_matrix, site_normals, scissors) reads it there,
while weight_delta keeps the max formula the table is tested against.

Each case is a unimodular matrix (identity with the pivot row replaced); the
four agree on the boundary hyperplanes h1 = 0 and h2 = 0.  When the four slot
edges coincide in pairs the hyperplanes degenerate: a = c and b = d forces
h2 = 0 identically, a = d and b = c forces h1 = 0 identically (then
w'_e = w_e + |w_a - w_b| with a single breaking hyperplane), and c = d makes
the weight map the identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .exactlin import IntMatrix, identity, primitive
from .graphs import Graph, GraphError
from .nni import NniError, Trail, apply_nni

Weighting = dict[int, Fraction]


@dataclass(frozen=True)
class NniSite:
    """A trail together with the two bystander slots c (at u) and d (at v)."""

    trail: Trail
    c: int
    d: int

    @property
    def slots(self) -> tuple[int, int, int, int]:
        """The edges in the slots a, b, c, d, in that order."""
        return self.trail.a, self.trail.b, self.c, self.d


# positions in NniSite.slots
_a, _b, _c, _d = range(4)

# h1 and h2, each as (slots added, slots subtracted)
HYPERPLANES = (((_a, _c), (_b, _d)), ((_a, _d), (_b, _c)))

# case: ((h1 >= 0, h2 >= 0), slot added to w_e, slot subtracted from w_e)
CASES = {
    "A": ((True, True), _c, _d),
    "B": ((True, False), _a, _b),
    "C": ((False, True), _b, _a),
    "D": ((False, False), _d, _c),
}


def as_weighting(g: Graph, values: Mapping[int, object] | Sequence[object]) -> Weighting:
    """Coerce values to a Fraction weighting keyed by g's edge ids.

    A sequence is matched against g.edges in ascending id order.
    """
    if isinstance(values, Mapping):
        pairs = {int(k): Fraction(v) for k, v in values.items()}
    else:
        vals = list(values)
        if len(vals) != len(g.edges):
            raise GraphError(
                f"expected {len(g.edges)} weights, got {len(vals)}"
            )
        pairs = {e: Fraction(v) for e, v in zip(g.edges, vals)}
    if set(pairs) != set(g.edges):
        raise GraphError("weighting keys do not match the edge ids")
    return pairs


def resolve_site(g: Graph, trail: Trail) -> NniSite:
    """Identify the bystander slots; both pivot endpoints must have degree 3."""
    if trail.e not in g.incidence:
        raise NniError(f"pivot edge {trail.e} does not exist")
    pu, pv = g.endpoints(trail.e)
    if {pu, pv} != {trail.u, trail.v} or pu == pv:
        raise NniError(f"edge {trail.e} is not a pivot between {trail.u} and {trail.v}")
    for vertex in (trail.u, trail.v):
        if g.degrees[vertex] != 3:
            raise NniError(
                f"pivot endpoint {vertex} has degree {g.degrees[vertex]}; "
                "weighted moves need degree 3"
            )
    c = _remaining_slot(g, trail.u, trail.e, trail.a)
    d = _remaining_slot(g, trail.v, trail.e, trail.b)
    return NniSite(trail=trail, c=c, d=d)


def _remaining_slot(g: Graph, vertex: int, e: int, moved: int) -> int:
    slots = list(g.slots(vertex))
    for x in (e, moved):
        if x not in slots:
            raise NniError(f"edge {x} has no slot at vertex {vertex}")
        slots.remove(x)
    if len(slots) != 1:
        raise NniError(f"vertex {vertex} does not have exactly 3 slots")
    return slots[0]


def weight_delta(site: NniSite, w: Mapping[int, Fraction]) -> Fraction:
    """The pivot-weight increment of the move, by the max formula."""
    wa, wb = w[site.trail.a], w[site.trail.b]
    wc, wd = w[site.c], w[site.d]
    return max(wa + wc, wb + wd) - max(wb + wc, wa + wd)


def apply_weighted_nni(
    g: Graph, w: Mapping[int, Fraction], trail: Trail
) -> tuple[Graph, Weighting]:
    return replay_weighted(g, w, (trail,))


def replay_weighted(
    g: Graph, w: Mapping[int, Fraction], moves: Iterable[Trail]
) -> tuple[Graph, Weighting]:
    """Apply the moves to g and carry w along them, move by move.

    w is scaled once by the lcm of its denominators, so the moves run in
    integers; the result is divided back into Fractions at the end.  This is
    exact: weight_delta uses only +, - and max, which commute with scaling by
    a positive integer.
    """
    fractions = {e: Fraction(x) for e, x in w.items()}
    scale = lcm(*(x.denominator for x in fractions.values()))
    out = {e: x.numerator * (scale // x.denominator) for e, x in fractions.items()}
    for trail in moves:
        site = resolve_site(g, trail)
        out[trail.e] += weight_delta(site, out)
        g = apply_nni(g, trail)
    return g, {e: Fraction(x, scale) for e, x in out.items()}


def case_of(site: NniSite, w: Mapping[int, Fraction]) -> str:
    """Which linear case A/B/C/D applies to weighting w at this site."""
    x = [w[e] for e in site.slots]
    sides = tuple(x[p] + x[q] - x[r] - x[s] >= 0 for (p, q), (r, s) in HYPERPLANES)
    return next(case for case, (case_sides, _, _) in CASES.items() if case_sides == sides)


def case_delta(site: NniSite, case: str, w: Mapping[int, Fraction]) -> Fraction:
    _, plus, minus = CASES[case]
    return w[site.slots[plus]] - w[site.slots[minus]]


def case_matrix(
    site: NniSite, case: str, edge_order: Sequence[int]
) -> IntMatrix:
    """Unimodular matrix of the case: identity with the pivot row replaced.

    Rows/columns follow edge_order.  Built additively so coinciding slots
    cancel correctly; the determinant is always +1 (the pivot's own diagonal
    entry stays 1 because c, d, a, b are all distinct from e).
    """
    idx = {eid: i for i, eid in enumerate(edge_order)}
    return _apply_case(identity(len(edge_order)), site, case, idx)


def _apply_case(
    matrix: IntMatrix, site: NniSite, case: str, idx: Mapping[int, int]
) -> IntMatrix:
    """Row update equal to case_matrix(site, case) @ matrix, done in O(m)."""
    _, plus, minus = CASES[case]
    slots = site.slots
    e_i = idx[site.trail.e]
    urow = tuple(
        p + q - r
        for p, q, r in zip(matrix[e_i], matrix[idx[slots[plus]]], matrix[idx[slots[minus]]])
    )
    return tuple(urow if i == e_i else row for i, row in enumerate(matrix))


def site_normals(
    site: NniSite, edge_order: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normals of h1 and h2 in edge_order coordinates, neither reduced nor
    sign-normalized.

    Built additively, so coinciding slots add up or cancel (a zero normal is
    a degenerate hyperplane).
    """
    idx = {eid: i for i, eid in enumerate(edge_order)}
    slots = site.slots
    out = []
    for pos, neg in HYPERPLANES:
        vec = [0] * len(edge_order)
        for k in pos:
            vec[idx[slots[k]]] += 1
        for k in neg:
            vec[idx[slots[k]]] -= 1
        out.append(tuple(vec))
    return out[0], out[1]


def site_hyperplanes(
    site: NniSite, edge_order: Sequence[int]
) -> list[tuple[int, ...]]:
    """Normals of h1 and h2 in edge_order coordinates, each made primitive
    (gcd 1, first nonzero entry positive); zero normals dropped, duplicates
    merged."""
    out: list[tuple[int, ...]] = []
    for vec in site_normals(site, edge_order):
        if not any(vec):
            continue
        norm = primitive(vec)
        if norm not in out:
            out.append(norm)
    return out
