"""Half-open unimodular decomposition induced by a move sequence.

Replaying a move sequence on weightings is piecewise linear: each move splits
weight space by (at most) two hyperplanes into linear cases A-D, each of which
acts as a unimodular matrix.  Composing along the sequence yields a partition
of the source polytope into half-open cones, one integer matrix per cone,
mapping lattice points of every dilate of the source polytope bijectively onto
those of the target polytope.

Cones are intersections of constraints  n.x >= 0  (weak) and  n.x < 0
(strict) with normals pulled back through the accumulated matrices.  Children
whose cone misses the source polytope are discarded.  Emptiness is decided
over the homogeneous part of the polytope's system (the metric cone; the
perimeter rows scale away) by exact certificates: every piece carries an
integer witness point that lands in exactly one child per move, constraint
bookkeeping catches duplicated or contradicted half-spaces, and for the rest
a float LP proposes either an interior point or a Farkas combination.  Every
row is homogeneous, so any positive multiple of either is again a
certificate: the proposal is rounded, scaled to a nonnegative integer vector
and validated in integer arithmetic, with the exact simplex as the fallback.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .counting import iter_lattice_points
from .exactlin import (
    IntMatrix,
    determinant,
    divide_gcd,
    identity,
    max_epsilon,
    matvec,
    vecmat,
)
from .graphs import Graph, GraphError
from .nni import MoveSequence, apply_nni
from .polytope import inequality_system
from .weighted import NniSite, resolve_site, site_normals, weight_delta

WEAK = ">="
STRICT = "<"

Constraint = tuple[tuple[int, ...], str]


@dataclass(frozen=True)
class Piece:
    """A half-open cone, its matrix, and an integer point of the cone.

    The witness lies in the metric cone of the source, so it is a lattice
    point of every source dilate large enough to hold it.
    """

    constraints: tuple[Constraint, ...]
    matrix: IntMatrix
    witness: tuple[int, ...]

    def claims(self, w: Sequence[Fraction]) -> bool:
        for vec, sense in self.constraints:
            val = sum(c * x for c, x in zip(vec, w))
            if sense == WEAK:
                if val < 0:
                    return False
            else:
                if val >= 0:
                    return False
        return True


@dataclass(frozen=True)
class Decomposition:
    source: Graph
    target: Graph
    moves: MoveSequence
    edge_order: tuple[int, ...]
    pieces: tuple[Piece, ...]


_CASE_SENSES = {
    "A": (WEAK, WEAK),
    "B": (WEAK, STRICT),
    "C": (STRICT, WEAK),
    "D": (STRICT, STRICT),
}

_DEAD = "dead"
_SKIP = "skip"
_ADD = "add"


def _classify_constraint(existing: list[Constraint], vec: tuple[int, ...], sense: str) -> str:
    """Decide a new half-space row against the rows already present.

    Sound field rules only: an identical row is skipped; a row implied by a
    strictly stronger one is skipped; a row contradicting the same (or the
    negated) normal makes the child empty.
    """
    neg = tuple(-x for x in vec)
    if (vec, sense) in existing:
        return _SKIP
    if sense == WEAK:
        if (neg, STRICT) in existing:  # p > 0 already holds
            return _SKIP
        if (vec, STRICT) in existing:  # p < 0 contradicts p >= 0
            return _DEAD
    else:
        if (vec, WEAK) in existing or (neg, STRICT) in existing:
            return _DEAD
    return _ADD


def _cone_rows(g: Graph) -> list[tuple[tuple[int, ...], int]]:
    """Homogeneous rows of the polytope system (the metric cone).

    Perimeter rows have positive right-hand sides and scale away, so strict
    feasibility inside the polytope equals strict feasibility in this cone
    intersected with the orthant.
    """
    base = inequality_system(g)
    return [(row[0], 0) for row in base.rows if row[1] == 0 and row[2] == 0]


def _float_lp(
    weak: list[tuple[int, ...]], strict: list[tuple[int, ...]], m: int
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Float tableau simplex for the eps problem; returns (eps, x, duals).

    Duals are reported for the weak+strict rows (eps <= 1 row excluded).
    Returns None if the float search fails to converge; every answer is
    re-verified exactly by the caller, so this routine only has to be fast,
    not trustworthy.
    """
    nrows = len(weak) + len(strict) + 1
    ncols = m + 1 + nrows
    T = np.zeros((nrows + 1, ncols + 1))
    for i, vec in enumerate(weak):
        T[i, :m] = vec
    for k, vec in enumerate(strict):
        i = len(weak) + k
        T[i, :m] = vec
        T[i, m] = 1.0
    T[nrows - 1, m] = 1.0
    T[nrows - 1, ncols] = 1.0  # eps <= 1
    T[: nrows, m + 1 : m + 1 + nrows] = np.eye(nrows)
    T[nrows, m] = 1.0  # objective: maximize eps
    basis = list(range(m + 1, m + 1 + nrows))
    ratios = np.empty(nrows)
    for _ in range(200):
        obj = T[nrows, :ncols]
        entering = int(obj.argmax())
        if obj[entering] <= 1e-9:
            break
        col = T[:nrows, entering]
        mask = col > 1e-9
        if not mask.any():
            return None  # unbounded should not happen (eps <= 1)
        ratios.fill(np.inf)
        np.divide(T[:nrows, ncols], col, out=ratios, where=mask)
        leave = int(ratios.argmin())
        T[leave] /= T[leave, entering]
        factors = T[:, entering].copy()
        factors[leave] = 0.0
        T -= factors[:, None] * T[leave]
        basis[leave] = entering
    else:
        return None
    eps = -T[nrows, ncols]
    x = np.zeros(m)
    for i, b in enumerate(basis):
        if b < m:
            x[b] = T[i, ncols]
    duals = -T[nrows, m + 1 : m + nrows]  # weak+strict slack reduced costs
    return eps, x, duals


_ZERO_TOL = 1e-12
_DENOMINATOR_LIMIT = 10**6
_ZERO = Fraction(0)


def _round(values: Iterable[float]) -> list[Fraction]:
    """Nearby nonnegative rationals; entries at or below _ZERO_TOL become 0."""
    return [
        Fraction(v).limit_denominator(_DENOMINATOR_LIMIT) if v > _ZERO_TOL else _ZERO
        for v in values
    ]


def _clear_denominators(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector."""
    den = lcm(*(v.denominator for v in values))
    return divide_gcd([v.numerator * (den // v.denominator) for v in values])


def _dot(vec: Sequence[int], x: Sequence[int]) -> int:
    return sum(c * v for c, v in zip(vec, x))


def _certify(
    constraints: Sequence[Constraint],
    cone: list[tuple[tuple[int, ...], int]],
    m: int,
) -> tuple[int, ...] | None:
    """An integer point of the half-open cone inside the body, or None if empty.

    A float LP proposes the answer: a primal point (nonempty) or Farkas
    multipliers (empty).  It is rounded to rationals and scaled to a
    nonnegative integer vector, which every row being homogeneous allows, and
    then checked exactly in integer arithmetic.  Only when neither
    certificate validates does the exact simplex run; its point is scaled to
    integers the same way.
    """
    strict_vecs = [vec for vec, sense in constraints if sense == STRICT]
    if not strict_vecs:
        return (0,) * m  # the origin qualifies
    weak_vecs = [vec for vec, _ in cone]
    weak_vecs += [
        tuple(-x for x in vec) for vec, sense in constraints if sense == WEAK
    ]
    sol = _float_lp(weak_vecs, strict_vecs, m)
    if sol is not None:
        eps, x_f, duals = sol
        if eps > 1e-7:
            x = _clear_denominators(_round(x_f))
            if all(_dot(vec, x) <= 0 for vec in weak_vecs) and all(
                _dot(vec, x) < 0 for vec in strict_vecs
            ):
                return x
        else:
            y = _clear_denominators(_round(duals))
            n_weak = len(weak_vecs)
            # y >= 0 with y.W + y.S >= 0 coordinatewise and sum over strict
            # rows positive forces eps <= 0 for every feasible point
            if any(y[n_weak:]):
                used = [(yv, vec) for yv, vec in zip(y, weak_vecs + strict_vecs) if yv]
                if all(sum(yv * vec[j] for yv, vec in used) >= 0 for j in range(m)):
                    return None
    eps, x = max_epsilon(
        [(vec, 0) for vec in weak_vecs],
        [(vec, 0) for vec in strict_vecs],
        m,
        point=True,
        early_positive=True,
    )
    return _clear_denominators(x) if eps > 0 else None


def _apply_case(matrix: IntMatrix, site: NniSite, case: str, idx: Mapping[int, int]) -> IntMatrix:
    """Row update equal to case_matrix(site, case) @ matrix, done in O(m)."""
    from .weighted import _CASE_INCREMENT, _slot_id

    plus, minus = _CASE_INCREMENT[case]
    prow = matrix[idx[site.trail.e]]
    urow = tuple(
        p + q - r
        for p, q, r in zip(
            prow, matrix[idx[_slot_id(site, plus)]], matrix[idx[_slot_id(site, minus)]]
        )
    )
    e_i = idx[site.trail.e]
    return tuple(urow if i == e_i else row for i, row in enumerate(matrix))


def build_decomposition(g: Graph, seq: MoveSequence) -> Decomposition:
    """Split the source polytope along the sequence's case hyperplanes.

    Every surviving piece is nonempty inside the source polytope and carries
    an integer witness point; piece matrices all have determinant +1.
    """
    edge_order = g.edges
    m = len(edge_order)
    idx = {e: i for i, e in enumerate(edge_order)}
    cone = _cone_rows(g)
    # all-ones weights satisfy every metric row with slack, so they are a
    # valid starting witness for the unconstrained root piece
    pieces: list[Piece] = [Piece((), identity(m), (1,) * m)]
    current = g
    for trail in seq.moves:
        site = resolve_site(current, trail)
        h1, h2 = site_normals(site, edge_order)
        next_pieces: list[Piece] = []
        for piece in pieces:
            p1 = vecmat(h1, piece.matrix)
            p2 = vecmat(h2, piece.matrix)
            s1 = _dot(p1, piece.witness)
            s2 = _dot(p2, piece.witness)
            normals = (divide_gcd(p1), divide_gcd(p2))
            for case, senses in _CASE_SENSES.items():
                constraints = list(piece.constraints)
                dead = False
                for vec, sense in zip(normals, senses):
                    if not any(vec):
                        if sense == STRICT:
                            dead = True  # 0 < 0 never holds
                            break
                        continue  # 0 >= 0 always holds
                    verdict = _classify_constraint(constraints, vec, sense)
                    if verdict == _DEAD:
                        dead = True
                        break
                    if verdict == _ADD:
                        constraints.append((vec, sense))
                if dead:
                    continue
                wa, wb = senses
                witness_here = ((s1 >= 0) == (wa == WEAK)) and (
                    (s2 >= 0) == (wb == WEAK)
                )
                if witness_here:
                    point = piece.witness
                else:
                    point = _certify(constraints, cone, m)
                    if point is None:
                        continue
                next_pieces.append(
                    Piece(
                        tuple(constraints),
                        _apply_case(piece.matrix, site, case, idx),
                        point,
                    )
                )
        pieces = next_pieces
        current = apply_nni(current, trail)
    return Decomposition(
        source=g,
        target=current,
        moves=seq,
        edge_order=edge_order,
        pieces=tuple(pieces),
    )


def evaluate_piecewise(
    d: Decomposition, w: Mapping[int, object] | Sequence
) -> tuple[int, tuple[Fraction, ...]]:
    """Locate the unique piece claiming w and return (piece index, image)."""
    if isinstance(w, Mapping):
        vec = [Fraction(w[e]) for e in d.edge_order]
    else:
        vec = [Fraction(x) for x in w]
    holders = [i for i, p in enumerate(d.pieces) if p.claims(vec)]
    if len(holders) != 1:
        raise GraphError(
            f"weight vector claimed by {len(holders)} pieces; "
            "it must lie in a dilate of the source polytope"
        )
    i = holders[0]
    return i, matvec(d.pieces[i].matrix, vec)


@dataclass(frozen=True)
class DilationCheck:
    t: int
    points: int
    unique_cover: bool
    matches_replay: bool
    image_is_target: bool


@dataclass(frozen=True)
class VerificationReport:
    determinants: tuple[int, ...]
    dilations: tuple[DilationCheck, ...]
    ok: bool


_INT64_SAFE = 2**40


def verify_decomposition(d: Decomposition, dilations: Iterable[int]) -> VerificationReport:
    """Exhaustive lattice-point verification at the given dilations.

    For each t: every point of the source dilate is claimed by exactly one
    piece (scanning all pieces); the piece matrix agrees with move-by-move
    weighted replay; and the image multiset is exactly the target dilate's
    lattice-point set.
    """
    dets = tuple(determinant(p.matrix) for p in d.pieces)
    src = inequality_system(d.source)
    tgt = inequality_system(d.target)
    m = len(d.edge_order)

    # replaying the moves on the graph once pins the site of every move;
    # per-point replay is then pure weight arithmetic
    sites: list[NniSite] = []
    cur = d.source
    for trail in d.moves.moves:
        sites.append(resolve_site(cur, trail))
        cur = apply_nni(cur, trail)

    rows = (row for p in d.pieces for row in (*p.matrix, *(vec for vec, _ in p.constraints)))
    if max((abs(x) for row in rows for x in row), default=0) >= _INT64_SAFE:
        raise GraphError("matrix entries too large for vectorized verification")
    piece_data = []
    for p in d.pieces:
        weak_rows = [vec for vec, sense in p.constraints if sense == WEAK]
        strict_rows = [vec for vec, sense in p.constraints if sense == STRICT]
        piece_data.append(
            (
                np.array(weak_rows, dtype=np.int64).reshape(len(weak_rows), m),
                np.array(strict_rows, dtype=np.int64).reshape(len(strict_rows), m),
                np.array(p.matrix, dtype=np.int64),
            )
        )

    checks = []
    ok = all(x in (1, -1) for x in dets)
    for t in dilations:
        pts = np.array(
            list(iter_lattice_points(src, t)), dtype=np.int64
        ).reshape(-1, m)
        n = len(pts)
        owners = np.full(n, -1, dtype=np.int64)
        claimed = np.zeros(n, dtype=np.int64)
        for i, (wk, st, _) in enumerate(piece_data):
            mask = np.ones(n, dtype=bool)
            if wk.size:
                mask &= (wk @ pts.T >= 0).all(axis=0)
            if st.size:
                mask &= (st @ pts.T < 0).all(axis=0)
            claimed += mask
            owners[mask] = i
        unique = bool((claimed == 1).all())

        replay_ok = True
        images = np.zeros_like(pts)
        for i, (_, _, mat) in enumerate(piece_data):
            sel = owners == i
            if sel.any():
                images[sel] = pts[sel] @ mat.T
        for row_pt, row_im, owner in zip(pts, images, owners):
            if owner < 0:
                replay_ok = False
                continue
            w = {e: Fraction(int(x)) for e, x in zip(d.edge_order, row_pt)}
            for site in sites:
                w[site.trail.e] += weight_delta(site, w)
            if tuple(w[e] for e in d.edge_order) != tuple(int(x) for x in row_im):
                replay_ok = False

        target_pts = set(iter_lattice_points(tgt, t))
        image_set = {tuple(int(x) for x in row) for row in images} if n else set()
        image_ok = len(image_set) == n == len(target_pts) and image_set == target_pts

        checks.append(
            DilationCheck(
                t=t,
                points=n,
                unique_cover=unique,
                matches_replay=replay_ok,
                image_is_target=image_ok,
            )
        )
        ok = ok and unique and replay_ok and image_ok
    return VerificationReport(dets, tuple(checks), ok)
