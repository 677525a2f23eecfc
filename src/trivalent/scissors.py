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
The float proposals are batched: the children of a group of pieces share one
3-D tableau, solved in one pass, while every certificate is still validated
on its own, in integers, and the pieces come out in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
from .weighted import NniSite, _apply_case, resolve_site, site_normals, weight_delta

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


def _float_lps(
    problems: Sequence[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]], m: int
) -> list[tuple[float, list[float], list[float]] | None]:
    """Float tableau simplex for many eps problems at once; (eps, x, duals) each.

    Problem (weak, strict) maximizes eps subject to w.x <= 0 for weak rows,
    s.x + eps <= 0 for strict rows, eps <= 1 and x, eps >= 0.  Duals are
    reported for the weak+strict rows (eps <= 1 row excluded).  An entry is
    None where the float search fails to converge; every answer is
    re-verified exactly by the caller, so this routine only has to be fast,
    not trustworthy.

    All problems share one dense 3-D Dantzig tableau, one layer each, whose
    columns are the right-hand side, x, eps, then one unit slack per row.
    Each layer gets, value for value, the arithmetic it would get alone (only
    the sign of a zero may differ, which no comparison sees): the rows a
    shorter problem lacks are zero but for their own slack, which never
    enters; the entering column is the objective row's first maximum, the
    lowest column on ties, as a single LP's argmax has it.
    """
    out: list[tuple[float, list[float], list[float]] | None] = [None] * len(problems)
    if not problems:
        return out
    nweak = np.array([len(weak) for weak, _ in problems])
    sizes = nweak + [len(strict) + 1 for _, strict in problems]  # rows incl. eps row
    nrows = int(sizes.max())
    rows = np.arange(nrows)
    vecs = [vec for weak, strict in problems for vec in (*weak, *strict)]
    T = np.zeros((len(problems), nrows + 1, m + 2 + nrows))
    layer, row = np.nonzero(rows < sizes[:, None] - 1)
    T[layer, row, 1 : m + 1] = np.fromiter(
        chain.from_iterable(vecs), float, len(vecs) * m
    ).reshape(-1, m)
    T[:, :nrows, m + 1] = (rows >= nweak[:, None]) & (rows < sizes[:, None])
    T[np.arange(len(problems)), sizes - 1, 0] = 1.0  # eps <= 1
    T[:, :nrows, m + 2 :] = np.eye(nrows)
    T[:, nrows, m + 1] = 1.0  # objective: maximize eps
    basis = np.tile(m + 2 + rows, (len(problems), 1))  # each row's basic column
    live = np.arange(len(problems))  # problem of each layer
    at = np.arange(len(problems))
    for _ in range(200):
        entering = 1 + T[:, nrows, 1:].argmax(axis=1)
        factors = T[at, :, entering]  # the entering column, objective row included
        mask = factors[:, :nrows] > 1e-9
        done = factors[:, nrows] <= 1e-9
        # a column without a positive entry is unbounded, which eps <= 1
        # rules out: such a problem is dropped and stays None
        drop = done | ~mask.any(axis=1)
        if drop.any():
            k = np.flatnonzero(done)
            value = np.zeros((len(k), T.shape[2]))
            value[np.arange(len(k))[:, None], basis[k]] = T[k, :nrows, 0]
            # the duals of the weak+strict rows are their slacks' reduced costs, negated
            for layer, eps, x, duals in zip(
                k.tolist(),
                (-T[k, nrows, 0]).tolist(),
                value[:, 1 : m + 1].tolist(),
                (-T[k, nrows, m + 2 :]).tolist(),
            ):
                out[live[layer]] = (eps, x, duals[: sizes[layer] - 1])
            keep = ~drop
            live, sizes, T, basis = live[keep], sizes[keep], T[keep], basis[keep]
            if not len(live):
                break
            entering, factors, mask = entering[keep], factors[keep], mask[keep]
            at = np.arange(len(live))
        ratios = np.full(mask.shape, np.inf)
        np.divide(T[:, :nrows, 0], factors[:, :nrows], out=ratios, where=mask)
        leave = ratios.argmin(axis=1)
        pivot = T[at, leave]
        pivot /= factors[at, leave][:, None]
        T[at, leave] = pivot
        factors[at, leave] = 0.0
        T -= np.einsum("li,lj->lij", factors, pivot)
        basis[at, leave] = entering
    return out


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
    children: Sequence[Sequence[Constraint]],
    cone: list[tuple[tuple[int, ...], int]],
    m: int,
) -> list[tuple[int, ...] | None]:
    """An integer point of each half-open cone inside the body, or None where
    that cone is empty.

    One batched float LP proposes every answer: a primal point (nonempty) or
    Farkas multipliers (empty).  Each proposal is then rounded to rationals
    and scaled to a nonnegative integer vector, which every row being
    homogeneous allows, and checked on its own in integer arithmetic.  Only
    when neither certificate validates does the exact simplex run; its point
    is scaled to integers the same way.
    """
    cone_vecs = [vec for vec, _ in cone]
    problems = []
    for constraints in children:
        strict = [vec for vec, sense in constraints if sense == STRICT]
        weak = cone_vecs + [
            tuple(-x for x in vec) for vec, sense in constraints if sense == WEAK
        ]
        problems.append((weak, strict))
    proposals = iter(_float_lps([p for p in problems if p[1]], m))
    # without a strict row the origin qualifies
    return [
        _validate(weak, strict, next(proposals), m) if strict else (0,) * m
        for weak, strict in problems
    ]


def _validate(
    weak_vecs: list[tuple[int, ...]],
    strict_vecs: list[tuple[int, ...]],
    proposal: tuple[float, list[float], list[float]] | None,
    m: int,
) -> tuple[int, ...] | None:
    """Check one float proposal exactly; the exact simplex decides otherwise."""
    if proposal is not None:
        eps, x_f, duals = proposal
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


def _children(
    piece: Piece, h1: tuple[int, ...], h2: tuple[int, ...]
) -> list[tuple[list[Constraint], str, tuple[int, ...] | None]]:
    """The cases of a move that bookkeeping leaves alive inside a piece.

    Each comes as (constraints, case, witness), the witness being the
    piece's own when it lies in that case and None when the case still
    needs a certificate.
    """
    p1 = vecmat(h1, piece.matrix)
    p2 = vecmat(h2, piece.matrix)
    s1 = _dot(p1, piece.witness)
    s2 = _dot(p2, piece.witness)
    normals = (divide_gcd(p1), divide_gcd(p2))
    out = []
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
        witness_here = ((s1 >= 0) == (wa == WEAK)) and ((s2 >= 0) == (wb == WEAK))
        out.append((constraints, case, piece.witness if witness_here else None))
    return out


# pieces whose children share one batched LP; bounds the tableau's memory
_GROUP = 32


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
        for start in range(0, len(pieces), _GROUP):
            children = [
                (constraints, piece, case, witness)
                for piece in pieces[start : start + _GROUP]
                for constraints, case, witness in _children(piece, h1, h2)
            ]
            certified = iter(
                _certify([c for c, _, _, witness in children if witness is None], cone, m)
            )
            for constraints, piece, case, witness in children:
                if witness is None:
                    witness = next(certified)
                    if witness is None:
                        continue  # the case misses the polytope
                next_pieces.append(
                    Piece(
                        tuple(constraints),
                        _apply_case(piece.matrix, site, case, idx),
                        witness,
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
