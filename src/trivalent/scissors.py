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
certificate: the proposal is scaled by lcm(1..16), rounded to a nonnegative
integer vector and validated in integer arithmetic, with the exact simplex
as the fallback.  The float proposals are batched: the children of a group
of pieces share one 3-D exchange tableau (the right-hand side and the
nonbasic columns only), solved in one pass, while every certificate is still
validated on its own, in integers, and the pieces come out in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .counting import iter_lattice_points
from .exactlin import (
    IntMatrix,
    determinant,
    divide_gcd,
    identity,
    max_epsilon,
    matvec,
)
from .graphs import Graph, GraphError
from .nni import MoveSequence, Trail, apply_nni
from .polytope import inequality_system
from .weighted import CASES, NniSite, _apply_case, resolve_site, site_normals, weight_delta

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


_DEAD = "dead"
_SKIP = "skip"
_ADD = "add"


def _classify_constraint(
    existing: AbstractSet[Constraint], vec: tuple[int, ...], neg: tuple[int, ...], sense: str
) -> str:
    """Decide a new half-space row (normal vec, its negation neg) against the
    rows already present.

    Sound field rules only: an identical row is skipped; a row implied by a
    strictly stronger one is skipped; a row contradicting the same (or the
    negated) normal makes the child empty.
    """
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


def _cone_rows(g: Graph) -> list[tuple[int, ...]]:
    """Normals of the homogeneous rows of the polytope system (the metric
    cone), each row reading normal . x <= 0.

    Perimeter rows have positive right-hand sides and scale away, so strict
    feasibility inside the polytope equals strict feasibility in this cone
    intersected with the orthant.
    """
    base = inequality_system(g)
    return [coeffs for coeffs, alpha in base.rows if alpha == 0]


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

    All problems share one 3-D exchange tableau, one layer each.  The full
    Dantzig tableau has the columns right-hand side, x, eps, then one unit
    slack per row; a basic column is a unit column there, so only the
    right-hand side and the m + 1 nonbasic columns are stored, each slot
    labelled with its full-tableau column.  A pivot first gives the entering
    slot the leaving variable's unit column, then updates every entry as the
    full tableau would, so each layer gets, value for value, the arithmetic
    it would get alone on the full tableau (only the sign of a zero may
    differ, which no comparison sees).  The rows a shorter problem lacks are
    zero but for their own slack, which never leaves; the entering column is
    the objective row's maximum, the lowest full-tableau column on ties.
    """
    out: list[tuple[float, list[float], list[float]] | None] = [None] * len(problems)
    if not problems:
        return out
    nweak = np.array([len(weak) for weak, _ in problems])
    sizes = nweak + [len(strict) + 1 for _, strict in problems]  # rows incl. eps row
    nrows = int(sizes.max())
    ncols = m + 2 + nrows  # of the full tableau
    rows = np.arange(nrows)
    # the problems of a batch share most rows: each distinct one is read once
    index: dict[tuple[int, ...], int] = {}
    ids = [
        index.setdefault(vec, len(index)) for weak, strict in problems for vec in (*weak, *strict)
    ]
    T = np.zeros((len(problems), nrows + 1, m + 2))
    layer, row = np.nonzero(rows < sizes[:, None] - 1)
    T[layer, row, 1 : m + 1] = np.array(list(index), dtype=float).reshape(-1, m)[ids]
    T[:, :nrows, m + 1] = (rows >= nweak[:, None]) & (rows < sizes[:, None])
    T[np.arange(len(problems)), sizes - 1, 0] = 1.0  # eps <= 1
    T[:, nrows, m + 1] = 1.0  # objective: maximize eps
    slots = np.tile(np.arange(1, m + 2), (len(problems), 1))  # full column of each slot
    basis = np.tile(m + 2 + rows, (len(problems), 1))  # each row's basic column
    live = np.arange(len(problems))  # problem of each layer
    at = np.arange(len(problems))
    for _ in range(200):
        objective = T[:, nrows, 1:]
        # basic columns are zero in the objective row, so they only tie
        # where no column improves, and such a layer is done either way
        top = objective == objective.max(axis=1)[:, None]
        entering = 1 + np.where(top, slots, ncols).argmin(axis=1)
        factors = T[at, :, entering]  # the entering column, objective row included
        mask = factors[:, :nrows] > 1e-9
        done = factors[:, nrows] <= 1e-9
        # a column without a positive entry is unbounded, which eps <= 1
        # rules out: such a problem is dropped and stays None
        drop = done | ~mask.any(axis=1)
        if drop.any():
            k = np.flatnonzero(done)
            value = np.zeros((len(k), ncols))
            value[np.arange(len(k))[:, None], basis[k]] = T[k, :nrows, 0]
            # the duals of the weak+strict rows are their slacks' reduced
            # costs, negated; a basic slack's is zero
            reduced = np.zeros((len(k), ncols))
            reduced[np.arange(len(k))[:, None], slots[k]] = T[k, nrows, 1:]
            for layer, eps, x, duals in zip(
                k.tolist(),
                (-T[k, nrows, 0]).tolist(),
                value[:, 1 : m + 1].tolist(),
                (-reduced[:, m + 2 :]).tolist(),
            ):
                out[live[layer]] = (eps, x, duals[: sizes[layer] - 1])
            keep = ~drop
            live, sizes, T = live[keep], sizes[keep], T[keep]
            slots, basis = slots[keep], basis[keep]
            if not len(live):
                break
            entering, factors, mask = entering[keep], factors[keep], mask[keep]
            at = np.arange(len(live))
        ratios = np.full(mask.shape, np.inf)
        np.divide(T[:, :nrows, 0], factors[:, :nrows], out=ratios, where=mask)
        leave = ratios.argmin(axis=1)
        T[at, :, entering] = 0.0
        T[at, leave, entering] = 1.0  # the leaving variable's unit column
        pivot = T[at, leave]
        pivot /= factors[at, leave][:, None]
        T[at, leave] = pivot
        factors[at, leave] = 0.0
        T -= np.einsum("li,lj->lij", factors, pivot)
        slots[at, entering - 1], basis[at, leave] = basis[at, leave], slots[at, entering - 1]
    return out


_ZERO_TOL = 1e-12
# lcm(1, ..., 16): the rationals the float proposals approximate have small
# denominators, so scaling by this turns most of them into integers
_SCALE = 720720


def _clear_denominators(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector."""
    den = lcm(*(v.denominator for v in values))
    return divide_gcd([v.numerator * (den // v.denominator) for v in values])


def _rays(
    proposals: Sequence[tuple[float, list[float], list[float]] | None],
) -> list[tuple[bool, tuple[int, ...]] | None]:
    """What each float proposal offers as a certificate, as (is_point, a
    primitive nonnegative integer vector); None stays None.

    A proposal offers its point where eps > 1e-7 and its Farkas multipliers
    otherwise.  All proposals are scaled by _SCALE at once: entries at or
    below _ZERO_TOL become 0, the rest are rounded to integers, and each row
    is divided by its gcd.  A row with a NaN or with an entry too large to
    scale exactly becomes the zero vector, which _validate rejects.  Either
    way the vector is only a proposal: _validate checks it in integers, and
    the exact simplex decides whatever fails that check.
    """
    offered = [
        (True, p[1]) if p[0] > 1e-7 else (False, p[2]) for p in proposals if p is not None
    ]
    width = max((len(vec) for _, vec in offered), default=0)
    values = np.array([vec + [0.0] * (width - len(vec)) for _, vec in offered]).reshape(
        len(offered), width
    )
    values[values <= _ZERO_TOL] = 0.0
    scaled = values * _SCALE
    fits = (scaled <= 2**30).all(axis=1)  # False on NaN
    k = np.rint(np.where(fits[:, None], scaled, 0.0)).astype(np.int64)
    k //= np.maximum(np.gcd.reduce(k, axis=1), 1)[:, None]
    rows = iter(zip(offered, k.tolist()))
    out: list[tuple[bool, tuple[int, ...]] | None] = []
    for p in proposals:
        if p is None:
            out.append(None)
            continue
        (is_point, vec), ints = next(rows)
        out.append((is_point, tuple(ints[: len(vec)])))
    return out


def _dot(vec: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, vec, x))


def _certify(
    children: Sequence[Sequence[Constraint]],
    cone: list[tuple[int, ...]],
    m: int,
) -> list[tuple[int, ...] | None]:
    """An integer point of each half-open cone inside the body, or None where
    that cone is empty.

    One batched float LP proposes every answer: a primal point (nonempty) or
    Farkas multipliers (empty).  Each proposal is scaled to a nonnegative
    integer vector, which every row being homogeneous allows, and checked on
    its own in integer arithmetic.  Only when neither certificate validates
    does the exact simplex run; its point is scaled to integers the same way.
    """
    # the children of a group share most of their weak rows
    negated = {
        vec: tuple(-x for x in vec)
        for vec in {vec for constraints in children for vec, sense in constraints if sense == WEAK}
    }
    problems = []
    for constraints in children:
        strict = [vec for vec, sense in constraints if sense == STRICT]
        weak = cone + [negated[vec] for vec, sense in constraints if sense == WEAK]
        problems.append((weak, strict))
    rays = iter(_rays(_float_lps([p for p in problems if p[1]], m)))
    # without a strict row the origin qualifies
    return [
        _validate(weak, strict, next(rays), m) if strict else (0,) * m
        for weak, strict in problems
    ]


def _validate(
    weak_vecs: list[tuple[int, ...]],
    strict_vecs: list[tuple[int, ...]],
    ray: tuple[bool, tuple[int, ...]] | None,
    m: int,
) -> tuple[int, ...] | None:
    """Check one scaled proposal exactly; the exact simplex decides otherwise."""
    if ray is not None:
        is_point, vec = ray
        if is_point:
            if all(_dot(w, vec) <= 0 for w in weak_vecs) and all(
                _dot(s, vec) < 0 for s in strict_vecs
            ):
                return vec
        # y >= 0 with y.W + y.S >= 0 coordinatewise and sum over strict
        # rows positive forces eps <= 0 for every feasible point
        elif any(vec[len(weak_vecs) :]):
            used = [(yv, row) for yv, row in zip(vec, weak_vecs + strict_vecs) if yv]
            if all(sum(yv * row[j] for yv, row in used) >= 0 for j in range(m)):
                return None
    eps, x = max_epsilon(
        [(vec, 0) for vec in weak_vecs],
        [(vec, 0) for vec in strict_vecs],
        m,
        point=True,
        early_positive=True,
    )
    return _clear_denominators(x) if eps > 0 else None


def _pull_back(terms: Sequence[tuple[int, int]], matrix: IntMatrix) -> tuple[int, ...]:
    """vec @ matrix for a vec given by its nonzero (index, entry) terms: a sum
    of as many matrix rows."""
    rows = [[c * x for x in matrix[i]] for i, c in terms]
    return tuple(map(sum, zip(*rows))) if rows else (0,) * len(matrix)


def _children(
    piece: Piece, terms1: Sequence[tuple[int, int]], terms2: Sequence[tuple[int, int]]
) -> list[tuple[list[Constraint], str, tuple[int, ...] | None]]:
    """The cases of a move that bookkeeping leaves alive inside a piece.

    The move's normals h1 and h2 come as their nonzero (index, entry) terms.
    Each case comes as (constraints, case, witness), the witness being the
    piece's own when it lies in that case and None when the case still
    needs a certificate.
    """
    p1 = _pull_back(terms1, piece.matrix)
    p2 = _pull_back(terms2, piece.matrix)
    s1 = _dot(p1, piece.witness)
    s2 = _dot(p2, piece.witness)
    normals = [(vec, tuple(-x for x in vec)) for vec in (divide_gcd(p1), divide_gcd(p2))]
    present = set(piece.constraints)
    out = []
    for case, (sides, _, _) in CASES.items():
        constraints = list(piece.constraints)
        existing = present
        dead = False
        for (vec, neg), nonnegative in zip(normals, sides):
            sense = WEAK if nonnegative else STRICT
            if not any(vec):
                if sense == STRICT:
                    dead = True  # 0 < 0 never holds
                    break
                continue  # 0 >= 0 always holds
            verdict = _classify_constraint(existing, vec, neg, sense)
            if verdict == _DEAD:
                dead = True
                break
            if verdict == _ADD:
                constraints.append((vec, sense))
                existing = present | {(vec, sense)}
        if dead:
            continue
        witness_here = (s1 >= 0, s2 >= 0) == sides
        out.append((constraints, case, piece.witness if witness_here else None))
    return out


def _sites(g: Graph, moves: Iterable[Trail]) -> tuple[list[NniSite], Graph]:
    """The site of each move on the graph it applies to, and the last graph."""
    sites = []
    for trail in moves:
        sites.append(resolve_site(g, trail))
        g = apply_nni(g, trail)
    return sites, g


# pieces whose children share one batched LP: a larger batch spreads each
# pivot's fixed numpy overhead over more layers; past 256 the K4 -> T4 build
# gets no faster while its peak memory grows (512: about 8 MB more)
_GROUP = 256


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
    sites, target = _sites(g, seq.moves)
    for site in sites:
        terms1, terms2 = (
            [(i, c) for i, c in enumerate(h) if c] for h in site_normals(site, edge_order)
        )
        next_pieces: list[Piece] = []
        for start in range(0, len(pieces), _GROUP):
            children = [
                (constraints, piece, case, witness)
                for piece in pieces[start : start + _GROUP]
                for constraints, case, witness in _children(piece, terms1, terms2)
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
    return Decomposition(
        source=g,
        target=target,
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
# entries of one cover product (constraint rows of a chunk of pieces times
# points): bounds the check's memory
_COVER_CHUNK = 2**18


def _int64_guarded(rows: list, shape: tuple[int, ...]) -> np.ndarray:
    """rows as an int64 array of the given shape; GraphError when an entry
    reaches _INT64_SAFE in absolute value (products then could overflow)."""
    try:
        out = np.array(rows, dtype=np.int64).reshape(shape)
    except OverflowError:  # beyond int64 itself
        out = None
    if out is None or out.size and (out.max() >= _INT64_SAFE or out.min() <= -_INT64_SAFE):
        raise GraphError("matrix entries too large for vectorized verification")
    return out


def _cover(
    normals: np.ndarray, ids: np.ndarray, strict: np.ndarray, bounds: np.ndarray, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """How many pieces claim each point, and the last piece that does (-1 for
    none).  Constraint row r reads normals[ids[r]] @ x < 0 where strict[r],
    >= 0 otherwise, and piece i owns the rows bounds[i]:bounds[i+1].

    Each distinct normal is evaluated once; the rows then read its sign, for
    chunks of pieces of about _COVER_CHUNK / len(pts) rows at a time.  The
    caller keeps len(normals) * len(pts) near _COVER_CHUNK as well.
    """
    n = len(pts)
    nonnegative = normals @ pts.T >= 0
    claimed = np.zeros(n, dtype=np.int64)
    owners = np.full(n, -1, dtype=np.int64)
    step = max(_COVER_CHUNK // max(n, 1), 1)
    lo = 0
    while lo < len(bounds) - 1:
        hi = max(int(np.searchsorted(bounds, bounds[lo] + step, side="right")) - 1, lo + 1)
        r0, r1 = bounds[lo], bounds[hi]
        starts = bounds[lo:hi]
        has_rows = starts < bounds[lo + 1 : hi + 1]
        claims = np.ones((hi - lo, n), dtype=bool)  # a piece without rows claims all
        if r1 > r0:
            # a weak row fails where n.x < 0, a strict one where n.x >= 0
            failed = nonnegative[ids[r0:r1]] == strict[r0:r1, None]
            claims[has_rows] = ~np.logical_or.reduceat(failed, starts[has_rows] - r0, axis=0)
        claimed += claims.sum(axis=0)
        last = hi - 1 - claims[::-1].argmax(axis=0)
        owners = np.where(claims.any(axis=0), last, owners)
        lo = hi
    return claimed, owners


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
    sites, _ = _sites(d.source, d.moves.moves)

    matrices = _int64_guarded([p.matrix for p in d.pieces], (-1, m, m))
    # pieces share most of their rows: each distinct normal is stored once
    bounds = np.cumsum([0] + [len(p.constraints) for p in d.pieces])
    index: dict[tuple[int, ...], int] = {}
    ids = np.fromiter(
        (index.setdefault(vec, len(index)) for p in d.pieces for vec, _ in p.constraints),
        np.intp,
        bounds[-1],
    )
    strict = np.fromiter(
        (sense == STRICT for p in d.pieces for _, sense in p.constraints), bool, bounds[-1]
    )
    normals = _int64_guarded(list(index), (-1, m))

    checks = []
    ok = all(x in (1, -1) for x in dets)
    for t in dilations:
        pts = np.array(
            list(iter_lattice_points(src, t)), dtype=np.int64
        ).reshape(-1, m)
        n = len(pts)
        claimed = np.zeros(n, dtype=np.int64)
        owners = np.full(n, -1, dtype=np.int64)
        images = np.zeros_like(pts)
        # points per step: bounds the table of signs and the gathered matrices
        block = max(_COVER_CHUNK // max(len(normals), m * m, 1), 1)
        for i in range(0, n, block):
            part = slice(i, i + block)
            claimed[part], owners[part] = _cover(normals, ids, strict, bounds, pts[part])
            owned = i + np.flatnonzero(owners[part] >= 0)
            images[owned] = np.einsum("pij,pj->pi", matrices[owners[owned]], pts[owned])
        unique = bool((claimed == 1).all())

        replay_ok = True
        for row_pt, row_im, owner in zip(pts, images, owners):
            if owner < 0:
                replay_ok = False
                continue
            # weight_delta is +, - and max only: exact on int
            w = {e: int(x) for e, x in zip(d.edge_order, row_pt)}
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
