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

A build keeps each level of pieces as three arrays: matrices (P, m, m),
witnesses (P, m) and int32 constraint codes (P, K), padded with -1.  A code is
4·id + 2·flipped + strict, id a row of the build's table of primitive
normals.  Each move runs over groups of parents in numpy: pull-back,
bookkeeping, LP rows, certificate check and case update.  Products run in
int64 while a bound from the operands' maxima keeps every sum below 2**62,
and on object arrays of Python ints past it.  Piece objects are made once,
after the last move, sharing one tuple per distinct constraint and row.
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
    max_epsilon,
    matvec,
)
from .graphs import Graph, GraphError
from .nni import MoveSequence, Trail, apply_nni
from .polytope import inequality_system
from .weighted import CASES, NniSite, resolve_site, site_normals, weight_delta

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


# a sum of products runs in int64 only while this bounds it
_INT64_BOUND = 2**62


def _exact(terms: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as int64 where a sum of `terms` products, one entry from
    each array, stays below _INT64_BOUND in absolute value, and as object
    arrays of Python ints otherwise; decided from the maxima, before any
    product is formed."""
    bound = terms
    for a in arrays:
        bound *= max(int(np.abs(a).max(initial=0)), 1)
    dtype = np.int64 if bound < _INT64_BOUND else object
    return [a.astype(dtype, copy=False) for a in arrays]


class _Normals:
    """The primitive normals (gcd 1, first nonzero entry positive) of one
    build, each stored once.  Code 4·id + 2·flipped + strict names the
    constraint (±table[id], STRICT or WEAK), the minus sign where flipped."""

    def __init__(self, m: int) -> None:
        self.index: dict[tuple[int, ...], int] = {}
        self.table = np.zeros((0, m), dtype=np.int64)

    def codes(self, vecs: np.ndarray) -> np.ndarray:
        """4·id + 2·flipped of each row of vecs, divided by its gcd with its
        signs kept, as divide_gcd does; a zero row gets a code too."""
        vecs = vecs // np.maximum(np.gcd.reduce(vecs, axis=-1), 1)[..., None]
        flat = vecs.reshape(-1, vecs.shape[-1])
        flipped = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)] < 0
        prim = np.where(flipped[:, None], -flat, flat)
        known = len(self.index)
        index, keys = self.index, map(tuple, prim.tolist())
        ids = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.int64)
        found, first = np.unique(ids, return_index=True)
        self.table = np.concatenate([self.table, prim[first[found >= known]]])
        return (4 * ids + 2 * flipped).astype(np.int32).reshape(vecs.shape[:-1])

    def constraint(self, code: int) -> Constraint:
        vec = self.table[code >> 2] * (1 - (code & 2))
        return tuple(vec.tolist()), STRICT if code & 1 else WEAK

    def rows(
        self, codes: np.ndarray, cone: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The eps problem of each row of codes: one tensor holding the cone
        rows, the weak constraints' normals negated, then the strict ones',
        each in constraint order and padded with zero rows; and the counts
        of its weak rows (cone rows included) and of its strict rows."""
        valid = codes >= 0
        strict = valid & (codes & 1 == 1)
        nweak, nstrict = len(cone) + (valid & ~strict).sum(axis=1), strict.sum(axis=1)
        out = np.zeros(
            (len(codes), int((nweak + nstrict).max(initial=len(cone))), cone.shape[1]),
            dtype=np.result_type(self.table, cone),
        )
        out[:, : len(cone)] = cone
        weak_at = len(cone) + (valid & ~strict).cumsum(axis=1)
        at = np.where(strict, nweak[:, None] + strict.cumsum(axis=1), weak_at) - 1
        i, j = np.nonzero(valid)
        c = codes[i, j]
        sign = np.where(c & 1, 1, -1) * (1 - (c & 2))
        out[i, at[i, j]] = self.table[c >> 2] * sign[:, None]
        return out, nweak, nstrict


def _verdicts(
    weak: np.ndarray, zero: np.ndarray, present: np.ndarray, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whether a new row is added, and whether it kills its child.  The row
    has the normal coded base (4·id + 2·flipped) and is weak where weak; the
    codes present (last axis) may hold that normal weak (held) or strict, or
    its negation strict (negated).

    Sound field rules only: an identical row, or one implied by a strictly
    stronger row, is skipped; a row contradicting the same (or the negated)
    normal makes the child empty; 0 >= 0 always holds and 0 < 0 never does.
    """
    held, strict, negated = (
        (present == c[..., None]).any(axis=-1) for c in (base, base + 1, (base ^ 2) + 1)
    )
    skip = np.where(weak, zero | held | negated, ~zero & strict)
    dead = np.where(weak, strict, zero | held | negated) & ~skip
    return ~skip & ~dead, dead


def _split(
    matrices: np.ndarray,
    witnesses: np.ndarray,
    codes: np.ndarray,
    h: np.ndarray,
    normals: _Normals,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cases of a move that bookkeeping leaves alive inside each piece of
    a group, in (parent, case) order, cases numbered as CASES lists them.

    The pieces come as their matrices, witnesses and constraint codes (-1
    pads), the move as its normals h = (h1, h2).  Returns each child's
    parent, case and codes, and whether the parent's witness lies in the
    child.  The second row of a case meets the first when the first was added.
    """
    pulled = h @ matrices
    inside = (pulled @ witnesses[:, :, None])[..., 0] >= 0
    sides = np.array([case[0] for case in CASES.values()])
    base = normals.codes(pulled)[:, None, :]
    zero = ~(pulled != 0).any(axis=2)[:, None, :]
    present = np.broadcast_to(codes[:, None, :], (len(codes), len(sides), codes.shape[1]))
    dead = np.zeros((len(codes), len(sides)), dtype=bool)
    for j in (0, 1):
        add, killed = _verdicts(sides[:, j], zero[..., j], present, base[..., j])
        dead |= killed
        row = np.where(add, base[..., j] + ~sides[:, j], -1)  # strict where the case has h < 0
        present = np.concatenate([present, row[..., None]], axis=2)
    k = np.flatnonzero(~dead)
    child = present.reshape(-1, present.shape[2])[k]
    child = np.take_along_axis(child, np.argsort(child < 0, axis=1, kind="stable"), axis=1)
    parent, case = divmod(k, len(sides))
    return parent, case, child, (inside[:, None, :] == sides).all(axis=2).ravel()[k]


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
    rows: np.ndarray, nweak: np.ndarray, nstrict: np.ndarray
) -> list[tuple[float, list[float], list[float]] | None]:
    """Float tableau simplex for many eps problems at once; (eps, x, duals) each.

    Problem i has the weak rows w = rows[i, :nweak[i]] and the strict rows
    s = rows[i, nweak[i] : nweak[i] + nstrict[i]]; the rows after them are
    zero.  It maximizes eps subject to w.x <= 0, s.x + eps <= 0, eps <= 1
    and x, eps >= 0.  Duals are reported for the weak+strict rows (eps <= 1
    row excluded).  An entry is None where the float search fails to
    converge; every answer is re-verified exactly by the caller, so this
    routine only has to be fast, not trustworthy.

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
    out: list[tuple[float, list[float], list[float]] | None] = [None] * len(rows)
    if not len(rows):
        return out
    m = rows.shape[2]
    sizes = nweak + nstrict + 1  # rows incl. eps row
    nrows = int(sizes.max())
    ncols = m + 2 + nrows  # of the full tableau
    row = np.arange(nrows)
    T = np.zeros((len(rows), nrows + 1, m + 2))
    T[:, : nrows - 1, 1 : m + 1] = rows[:, : nrows - 1]
    T[:, :nrows, m + 1] = (row >= nweak[:, None]) & (row < sizes[:, None])
    T[np.arange(len(rows)), sizes - 1, 0] = 1.0  # eps <= 1
    T[:, nrows, m + 1] = 1.0  # objective: maximize eps
    slots = np.tile(np.arange(1, m + 2), (len(rows), 1))  # full column of each slot
    basis = np.tile(m + 2 + row, (len(rows), 1))  # each row's basic column
    live = np.arange(len(rows))  # problem of each layer
    at = np.arange(len(rows))
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
    proposals: Sequence[tuple[float, list[float], list[float]] | None], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """What each float proposal offers as a certificate: whether it is a
    point, and a primitive nonnegative integer vector padded to width.

    A proposal offers its point where eps > 1e-7 and its Farkas multipliers
    otherwise.  All proposals are scaled by _SCALE at once: entries at or
    below _ZERO_TOL become 0, the rest are rounded to integers, and each row
    is divided by its gcd.  None, a row with a NaN, and a row with an entry
    too large to scale exactly give the zero vector, which certifies
    nothing.  Either way the vector is only a proposal: _certify checks it
    in integers, and the exact simplex decides whatever fails that check.
    """
    is_point = np.array([p is not None and p[0] > 1e-7 for p in proposals], dtype=bool)
    values = np.zeros((len(proposals), width))
    for i, p in enumerate(proposals):
        if p is not None:
            vec = p[1] if is_point[i] else p[2]
            values[i, : len(vec)] = vec
    values[values <= _ZERO_TOL] = 0.0
    scaled = values * _SCALE
    fits = (scaled <= 2**30).all(axis=1)  # False on NaN
    k = np.rint(np.where(fits[:, None], scaled, 0.0)).astype(np.int64)
    k //= np.maximum(np.gcd.reduce(k, axis=1), 1)[:, None]
    return is_point, k


def _certify(
    rows: np.ndarray, nweak: np.ndarray, nstrict: np.ndarray
) -> list[tuple[int, ...] | None]:
    """An integer point of each half-open cone inside the body, or None where
    that cone is empty.

    Cone i reads w.x <= 0 on its weak rows rows[i, :nweak[i]] and s.x < 0 on
    the strict rows after them.  One batched float LP proposes every answer:
    a primal point (nonempty) or Farkas multipliers (empty).  The proposals
    are scaled to nonnegative integer vectors, which every row being
    homogeneous allows, and checked in integer arithmetic, the whole batch
    at once.  Only where neither certificate holds does the exact simplex
    run; its point is scaled to integers the same way.
    """
    m = rows.shape[2]
    out: list[tuple[int, ...] | None] = [(0,) * m] * len(rows)  # the origin, without a strict row
    lp = np.flatnonzero(nstrict)
    if len(lp) < len(rows):
        rows, nweak, nstrict = rows[lp], nweak[lp], nstrict[lp]
    width = rows.shape[1]
    is_point, k = _rays(_float_lps(rows, nweak, nstrict), max(m, width))
    rows, k = _exact(max(m, width), rows, k)
    weak = np.arange(width) < nweak[:, None]
    strict = ~weak & (np.arange(width) < (nweak + nstrict)[:, None])
    values = (rows @ k[:, :m, None])[..., 0]
    point = is_point & (~weak | (values <= 0)).all(axis=1) & (~strict | (values < 0)).all(axis=1)
    # y >= 0 with y.W + y.S >= 0 coordinatewise and sum over strict rows
    # positive forces eps <= 0 for every feasible point
    y = k[:, :width]
    farkas = ~is_point & (strict & (y != 0)).any(axis=1)
    farkas &= ((y[:, None, :] @ rows)[:, 0] >= 0).all(axis=1)
    for i, (j, ray) in enumerate(zip(lp.tolist(), k[:, :m].tolist())):
        if point[i]:
            out[j] = tuple(ray)
        elif farkas[i]:
            out[j] = None
        else:
            vecs = [(vec, 0) for vec in rows[i, : nweak[i] + nstrict[i]].tolist()]
            eps, x = max_epsilon(
                vecs[: nweak[i]], vecs[nweak[i] :], m, point=True, early_positive=True
            )
            out[j] = _clear_denominators(x) if eps > 0 else None
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
# gets no faster while its peak memory grows (512: about 4 MB more)
_GROUP = 256


def _move(
    matrices: np.ndarray,
    witnesses: np.ndarray,
    codes: np.ndarray,
    site: tuple[np.ndarray, int, np.ndarray, np.ndarray],
    normals: _Normals,
    cone: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonempty children of a group of pieces under one move, in
    (parent, case) order.  The site comes as its normals h, the pivot's
    coordinate, and each case's coordinates added to and subtracted from
    the pivot row."""
    h, e, plus, minus = site
    # h's entries sum to at most 4 in absolute value, so the pull-back stays
    # within 4 max|M|, its value at the witness within m times that max|W|
    # and the case update within 3 max|M|
    matrices, witnesses = _exact(4 * len(h[0]), matrices, witnesses)
    parent, case, codes, here = _split(matrices, witnesses, codes, h, normals)
    need = np.flatnonzero(~here)
    found = _certify(*normals.rows(codes[need], cone))
    keep = np.ones(len(parent), dtype=bool)
    keep[need] = [x is not None for x in found]
    witnesses = witnesses[parent]
    if keep[need].any():
        # an exact simplex point may lie beyond int64
        [certified] = _exact(1, np.array([x for x in found if x is not None], dtype=object))
        witnesses = witnesses.astype(np.result_type(witnesses, certified), copy=False)
        witnesses[need[keep[need]]] = certified
    matrices = matrices[parent]
    i = np.arange(len(parent))
    matrices[:, e] += matrices[i, plus[case]] - matrices[i, minus[case]]
    return matrices[keep], witnesses[keep], codes[keep]


def _pieces(
    matrices: np.ndarray, witnesses: np.ndarray, codes: np.ndarray, normals: _Normals
) -> tuple[Piece, ...]:
    """The level as Piece objects, one at a time, with one tuple per distinct
    constraint and per distinct matrix row or witness."""
    constraint = {c: normals.constraint(c) for c in np.unique(codes[codes >= 0]).tolist()}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    out = []
    for i, n in enumerate((codes >= 0).sum(axis=1).tolist()):
        matrix = tuple(shared.setdefault(row, row) for row in map(tuple, matrices[i].tolist()))
        witness = tuple(witnesses[i].tolist())
        constraints = tuple(constraint[c] for c in codes[i, :n].tolist())
        out.append(Piece(constraints, matrix, shared.setdefault(witness, witness)))
    return tuple(out)


def build_decomposition(g: Graph, seq: MoveSequence) -> Decomposition:
    """Split the source polytope along the sequence's case hyperplanes.

    Every surviving piece is nonempty inside the source polytope and carries
    an integer witness point; piece matrices all have determinant +1.
    """
    edge_order = g.edges
    m = len(edge_order)
    idx = {e: i for i, e in enumerate(edge_order)}
    cone = np.array(_cone_rows(g), dtype=np.int64).reshape(-1, m)
    normals = _Normals(m)
    # all-ones weights satisfy every metric row with slack, so they are a
    # valid starting witness for the unconstrained root piece
    matrices = np.eye(m, dtype=np.int64)[None]
    witnesses = np.ones((1, m), dtype=np.int64)
    codes = np.zeros((1, 0), dtype=np.int32)
    sites, target = _sites(g, seq.moves)
    for site in sites:
        slots = [idx[x] for x in site.slots]
        move = (
            np.array(site_normals(site, edge_order), dtype=np.int64),
            idx[site.trail.e],
            np.array([slots[plus] for _, plus, _ in CASES.values()]),
            np.array([slots[minus] for _, _, minus in CASES.values()]),
        )
        parts = list(zip(*(
            _move(*(x[i : i + _GROUP] for x in (matrices, witnesses, codes)), move, normals, cone)
            for i in range(0, len(matrices), _GROUP)
        )))
        # the old level goes first, and each part once it is joined
        del matrices, witnesses, codes
        matrices, witnesses, codes = (np.concatenate(parts.pop(0)) for _ in range(3))
        codes = codes[:, : (codes >= 0).sum(axis=1).max()]
    return Decomposition(
        source=g,
        target=target,
        moves=seq,
        edge_order=edge_order,
        pieces=_pieces(matrices, witnesses, codes, normals),
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
