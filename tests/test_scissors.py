"""Half-open decomposition: frozen small case plus structural checks."""
import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from trivalent import scissors
from trivalent.catalog import dumbbell, k4, t4, theta
from trivalent.counting import count_points
from trivalent.exactlin import determinant
from trivalent.graphs import GraphError, same_labeled_graph
from trivalent.nni import MoveSequence, Trail, graph_sequence
from trivalent.polytope import contains, inequality_system
from trivalent.scissors import (
    STRICT,
    WEAK,
    build_decomposition,
    evaluate_piecewise,
    verify_decomposition,
)
from trivalent.weighted import replay_weighted

F = Fraction


@pytest.fixture(scope="module")
def theta_decomposition():
    seq = graph_sequence(theta(), dumbbell())
    return build_decomposition(theta(), seq)


def test_theta_two_pieces_frozen(theta_decomposition):
    d = theta_decomposition
    assert same_labeled_graph(d.target, dumbbell())
    assert len(d.pieces) == 2
    pieces = sorted((p.constraints, p.matrix) for p in d.pieces)
    assert pieces[0] == (
        (((-1, 1, 0), "<"),),
        ((1, 0, 0), (0, 1, 0), (-1, 1, 1)),
    )
    assert pieces[1] == (
        (((-1, 1, 0), ">="),),
        ((1, 0, 0), (0, 1, 0), (1, -1, 1)),
    )
    for p in d.pieces:
        assert determinant(p.matrix) in (1, -1)


def test_theta_verification(theta_decomposition):
    report = verify_decomposition(theta_decomposition, range(7))
    assert report.ok
    assert set(report.determinants) <= {1, -1}
    assert [c.points for c in report.dilations] == [1, 1, 4, 5, 11, 14, 24]
    for check in report.dilations:
        assert check.unique_cover and check.matches_replay and check.image_is_target
    assert [c.points for c in report.dilations] == [
        count_points(theta(), t) for t in range(7)
    ]


def test_pieces_claim_disjointly(theta_decomposition):
    d = theta_decomposition
    w = (F(1, 2), F(0), F(1, 2))
    assert sum(p.claims(w) for p in d.pieces) == 1


def test_evaluate_piecewise(theta_decomposition):
    idx, image = evaluate_piecewise(theta_decomposition, (F(1, 2), 0, F(1, 2)))
    assert image == (F(1, 2), F(0), F(0))
    # the image is the weighted replay of the move sequence
    idx2, image2 = evaluate_piecewise(theta_decomposition, (0, F(1, 2), F(1, 2)))
    assert image2 == (F(0), F(1, 2), F(0))
    assert idx != idx2  # the two sides of the case hyperplane


def test_empty_sequence_gives_identity():
    d = build_decomposition(theta(), MoveSequence(()))
    assert len(d.pieces) == 1
    assert d.pieces[0].constraints == ()
    assert d.pieces[0].matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert verify_decomposition(d, range(4)).ok


def test_relabel_only_sequence():
    seq = graph_sequence(theta(), dumbbell(), restrict_to_spanning_trees=True)
    d = build_decomposition(theta(), seq)
    report = verify_decomposition(d, range(5))
    assert report.ok


def test_rejects_wrong_source():
    seq = graph_sequence(theta(), dumbbell())
    with pytest.raises(GraphError):
        build_decomposition(dumbbell(), seq)


@pytest.mark.parametrize(
    "field, big",
    [
        pytest.param(field, big, id=field + label)
        for label, big in (("", 2**40), ("-2**63", 2**63), ("-minus-2**63", -(2**63)))
        for field in ("matrix", "constraints")
    ],
)
def test_verify_refuses_entries_beyond_int64_guard(theta_decomposition, field, big):
    d = theta_decomposition
    piece = d.pieces[0]
    if field == "matrix":
        piece = replace(piece, matrix=((1, 0, 0), (0, 1, 0), (big, 0, 1)))
    else:
        piece = replace(piece, constraints=(((-big, 1, 0), STRICT),))
    with pytest.raises(GraphError, match="too large"):
        verify_decomposition(replace(d, pieces=(piece, *d.pieces[1:])), range(2))


def test_verify_catches_a_corrupted_piece_matrix(theta_decomposition):
    d = theta_decomposition
    # the identity has determinant 1 and leaves the cover alone, so only the
    # replay comparison can see it
    piece = replace(d.pieces[0], matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    report = verify_decomposition(replace(d, pieces=(piece, *d.pieces[1:])), range(7))
    assert not report.ok
    assert all(c.unique_cover for c in report.dilations)
    assert not all(c.matches_replay for c in report.dilations)


def _check_every_piece(d):
    m = len(d.edge_order)
    n = len(d.pieces)
    witnesses = np.array([p.witness for p in d.pieces], dtype=np.int64).reshape(n, m)
    assert np.abs(witnesses).max() < 2**20  # keeps every product below inside int64

    # each witness is claimed by its own piece and by no other
    claimed = np.zeros(n, dtype=np.int64)
    owners = np.full(n, -1, dtype=np.int64)
    for i, piece in enumerate(d.pieces):
        rows = np.array([vec for vec, _ in piece.constraints], dtype=np.int64).reshape(-1, m)
        strict = np.array([sense == STRICT for _, sense in piece.constraints], dtype=bool)
        values = rows @ witnesses.T
        mask = (values[~strict] >= 0).all(axis=0) & (values[strict] < 0).all(axis=0)
        claimed += mask
        owners[mask] = i
    assert (claimed == 1).all()
    assert (owners == np.arange(n)).all()

    # the metric rows hold in every dilate, so the largest perimeter sum is
    # the least dilate t of the source that holds the witness
    src = inequality_system(d.source)
    rows = np.array([c for c, _ in src.rows], dtype=np.int64).reshape(-1, m)
    t_rows = np.array([alpha for _, alpha in src.rows], dtype=bool)
    values = witnesses @ rows.T
    assert (values[:, ~t_rows] <= 0).all()
    dilates = np.maximum(values[:, t_rows].max(axis=1), 0)

    # the piece matrix agrees with weighted replay, and the image lies in the
    # same dilate of the target
    matrices = np.array([p.matrix for p in d.pieces], dtype=np.int64).reshape(n, m, m)
    images = np.einsum("pij,pj->pi", matrices, witnesses)
    tgt = inequality_system(d.target)
    for piece, image, t in zip(d.pieces, images.tolist(), dilates.tolist()):
        _, replayed = replay_weighted(d.source, dict(zip(d.edge_order, piece.witness)), d.moves.moves)
        assert [replayed[e] for e in d.edge_order] == image
        assert contains(tgt, image, t)


def test_every_theta_piece_exercised(theta_decomposition):
    _check_every_piece(theta_decomposition)


def test_every_k4_t4_piece_exercised(k4_t4):
    _, d = k4_t4
    assert len(d.pieces) == 3961
    _check_every_piece(d)


def test_k4_t4_pieces_frozen(k4_t4):
    _, d = k4_t4
    pieces = repr([(p.constraints, p.matrix, p.witness) for p in d.pieces])
    assert hashlib.sha256(pieces.encode()).hexdigest() == (
        "a2c64dd0dd58a7be3edbef6905240ae2e1d60fec008ef10c8a889d9b68288be4"
    )


def test_cover_chunks_agree(k4_t4, theta_decomposition, monkeypatch):
    _, d = k4_t4
    reports = [verify_decomposition(d, range(5)), verify_decomposition(theta_decomposition, range(7))]
    assert all(report.ok for report in reports)
    # K4 -> T4 has 1,332 distinct normals: three points per block, about 60
    # pieces per chunk; on theta, one point and one piece at a time
    monkeypatch.setattr(scissors, "_COVER_CHUNK", 4000)
    assert verify_decomposition(d, range(5)) == reports[0]
    monkeypatch.setattr(scissors, "_COVER_CHUNK", 1)
    assert verify_decomposition(theta_decomposition, range(7)) == reports[1]


def test_children_classify_the_second_row_against_the_first():
    # a degenerate site: h2 equal to h1, or its negation
    piece = scissors.Piece((), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1))
    n, neg = (1, -1, 0), (-1, 1, 0)
    terms, opposite = [(0, 1), (1, -1)], [(0, -1), (1, 1)]
    children = [(c, case) for c, case, _ in scissors._children(piece, terms, terms)]
    assert children == [([(n, WEAK)], "A"), ([(n, STRICT)], "D")]
    children = [(c, case) for c, case, _ in scissors._children(piece, terms, opposite)]
    assert children == [
        ([(n, WEAK), (neg, WEAK)], "A"),
        ([(n, WEAK), (neg, STRICT)], "B"),
        ([(n, STRICT)], "C"),
    ]


def _satisfies(constraints, cone, x) -> bool:
    """x meets the cone rows and the constraints, strict ones strictly."""
    def dot(vec):
        return sum(c * v for c, v in zip(vec, x))

    weak = cone + [tuple(-c for c in vec) for vec, s in constraints if s == WEAK]
    strict = [vec for vec, s in constraints if s == STRICT]
    return all(dot(vec) <= 0 for vec in weak) and all(dot(vec) < 0 for vec in strict)


# theta's metric cone with w_1 > w_2 (nonempty), and with w_1 > w_2 + w_3,
# which contradicts the metric row w_1 <= w_2 + w_3 (empty)
NONEMPTY = [((-1, 1, 0), STRICT), ((0, 0, 1), WEAK)]
EMPTY = [((-1, 1, 1), STRICT)]


def _no_simplex(*args, **kwargs):
    raise AssertionError("the exact simplex ran")


def test_certify_nonempty_gives_integer_point(monkeypatch):
    monkeypatch.setattr(scissors, "max_epsilon", _no_simplex)
    cone = scissors._cone_rows(theta())
    [x] = scissors._certify([NONEMPTY], cone, 3)
    assert x is not None and all(type(v) is int for v in x)
    assert _satisfies(NONEMPTY, cone, x)


def test_certify_empty_by_farkas(monkeypatch):
    monkeypatch.setattr(scissors, "max_epsilon", _no_simplex)
    assert scissors._certify([EMPTY], scissors._cone_rows(theta()), 3) == [None]


def test_certify_falls_back_to_exact_simplex(monkeypatch):
    calls = []
    exact = scissors.max_epsilon

    def spy(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(scissors, "_float_lps", lambda problems, m: [None] * len(problems))
    monkeypatch.setattr(scissors, "max_epsilon", spy)
    cone = scissors._cone_rows(theta())
    [x] = scissors._certify([NONEMPTY], cone, 3)
    assert x is not None and all(type(v) is int for v in x)
    assert _satisfies(NONEMPTY, cone, x)
    assert scissors._certify([EMPTY], cone, 3) == [None]
    assert len(calls) == 2


@pytest.mark.parametrize("den", [13, 17])
def test_certify_scales_the_float_point(monkeypatch, den):
    # (3, 2, 2) / den lies in NONEMPTY; 13 divides the scale, so the point
    # scales back to (3, 2, 2), and 17 does not, so it rounds to another
    # integer point of the cone; neither needs the exact simplex
    x = [3 / den, 2 / den, 2 / den]
    monkeypatch.setattr(scissors, "_float_lps", lambda problems, m: [(0.5, x, [0.0])])
    monkeypatch.setattr(scissors, "max_epsilon", _no_simplex)
    cone = scissors._cone_rows(theta())
    [point] = scissors._certify([NONEMPTY], cone, 3)
    assert _satisfies(NONEMPTY, cone, point)
    assert (point == (3, 2, 2)) == (den == 13)


RAY_CASES = [
    ([3 / 13, 2 / 13, 0.0], (3, 2, 0)),  # the denominator divides the scale
    ([3 / 17, 2 / 17, 2 / 17], (127186, 84791, 84791)),  # it does not
    ([0.5 + 1e-6, 0.25, 0.0], (360361, 180180, 0)),  # over half a scale step from 1/2
    ([1 + 6e-7, 0.5, 0.0], (2, 1, 0)),  # under half a scale step from 1
    ([1 / 720720 + 1e-12, 1.0, 0.0], (1, 720720, 0)),  # the finest fraction the scale holds
    ([1e-11, -0.5, 0.75], (0, 0, 1)),  # tiny and negative entries
    ([float("nan"), 0.5, 0.5], (0, 0, 0)),
    ([3000.25, 1.0, 0.0], (0, 0, 0)),  # too large to scale
]


@pytest.mark.parametrize(
    "values, ray", RAY_CASES, ids=[f"values{i}" for i in range(len(RAY_CASES))]
)
def test_rays_match_round_on_edge_cases(monkeypatch, values, ray):
    assert scissors._rays([None, (0.5, values, [])]) == [None, (True, ray)]
    assert scissors._rays([(0.0, [0.0], values)]) == [(False, ray)]
    if not any(ray):
        # the zero vector certifies nothing, so the exact simplex decides
        monkeypatch.setattr(scissors, "max_epsilon", _no_simplex)
        weak = scissors._cone_rows(theta())
        with pytest.raises(AssertionError, match="exact simplex"):
            scissors._validate(weak, [(-1, 1, 0)], (True, ray), 3)


def test_wrong_reconstruction_goes_to_exact_simplex(monkeypatch):
    cone = scissors._cone_rows(theta())
    # within tolerance of (1/2, 1/2, 1/4), so it scales to (2, 2, 1), which
    # breaks NONEMPTY's strict row; and multipliers that sum to (-1, 1, 1)
    point = (0.5, [0.5, 0.5 - 1e-10, 0.25], [])
    farkas = (0.0, [0.0] * 3, [0.0] * len(cone) + [1.0])
    calls = []
    exact = scissors.max_epsilon

    def spy(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(scissors, "max_epsilon", spy)
    monkeypatch.setattr(scissors, "_float_lps", lambda problems, m: [point])
    [x] = scissors._certify([NONEMPTY], cone, 3)
    assert x is not None and _satisfies(NONEMPTY, cone, x)
    monkeypatch.setattr(scissors, "_float_lps", lambda problems, m: [farkas])
    assert scissors._certify([EMPTY], cone, 3) == [None]
    assert len(calls) == 2


def _dense_tableau(weak, strict, m):
    """One eps problem on the full dense tableau, pivot by pivot: the reference
    the batched routine must match value for value."""
    nrows = len(weak) + len(strict) + 1
    ncols = m + 1 + nrows
    T = np.zeros((nrows + 1, ncols + 1))
    for i, vec in enumerate([*weak, *strict]):
        T[i, :m] = vec
    T[len(weak) : nrows, m] = 1.0
    T[nrows - 1, ncols] = 1.0
    T[:nrows, m + 1 : m + 1 + nrows] = np.eye(nrows)
    T[nrows, m] = 1.0
    basis = list(range(m + 1, m + 1 + nrows))
    for _ in range(200):
        entering = int(T[nrows, :ncols].argmax())
        if T[nrows, entering] <= 1e-9:
            break
        col = T[:nrows, entering]
        if not (col > 1e-9).any():
            return None
        ratios = [T[i, ncols] / c if c > 1e-9 else np.inf for i, c in enumerate(col)]
        leave = int(np.argmin(ratios))
        T[leave] /= T[leave, entering]
        factors = T[:, entering].copy()
        factors[leave] = 0.0
        T -= factors[:, None] * T[leave]
        basis[leave] = entering
    else:
        return None
    x = [0.0] * m
    for i, b in enumerate(basis):
        if b < m:
            x[b] = float(T[i, ncols])
    return float(-T[nrows, ncols]), x, (-T[nrows, m + 1 : m + nrows]).tolist()


def _first_moves(source, target, moves):
    return MoveSequence(graph_sequence(source, target).moves[:moves])


def _recorded_lps(monkeypatch, source, seq):
    """The build's decomposition and the nonempty LP batches it solved."""
    batches = []
    solve = scissors._float_lps

    def record(problems, m):
        batches.append(list(problems))
        return solve(problems, m)

    monkeypatch.setattr(scissors, "_float_lps", record)
    d = build_decomposition(source, seq)
    monkeypatch.setattr(scissors, "_float_lps", solve)
    return d, [b for b in batches if b]


def _rows(problem):
    weak, strict = problem
    return len(weak) + len(strict) + 1  # the eps row included


def _assert_alone_and_together(problems, m):
    """Each problem alone matches the single-LP reference, and one shuffled
    batch of all of them gives the same answers."""
    alone = [scissors._float_lps([p], m)[0] for p in problems]
    assert alone == [_dense_tableau(w, s, m) for w, s in problems]
    order = list(range(len(problems)))
    random.Random(7).shuffle(order)
    together = scissors._float_lps([problems[i] for i in order], m)
    assert together == [alone[i] for i in order]


def test_batched_lps_match_solving_each_alone(monkeypatch):
    # the fifth and sixth moves bring ties for the entering column
    _, batches = _recorded_lps(monkeypatch, k4(), _first_moves(k4(), t4(), 6))
    problems = [p for batch in batches for p in batch]
    assert len({len(w) + len(s) for w, s in problems}) > 1  # a ragged batch
    _assert_alone_and_together(problems, len(k4().edges))


def test_widest_lp_batch_matches_solving_each_alone(monkeypatch):
    # the batch with the most rows among the first ten moves, wider than any
    # of the first six moves' batches (at most 24 rows)
    _, batches = _recorded_lps(monkeypatch, k4(), _first_moves(k4(), t4(), 10))
    widest = max(batches, key=lambda batch: max(map(_rows, batch)))
    assert max(map(_rows, widest)) == 32
    assert len(set(map(_rows, widest))) > 1  # a ragged batch
    _assert_alone_and_together(widest, len(k4().edges))


@pytest.mark.parametrize("source, target, moves", [(theta, dumbbell, 1), (k4, t4, 3)])
def test_fallback_runs_only_for_the_failed_proposal(monkeypatch, source, target, moves):
    seq = _first_moves(source(), target(), moves)
    expected, batches = _recorded_lps(monkeypatch, source(), seq)
    widest = max(batches, key=len)
    failed = widest[len(widest) // 2]
    solve = scissors._float_lps

    def fail_one(problems, m):
        proposals = solve(problems, m)
        if problems == widest:
            proposals[len(problems) // 2] = None
        return proposals

    exact_runs = []
    exact = scissors.max_epsilon

    def spy(weak, strict, *args, **kwargs):
        exact_runs.append(([vec for vec, _ in weak], [vec for vec, _ in strict]))
        return exact(weak, strict, *args, **kwargs)

    monkeypatch.setattr(scissors, "_float_lps", fail_one)
    monkeypatch.setattr(scissors, "max_epsilon", spy)
    d = build_decomposition(source(), seq)
    assert exact_runs == [failed]
    assert [(p.constraints, p.matrix) for p in d.pieces] == [
        (p.constraints, p.matrix) for p in expected.pieces
    ]
    _check_every_piece(d)


@pytest.fixture(scope="module")
def k4_t4_lps():
    """Every LP batch of the full K4 -> T4 build and the proposals it got."""
    batches = []
    solve = scissors._float_lps

    def record(problems, m):
        proposals = solve(problems, m)
        batches.append((list(problems), proposals))
        return proposals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scissors, "_float_lps", record)
        build_decomposition(k4(), graph_sequence(k4(), t4()))
    return [(problems, proposals) for problems, proposals in batches if problems]


def test_widest_full_build_batch_matches_solving_each_alone(k4_t4_lps):
    problems, _ = max(k4_t4_lps, key=lambda batch: max(map(_rows, batch[0])))
    assert max(map(_rows, problems)) > 32  # wider than any batch of the first ten moves
    _assert_alone_and_together(problems, len(k4().edges))


def test_scaled_rays_validate_without_simplex(k4_t4_lps, monkeypatch):
    """Every K4 -> T4 proposal scales to a certificate that _validate accepts
    in integers, so the exact simplex never runs there."""
    proposals = [p for _, batch in k4_t4_lps for p in batch]
    assert len(proposals) == 17660 and None not in proposals
    monkeypatch.setattr(scissors, "max_epsilon", _no_simplex)
    m = len(k4().edges)
    for problems, batch in k4_t4_lps:
        for (weak, strict), ray in zip(problems, scissors._rays(batch), strict=True):
            scissors._validate(weak, strict, ray, m)
