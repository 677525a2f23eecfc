"""Weighted NNI: the max-formula pivot update and its case analysis."""
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trivalent import weighted
from trivalent.catalog import connected_13_classes, dumbbell, theta, tree_two_internal
from trivalent.counting import iter_lattice_points
from trivalent.exactlin import determinant
from trivalent.graphs import make_graph, same_labeled_graph
from trivalent.nni import NniError, Trail, apply_nni, graph_sequence, replay
from trivalent.polytope import inequality_system
from trivalent.scissors import build_decomposition, verify_decomposition
from trivalent.weighted import (
    CASES,
    apply_weighted_nni,
    as_weighting,
    case_matrix,
    case_of,
    replay_weighted,
    resolve_site,
    site_hyperplanes,
    weight_delta,
)

from wnni_properties import (
    check_boundary_continuity,
    check_involution,
    check_membership,
    check_piecewise_matches_max,
    polytope_points,
    sample_membership_case,
    sample_weights,
    site_pool,
)

POOL = site_pool()
POINTS = {g: polytope_points(g) for g, _ in POOL}


def test_theta_to_dumbbell_weighted():
    g = theta()
    w = as_weighting(g, (1, 0, 1))
    h, w2 = apply_weighted_nni(g, w, Trail(1, 1, 3, 2, 2))
    assert same_labeled_graph(h, dumbbell())
    assert [w2[e] for e in (1, 2, 3)] == [1, 0, 0]


def test_degenerate_parallel_pivot_is_identity():
    # double edge with a pendant at each endpoint: c and d coincide, the
    # pivot weight never moves
    g = make_graph([(1, 1, 2), (2, 1, 2), (3, 1, 3), (4, 2, 4)])
    trail = Trail(3, 1, 1, 2, 4)
    site = resolve_site(g, trail)
    assert site.c == site.d == 2
    w = as_weighting(g, (5, 7, 1, 2))
    assert weight_delta(site, w) == 0
    mat = case_matrix(site, case_of(site, w), g.edges)
    for i, row in enumerate(mat):
        assert row == tuple(1 if j == i else 0 for j in range(4))


def test_case_matrices_unimodular():
    g = theta()
    site = resolve_site(g, Trail(1, 1, 3, 2, 2))
    for case in "ABCD":
        assert determinant(case_matrix(site, case, g.edges)) in (1, -1)


def test_site_hyperplanes_normalized():
    g = theta()
    site = resolve_site(g, Trail(1, 1, 3, 2, 2))
    planes = site_hyperplanes(site, g.edges)
    # h1 vanishes (a = d, b = c); h2 = 2w_1 - 2w_2 is stored primitive
    assert planes == [(1, -1, 0)]
    for vec in planes:
        lead = next(x for x in vec if x != 0)
        assert lead > 0


def test_replay_weighted_matches_single_step():
    g = theta()
    w = as_weighting(g, (1, 0, 1))
    h, w2 = replay_weighted(g, w, [Trail(1, 1, 3, 2, 2)])
    assert same_labeled_graph(h, dumbbell())
    assert w2[3] == 0


@pytest.mark.parametrize("swapped", [False, True], ids=["table", "b-c-swapped"])
def test_swapping_cases_b_and_c_is_caught(monkeypatch, swapped):
    # every reader of the case table sees the swap: the decomposition's piece
    # matrices and case_delta then disagree with the max formula
    if swapped:
        (b_sides, b_plus, b_minus), (c_sides, c_plus, c_minus) = CASES["B"], CASES["C"]
        monkeypatch.setitem(CASES, "B", (b_sides, c_plus, c_minus))
        monkeypatch.setitem(CASES, "C", (c_sides, b_plus, b_minus))
    g = theta()
    d = build_decomposition(g, graph_sequence(g, dumbbell()))
    report = verify_decomposition(d, range(5))
    assert all(check.matches_replay for check in report.dilations) is not swapped
    # w_1 < w_2 puts the move in case B
    trail, w = Trail(1, 1, 3, 2, 2), [Fraction(0), Fraction(1), Fraction(1)]
    assert case_of(resolve_site(g, trail), dict(zip(g.edges, w))) == "B"
    if swapped:
        with pytest.raises(AssertionError):
            check_piecewise_matches_max(g, trail, w)
    else:
        check_piecewise_matches_max(g, trail, w)


# Every NniError of a move: (graph, trail, the slide's message, resolve_site's
# message), None where that check passes.  replay_weighted resolves the site
# before it slides, so the site's message comes first.
MOVE_ERRORS = {
    "missing pivot": (
        theta(), Trail(1, 1, 9, 2, 2),
        "pivot edge 9 does not exist", "pivot edge 9 does not exist",
    ),
    "loop pivot": (
        dumbbell(), Trail(3, 1, 1, 1, 3),
        "pivot edge 1 is a loop", "edge 1 is not a pivot between 1 and 1",
    ),
    "pivot elsewhere": (
        tree_two_internal(), Trail(2, 1, 1, 3, 4),
        "pivot edge 1 joins 1,2, not 1,3", "edge 1 is not a pivot between 1 and 3",
    ),
    "a is e": (
        theta(), Trail(1, 1, 1, 2, 2),
        "edges a=1, e=1, b=2 must be pairwise distinct", "edge 1 has no slot at vertex 1",
    ),
    "b is e": (
        theta(), Trail(1, 1, 2, 2, 2),
        "edges a=1, e=2, b=2 must be pairwise distinct", "edge 2 has no slot at vertex 2",
    ),
    "a is b": (
        theta(), Trail(1, 1, 3, 2, 1),
        "edges a=1, e=3, b=1 must be pairwise distinct", None,
    ),
    "missing a": (
        theta(), Trail(9, 1, 3, 2, 2),
        "edge 9 does not exist", "edge 9 has no slot at vertex 1",
    ),
    "missing b": (
        theta(), Trail(1, 1, 3, 2, 9),
        "edge 9 does not exist", "edge 9 has no slot at vertex 2",
    ),
    "a not at u": (
        dumbbell(), Trail(1, 2, 3, 1, 2),
        "edge 1 has no end at vertex 2", "edge 1 has no slot at vertex 2",
    ),
    "b not at v": (
        tree_two_internal(), Trail(2, 1, 1, 2, 3),
        "edge 3 has no end at vertex 2", "edge 3 has no slot at vertex 2",
    ),
    "degree 4 at u": (
        make_graph([(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 1, 5), (5, 2, 6), (6, 2, 7)]),
        Trail(2, 1, 1, 2, 5),
        None, "pivot endpoint 1 has degree 4; weighted moves need degree 3",
    ),
    "degree 2 at v": (
        make_graph([(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 5)]),
        Trail(2, 1, 1, 2, 4),
        None, "pivot endpoint 2 has degree 2; weighted moves need degree 3",
    ),
}


@pytest.mark.parametrize("name", MOVE_ERRORS)
def test_move_errors_keep_their_messages(name):
    g, trail, slide, site = MOVE_ERRORS[name]
    w = as_weighting(g, [1] * len(g.edges))
    for call, message in (
        (lambda: apply_nni(g, trail), slide),
        (lambda: replay(g, [trail]), slide),
        (lambda: resolve_site(g, trail), site),
        (lambda: replay_weighted(g, w, [trail]), site or slide),
    ):
        if message is None:
            call()
            continue
        with pytest.raises(NniError) as caught:
            call()
        assert str(caught.value) == message


def fraction_replay(g, w, moves):
    """replay_weighted as one Fraction update per move: the oracle."""
    out = {e: Fraction(x) for e, x in w.items()}
    for trail in moves:
        out[trail.e] += weight_delta(resolve_site(g, trail), out)
        g = apply_nni(g, trail)
    return g, out


def census_transports(with_points=True):
    """(g1, weighting, moves) for each ordered census-7 pair: three seeded
    rational weightings of g1 (denominators 2 to 12), then, with_points,
    every lattice point of g1 at t = 7/2."""
    rng = random.Random(32)
    out = []
    for group in connected_13_classes(7).values():
        for g1 in group:
            weightings = [
                [Fraction(rng.randint(-40, 40), rng.randint(2, 12)) for _ in g1.edges]
                for _ in range(3)
            ]
            if with_points:
                weightings += iter_lattice_points(inequality_system(g1), Fraction(7, 2))
            for g2 in group:
                moves = graph_sequence(g1, g2).moves
                out += [(g1, dict(zip(g1.edges, w)), moves) for w in weightings]
    return out


def transport_differs(transports) -> bool:
    """Some transport returns a weight that is not a Fraction, or leaves the
    Fraction oracle's result: another graph, or weights of other values or
    order.  Reads replay_weighted from the module, so a patched one is the
    one tested."""
    for g, w, moves in transports:
        h, out = weighted.replay_weighted(g, w, moves)
        h0, expect = fraction_replay(g, w, moves)
        if any(type(x) is not Fraction for x in out.values()):
            return True
        if h != h0 or pickle.dumps(out) != pickle.dumps(expect):
            return True
    return False


def test_rational_transport_matches_the_fraction_loop():
    transports = census_transports()
    assert len(transports) == 3 * 136 + 2755
    assert any(x.denominator > 1 for _, w, _ in transports for x in w.values())
    assert not transport_differs(transports)


@st.composite
def site_and_weights(draw):
    g, trail = draw(st.sampled_from(POOL))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return g, trail, sample_weights(rng, len(g.edges))


@st.composite
def site_and_member(draw):
    g, trail = draw(st.sampled_from(POOL))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    t, w = sample_membership_case(rng, g, POINTS[g])
    return g, trail, t, w


@settings(max_examples=200, deadline=None)
@given(site_and_weights())
def test_involution_property(case):
    g, trail, w = case
    check_involution(g, trail, w)


@settings(max_examples=200, deadline=None)
@given(site_and_member())
def test_membership_property(case):
    g, trail, t, w = case
    check_membership(g, trail, t, w)


@settings(max_examples=200, deadline=None)
@given(site_and_weights())
def test_piecewise_matches_max_property(case):
    g, trail, w = case
    check_piecewise_matches_max(g, trail, w)


@settings(max_examples=200, deadline=None)
@given(site_and_weights())
def test_boundary_continuity_property(case):
    g, trail, w = case
    check_boundary_continuity(g, trail, w)
