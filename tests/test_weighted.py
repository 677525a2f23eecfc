"""Weighted NNI: the max-formula pivot update and its case analysis."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trivalent.catalog import dumbbell, theta
from trivalent.exactlin import determinant
from trivalent.graphs import make_graph, same_labeled_graph
from trivalent.nni import Trail, graph_sequence
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
