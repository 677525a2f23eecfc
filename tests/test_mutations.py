"""The mutation ledger: each mutant of the program, applied in-process, must
fail the check named beside it.

A mutant that no check catches means the checks do not exercise what they
claim to.  Each patch clears the caches that hold what it changes (plans,
programs and leaf tensors), before and after, so no mutant outlives its test.
"""
import inspect
import textwrap
from dataclasses import replace

import pytest

import trivalent.catalog as catalog
import trivalent.counting as counting
import trivalent.nni as nni
import trivalent.scissors as scissors
import trivalent.weighted as weighted
from trivalent.catalog import dumbbell, k4, t4, theta
from trivalent.counting import count_elimination
from trivalent.nni import MoveSequence, graph_sequence
from trivalent.weighted import CASES

import test_catalog
import test_counting
import test_nni
import test_weighted
from test_counting import CENSUS, NETWORKS

# Inputs the move and transport checks read, made before any patch: under
# a mutant replay, graph_sequence itself fails.
K4_T4_MOVES = graph_sequence(k4(), t4()).moves
RATIONAL_TRANSPORTS = test_weighted.census_transports(with_points=False)


def _clear_caches():
    counting._plan.cache_clear()
    counting._program.cache_clear()
    counting._shared_leaves.cache_clear()


def _swap_result_axes(monkeypatch):
    """_layout labels a merge's result axes with its two factors swapped."""
    source = textwrap.dedent(inspect.getsource(counting._layout))
    old = "(batch + fa[2] + fb[2], True), (batch + fb[2] + fa[2], False)"
    assert source.count(old) == 1
    namespace = dict(vars(counting))
    exec(source.replace(old, "(batch + fb[2] + fa[2], True), (batch + fa[2] + fb[2], False)"),
         namespace)
    monkeypatch.setattr(counting, "_layout", namespace["_layout"])


def _flip_metric_row(monkeypatch):
    """LOCAL_ROWS with the first metric row's signs flipped: w_a >= w_b + w_c."""
    (perimeter, (signs, alpha), *rest) = counting.LOCAL_ROWS
    flipped = (perimeter, (tuple(-s for s in signs), alpha), *rest)
    monkeypatch.setattr(counting, "LOCAL_ROWS", flipped)


def _skip_last_relabeling(monkeypatch):
    """connected_13_classes's canonical test ignores the last relabeling."""
    source = textwrap.dedent(inspect.getsource(catalog.connected_13_classes))
    assert source.count("][1:]") == 1
    namespace = dict(vars(catalog))
    exec(source.replace("][1:]", "][1:-1]"), namespace)
    monkeypatch.setattr(catalog, "connected_13_classes", namespace["connected_13_classes"])


def _swap_cases_b_and_c(monkeypatch):
    """CASES with the pivot updates of cases B and C exchanged."""
    (b_sides, b_plus, b_minus), (c_sides, c_plus, c_minus) = CASES["B"], CASES["C"]
    monkeypatch.setitem(CASES, "B", (b_sides, c_plus, c_minus))
    monkeypatch.setitem(CASES, "C", (c_sides, b_plus, b_minus))


def _drop_a_piece(monkeypatch):
    """build_decomposition loses its first piece, the one that holds the
    origin: only a dropped piece that some point at t <= 4 reaches can be
    seen there, and 41 of K4 -> T4's 3,961 pieces are such."""
    build = scissors.build_decomposition

    def dropped(g, seq):
        d = build(g, seq)
        return replace(d, pieces=d.pieces[1:])

    monkeypatch.setattr(scissors, "build_decomposition", dropped)


def _kill_an_implied_case(monkeypatch):
    """_verdicts kills a child whose weak row is implied by the negated
    normal's strict row, where it should skip the row."""
    source = textwrap.dedent(inspect.getsource(scissors._verdicts))
    old = "weak, zero | held | negated, ~zero & strict)\n    dead = np.where(weak, strict,"
    new = "weak, zero | held, ~zero & strict)\n    dead = np.where(weak, strict | negated,"
    assert source.count(old) == 1
    namespace = dict(vars(scissors))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(scissors, "_verdicts", namespace["_verdicts"])


def _move_one_slot(monkeypatch):
    """replay's slot map moves a's slot from u to v but leaves b's at v."""
    source = textwrap.dedent(inspect.getsource(nni.replay))
    old = "        at_v.remove(b)\n        insort(at_u, b)\n"
    assert source.count(old) == 1
    namespace = dict(vars(nni))
    exec(source.replace(old, ""), namespace)
    monkeypatch.setattr(nni, "replay", namespace["replay"])


def _keep_the_scale(monkeypatch):
    """replay_weighted returns its integer weights without dividing by the
    scale."""
    source = textwrap.dedent(inspect.getsource(weighted.replay_weighted))
    old = "Fraction(x, scale)"
    assert source.count(old) == 1
    namespace = dict(vars(weighted))
    exec(source.replace(old, "Fraction(x)"), namespace)
    monkeypatch.setattr(weighted, "replay_weighted", namespace["replay_weighted"])


def _seeded_maps_differ() -> bool:
    """Some Graph a K4 -> T4 move builds carries maps other than a rebuilt
    Graph's (test_moves_hand_on_maps_equal_to_rebuilt_ones, on one pair)."""
    try:
        test_nni.assert_moves_hand_on_fresh_maps(k4(), K4_T4_MOVES)
    except AssertionError:
        return True
    return False


def _rational_transport_differs() -> bool:
    """Some census pair carries seeded rational weights elsewhere than the
    Fraction loop does (test_rational_transport_matches_the_fraction_loop,
    without its lattice points)."""
    return test_weighted.transport_differs(RATIONAL_TRANSPORTS)


def _theta_replay_differs() -> bool:
    """Some point of theta -> dumbbell at t <= 4 maps elsewhere than the
    move-by-move replay takes it."""
    d = scissors.build_decomposition(theta(), graph_sequence(theta(), dumbbell()))
    return not all(c.matches_replay for c in scissors.verify_decomposition(d, range(5)).dilations)


def _k4_t4_cover_fails() -> bool:
    """Some point of K4 at t <= 4 is claimed by no piece, or by two."""
    d = scissors.build_decomposition(k4(), graph_sequence(k4(), t4()))
    return not all(c.unique_cover for c in scissors.verify_decomposition(d, range(5)).dilations)


def _k4_t4_six_moves_fail() -> bool:
    """The build along the first six K4 -> T4 moves fails verification at
    t <= 4.  (The frozen K4 -> T4 hash would catch the same mutant, at the
    cost of a full build.)"""
    seq = MoveSequence(graph_sequence(k4(), t4()).moves[:6])
    d = scissors.build_decomposition(k4(), seq)
    return not scissors.verify_decomposition(d, range(5)).ok


def _wiring_fails() -> bool:
    """test_eliminate_matches_one_einsum fails on some network: a program
    differs from the one-einsum reference on a random symmetric tensor."""
    for g in NETWORKS.values():
        try:
            test_counting.test_eliminate_matches_one_einsum(g)
        except AssertionError:
            return True
    return False


def _first_count_raises() -> bool:
    """The first count refuses an indicator that is not symmetric."""
    try:
        count_elimination(k4(), 3)
    except ValueError as error:
        return "not symmetric" in str(error)
    return False


def _brute_force_differs() -> bool:
    """test_classes_match_the_brute_force fails at some max_edges <= 7: the
    catalog differs from the scan of every multiplicity vector."""
    for max_edges in range(8):
        try:
            test_catalog.assert_matches_brute_force(max_edges)
        except AssertionError:
            return True
    return False


# name: (patch, check that must fail under it)
MUTANTS = {
    "result-order": (_swap_result_axes, _wiring_fails),
    "flipped-metric-row": (_flip_metric_row, _first_count_raises),
    "catalog-skips-a-relabeling": (_skip_last_relabeling, _brute_force_differs),
    "cases-b-c-swapped": (_swap_cases_b_and_c, _theta_replay_differs),
    "k4-t4-piece-dropped": (_drop_a_piece, _k4_t4_cover_fails),
    "split-kills-a-live-case": (_kill_an_implied_case, _k4_t4_six_moves_fail),
    "replay-moves-one-slot": (_move_one_slot, _seeded_maps_differ),
    "weights-keep-their-scale": (_keep_the_scale, _rational_transport_differs),
}


@pytest.fixture
def mutate(monkeypatch):
    """Apply a patch with the caches cleared around it."""

    def apply(patch):
        patch(monkeypatch)
        _clear_caches()

    _clear_caches()
    yield apply
    monkeypatch.undo()
    _clear_caches()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(name, mutate):
    patch, fails = MUTANTS[name]
    assert not fails()  # the check passes on the program as it is
    mutate(patch)
    assert fails()


def test_counts_miss_the_result_order_mutant(mutate):
    # the miswired networks count as graphs of the same class, so only the
    # wiring check above sees the mutant
    def counts():
        return [count_elimination(g, t, strict=strict)
                for g in CENSUS for t in (0, 1, 2, 3, 5) for strict in (False, True)]

    expect = counts()
    mutate(_swap_result_axes)
    assert counts() == expect
