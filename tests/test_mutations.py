"""The mutation ledger: each mutant of the program, applied in-process, must
fail the check named beside it.

A mutant that no check catches means the checks do not exercise what they
claim to.  Each patch clears the caches that hold what it changes (plans,
programs and leaf tensors), before and after, so no mutant outlives its test.
"""
import inspect
import textwrap

import pytest

import trivalent.catalog as catalog
import trivalent.counting as counting
from trivalent.catalog import k4
from trivalent.counting import count_elimination

import test_catalog
import test_counting
from test_counting import CENSUS, NETWORKS


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
