"""Quasi-polynomials, the trigonometric count, and the Bernoulli closed form."""
import random
from fractions import Fraction
from math import comb

import mpmath
import pytest

from trivalent import ehrhart
from trivalent.catalog import (
    claw,
    connected_13_classes,
    dumbbell,
    k4,
    t4,
    theta,
    tree_two_internal,
)
from trivalent.counting import count_backtracking, count_elimination, count_points
from trivalent.ehrhart import (
    QuasiPolynomial,
    _interpolate,
    _nodes,
    quasi_polynomial,
    semi_reflexive_check,
    verlinde_count,
    volume_check,
    zagier_polynomial,
)
from trivalent.graphs import GraphError, make_graph
from trivalent.polytope import inequality_system

F = Fraction


def k_prism(k):
    """The k-prism: two k-cycles joined by k rungs (cubic, 3k edges)."""
    edges = []
    for r in range(1, k + 1):
        nxt = r % k + 1
        edges += [(3 * r - 2, r, nxt), (3 * r - 1, r + k, nxt + k), (3 * r, r, r + k)]
    return make_graph(edges)


def _census():
    return [g for group in connected_13_classes(7).values() for g in group]


CLAW_EVEN = (F(1), F(5, 6), F(1, 4), F(1, 24))
CLAW_ODD = (F(1, 4), F(11, 24), F(1, 4), F(1, 24))


def test_claw_quasi_polynomial():
    qp = quasi_polynomial(claw())
    assert qp.period == 2
    assert qp.constituents == (CLAW_EVEN, CLAW_ODD)
    assert qp.degree() == 3
    for t in range(12):
        assert qp.evaluate(t) == count_points(claw(), t)


def test_evaluate_uses_residue():
    qp = quasi_polynomial(claw())
    assert qp.evaluate(2) == 4
    assert qp.evaluate(3) == 5


def test_quasi_polynomial_json_round_trip():
    qp = quasi_polynomial(theta())
    back = QuasiPolynomial.from_jsonable(qp.to_jsonable())
    assert back == qp


def test_invariance_small():
    assert quasi_polynomial(theta()) == quasi_polynomial(dumbbell())
    assert quasi_polynomial(k4()) == quasi_polynomial(t4())


def _lagrange(points):
    """Reference: Lagrange interpolation in Fractions; coefficients ascending."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # basis polynomial prod_{j != i} (X - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    return tuple(coeffs)


def test_interpolate_matches_lagrange():
    rng = random.Random(20180412)
    for n in range(1, 13):
        for r in range(4):
            for _ in range(6):
                bound = rng.choice((3, 10**4, 10**30))
                values = [rng.randint(-bound, bound) for _ in range(n)]
                got = _interpolate(r, values)
                assert got == _lagrange([(r + 4 * k, y) for k, y in enumerate(values)])
                assert len(got) == n and all(type(c) is Fraction for c in got)


def test_quasi_polynomial_equals_lagrange_fit_on_census():
    # the oracle fits closed counts at t = r, r+4, ..., r+4m: nodes of its
    # own, none of them negative, so it shares no value with the QP's window
    for g in _census():
        qp = quasi_polynomial(g)
        m = len(g.edges)
        for r in range(4):
            nodes = [r + 4 * k for k in range(m + 1)]
            fit = _lagrange([(t, count_points(g, t)) for t in nodes])
            assert qp.constituents[r % qp.period] == fit


def test_reciprocity_on_census_and_prism():
    # (-1)^m L(-s) counts the strict interior of the s-th dilate
    for g in _census() + [k_prism(3)]:
        qp = quasi_polynomial(g)
        sign = (-1) ** len(g.edges)
        for s in range(1, 10):
            assert sign * qp.evaluate(-s) == count_elimination(g, s, strict=True)


def test_reciprocity_against_backtracking():
    for g in (tree_two_internal(), k4()):
        qp = quasi_polynomial(g)
        sign = (-1) ** len(g.edges)
        for s in range(1, 5):
            oracle = count_backtracking(inequality_system(g), s, strict=True)
            assert sign * qp.evaluate(-s) == oracle


def test_wrong_strict_count_fails_the_probe(monkeypatch):
    true_count = ehrhart.count_elimination

    def off_by_one(g, s, strict=False):
        return true_count(g, s, strict=strict) + (s == 3)

    monkeypatch.setattr(ehrhart, "count_elimination", off_by_one)
    with pytest.raises(GraphError, match="failed verification"):
        quasi_polynomial(theta())


def test_nodes_centred_on_zero(monkeypatch):
    g = k4()
    m = len(g.edges)
    expected = quasi_polynomial(t4())
    closed, negative = [], []
    true_count = ehrhart.count_elimination

    def strict_count(g, s, strict=False):
        assert strict
        negative.append(-s)
        return true_count(g, s, strict=True)

    def closed_count(g, t):
        closed.append(t)
        return count_points(g, t)

    monkeypatch.setattr(ehrhart, "count_elimination", strict_count)
    monkeypatch.setattr(ehrhart, "count_points", closed_count)
    assert quasi_polynomial(g) == expected
    nodes = closed + negative
    assert len(nodes) == 4 * (m + 2)  # as many counts as before
    assert max(map(abs, nodes)) <= 2 * m + 5  # the old top was 4m + 7
    assert min(closed) >= 0 and max(negative) < 0
    for r in range(4):
        window = sorted(t for t in nodes if t % 4 == r)
        assert window == _nodes(r, m)
        assert window == [window[0] + 4 * k for k in range(m + 2)]
        assert window[-1] > 0 and window[-1] in closed  # the probe is a closed count


def test_cube_matches_zagier():
    # the 4-prism, n = 8: the old window would have counted up to t = 55
    g = k_prism(4)
    qp = quasi_polynomial(g)
    zagier = zagier_polynomial(8)
    assert all(qp.constituents[r % qp.period] == zagier for r in (1, 3))
    assert volume_check(g, qp).ok


def petersen():
    """The Petersen graph: a 5-cycle, a pentagram and five spokes (cubic, 15
    edges)."""
    edges = []
    for i in range(5):
        edges += [(3 * i + 1, i + 1, (i + 1) % 5 + 1), (3 * i + 2, i + 6, (i + 2) % 5 + 6),
                  (3 * i + 3, i + 1, i + 6)]
    return make_graph(edges)


def test_petersen_matches_the_five_prism():
    # two cubic graphs with 10 vertices: one class, one quasi-polynomial,
    # whose odd constituents are Zagier's; counted over slot values
    # 0..t/2, Petersen's widest tensor (5 axes) stays small
    qp = quasi_polynomial(petersen())
    assert qp == quasi_polynomial(k_prism(5))
    assert all(qp.constituents[r % qp.period] == zagier_polynomial(10) for r in (1, 3))


@pytest.mark.parametrize(
    "n,t,expected",
    [(2, 1, 1), (2, 3, 5), (2, 5, 14), (4, 1, 1), (4, 3, 15), (4, 5, 98)],
)
def test_verlinde_frozen_values(n, t, expected):
    assert verlinde_count(n, t) == expected


def test_verlinde_leaves_shared_precision_alone(monkeypatch):
    saved = mpmath.iv.prec
    try:
        mpmath.iv.prec = 37
        # a start of 20 bits escalates before it certifies
        monkeypatch.setattr(ehrhart, "_START_PRECISION", 20)
        assert verlinde_count(6, 23) == 64146875
        assert verlinde_count(4, 5) == 98
        assert mpmath.iv.prec == 37
    finally:
        mpmath.iv.prec = saved


def test_verlinde_above_2_53():
    value = sum(c * 3001**k for k, c in enumerate(zagier_polynomial(4)))
    assert value == 509295668635905151  # 59 bits: a float64 candidate is off by 1
    saved = mpmath.mp.prec
    assert verlinde_count(4, 3001) == value
    assert mpmath.mp.prec == saved


def _verlinde_unpaired(n, t):
    """The trigonometric sum over all j = 1..t+1, each term evaluated on its
    own, in interval arithmetic at doubling precision until it pins one
    integer."""
    iv = mpmath.ctx_iv.MPIntervalContext()
    mp = mpmath.ctx_mp.MPContext()
    prec = ehrhart._START_PRECISION
    while prec <= 4096:
        iv.prec = mp.prec = prec
        total = iv.mpf(0)
        for j in range(1, t + 2):
            total += (1 / iv.sin(iv.pi * j / (t + 2))) ** n
        value = total * iv.mpf(t + 2) ** (n // 2) / iv.mpf(2) ** (n + 1)
        k = int(mp.nint((mp.mpf(value.a) + mp.mpf(value.b)) / 2))
        diff = value - k
        if mp.mpf(diff.a) > -0.25 and mp.mpf(diff.b) < 0.25:
            return k
        prec *= 2
    raise AssertionError(f"no integer certified for n = {n}, t = {t}")


def test_verlinde_pairs_match_the_unpaired_sum():
    # verlinde_count sums half the terms, twice: sin(pi j/(t+2)) is
    # symmetric in j -> t + 2 - j, and t + 2 is odd
    cases = [(n, t) for n in (2, 4, 6, 8, 12, 20) for t in (1, 3, 5, 19, 21, 23, 99)]
    for n, t in cases + [(4, 3001)]:
        assert verlinde_count(n, t) == _verlinde_unpaired(n, t)


def test_verlinde_matches_enumeration():
    for t in (1, 3, 5):
        assert verlinde_count(2, t) == count_points(theta(), t)
        assert verlinde_count(4, t) == count_points(k4(), t)


def test_zagier_polynomial_frozen():
    assert zagier_polynomial(2) == CLAW_ODD
    assert zagier_polynomial(4) == (
        F(1, 8), F(13, 40), F(469, 1440), F(1, 6), F(7, 144), F(1, 120), F(1, 1440),
    )


def _bernoulli_numbers(upto):
    """B_0..B_upto with B_1 = -1/2, from sum_j C(m+1, j) B_j = 0."""
    out = [F(1)]
    for m in range(1, upto + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) / F(m + 1))
    return out


def test_bernfrac_matches_the_recurrence():
    # zagier_polynomial and volume_check read B_n from mpmath.bernfrac
    expect = _bernoulli_numbers(40)
    assert expect[1] == F(-1, 2) and expect[12] == F(-691, 2730)
    assert [F(*mpmath.bernfrac(n)) for n in range(41)] == expect


def test_zagier_agrees_with_verlinde():
    for n in (2, 4):
        poly = zagier_polynomial(n)
        for t in (1, 3, 5):
            value = sum(c * t**k for k, c in enumerate(poly))
            assert value == verlinde_count(n, t)


def test_volume_closed_form():
    for g, lead in ((theta(), F(1, 24)), (dumbbell(), F(1, 24)),
                    (k4(), F(1, 1440)), (t4(), F(1, 1440))):
        report = volume_check(g)
        assert report.ok
        assert report.expected_leading == lead
        assert all(c == lead for c in report.leading)


def test_volume_rejects_non_cubic():
    with pytest.raises(GraphError):
        volume_check(claw())


def test_semi_reflexive():
    samples = (F(1, 2), F(5, 4), F(11, 4), F(10, 3))
    for g in (claw(), theta(), dumbbell()):
        report = semi_reflexive_check(g, samples)
        assert report.ok
        assert [c for _, c, _ in report.samples] == [1, 1, 4, 5]

    # a fractional dilate of the two-internal tree keeps the floor count too
    assert semi_reflexive_check(tree_two_internal(), (F(7, 2),)).ok
