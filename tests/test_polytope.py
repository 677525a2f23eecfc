from fractions import Fraction

from trivalent.catalog import claw, lollipop, theta
from trivalent.polytope import contains, inequality_system


def test_claw_rows():
    sys = inequality_system(claw())
    assert sys.edge_order == (1, 2, 3)
    # one perimeter row plus three metric rows for the single internal vertex
    assert ((1, 1, 1), 1) in sys.rows
    assert ((1, -1, -1), 0) in sys.rows
    assert ((-1, 1, -1), 0) in sys.rows
    assert ((-1, -1, 1), 0) in sys.rows
    assert len(sys.rows) == 4


def test_theta_has_one_system_per_vertex():
    sys = inequality_system(theta())
    assert len(sys.rows) == 8  # two degree-3 vertices, 4 rows each


def test_loop_occupies_two_slots():
    sys = inequality_system(lollipop())
    # slots at the internal vertex are (loop, loop, stick): perimeter
    # counts the loop twice
    assert ((2, 1), 1) in sys.rows
    # metric rows per slot instance: loop slot vs (loop + stick), stick vs 2*loop
    assert ((0, -1), 0) in sys.rows
    assert ((-2, 1), 0) in sys.rows


def test_contains():
    sys = inequality_system(claw())
    half = Fraction(1, 2)
    assert contains(sys, {1: half, 2: half, 3: 0}, 1)
    assert contains(sys, (half, half, 0), 1)
    assert not contains(sys, (1, 0, 0), 1)  # violates a metric row
    assert not contains(sys, (half, half, half), 1)  # perimeter 3/2 > 1
    assert contains(sys, (half, half, half), Fraction(3, 2))
    assert not contains(sys, (-half, half, 0), 1)  # 2 w_1 >= 0 from two metric rows


def test_reflexive_rows():
    # Q = 4P - 1 has P's coefficient rows, each bounded by t
    # (test_q_rows_have_right_hand_side_one)
    sys = inequality_system(claw())
    assert [c for c, _ in sys.rows] == [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]

    def in_q(v, t):  # v is in tQ exactly when (v + t)/4 is in tP
        return contains(sys, [Fraction(x + t, 4) for x in v], t)

    assert in_q((0, 0, 0), 1)
    assert in_q((1, 1, -1), 1)  # a vertex of the body
    assert not in_q((1, 1, 1), 1)
    assert in_q((2, 2, -2), 2) and not in_q((2, 2, -2), 1)
