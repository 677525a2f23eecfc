import random
from fractions import Fraction

import numpy as np
import pytest

from trivalent.exactlin import (
    determinant,
    divide_gcd,
    identity,
    matvec,
    max_epsilon,
    primitive,
    solve_batched,
    solve_square,
)


def test_identity():
    i3 = identity(3)
    assert i3 == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert identity(0) == ()
    a = ((1, 2, 0), (0, 1, 5), (0, 0, 1))
    # a @ i3 column by column
    assert tuple(zip(*(matvec(a, col) for col in i3))) == a


def test_matvec():
    a = ((1, 2), (3, 4))
    assert matvec(a, (1, 1)) == (3, 7)
    assert matvec(a, (Fraction(1, 2), 0)) == (Fraction(1, 2), Fraction(3, 2))


def test_primitive():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    assert primitive((0, 0, -3)) == (0, 0, 1)  # sign normalized
    assert primitive((0, 0, 0)) == (0, 0, 0)


def test_divide_gcd():
    assert divide_gcd((2, -4, 6)) == (1, -2, 3)
    assert divide_gcd((0, 0, -3)) == (0, 0, -1)  # sign kept
    assert divide_gcd((0, 0, 0)) == (0, 0, 0)
    assert divide_gcd((3, 5)) == (3, 5)


def test_determinant():
    assert determinant(()) == 1
    assert determinant(identity(4)) == 1
    assert determinant(((2, 0), (0, 3))) == 6
    assert determinant(((1, 2), (2, 4))) == 0
    assert determinant(((0, 1), (1, 0))) == -1
    assert type(determinant(((2, 1), (1, 1)))) is int


def _fraction_determinant(m):
    """Reference: Gaussian elimination over the rationals with row swaps."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _random_matrices(rng, n, bound=9):
    """Dense (entries up to bound), sparse (zero pivots force row swaps) and
    rank-deficient matrices."""
    dense = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    sparse = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
    yield dense
    yield sparse
    yield [row[:] for row in reversed(dense)]  # odd permutations flip the sign
    if n >= 2:
        singular = [row[:] for row in dense]
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        singular[i] = [k * x for x in singular[j]]
        yield singular


def test_determinant_matches_fraction_elimination():
    rng = random.Random(20180221)
    seen = {"negative": 0, "zero": 0, "swap": 0}
    for n in range(9):
        for _ in range(25):
            for m in _random_matrices(rng, n):
                expected = _fraction_determinant(m)
                got = determinant(tuple(map(tuple, m)))
                assert type(got) is int
                assert got == expected, m
                seen["negative"] += got < 0
                seen["zero"] += got == 0
                seen["swap"] += n > 0 and m[0][0] == 0
    assert all(seen.values()), seen


def test_solve_square():
    x = solve_square(((2, 1), (1, 3)), (5, 10))
    assert x == (Fraction(1), Fraction(3))
    assert solve_square(((1, 1), (2, 2)), (1, 2)) is None  # singular


def test_solve_square_integer_inputs():
    x = solve_square(((3, 1, 0), (1, 2, 1), (0, 1, 4)), (1, 1, 1))
    assert x == (Fraction(4, 17), Fraction(5, 17), Fraction(3, 17))
    assert all(type(v) is Fraction for v in x)
    assert solve_square(((5,),), (10,)) == (Fraction(2),)
    assert solve_square((), ()) == ()


def test_solve_square_mixed_rows():
    # rows mixing ints and Fractions, each scaled by its own lcm
    m = ((Fraction(1, 2), 1), (2, Fraction(-1, 3)))
    rhs = (Fraction(3, 4), 1)
    x = solve_square(m, rhs)
    assert x == _fraction_solve(m, rhs) == (Fraction(15, 26), Fraction(6, 13))
    assert solve_square(((Fraction(1, 2), Fraction(3, 2)), (1, 3)), (1, 2)) is None


def test_solve_square_negative_determinant():
    # det = -1 through a row swap: the permuted matrix has det 1
    m = ((0, 1), (1, 0))
    assert determinant(m) == -1
    assert solve_square(m, (2, 7)) == (Fraction(7), Fraction(2))
    # det = -1 with no swap: the last Bareiss pivot is -1, so y = det * x
    # carries the opposite sign of x
    m = ((1, 2, 0), (3, 1, 1), (0, 1, 0))
    assert determinant(m) == -1
    rhs = (Fraction(1, 3), 5, -2)
    assert solve_square(m, rhs) == _fraction_solve(m, rhs) == (
        Fraction(13, 3), Fraction(-2), Fraction(-6),
    )


def test_solve_square_singular():
    assert solve_square(((0, 0), (0, 0)), (0, 0)) is None
    assert solve_square(((1, 2, 3), (2, 4, 6), (0, 1, 1)), (1, 2, 3)) is None
    assert solve_square(((1, 1, 0), (0, 1, 1), (1, 2, 1)), (1, 1, 1)) is None
    assert solve_square(((Fraction(2, 3), 1), (Fraction(4, 3), 2)), (0, 1)) is None


def _fraction_solve(m, rhs):
    """Reference: Gauss-Jordan elimination over the rationals; None if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def test_solve_square_matches_fraction_gauss_jordan():
    rng = random.Random(19680101)
    seen = {"singular": 0, "swap": 0, "rational": 0}
    for n in range(8):
        for _ in range(25):
            for m in _random_matrices(rng, n):
                rational = rng.random() < 0.5
                if rational:
                    m = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in m]
                rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                expected = _fraction_solve(m, rhs)
                got = solve_square(m, rhs)
                assert got == expected, (m, rhs)
                assert got is None or all(type(x) is Fraction for x in got)
                seen["singular"] += got is None
                seen["swap"] += n > 0 and m[0][0] == 0 and got is not None
                seen["rational"] += rational and got is not None
    assert all(seen.values()), seen


def _check_batched(systems):
    """solve_batched on a stack of [A | b] against solve_square and determinant,
    layer by layer; returns the determinants."""
    nonsingular, det, y = solve_batched(np.array(systems, dtype=np.int64))
    for layer, system in enumerate(systems):
        m = [row[:-1] for row in system]
        rhs = [row[-1] for row in system]
        expected = solve_square(m, rhs)
        assert det[layer] == determinant(tuple(map(tuple, m))), system
        assert nonsingular[layer] == (expected is not None), system
        if expected is None:
            assert det[layer] == 0 and not y[layer].any()
        else:
            assert tuple(Fraction(int(v), int(det[layer])) for v in y[layer]) == expected
    return det


def _cycled_triangular(rng, n):
    """An upper triangular matrix U with a nonzero diagonal, its rows cycled
    up by one.  Column k has no pivot in row k: after k swaps its only
    nonzero at or below row k is U's row k, which sits in the last row, so
    elimination swaps at every pivot but the last."""
    upper = [
        [0] * i + [rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-3, 3) for _ in range(n - i - 1)]
        for i in range(n)
    ]
    return upper[1:] + upper[:1]


@pytest.mark.parametrize("n", range(1, 8))
def test_solve_batched_matches_solve_square(n):
    # dense 7 x 7 systems with entries up to 9 can exceed the overflow
    # guard's bound, so n = 7 draws entries up to 3
    rng = random.Random(1968 + n)
    bound = 9 if n < 7 else 3
    systems, kinds = [], []
    for _ in range(40):
        kinds_of = ("dense", "sparse", "reversed", "singular")
        for kind, m in zip(kinds_of, _random_matrices(rng, n, bound)):
            systems.append([row + [rng.randint(-bound, bound)] for row in m])
            kinds.append(kind)
        triangular = _cycled_triangular(rng, n)
        systems.append([row + [rng.randint(-bound, bound)] for row in triangular])
        kinds.append("swaps")
    det = _check_batched(systems)  # one mixed stack of every kind
    assert (det < 0).any() and (det > 0).any()
    assert (det == 0).any() or n == 1
    for kind in set(kinds):  # and each kind on its own
        _check_batched([s for s, k in zip(systems, kinds) if k == kind])


def test_solve_batched_swaps_at_every_pivot():
    # the cyclic permutation matrix: every column but the last takes a swap,
    # so the determinant is (-1)**(n - 1)
    for n in range(1, 8):
        m = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        rhs = list(range(1, n + 1))
        det = _check_batched([[row + [r] for row, r in zip(m, rhs)]])
        assert det[0] == (-1) ** (n - 1)


def test_solve_batched_singular_layers():
    systems = [
        [[0, 0, 1], [0, 0, 2]],  # zero matrix
        [[1, 2, 1], [2, 4, 1]],  # dependent rows, inconsistent right-hand side
        [[1, 2, 1], [2, 4, 2]],  # dependent rows, consistent right-hand side
        [[0, 1, 1], [0, 3, 1]],  # zero first column: no pivot at step 0
        [[0, 0, 0], [1, 2, 3]],  # a zero row of [A | b]
        [[2, 1, 1], [1, 3, 1]],  # nonsingular, among singular neighbours
    ]
    nonsingular, det, y = solve_batched(np.array(systems))
    assert nonsingular.tolist() == [False] * 5 + [True]
    assert det.tolist() == [0] * 5 + [5]
    assert y.tolist() == [[0, 0]] * 5 + [[2, 1]]
    _check_batched(systems)


def test_solve_batched_empty_shapes():
    nonsingular, det, y = solve_batched(np.zeros((3, 0, 1), dtype=np.int64))
    assert nonsingular.all() and (det == 1).all() and y.shape == (3, 0)
    nonsingular, det, y = solve_batched(np.zeros((0, 4, 5), dtype=np.int64))
    assert nonsingular.shape == det.shape == (0,) and y.shape == (0, 4)
    with pytest.raises(ValueError):
        solve_batched(np.zeros((2, 3, 3), dtype=np.int64))


def test_solve_batched_leaves_its_input_alone():
    stack = np.array([[[0, 1, 3], [2, 1, 4]], [[1, 1, 1], [1, 1, 1]]])
    before = stack.copy()
    solve_batched(stack)
    assert (stack == before).all()


def test_solve_batched_overflow_guard():
    # Hadamard's bound H is the product of the row norms of [A | b] (a row
    # under norm 1 counts as 1); the guard needs max(2, n) * H**2 < 2**63
    n = 4
    big = 2**15  # each row has norm big * sqrt(2), so H = 2**62
    stack = np.array([[[big if i == j else 0 for j in range(n)] + [big] for i in range(n)]])
    with pytest.raises(ValueError):
        solve_batched(stack)
    with pytest.raises(ValueError):  # one layer past the bound is enough
        solve_batched(np.concatenate((np.array([[[1, 0, 0, 0, 1]] * 4]), stack)))
    # a zero row does not shrink the bound to 0
    stack[0, 0] = 0
    with pytest.raises(ValueError):
        solve_batched(np.concatenate((stack, stack)))
    # inside: H**2 = 2**56, and 4 * 2**56 < 2**63
    small = np.array([[[2**7 if i == j else 0 for j in range(n)] + [0] for i in range(n)]])
    nonsingular, det, y = solve_batched(small)
    assert nonsingular[0] and det[0] == 2**28 and not y.any()
    # the check is exact: with n = 1, H**2 = a**2 + b**2 against 2**62 - 1
    a = 2**31 - 1
    nonsingular, det, y = solve_batched(np.array([[[a, 2**16 - 1]]]))  # 2**62 - 2**17 + 2
    assert nonsingular[0] and det[0] == a and y[0, 0] == 2**16 - 1
    with pytest.raises(ValueError):
        solve_batched(np.array([[[a, 2**16]]]))  # 2**62 + 1
    # entries whose squares wrap around in int64 are refused, not wrapped
    for e in (2**32 + 1, 2**40, 2**62):
        with pytest.raises(ValueError):
            solve_batched(np.array([[[e, 0]]]))
    # entries up to 2**14 in 2 x 3 systems pass the guard (2 * H**2 < 2**61)
    # and solve exactly
    rng = random.Random(2**31)
    limit = 2**14
    systems = [[[rng.randint(-limit, limit) for _ in range(3)] for _ in range(2)] for _ in range(50)]
    _check_batched(systems)


def test_max_epsilon_feasible():
    # x1 - x2 >= eps with x1 + x2 <= 1, x >= 0 allows eps up to 1
    value = max_epsilon([((1, 1), 1)], [((-1, 1), 0)], 2)
    assert value == 1


def test_max_epsilon_infeasible_strict():
    # x1 <= 0 and -x1 < 0 cannot both hold for x >= 0
    value, point = max_epsilon([((1, 0), 0)], [((-1, 0), 0)], 2, point=True)
    assert value == 0


def test_max_epsilon_point_certificate():
    weak = [((1, 1, 1), 1)]
    strict = [((-1, 0, 0), 0), ((0, -1, 0), 0)]
    value, point = max_epsilon(weak, strict, 3, point=True, early_positive=True)
    assert value > 0
    assert all(isinstance(c, Fraction) or c == 0 for c in point)
    assert point[0] > 0 and point[1] > 0
    # certificate satisfies every constraint strictly where required
    assert sum(point) <= 1
