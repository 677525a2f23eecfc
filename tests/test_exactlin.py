import random
from fractions import Fraction

from trivalent.exactlin import (
    determinant,
    divide_gcd,
    identity,
    matvec,
    max_epsilon,
    primitive,
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


def _random_matrices(rng, n):
    """Dense, sparse (zero pivots force row swaps) and rank-deficient matrices."""
    dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
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
