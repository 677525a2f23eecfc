"""Small exact linear algebra helpers: integer matrices, integer and Fraction
elimination, and a tableau simplex specialized to strict-feasibility questions.

Everything here is exact; no floats.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def matvec(a: IntMatrix, v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vecmat(v: Sequence[int], a: IntMatrix) -> tuple[int, ...]:
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def divide_gcd(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries; signs are kept."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide by the gcd and flip signs so the first nonzero entry is positive."""
    out = divide_gcd(vec)
    for x in out:
        if x > 0:
            return out
        if x < 0:
            return tuple(-y for y in out)
    return out


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    After step k every entry below and right of the pivot is a (k+1)-minor of
    the input, so each division by the previous pivot is exact and all
    intermediate values stay integers.
    """
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1


def solve_square(m: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Solve Mx = rhs exactly; None when M is singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def max_epsilon(
    weak: Sequence[tuple[Sequence[int], int]],
    strict: Sequence[tuple[Sequence[int], int]],
    nvars: int,
    point: bool = False,
    early_positive: bool = False,
):
    """Maximize eps subject to a.x <= rhs (weak), a.x + eps <= rhs (strict),
    x >= 0, 0 <= eps <= 1.  All rhs must be >= 0, so the all-slack basis is
    feasible and no phase-1 is needed.  The optimum is positive exactly when
    the weak/strict system has a solution with every strict inequality
    satisfied strictly.

    Exact Fraction tableau; Dantzig's rule with a Bland fallback against
    cycling.  With point=True returns (eps, x) for the final basic solution;
    with early_positive=True the search stops at the first basic solution
    whose eps is positive (enough to decide feasibility), so the returned
    value is then a lower bound for the true optimum.
    """
    rows: list[tuple[list[int], int, int]] = []  # coeffs over x, eps coeff, rhs
    for coeffs, rhs in weak:
        rows.append((list(coeffs), 0, rhs))
    for coeffs, rhs in strict:
        rows.append((list(coeffs), 1, rhs))
    rows.append(([0] * nvars, 1, 1))  # eps <= 1
    for _, _, rhs in rows:
        if rhs < 0:
            raise ValueError("max_epsilon requires nonnegative right-hand sides")

    nrows = len(rows)
    ncols = nvars + 1 + nrows  # x's, eps, slacks
    tableau = [
        [Fraction(0)] * (ncols + 1) for _ in range(nrows + 1)
    ]  # last row = objective
    for i, (coeffs, ec, rhs) in enumerate(rows):
        for j, cval in enumerate(coeffs):
            tableau[i][j] = Fraction(cval)
        tableau[i][nvars] = Fraction(ec)
        tableau[i][nvars + 1 + i] = Fraction(1)
        tableau[i][ncols] = Fraction(rhs)
    tableau[nrows][nvars] = Fraction(1)  # maximize eps: reduced-cost row starts as c
    basis = [nvars + 1 + i for i in range(nrows)]

    bland_after = 8 * (nrows + ncols)
    pivots = 0
    while True:
        obj = tableau[nrows]
        if early_positive and -obj[ncols] > 0:
            break
        if pivots < bland_after:
            entering = None
            for j in range(ncols):
                if obj[j] > 0 and (entering is None or obj[j] > obj[entering]):
                    entering = j
        else:
            entering = next((j for j in range(ncols) if obj[j] > 0), None)
        if entering is None:
            break
        best = None
        for i in range(nrows):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][ncols] / coef
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise RuntimeError("unbounded objective; eps <= 1 should prevent this")
        _, leave = best
        piv = tableau[leave][entering]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for r in range(nrows + 1):
            if r != leave and tableau[r][entering] != 0:
                f = tableau[r][entering]
                tableau[r] = [
                    x - f * y for x, y in zip(tableau[r], tableau[leave])
                ]
        basis[leave] = entering
        pivots += 1
    # objective row holds c - z; the optimum accumulates in the corner (negated)
    value = -tableau[nrows][ncols]
    if not point:
        return value
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = tableau[i][ncols]
    return value, tuple(x)
