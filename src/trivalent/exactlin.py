"""Small exact linear algebra helpers: integer matrices, one fraction-free
elimination behind determinants and square solves, and a tableau simplex
specialized to strict-feasibility questions.

Everything here is exact; no floats.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matvec(a: IntMatrix, v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) forward elimination of the integer rows a, in
    place, on their first n columns.

    After step k every entry below and right of the pivot is a (k+1)-minor of
    the input, so each division by the previous pivot is exact and all
    intermediate values stay integers; columns past n (a right-hand side) are
    carried along the same way.  Afterwards a[k][k] is the (k+1)-th leading
    principal minor of the row-permuted input and the rows are an upper
    triangular system equivalent to the input.  Returns the sign of the row
    permutation, or 0 when the leading n x n block is singular.
    """
    sign = 1
    prev = 1
    for k in range(n):
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
            for j in range(k + 1, len(row)):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    return sign


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    sign = _bareiss(a, len(a))
    return sign * a[-1][-1] if a else 1


def solve_square(m: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Solve Mx = rhs exactly; None when M is singular.  Entries are ints or
    Fractions.

    Integer arithmetic until the last step: each row of [M | rhs] is scaled to
    integers by the lcm of its denominators and eliminated fraction-free.  The
    last pivot d is then the determinant of the scaled, row-permuted matrix,
    so by Cramer's rule y = d*x is an integer vector, and back-substitution
    for y divides exactly by each pivot.  One Fraction y_k / d per entry.
    """
    n = len(m)
    a = []
    for row, r in zip(m, rhs):
        entries = (*row, r)
        scale = lcm(*(x.denominator for x in entries))
        a.append([x.numerator * (scale // x.denominator) for x in entries])
    if not _bareiss(a, n):
        return None
    det = a[-1][n - 1] if n else 1
    y = [0] * n
    for k in reversed(range(n)):
        row = a[k]
        y[k] = (det * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))) // row[k]
    return tuple(Fraction(v, det) for v in y)


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
