"""Small exact linear algebra helpers: integer matrices, one fraction-free
elimination behind determinants and square solves, the same elimination run
on a whole int64 stack of square systems at once, and a tableau simplex
specialized to strict-feasibility questions.

Everything here is exact; no floats.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

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


def _within_hadamard_bound(a: np.ndarray) -> bool:
    """Does max(2, n) * H**2 < 2**63 hold in every layer of a, an
    (n, n+1, L) int64 stack with layers on the last axis?

    H**2 is the product over the rows of max(1, squared row norm), formed
    exactly in int64: every partial product stays at most the cap
    (2**63 - 1) // max(2, n).  A stack with an entry e where
    (n + 1) * e**2 >= 2**63, whose squared row norms could overflow, fails
    as well; since e**2 <= H**2, that refuses only stacks within a factor
    3/2 of the cap.
    """
    if a.size == 0:
        return True
    n = a.shape[0]
    if (n + 1) * max(int(a.max()), -int(a.min())) ** 2 >= 2**63:
        return False
    cap = (2**63 - 1) // max(2, n)
    h2 = np.ones(a.shape[2], dtype=np.int64)
    for row in a:
        norm2 = np.maximum((row * row).sum(axis=0), 1)
        if (h2 > cap // norm2).any():
            return False
        h2 *= norm2  # at most cap
    return True


def solve_batched(aug: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every layer of an (L, n, n+1) int64 stack of augmented systems
    [A | b] at once, by fraction-free (Bareiss) elimination in int64.

    Returns (nonsingular, det, y): a bool mask of the layers whose A is
    nonsingular, each det(A), and y = det(A) * x for the solution x of
    A x = b, an integer vector by Cramer's rule.  A singular layer reads
    det 0 and y 0.  Each layer takes its own row swap at each pivot; a
    layer with no pivot in some column is singular, and runs on from there
    as [I | 0].

    No step can overflow.  Let H be the product over the rows of [A | b] of
    max(1, Euclidean norm): by Hadamard's inequality every minor of the
    (row-permuted) augmented matrix is at most H in absolute value.  As in
    _bareiss, every entry after a step is such a minor, so the update
    pivot * a[i][j] - a[i][k] * a[k][j] stays under 2 H**2 before its exact
    division by the previous pivot.  In back-substitution every y_j is a
    minor too (Cramer's rule), so det * b_k - sum_j a[k][j] * y_j is a sum of
    at most n products of two minors, under n H**2.  Hence max(2, n) * H**2
    < 2**63 suffices.  It is checked per layer, exactly in int64
    (_within_hadamard_bound), and a stack past it raises ValueError.
    """
    aug = np.asarray(aug)
    if aug.ndim != 3 or aug.shape[2] != aug.shape[1] + 1:
        raise ValueError(f"expected an (L, n, n+1) stack, got shape {aug.shape}")
    size, n, _ = aug.shape
    # layers on the last axis, so that every operation below runs along
    # contiguous rows of L entries
    a = np.ascontiguousarray(aug.transpose(1, 2, 0), dtype=np.int64)
    if not _within_hadamard_bound(a):
        raise ValueError("entries too large for an exact int64 elimination")
    nonsingular = np.ones(size, dtype=bool)
    sign = np.ones(size, dtype=np.int64)
    prev = np.ones(size, dtype=np.int64)
    for k in range(n):
        nonzero = a[k:, k] != 0
        singular = ~nonzero.any(axis=0)
        if singular.any():
            # [I | 0] from row k keeps every later step of the layer exact
            # and its entries small; its results are discarded
            nonsingular &= ~singular
            a[:, n, singular] = 0
            a[k:, k:n, singular] = np.eye(n - k, dtype=np.int64)[:, :, None]
            prev[singular] = 1
            nonzero[0, singular] = True
        swap = np.flatnonzero(~nonzero[0])
        if len(swap):
            rows = k + nonzero[:, swap].argmax(axis=0)
            a[k, :, swap], a[rows, :, swap] = a[rows, :, swap], a[k, :, swap]
            sign[swap] *= -1
        pivot = a[k, k]
        for row in a[k + 1 :]:
            rest = row[k + 1 :]
            rest *= pivot
            rest -= row[k] * a[k, k + 1 :]
            rest //= prev
        prev = pivot

    # prev is now the last pivot, the permuted determinant (1 when n = 0)
    y = np.zeros((n, size), dtype=np.int64)
    for k in reversed(range(n)):
        rest = (a[k, k + 1 : n] * y[k + 1 :]).sum(axis=0)
        y[k] = (prev * a[k, n] - rest) // a[k, k]
    sign[~nonsingular] = 0
    return nonsingular, sign * prev, (y * sign).T


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
