"""Lattice-point counting functions of dilation: exact quasi-polynomials,
the trigonometric closed form for cubic graphs, and consistency checks.

The counting function L(t) of an m-edge graph polytope is a degree-m
quasi-polynomial whose fourth dilates are integral, so interpolation per
residue class mod 4 is exact; the reported period is then minimized over the
divisors of 4.

About half of each residue class's nodes lie at negative t.
Ehrhart-Macdonald reciprocity (Macdonald 1971; Beck and Robins, Computing the
Continuous Discretely, ch. 4) gives L(-s) = (-1)^m |int(sP) cap Z^m| for a
rational polytope P of full dimension m, and the interior is a strict count.
A window of nodes centred on t = 0 reaches about half the largest dilation of
one starting at t = r, and on a 9-edge cubic graph a count costs about
(t/2)^5.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

import mpmath

from .counting import count_elimination, count_points
from .graphs import Graph, GraphError, validate_13


@dataclass(frozen=True)
class QuasiPolynomial:
    """constituents[r] gives the coefficients (ascending degree) used when
    t % period == r; all coefficients are exact Fractions."""

    period: int
    constituents: tuple[tuple[Fraction, ...], ...]

    def evaluate(self, t: int) -> Fraction:
        coeffs = self.constituents[t % self.period]
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    def degree(self) -> int:
        deg = 0
        for coeffs in self.constituents:
            for i, c in enumerate(coeffs):
                if c != 0:
                    deg = max(deg, i)
        return deg

    def to_jsonable(self) -> dict:
        return {
            "period": self.period,
            "constituents": [
                [[c.numerator, c.denominator] for c in coeffs]
                for coeffs in self.constituents
            ],
        }

    @staticmethod
    def from_jsonable(data: dict) -> "QuasiPolynomial":
        return QuasiPolynomial(
            int(data["period"]),
            tuple(
                tuple(Fraction(int(n), int(d)) for n, d in coeffs)
                for coeffs in data["constituents"]
            ),
        )


def _interpolate(start: int, values: Sequence[int]) -> tuple[Fraction, ...]:
    """The polynomial through (start + 4k, values[k]); coefficients
    ascending, len == len(values).

    Newton's forward-difference form: with d_j the j-th forward difference of
    the integer values at k = 0 and m = len(values) - 1,

        p(t) = sum_j d_j * prod_{i<j} (t - start - 4i) / (4^j j!).

    Everything is expanded in integers over the common denominator 4^m m!,
    so O(m^2) integer operations and one Fraction per coefficient.
    """
    m = len(values) - 1
    diffs = list(values)
    for j in range(1, m + 1):  # diffs[j] becomes the j-th difference at k = 0
        for k in range(m, j - 1, -1):
            diffs[k] -= diffs[k - 1]
    numer = [0] * (m + 1)
    basis = [1]  # prod_{i<j} (t - start - 4i), ascending
    denom = 4**m * factorial(m)
    scale = denom  # 4^(m-j) m!/j!, so each term sits over 4^m m!
    for j, d in enumerate(diffs):
        for k, b in enumerate(basis):
            numer[k] += d * scale * b
        if j < m:
            root = start + 4 * j
            basis = [-root * basis[0]] + [
                basis[k - 1] - root * basis[k] for k in range(1, len(basis))
            ] + [basis[-1]]
            scale //= 4 * (j + 1)
    return tuple(Fraction(c, denom) for c in numer)


def _nodes(r: int, m: int) -> list[int]:
    """The m + 2 nodes r + 4k, consecutive in k, whose largest |t| is
    smallest; of two such windows the higher.  The top node is positive."""
    span = 4 * (m + 1)
    low = min(
        (r - 4 * j for j in range(m + 2)), key=lambda a: (max(-a, a + span), -a)
    )
    return [low + 4 * k for k in range(m + 2)]


def quasi_polynomial(g: Graph) -> QuasiPolynomial:
    """Interpolate the exact counting quasi-polynomial of the graph polytope.

    Per residue r mod 4 the nodes are m + 2 consecutive values r + 4k, the
    window centred on t = 0 (largest |t| about 2m + 4, not 4m + 7): the
    lowest m + 1 pin down a degree-m polynomial, and the top one, always
    positive, is a probe it must match.  A node t >= 0 is the count
    count_points(g, t).  A node t = -s is (-1)^m count_elimination(g, s,
    strict=True), by reciprocity: P is full-dimensional and no row of it is
    zero, so its interior is exactly the points satisfying every row
    strictly.  The probe is a closed count outside the fit nodes; were one
    node's value wrong, the fitted polynomial would differ from the true one
    by c * prod(t - other fit nodes) with c != 0, which is nonzero at the
    probe, so one probe catches any single wrong value, reciprocity's
    included.  The period is reduced to the smallest divisor of 4 whose
    residue classes share constituents.
    """
    m = len(g.edges)
    sign = (-1) ** m

    def value(t: int) -> int:
        return count_points(g, t) if t >= 0 else sign * count_elimination(g, -t, strict=True)

    constituents = []
    for r in range(4):
        *fit, probe = _nodes(r, m)
        coeffs = _interpolate(fit[0], [value(t) for t in fit])
        if sum(c * probe**i for i, c in enumerate(coeffs)) != count_points(g, probe):
            raise GraphError(
                f"interpolation failed verification at t={probe}; "
                "period-4 assumption violated"
            )
        constituents.append(coeffs)
    period = 4
    for cand in (1, 2):
        if all(constituents[r] == constituents[r % cand] for r in range(4)):
            period = cand
            break
    return QuasiPolynomial(period, tuple(constituents[:period]))


# -- closed forms for cubic graphs ---------------------------------------------


def _require_cubic(g: Graph) -> int:
    validate_13(g)
    n = len(g.vertex_ids)
    if any(g.degrees[v] != 3 for v in g.vertex_ids):
        raise GraphError("closed forms apply to cubic graphs only")
    return n


# Bits of the first interval evaluation in verlinde_count; each failed
# certificate doubles them.
_START_PRECISION = 80


def verlinde_count(n: int, t: int) -> int:
    """Certified integer value of the trigonometric sum

        (t+2)^(n/2) / 2^(n+1) * sum_{j=1}^{t+1} (sin(pi j/(t+2)))^(-n)

    for even n >= 2 and odd t >= 1.  Evaluated in interval arithmetic with
    escalating precision until the enclosure pins a unique integer within an
    error of 1/4, starting from _START_PRECISION bits.
    """
    if n < 2 or n % 2:
        raise GraphError("n must be an even integer >= 2")
    if t < 1 or t % 2 == 0:
        raise GraphError("t must be an odd positive integer")
    prec = _START_PRECISION
    # private contexts, so the shared mpmath.iv and mpmath.mp precisions are
    # never touched
    iv = mpmath.ctx_iv.MPIntervalContext()
    mp = mpmath.ctx_mp.MPContext()
    while prec <= 4096:
        iv.prec = mp.prec = prec
        # sin(pi j/(t+2)) = sin(pi (t+2-j)/(t+2)) and t + 2 is odd, so the
        # terms pair up with no middle one: sum j <= (t+1)/2, over 2^n
        step = iv.pi / (t + 2)
        total = iv.mpf(0)
        for j in range(1, (t + 3) // 2):
            total += (1 / iv.sin(step * j)) ** n
        value = total * iv.mpf(t + 2) ** (n // 2) / iv.mpf(2) ** n
        # endpoints are zero-width intervals; pick the candidate at the same
        # precision (a 53-bit one is off above 2**53), then certify it against
        # the enclosure itself
        k = int(mp.nint((mp.mpf(value.a) + mp.mpf(value.b)) / 2))
        diff = value - k
        if mp.mpf(diff.a) > -0.25 and mp.mpf(diff.b) < 0.25:
            return k
        prec *= 2
    raise GraphError("interval evaluation failed to certify an integer")


def _x_over_sin_powers(n: int) -> list[Fraction]:
    """Coefficients of (x / sin x)^n up to x^n (even powers only, ascending)."""
    order = n + 2
    # sin(x)/x = sum (-1)^k x^(2k) / (2k+1)!
    f = [Fraction(0)] * (order + 1)
    for k in range(order // 2 + 1):
        f[2 * k] = Fraction((-1) ** k, factorial(2 * k + 1))

    def mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (order + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j > order:
                    break
                out[i + j] += ai * bj
        return out

    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(n):
        power = mul(power, f)
    inv = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        inv[k] = -sum(power[j] * inv[k - j] for j in range(1, k + 1))
    return inv[: n + 1]


def zagier_polynomial(n: int) -> tuple[Fraction, ...]:
    """The closed-form polynomial (ascending coefficients, degree 3n/2) equal
    to the trigonometric count for even n and odd t:

        (t+2)^(n/2)/2^(n+1) * sum_k (-1)^(k-1) 4^k B_2k/(2k)! c_k (t+2)^(2k)

    with c_k the coefficient of x^(n-2k) in (x/sin x)^n.
    """
    if n < 2 or n % 2:
        raise GraphError("n must be an even integer >= 2")
    series = _x_over_sin_powers(n)
    # polynomial in s = t + 2, degree n/2 + n over 2^(n+1)
    s_poly = [Fraction(0)] * (3 * n // 2 + 1)
    for k in range(n // 2 + 1):
        ck = series[n - 2 * k]
        bern = Fraction(*mpmath.bernfrac(2 * k))
        coef = Fraction((-1) ** (k - 1) * 4**k) * bern / factorial(2 * k) * ck
        s_poly[n // 2 + 2 * k] += coef / 2 ** (n + 1)
    # substitute s = t + 2
    out = [Fraction(0)] * len(s_poly)
    for deg, c in enumerate(s_poly):
        if c == 0:
            continue
        for j in range(deg + 1):
            out[j] += c * comb(deg, j) * 2 ** (deg - j)
    return tuple(out)


@dataclass(frozen=True)
class VolumeReport:
    vertices: int
    expected_leading: Fraction
    leading: tuple[Fraction, ...]
    ok: bool


def volume_check(g: Graph, qp: QuasiPolynomial | None = None) -> VolumeReport:
    """Compare the leading coefficient(s) against |B_n| / (2 * n!)."""
    n = _require_cubic(g)
    if qp is None:
        qp = quasi_polynomial(g)
    m = len(g.edges)
    expected = abs(Fraction(*mpmath.bernfrac(n))) / (2 * factorial(n))
    leading = tuple(
        coeffs[m] if len(coeffs) > m else Fraction(0) for coeffs in qp.constituents
    )
    return VolumeReport(
        vertices=n,
        expected_leading=expected,
        leading=leading,
        ok=all(c == expected for c in leading),
    )


@dataclass(frozen=True)
class SemiReflexiveReport:
    samples: tuple[tuple[Fraction, int, int], ...]  # (s, count at s, count at floor s)
    ok: bool


def semi_reflexive_check(g: Graph, samples: Sequence) -> SemiReflexiveReport:
    """Check L(s) == L(floor(s)) at non-integer dilations s."""
    rows = []
    ok = True
    for s in samples:
        s = Fraction(s)
        at_s = count_points(g, s)
        at_floor = count_points(g, Fraction(s.numerator // s.denominator))
        rows.append((s, at_s, at_floor))
        ok = ok and at_s == at_floor
    return SemiReflexiveReport(tuple(rows), ok)
