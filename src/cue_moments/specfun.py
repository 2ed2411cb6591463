"""Exact Laguerre polynomials and three routes to the reduced moment polynomial.

The reduced moment polynomial of order k at matrix size n is the degree
k*n polynomial in zeta obtained from the Fourier-weighted moment integral
after stripping its common transcendental prefactor
pi^n n! 2^(-(n+2k-1)n) e^(-n zeta).  It can be evaluated three independent
ways: as a Wronskian of Laguerre polynomials, as a Hankel determinant
without derivatives, and as a terminating series in zeta weighted by the
partition-sum coefficients.  All three must agree exactly, which is the
backbone of this package's verification suite.

These routes evaluate the polynomial at one point at a time and serve as
checks.  The moments themselves take the whole coefficient vector from the
determinant engine in :mod:`cue_moments.coefficients`; the series route
here keeps the partition sums (``series_coeff``), so the three-route
identity compares the determinants with an independent route rather than
with the engine.

All three run over integers and reduce to a Fraction once, at the end.
The Wronskian and Hankel routes use the integer polynomials m! L_m^(alpha),
valued at t = p/q by homogeneous Horner (q^m times the value), and take
their determinants by fraction-free Bareiss elimination; the Wronskian
still differentiates the coefficient sequences symbolically.  The series
route brings the partition-sum coefficients over their least common
denominator.  The public helpers accept Fraction coefficients too: they
clear a polynomial's denominators once and run the same integer kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, perm, prod
from typing import Sequence

from .coefficients import series_coeff
from .moments import keating_snaith

Rational = int | Fraction


def _scaled_laguerre(n: int, alpha: int) -> tuple[int, ...]:
    """Integer coefficients of n! times the Laguerre polynomial: entry j is (-1)^j C(n + alpha, n - j) n!/j!."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n + alpha < 0:
        raise ValueError(f"need n + alpha >= 0, got n={n}, alpha={alpha}")
    return tuple((-1) ** j * comb(n + alpha, n - j) * perm(n, n - j) for j in range(n + 1))


def laguerre(n: int, alpha: int) -> tuple[Fraction, ...]:
    """Coefficients of the Laguerre polynomial of degree n and integer parameter alpha.

    Entry j is the coefficient of t^j, binom(n + alpha, n - j) (-1)^j / j!.
    Requires n >= 0 and n + alpha >= 0 so the binomial coefficients are
    well defined.
    """
    return tuple(Fraction(c, factorial(n)) for c in _scaled_laguerre(n, alpha))


def _cleared(coeffs: Sequence[Rational]) -> tuple[list[int], int]:
    """(d coeffs, d) for the least d >= 1 that makes every coefficient an integer."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _horner(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^deg times the integer polynomial's value at p/q, by homogeneous Horner over integers."""
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def laguerre_eval(coeffs: Sequence[Rational], t: Rational) -> Fraction:
    """Exact value at t of the polynomial with t^j coefficient ``coeffs[j]``.

    The denominators are cleared once, Horner's rule runs over integers at
    t = p/q, and the one Fraction is formed at the end.
    """
    t = Fraction(t)
    ints, d = _cleared(coeffs)
    return Fraction(_horner(ints, t.numerator, t.denominator), d * t.denominator ** max(len(ints) - 1, 0))


def derivative_coeffs(coeffs: Sequence[Rational]) -> tuple[Rational, ...]:
    """Coefficient sequence of the derivative; the zero polynomial is (0,).  Integer input stays integer."""
    if len(coeffs) <= 1:
        return (0,)
    return tuple((j + 1) * c for j, c in enumerate(coeffs[1:]))


def _bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss) elimination with row swaps.

    Each step divides by the previous pivot; the quotient is known to be an
    integer (Bareiss, Math. Comp. 1968), and a remainder raises ArithmeticError.
    """
    a = [row[:] for row in matrix]
    m = len(a)
    sign, prev = 1, 1
    for col in range(m - 1):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        for row in a[col + 1:]:
            lead = row[col]
            for c in range(col + 1, m):
                q, r = divmod(row[c] * top[col] - lead * top[c], prev)
                if r:
                    raise ArithmeticError("inexact quotient in the Bareiss elimination")
                row[c] = q
        prev = top[col]
    return sign * a[-1][-1]


def _wronskian(polys: Sequence[Sequence[Rational]], t: Rational) -> tuple[int, int]:
    """(numerator, denominator) of the Wronskian at t, both integers.

    Column i is scaled by the denominator that clears polynomial i and row j
    by q^(its top degree), so the matrix is an integer one.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    cleared = [_cleared(c) for c in polys]
    rows = [c for c, _ in cleared]
    scale = prod(d for _, d in cleared)
    matrix = []
    for _ in range(len(polys)):
        top = max(map(len, rows))
        matrix.append([_horner(c, p, q) * q ** (top - len(c)) for c in rows])
        scale *= q ** (top - 1)
        rows = [derivative_coeffs(c) for c in rows]
    return _bareiss(matrix), scale


def wronskian_at(polys: Sequence[Sequence[Rational]], t: Rational) -> Fraction:
    """Wronskian determinant of the coefficient sequences' polynomials, evaluated exactly at t.

    Row j holds the j-th derivatives, computed symbolically on the
    coefficient sequences, never by finite differences.  The determinant is
    taken over integers and reduced to a Fraction once.
    """
    return Fraction(*_wronskian(polys, t))


def _check_args(k: int, n: int, zeta: Rational) -> Fraction:
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got {(k, n)}")
    zeta = Fraction(zeta)
    if zeta < 0:
        raise ValueError(f"zeta must be non-negative; pass |zeta|, got {zeta}")
    return zeta


def moment_gen_wronskian(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial via the Wronskian of k Laguerre polynomials.

    Evaluates (-1)^(k(k-1)/2) W(L_n, ..., L_{n+k-1})(-2 zeta), all with
    parameter k.  For k = 1 this is the single polynomial L_n^(1)(-2 zeta).
    The Wronskian is taken of the integer polynomials m! L_m and divided by
    the product of the m! in the one final Fraction.
    """
    zeta = _check_args(k, n, zeta)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    det, scale = _wronskian([_scaled_laguerre(n + i, k) for i in range(k)], -2 * zeta)
    return Fraction(sign * det, scale * prod(factorial(n + i) for i in range(k)))


def moment_gen_hankel(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial via a Hankel determinant without derivatives.

    Entry (i, j) is L_{n+k-1-(i+j)} with parameter 2k - 1, evaluated at
    -2 zeta; a negative degree index means the zero polynomial, the empty
    sum of the defining formula.  At t = -2 zeta = p/q the entry of degree
    m is the integer m! L_m value q^m L_m(t) times D!/m! q^(D-m) over the
    common denominator D! q^D, D = n + k - 1; the integer determinant is
    divided by that denominator's k-th power once.
    """
    zeta = _check_args(k, n, zeta)
    t = -2 * zeta
    p, q = t.numerator, t.denominator
    top = n + k - 1
    values = {
        m: _horner(_scaled_laguerre(m, 2 * k - 1), p, q) * perm(top, top - m) * q ** (top - m) if m >= 0 else 0
        for m in range(n - k + 1, n + k)
    }
    matrix = [[values[top - (i + j)] for j in range(k)] for i in range(k)]
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    return Fraction(sign * _bareiss(matrix), (factorial(top) * q ** top) ** k)


def moment_gen_series(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial as a terminating series in zeta.

    Equals the zeroth moment times the sum of series_coeff(p, k, n) zeta^p
    for p up to k*n.  At zeta = 0 only the p = 0 term survives.  The sum
    runs over integers, brought over the least common denominator of the
    coefficients and evaluated by homogeneous Horner at zeta = a/b.
    """
    zeta = _check_args(k, n, zeta)
    ints, d = _cleared([series_coeff(p, k, n) for p in range(k * n + 1)])
    a, b = zeta.numerator, zeta.denominator
    zeroth = keating_snaith(n, k)
    return Fraction(zeroth.numerator * _horner(ints, a, b), zeroth.denominator * d * b ** (k * n))
