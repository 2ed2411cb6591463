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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .coefficients import series_coeff
from .moments import keating_snaith

Rational = int | Fraction


def laguerre(n: int, alpha: int) -> tuple[Fraction, ...]:
    """Coefficients of the Laguerre polynomial of degree n and integer parameter alpha.

    Entry j is the coefficient of t^j, binom(n + alpha, n - j) (-1)^j / j!.
    Requires n >= 0 and n + alpha >= 0 so the binomial coefficients are
    well defined.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n + alpha < 0:
        raise ValueError(f"need n + alpha >= 0, got n={n}, alpha={alpha}")
    return tuple(Fraction((-1) ** j * comb(n + alpha, n - j), factorial(j)) for j in range(n + 1))


def laguerre_eval(coeffs: Sequence[Rational], t: Rational) -> Fraction:
    """Exact value at t of the polynomial with t^j coefficient ``coeffs[j]``, by Horner's rule."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def derivative_coeffs(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Coefficient sequence of the derivative; the zero polynomial is (0,)."""
    if len(coeffs) <= 1:
        return (Fraction(0),)
    return tuple((j + 1) * c for j, c in enumerate(coeffs[1:]))


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with pivoting."""
    m = len(matrix)
    a = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, m):
            if a[r][col] != 0:
                ratio = a[r][col] / a[col][col]
                for c in range(col, m):
                    a[r][c] -= ratio * a[col][c]
    return det


def wronskian_at(polys: Sequence[Sequence[Fraction]], t: Rational) -> Fraction:
    """Wronskian determinant of the coefficient sequences' polynomials, evaluated exactly at t.

    Row j holds the j-th derivatives, computed symbolically on the
    coefficient sequences, never by finite differences.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    t = Fraction(t)
    coeff_rows = polys
    matrix = []
    for _ in range(len(polys)):
        matrix.append([laguerre_eval(c, t) for c in coeff_rows])
        coeff_rows = [derivative_coeffs(c) for c in coeff_rows]
    return _det(matrix)


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
    """
    zeta = _check_args(k, n, zeta)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    polys = [laguerre(n + i, k) for i in range(k)]
    return sign * wronskian_at(polys, -2 * zeta)


def moment_gen_hankel(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial via a Hankel determinant without derivatives.

    Entry (i, j) is L_{n+k-1-(i+j)} with parameter 2k - 1, evaluated at
    -2 zeta; a negative degree index means the zero polynomial, the empty
    sum of the defining formula.
    """
    zeta = _check_args(k, n, zeta)
    t = -2 * zeta
    values: dict[int, Fraction] = {}
    for degree in range(n - k + 1, n + k):
        values[degree] = laguerre_eval(laguerre(degree, 2 * k - 1), t) if degree >= 0 else Fraction(0)
    matrix = [[values[n + k - 1 - (i + j)] for j in range(k)] for i in range(k)]
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    return sign * _det(matrix)


def moment_gen_series(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial as a terminating series in zeta.

    Equals the zeroth moment times the sum of series_coeff(p, k, n) zeta^p
    for p up to k*n.  At zeta = 0 only the p = 0 term survives.
    """
    zeta = _check_args(k, n, zeta)
    power = Fraction(1)
    total = Fraction(0)
    for p in range(k * n + 1):
        total += series_coeff(p, k, n) * power
        power *= zeta
    return keating_snaith(n, k) * total
