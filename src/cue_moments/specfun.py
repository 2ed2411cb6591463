"""Four routes to the reduced moment polynomial, one of them the production engine.

The reduced moment polynomial of order k at matrix size n is the degree
k*n polynomial in zeta obtained from the Fourier-weighted moment integral
after stripping its common transcendental prefactor
pi^n n! 2^(-(n+2k-1)n) e^(-n zeta).  It can be evaluated three independent
ways: as a Wronskian of Laguerre polynomials, as a Hankel determinant
without derivatives, and as a terminating series in zeta weighted by the
partition-sum coefficients (``series_coeff``).  The fourth route,
:func:`moment_gen_engine`, is the series over the coefficients of
:func:`~cue_moments.coefficients.coeff_numerators`, the engine every
printed moment and the quadrature's closed form use; the three-route
identity holds it to the other three, none of which uses the engine.

All four run over integers and reduce to a Fraction once, at the end,
through two evaluators.  The Wronskian and Hankel routes are one Laguerre
determinant, :func:`_laguerre_det`, of the integer polynomials
m! L_m^(alpha) valued at t = p/q by homogeneous Horner (q^m times the
value) and taken by fraction-free Bareiss elimination.  Since
d/dt L_m^(alpha) = -L_(m-1)^(alpha+1), the Wronskian's row of j-th
derivatives is (-1)^j L_(n+i-j)^(k+j), and the Hankel rows reversed are
L_(n+i-j)^(2k-1); either way the row signs cancel the route's
(-1)^(k(k-1)/2).  The series routes sum integer coefficients over one
common denominator.

What does not depend on zeta is formed once and kept: each Laguerre
polynomial m! L_m^(alpha), per (m, alpha), so a call only evaluates it
at t.  The engine route keeps nothing, by design: it reads the engine on
every call, so the three-route identity checks the engine that runs now.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import Sequence

from .coefficients import clear_denominators, coeff_numerators, series_coeff
from .moments import keating_snaith

Rational = int | Fraction


@lru_cache(maxsize=None)
def _scaled_laguerre(n: int, alpha: int) -> tuple[int, ...]:
    """Integer coefficients of n! times the Laguerre polynomial: entry j is (-1)^j C(n + alpha, n - j) n!/j!."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n + alpha < 0:
        raise ValueError(f"need n + alpha >= 0, got n={n}, alpha={alpha}")
    return tuple((-1) ** j * comb(n + alpha, n - j) * perm(n, n - j) for j in range(n + 1))


def _horner(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^deg times the integer polynomial's value at p/q, by homogeneous Horner over integers."""
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


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


def _laguerre_det(n: int, alphas: Sequence[int], t: Fraction) -> Fraction:
    """det[L_(n+i-j)^(alphas[j])(t)] for i, j < k = len(alphas); a negative degree is the zero polynomial.

    At t = p/q the entry of degree m is the integer m! L_m value q^m L_m(t)
    times D!/m! q^(D-m) over the common denominator D! q^D, D = n + k - 1;
    the integer determinant is divided by that denominator's k-th power once.
    """
    p, q = t.numerator, t.denominator
    k = len(alphas)
    top = n + k - 1

    def entry(m: int, alpha: int) -> int:
        if m < 0:
            return 0
        return _horner(_scaled_laguerre(m, alpha), p, q) * perm(top, top - m) * q ** (top - m)

    matrix = [[entry(n + i - j, alpha) for j, alpha in enumerate(alphas)] for i in range(k)]
    return Fraction(_bareiss(matrix), (factorial(top) * q ** top) ** k)


def _check_args(k: int, n: int, zeta: Rational) -> Fraction:
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got {(k, n)}")
    if not isinstance(zeta, Fraction):
        zeta = Fraction(zeta)
    if zeta < 0:
        raise ValueError(f"zeta must be non-negative; pass |zeta|, got {zeta}")
    return zeta


def moment_gen_wronskian(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial via the Wronskian of k Laguerre polynomials.

    Evaluates (-1)^(k(k-1)/2) W(L_n, ..., L_{n+k-1})(-2 zeta), all with
    parameter k.  For k = 1 this is the single polynomial L_n^(1)(-2 zeta).
    It is the Laguerre determinant with column parameters k, ..., 2k - 1.
    """
    zeta = _check_args(k, n, zeta)
    return _laguerre_det(n, range(k, 2 * k), -2 * zeta)


def moment_gen_hankel(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial via a Hankel determinant without derivatives.

    Evaluates (-1)^(k(k-1)/2) det[L_{n+k-1-(i+j)}(-2 zeta)], all with
    parameter 2k - 1; a negative degree index means the zero polynomial,
    the empty sum of the defining formula.  It is the Laguerre determinant
    with every column parameter 2k - 1.
    """
    zeta = _check_args(k, n, zeta)
    return _laguerre_det(n, [2 * k - 1] * k, -2 * zeta)


def _series(k: int, n: int, zeta: Fraction, ints: Sequence[int], d: int) -> Fraction:
    """The zeroth moment times sum_p ints[p] zeta^p / d, p <= k*n, by homogeneous Horner at zeta = a/b."""
    a, b = zeta.numerator, zeta.denominator
    zeroth = keating_snaith(n, k)
    return Fraction(zeroth.numerator * _horner(ints, a, b), zeroth.denominator * d * b ** (k * n))


def moment_gen_series(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial as a terminating series over the partition sums.

    Equals the zeroth moment times the sum of series_coeff(p, k, n) zeta^p
    for p up to k*n, brought over the least common denominator of the
    coefficients.  At zeta = 0 only the p = 0 term survives.
    """
    zeta = _check_args(k, n, zeta)
    return _series(k, n, zeta, *clear_denominators([series_coeff(p, k, n) for p in range(k * n + 1)]))


def moment_gen_engine(k: int, n: int, zeta: Rational) -> Fraction:
    """Reduced moment polynomial from the production engine, the series over c_p = h_p / (p! h_0).

    The h_p are ``coeff_numerators(k, n, k*n)``, the numerators every
    printed moment recombines; with P = k*n the integer sum over
    h_p P!/p! is divided once by P! h_0.
    """
    zeta = _check_args(k, n, zeta)
    P = k * n
    h = coeff_numerators(k, n, P)
    return _series(k, n, zeta, [x * perm(P, P - p) for p, x in enumerate(h)], factorial(P) * h[0])
