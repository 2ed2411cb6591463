"""Joint moments of the unitary characteristic polynomial and its derivative.

The moment of order (two_h, k) at matrix size n is the CUE average of
|V|^(2k - two_h) |V'|^two_h, where V is the phase-rotated characteristic
polynomial at angle 0.  Even two_h gives an exact rational; odd two_h
gives an exact rational multiple of 1/pi, carried symbolically by
:class:`ExactScalar`.  The large-n limits (after dividing by n^(k^2 + two_h))
are exact rationals for even two_h and controlled truncations for odd two_h.

Every moment is one recombination: a prefactor depending on two_h times
the zeroth moment times sum_p w_p c_p, where c_p are the coefficients of
the reduced moment polynomial from the determinant engine
:func:`~cue_moments.coefficients.coeff_vector` and the weight w_p depends
only on the parity of two_h and on n.  The limit is the same sum at n = 1
over :func:`~cue_moments.coefficients.limit_coeff_vector`, times
:func:`limit_moment_zero`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import count
from math import comb, factorial, perm

from .coefficients import coeff_vector, limit_coeff_vector


@dataclass(frozen=True)
class MomentOrder:
    """Moment order (two_h, k) with h = two_h / 2.

    Admissibility requires 2k + 1 > two_h; h is always carried doubled so
    that parity, which decides between the even and odd formulas, is never
    subject to floating point.
    """

    two_h: int
    k: int

    def __post_init__(self) -> None:
        if self.two_h < 0:
            raise ValueError(f"two_h must be non-negative, got {self.two_h}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if 2 * self.k + 1 <= self.two_h:
            raise ValueError(
                f"inadmissible order: need 2k + 1 > two_h, got two_h={self.two_h}, k={self.k}"
            )


@dataclass(frozen=True)
class ExactScalar:
    """Exact real value q / pi with rational q; its string prints the digits through ``Decimal``."""

    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", Fraction(self.q))

    def to_float(self) -> float:
        return float(self.q) / math.pi

    def __str__(self) -> str:
        num, den = Decimal(self.q.numerator), self.q.denominator
        return f"{num}/pi" if den == 1 else f"{num}/({Decimal(den)}*pi)"


@dataclass(frozen=True)
class LimitResult:
    """Truncated limit evaluation with a certified truncation bound."""

    value: float
    tail_bound: float
    terms_used: int


def limit_moment_zero(k: int) -> Fraction:
    """Scaled limit of the zeroth moment: the product over j < k of j! / (j+k)!."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return Fraction(math.prod(map(factorial, range(k))), math.prod(map(factorial, range(k, 2 * k))))


def keating_snaith(n: int, k: int) -> Fraction:
    """Zeroth moment at size n: limit_moment_zero(k) times the product over j < k of (j+n+k)!/(j+n)!.

    Equal to the product over j = 1..n of (j-1)! (j+2k-1)! / ((j+k-1)!)^2,
    with k factors in place of n, each a product of k integers.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got {(n, k)}")
    return limit_moment_zero(k) * math.prod(perm(j + n + k, k) for j in range(k))


def _prefactor(two_h: int, zeroth: Fraction) -> Fraction:
    """The zeroth moment times (-1)^h / 2^two_h (even two_h) or 2 (-1)^(h + 1/2) / 2^two_h (odd)."""
    return Fraction((1 + two_h % 2) * (-1) ** ((two_h + 1) // 2), 2 ** two_h) * zeroth


def _weight(p: int, two_h: int, n: int) -> Fraction | int:
    """Weight w_p of the coefficient c_p in the moment of order two_h at size n (n = 1: the limit).

    Even two_h, p <= two_h: two_h!/(two_h - p)! (-n)^(two_h - p).  Odd two_h:
    w_0 = 0; p! (-n)^(two_h - p) sum_{l=1..p} C(two_h, p - l) (-1)^l / l up
    to p = two_h; two_h! (p - two_h - 1)! / n^(p - two_h) beyond.
    """
    if two_h % 2 == 0:
        return perm(two_h, p) * (-n) ** (two_h - p)
    if p > two_h:
        return Fraction(factorial(two_h) * factorial(p - two_h - 1), n ** (p - two_h))
    inner = sum((Fraction(comb(two_h, p - l) * (-1) ** l, l) for l in range(1, p + 1)), Fraction(0))
    return factorial(p) * (-n) ** (two_h - p) * inner


def _recombine(two_h: int, n: int, zeroth: Fraction, coeffs) -> Fraction:
    """Prefactor times sum_p w_p c_p (times 1/pi for odd two_h); two_h = 0 gives ``zeroth``."""
    total = sum((_weight(p, two_h, n) * c for p, c in enumerate(coeffs)), Fraction(0))
    return _prefactor(two_h, zeroth) * total


def moment_integer_h(n: int, h: int, k: int) -> Fraction:
    """Joint moment for integer h >= 1, exact rational; needs an admissible order (2h, k)."""
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}; use keating_snaith for h = 0")
    MomentOrder(2 * h, k)
    return _recombine(2 * h, n, keating_snaith(n, k), coeff_vector(k, n, 2 * h))


def moment_half_h(n: int, two_h: int, k: int) -> ExactScalar:
    """Joint moment for half-integer h = two_h / 2 (two_h odd), an exact rational multiple of 1/pi."""
    if two_h % 2 == 0:
        raise ValueError(f"two_h must be odd, got {two_h}; use moment_integer_h")
    MomentOrder(two_h, k)
    return ExactScalar(_recombine(two_h, n, keating_snaith(n, k), coeff_vector(k, n, k * n)))


def half_moment_k1_closed(n: int) -> ExactScalar:
    """Elementary closed form of the (two_h, k) = (1, 1) moment at size n.

    A plain binomial sum, independent of the partition machinery, so it
    doubles as an exact oracle for :func:`moment_half_h`.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = sum((comb(n + 2, j + 3) * Fraction(2 ** j, n ** (j + 1)) for j in range(n)), Fraction(0))
    return ExactScalar(2 * total)


def limit_moment_integer_h(h: int, k: int) -> Fraction:
    """Scaled limit of the integer-h moment, exact rational; needs an admissible order (2h, k)."""
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}")
    MomentOrder(2 * h, k)
    return _recombine(2 * h, 1, limit_moment_zero(k), limit_coeff_vector(k, 2 * h))


_LIMIT_MAX_TERMS = 10_000


def limit_moment_half_h(two_h: int, k: int, tol: float) -> LimitResult:
    """Scaled limit of the half-integer moment, truncated to tolerance ``tol``.

    The recombination at n = 1 runs over every p; past p = two_h its terms
    t_p = w_p c_p = two_h! (p - two_h - 1)! c_p are positive and decay
    super-exponentially.  Summation stops at the first p >= two_h + 2k + 4
    where t_p < tol/2 and the terms have started at least halving; a
    geometric majorant then bounds the dropped tail by 2 t_p.  The retained
    terms are summed exactly, so the value carries no roundoff beyond the
    final conversion to float.  Whenever the sum runs past the end of the
    limiting coefficient vector, it is recomputed 1.5 times as long.
    """
    if two_h % 2 == 0:
        raise ValueError(f"two_h must be an odd positive integer, got {two_h}")
    MomentOrder(two_h, k)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol}")

    settle_floor = two_h + 2 * k + 4
    coeffs = limit_coeff_vector(k, settle_floor)
    half_tol = Fraction(tol) / 2
    total = previous = Fraction(0)
    for p in count():
        if p >= len(coeffs):
            coeffs = limit_coeff_vector(k, p + p // 2)
        term = _weight(p, two_h, 1) * coeffs[p]
        total += term
        # Past the settle floor, previous is a tail term too.
        if p >= settle_floor and term < half_tol and 2 * term < previous:
            break
        if p - two_h > _LIMIT_MAX_TERMS:
            raise RuntimeError(f"tolerance {tol} not reached within {_LIMIT_MAX_TERMS} terms")
        previous = term

    prefactor = _prefactor(two_h, limit_moment_zero(k))
    value = float(prefactor * total) / math.pi
    tail_bound = float(abs(prefactor) * 2 * term) / math.pi
    return LimitResult(value=value, tail_bound=tail_bound, terms_used=p - two_h)
