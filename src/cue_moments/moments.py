"""Joint moments of the unitary characteristic polynomial and its derivative.

The moment of order (two_h, k) at matrix size n is the CUE average of
|V|^(2k - two_h) |V'|^two_h, where V is the phase-rotated characteristic
polynomial at angle 0.  Even two_h gives an exact rational; odd two_h
gives an exact rational multiple of 1/pi, carried symbolically by
:class:`ExactScalar`.  The large-n limits (after dividing by n^(k^2 + two_h))
are exact rationals for even two_h and controlled truncations for odd two_h.

Each moment is the zeroth moment times a binomial recombination of the
coefficients c_p of the reduced moment polynomial, taken from the
determinant engine :func:`~cue_moments.coefficients.coeff_vector` (finite
n) or :func:`~cue_moments.coefficients.limit_coeff_vector` (the limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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

    @property
    def is_half_integer(self) -> bool:
        return self.two_h % 2 == 1


@dataclass(frozen=True)
class ExactScalar:
    """Exact real value q * pi^pi_exp with rational q and pi_exp in {0, -1}."""

    q: Fraction
    pi_exp: int = 0

    def __post_init__(self) -> None:
        if self.pi_exp not in (0, -1):
            raise ValueError(f"pi_exp must be 0 or -1, got {self.pi_exp}")
        object.__setattr__(self, "q", Fraction(self.q))

    def to_float(self) -> float:
        value = float(self.q)
        return value / math.pi if self.pi_exp == -1 else value

    def __str__(self) -> str:
        if self.pi_exp == 0:
            return str(self.q)
        if self.q.denominator == 1:
            return f"{self.q.numerator}/pi"
        return f"{self.q.numerator}/({self.q.denominator}*pi)"


@dataclass(frozen=True)
class LimitResult:
    """Truncated limit evaluation with a certified truncation bound."""

    value: float
    tail_bound: float
    terms_used: int


def keating_snaith(n: int, k: int) -> Fraction:
    """Zeroth moment at size n: the product over j < k of j! (j+n+k)! / ((j+k)! (j+n)!).

    Equal to the product over j = 1..n of (j-1)! (j+2k-1)! / ((j+k-1)!)^2,
    with k factors in place of n; (j+n+k)! / (j+n)! is taken as a product
    of k integers.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got {(n, k)}")
    numer = 1
    denom = 1
    for j in range(k):
        numer *= factorial(j) * perm(j + n + k, k)
        denom *= factorial(j + k)
    return Fraction(numer, denom)


def _integer_h_sum(coeffs, two_h: int, n: int) -> Fraction:
    """Sum over p of two_h!/(two_h - p)! (-n)^(two_h - p) c_p; n = 1 gives the limit."""
    terms = (Fraction(factorial(two_h), factorial(two_h - p)) * (-n) ** (two_h - p) * c
             for p, c in enumerate(coeffs))
    return sum(terms, Fraction(0))


def _half_h_first_sum(coeffs, two_h: int, n: int) -> Fraction:
    """Sum over 1 <= ell <= p <= two_h of C(two_h, p - ell) (-1)^ell/ell (-n)^(two_h - p) p! c_p.

    n = 1 gives the limit.  Coefficients past the end of ``coeffs`` are zero.
    """
    terms = (comb(two_h, p - ell) * Fraction((-1) ** ell, ell) * (-n) ** (two_h - p) * factorial(p) * c
             for p, c in enumerate(coeffs[1 : two_h + 1], start=1) for ell in range(1, p + 1))
    return sum(terms, Fraction(0))


def moment_integer_h(n: int, h: int, k: int) -> Fraction:
    """Joint moment for integer h >= 1, exact rational.

    Requires k >= h.  Evaluates the zeroth moment times the degree-2h
    binomial recombination of the finite-size series coefficients.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}; use keating_snaith for h = 0")
    if k < h:
        raise ValueError(f"inadmissible order: need k >= h, got h={h}, k={k}")
    two_h = 2 * h
    total = _integer_h_sum(coeff_vector(k, n, two_h), two_h, n)
    return Fraction((-1) ** h, 2 ** two_h) * keating_snaith(n, k) * total


def moment_half_h(n: int, two_h: int, k: int) -> ExactScalar:
    """Joint moment for half-integer h = two_h / 2 with two_h odd.

    Returns an exact rational multiple of 1/pi.  Requires 2k + 1 > two_h.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if two_h % 2 == 0:
        raise ValueError(f"two_h must be odd, got {two_h}; use moment_integer_h")
    order = MomentOrder(two_h, k)
    coeffs = coeff_vector(k, n, k * n)
    first = _half_h_first_sum(coeffs, two_h, n)
    second = Fraction(0)
    for p, coeff in enumerate(coeffs[two_h + 1 :], start=two_h + 1):
        second += Fraction(factorial(two_h) * factorial(p - two_h - 1), n ** (p - two_h)) * coeff
    m = (two_h + 1) // 2  # h + 1/2
    prefactor = Fraction(2 * (-1) ** m, 2 ** two_h) * keating_snaith(n, order.k)
    return ExactScalar(prefactor * (first + second), pi_exp=-1)


def half_moment_k1_closed(n: int) -> ExactScalar:
    """Elementary closed form of the (two_h, k) = (1, 1) moment at size n.

    A plain binomial sum, independent of the partition machinery, so it
    doubles as an exact oracle for :func:`moment_half_h`.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = Fraction(0)
    for j in range(n):
        total += comb(n + 2, j + 3) * Fraction(2 ** j, n ** (j + 1))
    return ExactScalar(2 * total, pi_exp=-1)


def limit_moment_zero(k: int) -> Fraction:
    """Scaled limit of the zeroth moment: the product of (j-1)! / (k+j-1)!."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    numer = 1
    denom = 1
    for j in range(1, k + 1):
        numer *= factorial(j - 1)
        denom *= factorial(k + j - 1)
    return Fraction(numer, denom)


def limit_moment_integer_h(h: int, k: int) -> Fraction:
    """Scaled limit of the integer-h moment, exact rational.  Requires k >= h."""
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}")
    if k < h:
        raise ValueError(f"inadmissible order: need k >= h, got h={h}, k={k}")
    two_h = 2 * h
    total = _integer_h_sum(limit_coeff_vector(k, two_h), two_h, 1)
    return Fraction((-1) ** h, 2 ** two_h) * limit_moment_zero(k) * total


_LIMIT_MAX_TERMS = 10_000


def limit_moment_half_h(two_h: int, k: int, tol: float) -> LimitResult:
    """Scaled limit of the half-integer moment, truncated to tolerance ``tol``.

    The infinite part has positive terms t_p = two_h! (p - two_h - 1)! c_p
    with limiting coefficients c_p decaying super-exponentially.  Summation
    stops at the first p >= two_h + 2k + 4 where t_p < tol/2 and the terms
    have started at least halving; a geometric majorant then bounds the
    dropped tail by 2 t_p.  All retained terms are summed in exact rational
    arithmetic, so the reported value carries no roundoff beyond the final
    conversion to float.  The coefficients come from
    :func:`~cue_moments.coefficients.limit_coeff_vector`; whenever the sum
    runs past the end of that vector, it is recomputed 1.5 times as long.
    """
    if two_h % 2 == 0 or two_h < 1:
        raise ValueError(f"two_h must be an odd positive integer, got {two_h}")
    order = MomentOrder(two_h, k)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol}")

    settle_floor = two_h + 2 * order.k + 4
    coeffs = limit_coeff_vector(k, settle_floor)
    total = _half_h_first_sum(coeffs, two_h, 1)
    half_tol = Fraction(tol) / 2
    previous_term: Fraction | None = None
    terms_used = 0
    p = two_h + 1
    while True:
        if p >= len(coeffs):
            coeffs = limit_coeff_vector(k, p + p // 2)
        term = factorial(two_h) * factorial(p - two_h - 1) * coeffs[p]
        total += term
        terms_used += 1
        if (
            p >= settle_floor
            and term < half_tol
            and previous_term is not None
            and 2 * term < previous_term
        ):
            break
        if terms_used > _LIMIT_MAX_TERMS:
            raise RuntimeError(f"tolerance {tol} not reached within {_LIMIT_MAX_TERMS} terms")
        previous_term = term
        p += 1

    m = (two_h + 1) // 2
    prefactor = Fraction(2 * (-1) ** m, 2 ** two_h) * limit_moment_zero(k)
    value = float(prefactor * total) / math.pi
    tail_bound = float(abs(prefactor) * 2 * term) / math.pi
    return LimitResult(value=value, tail_bound=tail_bound, terms_used=terms_used)
