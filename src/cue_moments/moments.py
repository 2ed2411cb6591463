"""Joint moments of the unitary characteristic polynomial and its derivative.

The moment of order (two_h, k) at matrix size n is the CUE average of
|V|^(2k - two_h) |V'|^two_h, where V is the phase-rotated characteristic
polynomial at angle 0.  Even two_h gives an exact rational; odd two_h
gives an exact rational multiple of 1/pi, carried symbolically by
:class:`ExactScalar`.  The large-n limits (after dividing by n^(k^2 + two_h))
are exact rationals for even two_h and truncated series for odd two_h.
An exact value leaves exact arithmetic in one place, :func:`to_decimal`,
its 40-digit quotient: the CLI's printed digits, ``float()`` of an
:class:`ExactScalar` and the quadrature's closed form all start from it.
The half-integer limit is no exception: its truncated sum is kept exact,
:attr:`LimitResult.exact`, until it prints.

Every value is one recombination, :func:`_recombine` over a prefix of an
engine vector: a prefactor depending on two_h times the zeroth moment
times sum_p w_p c_p, where c_p are the coefficients of the reduced moment
polynomial.  The engine, :func:`~cue_moments.coefficients.coeff_numerators`,
gives integers h_p with c_p = h_p / (p! h_0).  Every weight w_p, for
either parity of two_h, follows from the last by one two-term recurrence,
so the sum is one Horner pass over integers above one denominator, with
no factorial, power or division per term.  The prefactor's sign and
power of 2 join that one integer numerator and denominator, so an exact
moment forms a single Fraction, and :class:`ExactScalar` keeps it as is.
The limit is the same sum at n = 1 over the engine's limit numerators
(n None), times :func:`limit_moment_zero`.

:func:`exact_moment` is the one entry for every exact value: n None asks
for the limit, as it does of the engine.  For odd two_h the limit is a
truncated series, :func:`limit_moment_half_h`: a stopping rule picks
where the prefix ends, asking the engine for one more term at a time,
and that rule is all that is specific to the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

from .coefficients import coeff_numerators


@dataclass(frozen=True)
class MomentOrder:
    """Moment order (two_h, k) with h = two_h / 2.

    Admissibility requires integers two_h and k with 2k + 1 > two_h; h is
    always carried doubled so that parity, which decides between the even
    and odd formulas, is never subject to floating point.
    """

    two_h: int
    k: int

    def __post_init__(self) -> None:
        if not (isinstance(self.two_h, int) and isinstance(self.k, int)):
            raise ValueError(f"two_h and k must be integers, got two_h={self.two_h!r}, k={self.k!r}")
        if self.two_h < 0:
            raise ValueError(f"two_h must be non-negative, got {self.two_h}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if 2 * self.k + 1 <= self.two_h:
            raise ValueError(
                f"inadmissible order: need 2k + 1 > two_h, got two_h={self.two_h}, k={self.k}"
            )


# Where an exact value leaves exact arithmetic: 40 digits and exponents so wide
# that nothing overflows or underflows before the one rounding to a decimal or float.
DECIMAL_CONTEXT = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)
DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937511")


@dataclass(frozen=True)
class ExactScalar:
    """Exact real value q / pi with rational q; its string prints the digits through ``Decimal``."""

    q: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))

    def __float__(self) -> float:
        """The float nearest :func:`to_decimal` of q/pi, rounded once; OverflowError if that is infinite."""
        value = float(to_decimal(self))
        if math.isinf(value):
            raise OverflowError("q/pi is beyond the float range")
        return value

    def __str__(self) -> str:
        num, den = Decimal(self.q.numerator), self.q.denominator
        return f"{num}/pi" if den == 1 else f"{num}/({Decimal(den)}*pi)"


def to_decimal(value: Fraction | ExactScalar) -> Decimal:
    """The one quotient of an exact value in ``DECIMAL_CONTEXT``: numerator over denominator, over pi for q/pi.

    Each division rounds half-even to 40 digits.  The printed digits, every
    float of an exact value and the closed-form integral all start from it.
    """
    if isinstance(value, ExactScalar):
        return DECIMAL_CONTEXT.divide(to_decimal(value.q), DECIMAL_PI)
    return DECIMAL_CONTEXT.divide(Decimal(value.numerator), value.denominator)


@dataclass(frozen=True)
class LimitResult:
    """Truncated half-integer limit: ``exact`` is the truncated sum, q/pi, and ``value`` its float.

    ``tail_bound`` is :func:`_recombine` of the one term it bounds, twice the
    last term kept, so the prefactor times 2 t_P, rounded to a float.  That
    bounds the dropped tail only if the terms keep halving: assumed, not
    proven.  A bound below the least positive float is reported as that
    float, never as 0.
    """

    exact: ExactScalar
    tail_bound: float
    terms_used: int

    @property
    def value(self) -> float:
        """The float of ``exact``, rounded once from :func:`to_decimal`; 0.0 below the float range."""
        return float(self.exact)


def limit_moment_zero(k: int) -> Fraction:
    """Scaled limit of the zeroth moment: the product over j < k of j! / (j+k)!."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return Fraction(math.prod(map(factorial, range(k))), math.prod(map(factorial, range(k, 2 * k))))


@lru_cache(maxsize=None, typed=True)
def keating_snaith(n: int, k: int) -> Fraction:
    """Zeroth moment at size n: limit_moment_zero(k) times the product over j < k of (j+n+k)!/(j+n)!.

    Equal to the product over j = 1..n of (j-1)! (j+2k-1)! / ((j+k-1)!)^2,
    with k factors in place of n, each a product of k integers.  Formed
    once per (n, k) and kept; the key is typed, so a float n is not taken
    for an int, and a raise is never cached, so bad arguments raise on
    every call.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got {(n, k)}")
    return limit_moment_zero(k) * math.prod(perm(j + n + k, k) for j in range(k))


def _recombine(two_h: int, n: int, zeroth: Fraction, h: tuple[int, ...]) -> Fraction:
    """Prefactor times sum_p w_p c_p over the numerators h_0..h_P (times 1/pi for odd two_h).

    The prefactor is the zeroth moment times (-1)^h / 2^two_h (even two_h)
    or 2 (-1)^(h + 1/2) / 2^two_h (odd); this is the one place that states it.

    c_p = h_p / (p! h_0) and w_p = b_p n^(two_h - p): b_p is g_p for even
    two_h and a_p for odd, stepped from g_0 = (-1)^two_h and a_0 = 0 by
    g_(p+1) = (p - two_h) g_p and a_(p+1) = (p - two_h) a_p + g_p, because
    G = (x - 1)^two_h (a derivative at zeta = 0) and A = -G log(1 - x) (a
    Laplace integral), their exponential generating functions, satisfy
    (1 - x) G' = -two_h G and (1 - x) A' = -two_h A + G.  Past two_h, g_p = 0
    and a_p = two_h! (p - two_h - 1)!.  The sum is one Horner pass over the
    one denominator S h_0, S = P! n^max(P - two_h, 0), acc = acc p n + b_p h_p:
    S w_p / p! = b_p (P! / p!) n^(P - p).  That needs P >= two_h or n = 1,
    which every moment meets: kn = P < two_h <= 2k forces n = 1, where the
    clamp keeps S an int.  The even and odd weights each step in their own
    loop.  The prefactor enters as integers: its sign (-1)^ceil(two_h/2)
    on the numerator, its 1 / 2^two_h (even) or 2 / 2^two_h (odd) as a shift
    of the denominator, so the value is one Fraction of one integer
    numerator and denominator.  two_h = 0 gives ``zeroth``.
    """
    odd, P = two_h % 2, len(h) - 1
    acc, g = 0, (-1) ** two_h
    if odd:
        a = 0
        for p, x in enumerate(h):
            acc = acc * (p * n) + a * x
            a, g = (p - two_h) * a + g, (p - two_h) * g
    else:
        for p, x in enumerate(h):
            acc = acc * (p * n) + g * x
            g *= p - two_h
    if (two_h + 1) // 2 % 2:
        acc = -acc
    scale = factorial(P) * n ** max(P - two_h, 0)
    return Fraction(zeroth.numerator * acc, (zeroth.denominator * scale * h[0]) << (two_h - odd))


def exact_moment(n: int | None, two_h: int, k: int) -> Fraction | ExactScalar:
    """The moment of order (two_h, k) at size n, or its scaled limit for n None.

    A Fraction for even two_h, an :class:`ExactScalar` (q/pi) for odd
    two_h.  The limit of odd two_h is no exact value but a truncated
    series: asking for it raises ValueError, as does an argument that is
    not an int (n may be None), before any cache is touched.  A value no
    greater than 0 raises ArithmeticError, since every CUE moment is
    positive; the sign of its numerator is the test.
    """
    MomentOrder(two_h, k)
    if not (n is None or isinstance(n, int)):
        raise ValueError(f"n must be an integer or None, got {n!r}")
    odd = two_h % 2
    if n is None and odd:
        raise ValueError(f"the limit of odd two_h={two_h} is a truncated series: use limit_moment_half_h")
    zeroth = limit_moment_zero(k) if n is None else keating_snaith(n, k)
    if two_h == 0:
        return zeroth
    value = _recombine(two_h, 1 if n is None else n, zeroth, coeff_numerators(k, n, k * n if odd else two_h))
    if value.numerator <= 0:
        raise ArithmeticError(f"the moment (n, two_h, k) = {(n, two_h, k)} is not positive: wrong engine")
    return ExactScalar(value) if odd else value


def moment_integer_h(n: int, h: int, k: int) -> Fraction:
    """Joint moment for integer h >= 1, exact rational; needs an admissible order (2h, k).

    n None gives the scaled limit, as :func:`exact_moment` does.
    """
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}; use keating_snaith for h = 0")
    return exact_moment(n, 2 * h, k)


def moment_half_h(n: int, two_h: int, k: int) -> ExactScalar:
    """Joint moment for half-integer h = two_h / 2 (two_h odd), an exact rational multiple of 1/pi."""
    if two_h % 2 == 0:
        raise ValueError(f"two_h must be odd, got {two_h}; use moment_integer_h")
    return exact_moment(n, two_h, k)


def half_moment_k1_closed(n: int) -> ExactScalar:
    """Elementary closed form of the (two_h, k) = (1, 1) moment at size n.

    A plain binomial sum, independent of the partition machinery, so it
    doubles as an exact oracle for ``exact_moment(n, 1, 1)``.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = sum(comb(n + 2, j + 3) * 2 ** j * n ** (n - 1 - j) for j in range(n))
    return ExactScalar(Fraction(2 * total, n ** n))


def _majorant_terms(two_h: int, k: int, tol: float) -> int:
    """The a priori P of the proven majorant B_p = m! (p - m - 1)! (2k^2)^p / (p!)^2 of t_p, m = two_h.

    B_(p+1) / B_p = r_p = 2k^2 (p - m) / (p + 1)^2 decreases past p = 2m + 1,
    so the tail past P is at most B_(P+1) / (1 - r_(P+1)) once r_(P+1) < 1.
    P is the least p > 2m + 1 where that bound is below tol/2, found in floats.
    """
    s, log_half_tol = 2 * k * k, math.log(tol) - math.log(2)
    p = 2 * two_h + 2
    log_b = math.lgamma(two_h + 1) + math.lgamma(p - two_h + 1) + (p + 1) * math.log(s) - 2 * math.lgamma(p + 2)
    while True:  # log_b is log B_(p+1), r is r_(p+1)
        r = s * (p + 1 - two_h) / (p + 2) ** 2
        if r < 1 and log_b - math.log1p(-r) < log_half_tol:
            return p
        log_b += math.log(r)
        p += 1


def limit_moment_half_h(two_h: int, k: int, tol: float) -> LimitResult:
    """Scaled limit of the half-integer moment: the recombination at n = 1 up to c_P.

    Past p = two_h the inner terms t_p = w_p c_p are positive.  P is the
    first p >= two_h + 2k + 4 with t_p < tol/2 and 2 t_p < t_(p-1), so
    ``tol`` is compared with inner terms, before the prefactor.  It asks
    the engine for h_0..h_p one p at a time; the engine's limit state
    condenses only the terms it does not hold yet.  A negative t_p or
    t_(p-1), or a rule still unmet at twice the larger of that floor and the
    majorant's a priori P, means a wrong engine, and raises ArithmeticError.
    So does a tail bound no smaller than |value|, compared exactly before
    either is rounded: the truncated series then leaves the sign open.  A
    value no greater than 0 raises too, since every CUE moment is positive.
    """
    if two_h % 2 == 0:
        raise ValueError(f"two_h must be an odd positive integer, got {two_h}")
    MomentOrder(two_h, k)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol}")

    # t_q = w_q c_q is T_q / (q! h_0) with the integer T_q = two_h! (q - two_h - 1)! h_q, so
    # t_p < tol/2 and 2 t_p < t_(p-1) compare integers of one vector h, at one scale.
    tol_num, tol_den = Fraction(tol).as_integer_ratio()
    p = two_h + 2 * k + 4
    cap = 2 * max(p, _majorant_terms(two_h, k, tol))
    while True:
        h = coeff_numerators(k, None, p)
        term, previous = (factorial(two_h) * factorial(q - two_h - 1) * h[q] for q in (p, p - 1))
        if min(term, previous) < 0:  # h_0 > 0, so t_p and T_p share a sign
            raise ArithmeticError(f"limit term t_{p - 1} or t_{p}, past two_h, is negative: wrong engine")
        if 2 * tol_den * term < tol_num * factorial(p) * h[0] and 2 * term < p * previous:
            break
        p += 1
        if p > cap:
            raise ArithmeticError(f"the half-integer limit did not settle by term {cap}")

    zeroth = limit_moment_zero(k)
    value = _recombine(two_h, 1, zeroth, h)
    # The bound is the recombination of 2 t_p alone: w_0 = a_0 = 0, so h_0 only sets the scale.
    tail_bound = abs(_recombine(two_h, 1, zeroth, (h[0],) + (0,) * (p - 1) + (2 * h[p],)))
    if tail_bound >= abs(value):
        raise ArithmeticError(
            f"the tail bound after {p - two_h} terms does not separate the limit from zero: its sign is uncertain")
    if value <= 0:
        raise ArithmeticError(f"the limit after {p - two_h} terms is not positive: wrong engine")
    return LimitResult(ExactScalar(value), max(float(ExactScalar(tail_bound)), math.ulp(0.0)), p - two_h)
