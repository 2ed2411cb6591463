"""Independent brute-force oracles for the test suite.

Deliberately different algorithms from the package internals: ascending
composition enumeration instead of descending recursion, pentagonal-number
counting, box-by-box hook and Pochhammer products where the package works
a row at a time, and coefficient sums that add one Fraction per partition
where the package adds integers over one common denominator.  The
factorial form of the hook product is kept beside the box-by-box one,
written independently of the package's.  The package's exact kernels run
over integers and reduce to a Fraction once; the Fraction versions they
replaced (Gaussian elimination, per-term Horner, the Fraction
recombination and its weights) are kept here as their references, and so
is the one-shot Hankel condensation that the resumable engine replaced.
The oracles that now sum integers over one denominator, or take the
Pochhammer symbol as one product, keep their Fraction and row-by-row
forms here too: the coefficient bound, the binomial residual, the
half-integer limit's weights, the row-wise Pochhammer symbol and the
hook-content sum over every partition.
The Monte Carlo stream's reference is Vigna's splitmix64.c in Python ints,
stepped one word at a time where the package mixes a counter per word.
The CLI's 15-digit rounding is kept in the form that entered a fresh
``localcontext`` per value, as the reference for the one that rounds
through two module-level contexts.  Two appendix identities that no
computed value depends on close the file; the coefficient tests check them.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, perm
from operator import add, mul
from typing import Iterator

from cue_moments.moments import DECIMAL_CONTEXT, DECIMAL_PI, ExactScalar


def ascending_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as descending tuples, via Kelleher's accel_asc."""
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(reversed(a[: k + 1]))


def partition_counts(limit: int) -> list[int]:
    """p(0..limit) by the pentagonal-number recurrence."""
    counts = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            g2 = j * (3 * j + 1) // 2
            sign = -1 if j % 2 == 0 else 1
            total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            j += 1
        counts[n] = total
    return counts


def hook_product_factorial_form(parts: tuple[int, ...]) -> int:
    """Hook product via prod_i (parts_i + l - i)! / prod_{i<j} (parts_i - parts_j - i + j)."""
    ell = len(parts)
    if ell == 0:
        return 1
    numer = 1
    for i, part in enumerate(parts, start=1):
        numer *= factorial(part + ell - i)
    denom = 1
    for i in range(1, ell + 1):
        for j in range(i + 1, ell + 1):
            denom *= parts[i - 1] - parts[j - 1] - i + j
    assert numer % denom == 0
    return numer // denom


def hook_product_boxes(parts: tuple[int, ...]) -> int:
    """Hook product box by box: arm + leg + 1, the leg read from the column lengths."""
    cols = [sum(1 for part in parts if part >= j) for j in range(1, (parts[0] if parts else 0) + 1)]
    product = 1
    for i, part in enumerate(parts, start=1):
        for j in range(1, part + 1):
            product *= (part - j) + (cols[j - 1] - i) + 1
    return product


def box_product(b, parts: tuple[int, ...]):
    """Pochhammer product written directly over diagram boxes."""
    result = 1
    for i, part in enumerate(parts, start=1):
        for j in range(1, part + 1):
            result = result * (b + j - i)
    return result


def series_coeff_terms(p: int, k: int, n: int | None) -> Fraction:
    """(-2)^p (2^p without n) times the sum of [k] [-n] / ([2k] h^2), one Fraction per partition.

    The partitions of p into at most k parts come from ``ascending_partitions``;
    n = None leaves out [-n], giving the limiting coefficient.
    """
    total = Fraction(0)
    for parts in ascending_partitions(p):
        if len(parts) > k:
            continue
        numer = box_product(k, parts) * (1 if n is None else box_product(-n, parts))
        total += Fraction(numer, box_product(2 * k, parts) * hook_product_boxes(parts) ** 2)
    return (2 if n is None else -2) ** p * total


def hook_content_terms(p: int, k: int) -> Fraction:
    """Sum of [k] / h^2 over every partition of p, one Fraction per partition."""
    return sum((Fraction(box_product(k, parts), hook_product_boxes(parts) ** 2) for parts in ascending_partitions(p)),
               Fraction(0))


def row_pochhammer(b, parts: tuple[int, ...]):
    """Pochhammer symbol one row at a time, each row's sign taken in its own factor, stopping at a zero row."""
    if isinstance(b, int):
        if 0 <= b < len(parts):
            return 0
        result = 1
        for i, row in enumerate(parts, start=1):
            if b >= i:
                result *= perm(b - i + row, row)
            elif b - i + row < 0:
                result *= (-1) ** row * perm(i - 1 - b, row)
            else:
                return 0
        return result
    b = Fraction(b)
    u, v = b.numerator, b.denominator
    numer = 1
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            numer *= u + (j - i) * v
    return Fraction(numer, v ** sum(parts))


def hook_content_all_parts(p: int, k: int) -> Fraction:
    """Sum of [k] f^2, f = p!/h, over every partition of p, zero terms included, as integers over (p!)^2."""
    fp = factorial(p)
    total = 0
    for parts in ascending_partitions(p):
        f = fp // hook_product_factorial_form(parts)
        total += row_pochhammer(k, parts) * f * f
    return Fraction(total, fp * fp)


def fraction_coeff_bound(p: int, k: int, n: int) -> Fraction:
    """(n^p / p!) (1 + k/n)^p (2k)^p (2k-1)! / (2k - 1 + floor(p/k))!, one Fraction per factor."""
    return (Fraction(n ** p, factorial(p)) * Fraction(n + k, n) ** p * (2 * k) ** p
            * Fraction(factorial(2 * k - 1), factorial(2 * k - 1 + p // k)))


def fraction_binomial_residual(two_h: int, n: int, coeffs) -> Fraction:
    """Sum of C(two_h, p) c_p p! / (-n)^p over p <= two_h, one Fraction per term."""
    return sum((comb(two_h, p) * c * Fraction(factorial(p), (-n) ** p) for p, c in enumerate(coeffs[: two_h + 1])),
               Fraction(0))


def fraction_half_limit_weight(p: int, two_h: int) -> Fraction:
    """The half-integer limit's weight of c_p at n = 1, its harmonic-like inner sum taken in Fractions."""
    if p > two_h:
        return Fraction(factorial(two_h) * factorial(p - two_h - 1))
    inner = sum((Fraction(comb(two_h, p - l) * (-1) ** l, l) for l in range(1, p + 1)), Fraction(0))
    return factorial(p) * (-1) ** (two_h - p) * inner


def fraction_det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Fraction Gaussian elimination with pivoting."""
    m = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
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


def laguerre_terms(n: int, alpha: int) -> list[Fraction]:
    """Laguerre coefficients binom(n + alpha, n - j) (-1)^j / j!, one Fraction each."""
    return [Fraction((-1) ** j * comb(n + alpha, n - j), factorial(j)) for j in range(n + 1)]


def fraction_horner(coeffs, t) -> Fraction:
    """Polynomial value at t by Horner's rule, one Fraction operation per term."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def fraction_derivative(coeffs) -> list[Fraction]:
    """Coefficients of the derivative, one Fraction each; a constant gives the zero polynomial [0]."""
    return [Fraction(j + 1) * c for j, c in enumerate(coeffs[1:])] or [Fraction(0)]


def _route_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) % 2 else 1


def fraction_wronskian(polys, t) -> Fraction:
    """Wronskian of the coefficient sequences' polynomials at t, in Fractions throughout."""
    if not polys:
        raise ValueError("need at least one polynomial")
    rows, matrix = polys, []
    for _ in range(len(polys)):
        matrix.append([fraction_horner(c, t) for c in rows])
        rows = [fraction_derivative(c) for c in rows]
    return fraction_det(matrix)


def wronskian_route(k: int, n: int, zeta) -> Fraction:
    """(-1)^(k(k-1)/2) W(L_n^(k), ..., L_{n+k-1}^(k))(-2 zeta) in Fractions throughout."""
    return _route_sign(k) * fraction_wronskian([laguerre_terms(n + i, k) for i in range(k)], -2 * Fraction(zeta))


def hankel_route(k: int, n: int, zeta) -> Fraction:
    """(-1)^(k(k-1)/2) det[L^(2k-1)_{n+k-1-i-j}(-2 zeta)] in Fractions throughout."""
    t = -2 * Fraction(zeta)
    top = n + k - 1
    entry = lambda m: fraction_horner(laguerre_terms(m, 2 * k - 1), t) if m >= 0 else Fraction(0)
    return _route_sign(k) * fraction_det([[entry(top - i - j) for j in range(k)] for i in range(k)])


def fraction_weight(p: int, two_h: int, n: int) -> Fraction:
    """Weight w_p of c_p in the moment of order two_h at size n (n = 1: the limit), as a Fraction.

    Even two_h: two_h!/(two_h - p)! (-n)^(two_h - p).  Odd two_h: w_0 = 0;
    p! (-n)^(two_h - p) sum_{l=1..p} C(two_h, p - l) (-1)^l / l up to
    p = two_h; two_h! (p - two_h - 1)! / n^(p - two_h) beyond.
    """
    if two_h % 2 == 0:
        return Fraction(perm(two_h, p) * (-n) ** (two_h - p))
    if p > two_h:
        return Fraction(factorial(two_h) * factorial(p - two_h - 1), n ** (p - two_h))
    inner = sum((Fraction(comb(two_h, p - l) * (-1) ** l, l) for l in range(1, p + 1)), Fraction(0))
    return factorial(p) * (-n) ** (two_h - p) * inner


def fraction_prefactor(two_h: int, zeroth) -> Fraction:
    """zeroth times (-1)^h / 2^two_h (even two_h) or 2 (-1)^(h + 1/2) / 2^two_h (odd)."""
    return Fraction((1 + two_h % 2) * (-1) ** ((two_h + 1) // 2), 2 ** two_h) * zeroth


def fraction_recombine(two_h: int, n: int, zeroth, coeffs) -> Fraction:
    """Prefactor times sum_p w_p c_p over the coefficients c_p, one Fraction per term."""
    total = sum((fraction_weight(p, two_h, n) * c for p, c in enumerate(coeffs)), Fraction(0))
    return fraction_prefactor(two_h, zeroth) * total


def fraction_limit_half_h(two_h: int, k: int, tol: float, coeff_vector, zeroth) -> tuple[int, Fraction, Fraction]:
    """(terms_used, exact value q, exact tail bound q) of the half-integer limit, in Fractions.

    Stops at the first p >= two_h + 2k + 4 with t_p < tol/2 and
    2 t_p < t_(p-1), t_p = w_p c_p, regrowing the vector 1.5 times when p
    runs past it; ``coeff_vector(k, None, P)`` gives the limit's c_0..c_P.
    """
    half_tol = Fraction(tol) / 2
    p = two_h + 2 * k + 4
    coeffs = coeff_vector(k, None, p)
    previous, term = (fraction_weight(q, two_h, 1) * coeffs[q] for q in (p - 1, p))
    while not (term < half_tol and 2 * term < previous):
        p += 1
        if p == len(coeffs):
            coeffs = coeff_vector(k, None, p + p // 2)
        previous, term = term, fraction_weight(p, two_h, 1) * coeffs[p]
    value = fraction_recombine(two_h, 1, zeroth, coeffs[:p + 1])
    return p - two_h, value, abs(fraction_prefactor(two_h, zeroth)) * 2 * term


def one_shot_condense(cur: list[int], prev: list[int]) -> list[int]:
    """(cur cur'' - cur'^2) / prev over integer Hurwitz series, two coefficients shorter than ``cur``.

    Entry j is j! times the coefficient of zeta^j, so a product is the
    binomial convolution; each quotient coefficient is one integer division
    by prev[0], which must leave no remainder.
    """
    quo: list[int] = []
    row = [1]  # C(j, i) for i = 0..j
    for j in range(len(cur) - 2):
        if j:
            row = [1, *map(add, row, row[1:]), 1]
        # cur_x cur_y over x + y = j + 2, each unordered pair {x, y} once; its
        # weight is the second difference of row j
        s, h = j + 2, (j + 3) // 2
        pad = [0, 0, *row, 0, 0]
        w = [pad[x + 2] - 2 * pad[x + 1] + pad[x] for x in range(h + 1)]
        num = sum(map(mul, cur[:h], map(mul, w, cur[s : s - h : -1])))
        if s % 2 == 0:
            num += w[h] // 2 * cur[h] ** 2
        known = sum(map(mul, map(mul, row[1:], prev[1 : j + 1]), reversed(quo)))
        q, r = divmod(num - known, prev[0])
        if r:
            raise ArithmeticError("inexact quotient in the Hankel condensation")
        quo.append(q)
    return quo


def one_shot_numerators(f: list[int], k: int, size: int) -> tuple[int, ...]:
    """h_0..h_{size-1} of det[f^(i+j)]_{i,j<k}, condensed in one pass and signed so that h_0 > 0.

    ``f`` needs at least size + 2(k - 1) terms.
    """
    prev, cur = [1] + [0] * len(f), f
    for _ in range(k - 1):
        prev, cur = cur, one_shot_condense(cur, prev)
    sign = 1 if cur[0] > 0 else -1
    return tuple(sign * h for h in cur[:size])


def one_shot_coeff_numerators(k: int, n: int, P: int) -> tuple[int, ...]:
    """h_0..h_P at size n from f = L^(1)_{n+k-1}(-2 zeta), Hurwitz coefficients C(n+k, j+1) 2^j."""
    return one_shot_numerators([comb(n + k, j + 1) << j for j in range(P + 2 * k - 1)], k, P + 1)


def one_shot_limit_numerators(k: int, P: int) -> tuple[int, ...]:
    """h_0..h_P of the limit from f = G_1(2 zeta), s = P + 2(k-1), at the scale of the engine's limit state.

    The Hurwitz coefficients 2^j / (j+1)! are scaled by S, the odd part of
    (P + k^2)!, found by halving it while it is even; each product must be
    an integer.  Condensed from u_0 = 1, u_k carries S^k; it is divided by
    S^(k-1), which must leave no remainder in any entry.
    """
    s = P + 2 * (k - 1)
    odd = factorial(P + k * k)
    while odd % 2 == 0:
        odd //= 2
    f = [Fraction(odd * 2 ** j, factorial(j + 1)) for j in range(s + 1)]
    assert all(x.denominator == 1 for x in f)
    quotients = [divmod(h, odd ** (k - 1)) for h in one_shot_numerators([int(x) for x in f], k, P + 1)]
    assert all(r == 0 for _, r in quotients)
    return tuple(q for q, _ in quotients)


def lagrange_interpolate(points: list[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Exact Lagrange interpolation through the given points, evaluated at x."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = yi
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def keating_snaith_running_product(n: int, k: int) -> Fraction:
    """Zeroth moment as the product over j = 1..n of (j-1)! (j+2k-1)! / ((j+k-1)!)^2."""
    numer = 1
    denom = 1
    for j in range(1, n + 1):
        numer *= factorial(j - 1) * factorial(j + 2 * k - 1)
        denom *= factorial(j + k - 1) ** 2
    return Fraction(numer, denom)


def decimal_digits(i: int) -> str:
    """Decimal digits of a non-negative integer, 1000 at a time, each chunk under any int-to-str limit."""
    chunks = []
    while i >= 10 ** 1000:
        i, low = divmod(i, 10 ** 1000)
        chunks.append(f"{low:01000d}")
    return str(i) + "".join(reversed(chunks))


# pi to 59 decimal places, truncated: pi lies in [_PI_60, _PI_60 + 10^-59) / 10^59.
_PI_60 = 314159265358979323846264338327950288419716939937510582097494
_PI_60_SCALE = 10 ** 59


def nearest_float_over_pi(q: Fraction) -> float:
    """The float nearest q/pi: float(Fraction) rounds once, at both ends of the 60-digit bracket of pi."""
    low, high = (float(q * _PI_60_SCALE / p) for p in (_PI_60 + 1, _PI_60))
    assert low == high, f"60 digits of pi cannot decide the float nearest {q}/pi"
    return low


def _round_15(x: Fraction) -> tuple[int, int]:
    """(m, e) with 10^14 <= |m| < 10^15 and m 10^(e - 14) = x rounded half-even to 15 significant digits."""
    e = (abs(x.numerator).bit_length() - x.denominator.bit_length()) * 30103 // 100000
    while abs(x) >= Fraction(10) ** (e + 1):
        e += 1
    while abs(x) < Fraction(10) ** e:
        e -= 1
    m = round(x / Fraction(10) ** (e - 14))
    if abs(m) == 10 ** 15:
        m, e = m // 10, e + 1
    return m, e


def decimal_15g(q: Fraction, over_pi: bool = False) -> str:
    """q (or q/pi) rounded once to 15 significant digits, half-even, laid out like f"{x:.15g}".

    q/pi is bracketed by the 60-digit pi above; both ends must round alike.
    """
    if q == 0:
        return "0"
    if over_pi:
        low, high = (_round_15(q * _PI_60_SCALE / p) for p in (_PI_60 + 1, _PI_60))
        assert low == high, f"60 digits of pi cannot decide the 15-digit rounding of {q}/pi"
        m, e = low
    else:
        m, e = _round_15(q)
    sign, digits = "-" if m < 0 else "", str(abs(m)).rstrip("0")
    if e < -4 or e >= 15:
        return f"{sign}{digits[0]}{'.' if digits[1:] else ''}{digits[1:]}e{'-' if e < 0 else '+'}{abs(e):02d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    whole, frac = digits[: e + 1].ljust(e + 1, "0"), digits[e + 1:]
    return f"{sign}{whole}{'.' if frac else ''}{frac}"


def decimal_in_localcontext(value: Fraction | ExactScalar) -> str:
    """``cli._decimal`` of an exact value as it was first written: every step in one fresh ``localcontext``."""
    q = value.q if isinstance(value, ExactScalar) else value
    with localcontext(DECIMAL_CONTEXT) as ctx:
        d = Decimal(q.numerator) / q.denominator
        if isinstance(value, ExactScalar):
            d /= DECIMAL_PI
        ctx.prec = 15
        d = (+d).normalize()
        exponent = d.adjusted()
        if -4 <= exponent < 15:
            return f"{d:f}"
        return f"{d.scaleb(-exponent):f}e{exponent:+03d}"


class SplitMix64:
    """Vigna's splitmix64.c: the state advances by gamma, and next() returns its mix."""

    def __init__(self, state: int) -> None:
        self.x = state

    def next(self) -> int:
        self.x = (self.x + 0x9E3779B97F4A7C15) % 2 ** 64
        z = self.x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
        return z ^ (z >> 31)


def splitmix64_words(seed: int, count: int) -> list[int]:
    """Words 0, ..., count - 1 of the Monte Carlo stream of seed: splitmix64.c started from its first output."""
    stream = SplitMix64(SplitMix64(seed).next())
    return [stream.next() for _ in range(count)]


def alternating_binomial_sum(p: int, n: int) -> int:
    """Alternating product-of-binomials sum; equals 1 whenever p >= n + 1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if p <= n:
        raise ValueError(f"need p >= n + 1, got p={p}, n={n}")
    return sum((-1) ** ell * comb(p, n - ell) * comb(p - n + ell - 1, ell) for ell in range(n + 1))


def two_row_partition_sum(p: int) -> Fraction:
    """Factorial sum over two-row partition shapes underlying the k=2 closed form.

    Equals 2 * binom(2p+4, p) / ((p+2)! (p+3)!).
    """
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    total = Fraction(0)
    for x in range(p + 2):
        total += Fraction(
            (p - 2 * x + 1) ** 2,
            factorial(x) * factorial(x + 2) * factorial(p - x + 3) * factorial(p - x + 1),
        )
    return total
