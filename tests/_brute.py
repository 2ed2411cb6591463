"""Independent brute-force oracles for the test suite.

Deliberately different algorithms from the package internals: ascending
composition enumeration instead of descending recursion, pentagonal-number
counting, box-by-box hook and Pochhammer products where the package works
a row at a time, and coefficient sums that add one Fraction per partition
where the package adds integers over one common denominator.  The
factorial form of the hook product is kept beside the box-by-box one,
written independently of the package's.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator


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
