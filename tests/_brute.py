"""Independent brute-force oracles for the test suite.

Deliberately different algorithms from the package internals: ascending
composition enumeration instead of descending recursion, pentagonal-number
counting, and the factorial form of the hook product.
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


def box_product(b, parts: tuple[int, ...]):
    """Pochhammer product written directly over diagram boxes."""
    result = 1
    for i, part in enumerate(parts, start=1):
        for j in range(1, part + 1):
            result = result * (b + j - i)
    return result


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
