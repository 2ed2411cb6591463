"""Integer partitions with bounded part count, hook lengths and Pochhammer symbols.

A partition is a plain tuple of positive ints, largest part first; ``()``
is the empty partition.  Everything here is exact integer or rational
arithmetic, and all box products over the empty Ferrers diagram are 1.

The box products are taken a row at a time, never a box at a time: the
hook product from the row lengths shifted to distinct integers (the
Frobenius factorial form), the Pochhammer symbol at an integer base as
one ``prod`` over the rows' falling factorials, with its sign taken once.
Both are integer products that run inside ``math``.  The hook product
depends on the partition alone, so each partition's is formed once and
kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, starmap
from math import factorial, perm, prod
from operator import add, sub

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def _partitions(total: int, max_parts: int, max_part: int) -> tuple[Partition, ...]:
    # Reverse-lexicographic order follows from taking first parts largest first.
    if total == 0:
        return ((),)
    # max_parts >= 1 here: a call with max_parts - 1 = 0 takes first = total, so total = 0.
    smallest_first = -(-total // max_parts)  # first part must cover its share
    return tuple(
        (first,) + rest
        for first in range(min(total, max_part), smallest_first - 1, -1)
        for rest in _partitions(total - first, max_parts - 1, first)
    )


def partitions_of(p: int, max_parts: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``p`` into at most ``max_parts`` parts, each at most ``max_part`` if given.

    Returned in reverse-lexicographic order, so ``(4,)`` precedes
    ``(3, 1)`` precedes ``(2, 2)``.  ``p = 0`` yields the singleton empty
    partition.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    if max_parts < 1:
        raise ValueError(f"max_parts must be positive, got {max_parts}")
    if max_part is not None and max_part < 1:
        raise ValueError(f"max_part must be positive, got {max_part}")
    return _partitions(p, max_parts, p if max_part is None else min(p, max_part))


def transpose(lam: Partition) -> Partition:
    """Reflection of the Ferrers diagram about its main diagonal.

    Computed by column counting: column j of the diagram has one box for
    every part of size at least j.
    """
    width = lam[0] if lam else 0
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, width + 1))


@lru_cache(maxsize=None)
def hook_product(lam: Partition) -> int:
    """Product of all hook lengths of the Ferrers diagram, formed once per partition.

    The hook length of a box is arm + leg + 1, where the arm counts boxes
    strictly to the right and the leg counts boxes strictly below.  With
    l_i = lam_i + len(lam) - i, which strictly decrease, the product is
    prod_i l_i! / prod_{i<j} (l_i - l_j).
    """
    ell = len(lam)
    shifted = [part + ell - i for i, part in enumerate(lam, start=1)]
    return prod(map(factorial, shifted)) // prod(starmap(sub, combinations(shifted, 2)))


def pochhammer(b: int | Fraction, lam: Partition) -> int | Fraction:
    """Generalized Pochhammer symbol: the product of b + j - i over all boxes.

    Box (i, j) means row i, column j, both 1-based, so row i contributes
    the rising factorial (b - i + 1) ... (b - i + lam_i).  For int ``b``
    at least len(lam) every factor is positive and row i is
    perm(b - i + lam_i, lam_i).  For negative ``b`` row i is
    (-1)^lam_i perm(i - 1 - b, lam_i) unless it crosses zero; lam_i - i
    decreases, so row 1 crosses first, and the sign (-1)^|lam| is taken
    once.  Any other int ``b`` puts the factor 0 in row b + 1 or row 1.
    For b = u/v it is the integer product of u + (j - i) v over the boxes,
    divided once by v^|lam|.  The empty partition gives 1.  The result is
    an int for int ``b`` and a Fraction otherwise.
    """
    if isinstance(b, int):
        if b >= len(lam):
            return prod(map(perm, map(add, lam, range(b - 1, b - 1 - len(lam), -1)), lam))
        if b < 0 and (not lam or lam[0] <= -b):
            value = prod(map(perm, range(-b, len(lam) - b), lam))
            return -value if sum(lam) % 2 else value
        return 0
    if not isinstance(b, Fraction):
        b = Fraction(b)
    u, v = b.numerator, b.denominator
    numer = prod(prod(range(u + (1 - i) * v, u + (row - i) * v + 1, v)) for i, row in enumerate(lam, start=1))
    return Fraction(numer, v ** sum(lam))
