from fractions import Fraction
from math import factorial

import pytest

from cue_moments.partitions import hook_product, partitions_of, pochhammer, transpose

from _brute import (
    ascending_partitions,
    box_product,
    hook_product_boxes,
    hook_product_factorial_form,
    partition_counts,
    row_pochhammer,
)


def all_partitions(p):
    return partitions_of(p, max(p, 1))


class TestEnumeration:
    def test_examples(self):
        assert partitions_of(4, 2) == ((4,), (3, 1), (2, 2))
        assert partitions_of(0, 3) == ((),)
        assert partitions_of(2, 1) == ((2,),)

    def test_reverse_lexicographic_order(self):
        for p in range(9):
            seqs = list(all_partitions(p))
            assert seqs == sorted(seqs, reverse=True)

    def test_matches_independent_enumeration(self):
        for p in range(11):
            mine = set(all_partitions(p))
            brute = set(ascending_partitions(p))
            assert mine == brute
            for max_parts in range(1, p + 2):
                restricted = set(partitions_of(p, max_parts))
                assert restricted == {t for t in brute if len(t) <= max_parts}

    def test_box_bound_keeps_the_parts_at_most_max_part(self):
        assert partitions_of(5, 3, 2) == ((2, 2, 1),)
        assert partitions_of(7, 2, 3) == ()
        assert partitions_of(0, 2, 1) == ((),)
        for p in range(13):
            for max_parts in range(1, 5):
                for max_part in range(1, p + 3):
                    boxed = partitions_of(p, max_parts, max_part)
                    assert boxed == tuple(lam for lam in partitions_of(p, max_parts) if lam[:1] <= (max_part,))

    def test_counts_match_classical_recurrence(self):
        counts = partition_counts(40)
        for p in range(41):
            assert len(all_partitions(p)) == counts[p]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partitions_of(-1, 2)
        with pytest.raises(ValueError):
            partitions_of(3, 0)
        with pytest.raises(ValueError):
            partitions_of(3, 2, 0)


class TestTranspose:
    def test_examples(self):
        assert transpose((4, 3, 1, 1)) == (4, 2, 2, 1)
        assert transpose((5,)) == (1,) * 5
        assert transpose(()) == ()

    def test_involution_and_shape(self):
        for p in range(11):
            for lam in all_partitions(p):
                lam_t = transpose(lam)
                assert transpose(lam_t) == lam
                assert sum(lam_t) == sum(lam)
                if lam:
                    assert len(lam_t) == lam[0]


class TestHookProduct:
    def test_examples(self):
        assert hook_product((4, 3, 1, 1)) == 1680
        assert hook_product(()) == 1
        for p in range(1, 9):
            assert hook_product((p,)) == factorial(p)

    def test_matches_factorial_form(self):
        # and the box-by-box arm + leg + 1 product
        for w in range(15):
            for lam in all_partitions(w):
                assert hook_product(lam) == hook_product_boxes(lam) == hook_product_factorial_form(lam)


class TestPochhammer:
    def test_examples(self):
        for p in range(1, 9):
            assert pochhammer(1, (p,)) == factorial(p)
        assert pochhammer(Fraction(5, 7), ()) == 1
        for n in (1, 4, 19):
            assert pochhammer(-n, (1,)) == -n
        # row 3 of (3, 1, 1, 1) at b = 2 is the single factor 0; at b = -1 row 1 runs -1, 0, 1
        assert pochhammer(2, (3, 1, 1, 1)) == 0
        assert pochhammer(-1, (3,)) == 0
        # all-negative rows: (-3)(-2) and (-4); (-5)(-4)(-3) and (-6)(-5)(-4)
        assert pochhammer(-3, (2, 1)) == -24
        assert pochhammer(-5, (3, 3)) == 60 * 120

    def test_fraction_base_stays_exact(self):
        value = pochhammer(Fraction(1, 2), (2, 1))
        # boxes (1,1), (1,2), (2,1): (1/2)(3/2)(-1/2)
        assert value == Fraction(-3, 8)

    def test_matches_direct_box_product(self):
        int_bases = range(-25, 26)
        fraction_bases = (Fraction(1, 2), Fraction(-7, 3), Fraction(5, 7), Fraction(4))
        crossing = negative = 0
        for w in range(13):
            for lam in all_partitions(w):
                for b in int_bases:
                    value = pochhammer(b, lam)
                    assert type(value) is int
                    assert value == box_product(b, lam)
                    starts = [b - i + 1 for i in range(1, len(lam) + 1)]
                    crossing += any(s <= 0 <= s + row - 1 for s, row in zip(starts, lam))
                    negative += any(s + row - 1 < 0 for s, row in zip(starts, lam)) and value != 0
                for b in fraction_bases:
                    value = pochhammer(b, lam)
                    assert type(value) is Fraction
                    assert value == box_product(b, lam)
        # rows that cross zero, and nonzero values with an all-negative row, both occur often
        assert crossing > 1000 and negative > 1000

    def test_matches_row_by_row_product(self):
        bases = (*range(-25, 26), Fraction(1, 2), Fraction(-7, 3), Fraction(5, 7), Fraction(4))
        for w in range(15):
            for lam in all_partitions(w):
                for b in bases:
                    value = pochhammer(b, lam)
                    assert type(value) is type(row_pochhammer(b, lam)) and value == row_pochhammer(b, lam)

    def test_vanishing_iff_too_many_parts(self):
        for p in range(11):
            for lam in all_partitions(p):
                for k in range(1, 5):
                    if len(lam) > k:
                        assert pochhammer(k, lam) == 0
                    else:
                        assert pochhammer(k, lam) != 0


class TestTransposeIdentities:
    def test_pochhammer_and_hook_identities(self):
        bases = (-3, -1, Fraction(1, 2), 2)
        for w in range(13):
            for lam in all_partitions(w):
                lam_t = transpose(lam)
                assert hook_product(lam_t) == hook_product(lam)
                for b in bases:
                    assert pochhammer(b, lam_t) == (-1) ** w * pochhammer(-b, lam)
