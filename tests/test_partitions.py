from fractions import Fraction
from math import factorial

import pytest

from cue_moments.partitions import hook_product, partitions_of, pochhammer, transpose

from _brute import ascending_partitions, box_product, hook_product_factorial_form, partition_counts


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

    def test_counts_match_classical_recurrence(self):
        counts = partition_counts(40)
        for p in range(41):
            assert len(all_partitions(p)) == counts[p]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partitions_of(-1, 2)
        with pytest.raises(ValueError):
            partitions_of(3, 0)


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
        for p in range(11):
            for lam in all_partitions(p):
                assert hook_product(lam) == hook_product_factorial_form(lam)


class TestPochhammer:
    def test_examples(self):
        for p in range(1, 9):
            assert pochhammer(1, (p,)) == factorial(p)
        assert pochhammer(Fraction(5, 7), ()) == 1
        for n in (1, 4, 19):
            assert pochhammer(-n, (1,)) == -n

    def test_fraction_base_stays_exact(self):
        value = pochhammer(Fraction(1, 2), (2, 1))
        # boxes (1,1), (1,2), (2,1): (1/2)(3/2)(-1/2)
        assert value == Fraction(-3, 8)

    def test_matches_direct_box_product(self):
        for p in range(9):
            for lam in all_partitions(p):
                for b in (-2, 3, Fraction(1, 2)):
                    assert pochhammer(b, lam) == box_product(b, lam)

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
