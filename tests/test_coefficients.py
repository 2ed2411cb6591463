from fractions import Fraction
from math import comb, factorial

import pytest

from cue_moments import coefficients
from cue_moments.coefficients import coeff_numerators, coeff_vector, series_coeff, series_coeff_limit
from cue_moments.partitions import hook_product, partitions_of, pochhammer, transpose
from cue_moments.verification import (
    _binomial_residual,
    _hook_content_sum,
    _series_coeff_bound,
    _series_coeff_closed,
    check_binomial_residuals,
    check_closed_forms,
    check_coeff_bounds,
    check_hook_content_sums,
)

from _brute import (
    alternating_binomial_sum,
    fraction_binomial_residual,
    fraction_coeff_bound,
    hook_content_all_parts,
    hook_content_terms,
    series_coeff_terms,
    two_row_partition_sum,
)


class TestSeriesCoeff:
    def test_single_partition_cases(self):
        for n in range(1, 9):
            assert series_coeff(1, 1, n) == n
            assert series_coeff(0, 3, n) == 1
        assert series_coeff(2, 1, 3) == 2

    def test_quadratic_case_all_sizes(self):
        # only the single-row partition contributes for k = 1
        for n in range(1, 12):
            assert series_coeff(2, 1, n) == Fraction(n * n - n, 3)

    def test_zero_beyond_degree(self):
        assert series_coeff(4, 1, 3) == 0
        assert series_coeff(13, 3, 4) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            series_coeff(-1, 1, 1)
        with pytest.raises(ValueError):
            series_coeff(0, 0, 1)
        with pytest.raises(ValueError):
            series_coeff(0, 1, 0)
        for args in ((-1, 1), (0, 0)):
            with pytest.raises(ValueError):
                series_coeff_limit(*args)

    def test_matches_one_fraction_per_term_sums(self):
        # From cold caches, the limit comes first on every other (p, k) and a
        # finite n first on the rest, so each order reads weights the other formed.
        for cached in (series_coeff, series_coeff_limit, coefficients._weight, coefficients._common):
            cached.cache_clear()
        grid = [(p, k) for p in range(13) for k in range(1, 5)] + [(p, k) for p in range(13, 17) for k in range(1, 4)]
        for i, (p, k) in enumerate(grid):
            if i % 2 == 0:
                assert series_coeff_limit(p, k) == series_coeff_terms(p, k, None)
            for n in (1, 2, 3, 7, 25):
                assert series_coeff(p, k, n) == series_coeff_terms(p, k, n)
            if i % 2 == 1:
                assert series_coeff_limit(p, k) == series_coeff_terms(p, k, None)
            assert _hook_content_sum(p, k) == hook_content_terms(p, k)

    def test_transpose_route_equivalence(self):
        # summing over transposed shapes with negated arguments gives the
        # same coefficient; exercises the transpose identities end to end
        for p in range(9):
            for k in (1, 2, 3):
                for n in (2, 5):
                    direct = series_coeff(p, k, n)
                    total = Fraction(0)
                    for lam in partitions_of(p, k):
                        mu = transpose(lam)
                        numer = pochhammer(-k, mu) * pochhammer(n, mu)
                        denom = pochhammer(-2 * k, mu) * hook_product(mu) ** 2
                        total += Fraction(numer, denom)
                    assert direct == 2 ** p * total


class TestCoeffVector:
    GRID = [(k, n) for k in range(1, 5) for n in range(1, 9)] + [
        (k, n) for k in (5, 6) for n in range(1, 6)
    ]

    def test_equals_partition_sums_for_every_p(self):
        for k, n in self.GRID:
            expected = tuple(series_coeff(p, k, n) for p in range(k * n + 1))
            assert coeff_vector(k, n, k * n) == expected, (k, n)

    def test_truncation_is_a_prefix(self):
        for k, n in self.GRID:
            full = coeff_vector(k, n, k * n)
            for P in range(k * n + 3):
                assert coeff_vector(k, n, P) == full[: P + 1], (k, n, P)

    def test_large_size_matches_partition_sums_on_low_order(self):
        # P far below k*n: the series f is cut off well below its degree
        for k, n in ((2, 50), (3, 400), (8, 400)):
            expected = tuple(series_coeff(p, k, n) for p in range(5))
            assert coeff_vector(k, n, 4) == expected

    def test_limit_equals_partition_sums(self):
        for k in range(1, 7):
            expected = tuple(series_coeff_limit(p, k) for p in range(31))
            assert coeff_vector(k, None, 30) == expected, k
            assert coeff_vector(k, None, 12) == expected[:13]

    def test_rejects_bad_arguments(self):
        for args in ((0, 1, 1), (1, 0, 1), (1, 1, -1), (0, None, 1), (1, None, -1)):
            with pytest.raises(ValueError):
                coeff_vector(*args)
        for args in ((2, 0, 3), (2, None, -1)):
            with pytest.raises(ValueError):
                coeff_numerators(*args)


class TestSeriesCoeffLimit:
    def test_examples(self):
        assert series_coeff_limit(2, 1) == Fraction(1, 3)
        assert series_coeff_limit(0, 4) == 1
        assert series_coeff_limit(1, 2) == 1

    def test_positive(self):
        for p in range(12):
            for k in (1, 2, 3):
                assert series_coeff_limit(p, k) > 0

    def test_asymptotic_decay(self):
        # the scaled finite-size coefficient approaches the limit at rate 1/n:
        # tenfold n shrinks the gap close to tenfold (the O(1/n^2) correction
        # keeps it just above d/10, hence the /9), and the gap at n = 10^4
        # sits under an explicit 1/n relative bound
        for k in (1, 2, 3):
            for p in range(9):
                limit = series_coeff_limit(p, k)
                diff3 = abs(series_coeff(p, k, 10 ** 3) / Fraction(10 ** 3) ** p - limit)
                diff4 = abs(series_coeff(p, k, 10 ** 4) / Fraction(10 ** 4) ** p - limit)
                assert diff4 <= diff3 / 9 + Fraction(1, 10 ** 12)
                assert diff4 <= Fraction(2 * p * p * (k + p), 10 ** 4) * limit + Fraction(1, 10 ** 12)


class TestClosedForms:
    def test_examples(self):
        assert _series_coeff_closed(2, 1) == Fraction(1, 3)
        assert _series_coeff_closed(1, 2) == 1
        assert _series_coeff_closed(0, 1) == 1

    def test_agree_with_partition_sums(self):
        assert check_closed_forms().passed


class TestBound:
    def test_example_values(self):
        bound = _series_coeff_bound(2, 1, 3)
        assert bound == Fraction(3 ** 2, 2) * Fraction(4, 3) ** 2 * 4 * Fraction(1, 6)
        assert bound >= abs(series_coeff(2, 1, 3)) == 2
        assert series_coeff(2, 1, 1) == 0
        assert _series_coeff_bound(2, 1, 1) >= 0
        assert _series_coeff_bound(6, 2, 4) >= abs(series_coeff(6, 2, 4))

    def test_matches_fraction_form(self):
        for p in range(2, 41):
            for k in range(1, 7):
                for n in (1, 2, 5, 25, 400):
                    assert _series_coeff_bound(p, k, n) == fraction_coeff_bound(p, k, n)

    def test_dominates_coefficients(self):
        assert check_coeff_bounds().passed


class TestBinomialResidual:
    def test_examples(self):
        for n in range(1, 9):
            assert _binomial_residual(1, n, coeff_vector(1, n, 1)) == 0
        assert _binomial_residual(1, 5, coeff_vector(2, 5, 1)) == 0
        assert _binomial_residual(3, 4, coeff_vector(2, 4, 3)) == 0
        # c_1 = n at k = 1, so 1 - c_1 / n vanishes and a wrong c_1 does not
        assert _binomial_residual(1, 3, (1, 3)) == 0
        assert _binomial_residual(1, 3, (1, 4)) == Fraction(-1, 3)

    def test_vanishes_on_admissible_range(self):
        assert check_binomial_residuals().passed

    def test_matches_fraction_form(self):
        # Engine vectors, where the residual vanishes, and vectors where it does not.
        for two_h in (1, 3, 5, 7):
            for n in range(1, 11):
                vectors = [coeff_vector(k, n, two_h) for k in (1, 2, 3, 4)]
                vectors += [[Fraction(p * p - n, p + 2 * n) for p in range(m)] for m in (0, 1, two_h, two_h + 3)]
                vectors.append([3, -1, 4, 1, -5, 9, 2, 6][: two_h + 1])
                for coeffs in vectors:
                    assert _binomial_residual(two_h, n, coeffs) == fraction_binomial_residual(two_h, n, coeffs)


class TestHookContentSum:
    def test_examples(self):
        assert _hook_content_sum(2, 1) == Fraction(1, 2)
        assert _hook_content_sum(0, 3) == 1
        assert _hook_content_sum(3, 2) == Fraction(4, 3)

    def test_matches_sum_over_every_partition(self):
        for p in range(21):
            for k in range(1, 8):
                assert _hook_content_sum(p, k) == hook_content_all_parts(p, k)

    def test_closed_value(self):
        assert check_hook_content_sums().passed


class TestAppendixSums:
    def test_alternating_binomial_examples(self):
        assert alternating_binomial_sum(5, 2) == 1
        assert alternating_binomial_sum(1, 0) == 1
        assert alternating_binomial_sum(7, 4) == 1

    def test_alternating_binomial_is_one(self):
        for p in range(1, 26):
            for n in range(p):
                assert alternating_binomial_sum(p, n) == 1

    def test_alternating_binomial_rejects(self):
        with pytest.raises(ValueError):
            alternating_binomial_sum(3, 3)
        with pytest.raises(ValueError):
            alternating_binomial_sum(3, -1)

    def test_two_row_examples(self):
        assert two_row_partition_sum(0) == Fraction(1, 6)
        assert two_row_partition_sum(1) == Fraction(1, 12)
        assert two_row_partition_sum(4) == Fraction(2 * comb(12, 4), factorial(6) * factorial(7))

    def test_two_row_closed_form(self):
        for p in range(26):
            expected = Fraction(2 * comb(2 * p + 4, p), factorial(p + 2) * factorial(p + 3))
            assert two_row_partition_sum(p) == expected
