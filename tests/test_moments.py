import math
import sys
from fractions import Fraction
from math import comb

import pytest

from cue_moments.coefficients import coeff_vector, limit_coeff_vector
from cue_moments.moments import (
    ExactScalar,
    MomentOrder,
    _recombine,
    half_moment_k1_closed,
    keating_snaith,
    limit_moment_half_h,
    limit_moment_integer_h,
    limit_moment_zero,
    moment_half_h,
    moment_integer_h,
)
from cue_moments.specfun import moment_gen_series

from _brute import keating_snaith_running_product


class TestMomentOrder:
    def test_admissible(self):
        MomentOrder(0, 1)
        MomentOrder(1, 1)
        MomentOrder(3, 2)
        MomentOrder(4, 2)

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            MomentOrder(3, 1)
        with pytest.raises(ValueError):
            MomentOrder(5, 2)
        with pytest.raises(ValueError):
            MomentOrder(-1, 1)
        with pytest.raises(ValueError):
            MomentOrder(0, 0)


class TestExactScalar:
    def test_rendering(self):
        assert str(ExactScalar(Fraction(3, 4))) == "3/(4*pi)"
        assert str(ExactScalar(Fraction(2))) == "2/pi"
        assert str(ExactScalar(Fraction(248, 27))) == "248/(27*pi)"
        assert str(ExactScalar(Fraction(-5, 3))) == "-5/(3*pi)"

    def test_to_float(self):
        assert ExactScalar(Fraction(1, 2)).to_float() == 0.5 / math.pi
        assert ExactScalar(Fraction(2)).to_float() == pytest.approx(2 / math.pi, rel=1e-15)

    def test_digits_beyond_the_int_to_str_limit_leave_the_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the int-to-str digit limit must not be changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        assert str(ExactScalar(Fraction(10 ** 5000 + 1, 3))) == "1" + "0" * 4999 + "1/(3*pi)"


class TestKeatingSnaith:
    def test_k_one_telescopes(self):
        for n in range(1, 11):
            assert keating_snaith(n, 1) == n + 1

    def test_size_one_is_central_binomial(self):
        for k in range(1, 7):
            assert keating_snaith(1, k) == comb(2 * k, k)
        assert keating_snaith(1, 2) == 6

    def test_matches_running_product_over_j_up_to_n(self):
        for k in range(1, 9):
            for n in range(1, 41):
                assert keating_snaith(n, k) == keating_snaith_running_product(n, k)

    def test_agrees_with_series_route(self):
        for k in range(1, 5):
            for n in range(1, 9):
                assert keating_snaith(n, k) == moment_gen_series(k, n, 0)


class TestIntegerMoments:
    def test_cubic_formula_k1(self):
        for n in range(1, 11):
            assert moment_integer_h(n, 1, 1) == Fraction(n * (n + 1) * (n + 2), 12)
        assert moment_integer_h(1, 1, 1) == Fraction(1, 2)
        assert moment_integer_h(2, 1, 1) == 2

    def test_two_h_zero_recombines_to_the_zeroth_moment(self):
        for k in range(1, 5):
            for n in range(1, 9):
                assert _recombine(0, n, keating_snaith(n, k), coeff_vector(k, n, 0)) == keating_snaith(n, k)
            assert _recombine(0, 1, limit_moment_zero(k), limit_coeff_vector(k, 0)) == limit_moment_zero(k)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            moment_integer_h(3, 2, 1)
        with pytest.raises(ValueError):
            moment_integer_h(3, 0, 1)


class TestHalfMoments:
    def test_smallest_case(self):
        value = moment_half_h(1, 1, 1)
        assert value == ExactScalar(Fraction(2))

    def test_n_two(self):
        assert moment_half_h(2, 1, 1).q == 5

    def test_matches_elementary_closed_form(self):
        for n in range(1, 51):
            assert moment_half_h(n, 1, 1) == half_moment_k1_closed(n)

    def test_rejects_even_or_inadmissible(self):
        with pytest.raises(ValueError):
            moment_half_h(3, 2, 1)
        with pytest.raises(ValueError):
            moment_half_h(3, 5, 2)

    def test_closed_form_examples(self):
        assert half_moment_k1_closed(1).q == 2
        assert half_moment_k1_closed(2).q == 5
        assert half_moment_k1_closed(3).q == Fraction(248, 27)

    def test_positivity_of_admissible_moments(self):
        for n in range(1, 13):
            for k in range(1, 4):
                for two_h in range(0, 6):
                    if 2 * k + 1 <= two_h:
                        continue
                    if two_h == 0:
                        assert keating_snaith(n, k) > 0
                    elif two_h % 2 == 0:
                        assert moment_integer_h(n, two_h // 2, k) > 0
                    else:
                        assert moment_half_h(n, two_h, k).q > 0


class TestLimits:
    def test_zeroth_limits(self):
        assert limit_moment_zero(1) == 1
        assert limit_moment_zero(2) == Fraction(1, 12)
        assert limit_moment_zero(3) == Fraction(1, 8640)

    def test_integer_limits(self):
        assert limit_moment_integer_h(1, 1) == Fraction(1, 12)
        assert limit_moment_integer_h(1, 2) == Fraction(1, 720)
        assert limit_moment_integer_h(2, 2) == Fraction(1, 6720)

    def test_integer_limit_matches_scaled_cubic(self):
        # n(n+1)(n+2)/12 scaled by n^3 has limit 1/12, the degree-3 coefficient
        cubic_leading = Fraction(1, 12)
        assert limit_moment_integer_h(1, 1) == cubic_leading

    def test_half_limit_k1(self):
        result = limit_moment_half_h(1, 1, 1e-12)
        target = (math.e ** 2 - 5) / (4 * math.pi)
        assert abs(result.value - target) <= 1e-10
        assert result.tail_bound <= 1e-12
        assert result.terms_used > 0

    def test_half_limit_k2_values(self):
        assert limit_moment_half_h(1, 2, 1e-8).value == pytest.approx(0.00815, abs=5e-6)
        assert limit_moment_half_h(3, 2, 1e-8).value == pytest.approx(0.000354, abs=5e-7)

    def test_half_limit_k3_runs(self):
        result = limit_moment_half_h(1, 3, 1e-10)
        assert result.value > 0
        assert result.tail_bound <= 1e-10

    def test_half_limit_rejects(self):
        with pytest.raises(ValueError):
            limit_moment_half_h(2, 1, 1e-8)
        with pytest.raises(ValueError):
            limit_moment_half_h(5, 2, 1e-8)
        with pytest.raises(ValueError):
            limit_moment_half_h(1, 1, 0.0)

    def test_series_tail_reproduces_k1_limit(self):
        # summing the closed-form tail terms directly gives (e^2-5)/(4 pi)
        total = 0.0
        p = 2
        while True:
            term = 2.0 ** p * math.factorial(p - 2) / (math.factorial(p) * math.factorial(p + 1))
            total += term
            if term < 1e-13:
                break
            p += 1
        target = (math.e ** 2 - 5) / (4 * math.pi)
        assert abs((1 - total) / math.pi - target) <= 1e-12


class TestScaling:
    def test_half_moment_converges_at_one_over_n(self):
        limit = limit_moment_half_h(1, 1, 1e-12).value
        gap_10 = abs(moment_half_h(10, 1, 1).to_float() / 10 ** 2 - limit)
        gap_80 = abs(moment_half_h(80, 1, 1).to_float() / 80 ** 2 - limit)
        assert gap_80 < gap_10
