import math
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from cue_moments import coefficients, moments
from cue_moments.coefficients import coeff_numerators, coeff_vector, series_coeff_limit
from cue_moments.moments import (
    ExactScalar,
    MomentOrder,
    _recombine,
    exact_moment,
    half_moment_k1_closed,
    keating_snaith,
    limit_moment_half_h,
    limit_moment_zero,
    moment_half_h,
    moment_integer_h,
)
from cue_moments.specfun import moment_gen_series

from _brute import fraction_recombine, keating_snaith_running_product, nearest_float_over_pi, one_shot_coeff_numerators


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

    def test_non_integer_arguments_are_refused(self):
        for two_h, k in ((1.5, 1), (2, 1.0), (Fraction(1), 1), (2, "1")):
            with pytest.raises(ValueError, match="must be integers"):
                MomentOrder(two_h, k)


class TestExactScalar:
    def test_rendering(self):
        assert str(ExactScalar(Fraction(3, 4))) == "3/(4*pi)"
        assert str(ExactScalar(Fraction(2))) == "2/pi"
        assert str(ExactScalar(Fraction(248, 27))) == "248/(27*pi)"
        assert str(ExactScalar(Fraction(-5, 3))) == "-5/(3*pi)"

    def test_to_float(self):
        assert float(ExactScalar(Fraction(1, 2))) == nearest_float_over_pi(Fraction(1, 2))
        assert float(ExactScalar(Fraction(2))) == pytest.approx(2 / math.pi, rel=1e-15)
        # float(q) / pi rounds twice and misses the nearest float here
        q = moment_half_h(2, 1, 1).q
        assert float(q) / math.pi != nearest_float_over_pi(q) == float(ExactScalar(q))
        for n in range(1, 13):
            for k in range(1, 5):
                for two_h in range(1, 2 * k + 1, 2):
                    q = moment_half_h(n, two_h, k).q
                    assert float(ExactScalar(q)) == nearest_float_over_pi(q)
        for q in (Fraction(1, 10 ** 320), Fraction(-3, 7 * 10 ** 310), Fraction(int(sys.float_info.max) * 3)):
            assert float(ExactScalar(q)) == nearest_float_over_pi(q)

    def test_to_float_beyond_the_float_range_raises(self):
        assert float(ExactScalar(Fraction(1, 10 ** 400))) == 0.0
        for q in (Fraction(10 ** 400), Fraction(-(10 ** 309) * 4)):
            with pytest.raises(OverflowError):
                float(ExactScalar(q))

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

    def test_rejects_bad_arguments(self):
        # (0, 1) twice: a raise is never cached.
        for n, k in ((0, 1), (1, 0), (0, 1)):
            with pytest.raises(ValueError):
                keating_snaith(n, k)
        with pytest.raises(ValueError):
            limit_moment_zero(0)


class TestIntegerMoments:
    def test_cubic_formula_k1(self):
        for n in range(1, 11):
            assert moment_integer_h(n, 1, 1) == Fraction(n * (n + 1) * (n + 2), 12)
        assert moment_integer_h(1, 1, 1) == Fraction(1, 2)
        assert moment_integer_h(2, 1, 1) == 2

    def test_two_h_zero_recombines_to_the_zeroth_moment(self):
        for k in range(1, 5):
            for n in range(1, 9):
                assert _recombine(0, n, keating_snaith(n, k), coeff_numerators(k, n, 0)) == keating_snaith(n, k)
            assert _recombine(0, 1, limit_moment_zero(k), coeff_numerators(k, None, 0)) == limit_moment_zero(k)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            moment_integer_h(3, 2, 1)
        with pytest.raises(ValueError):
            moment_integer_h(3, 0, 1)


class TestArguments:
    def test_a_non_integer_argument_leaves_every_state_usable(self):
        # A float equals its int as a cache key; a half-built state under (1, 2.0)
        # once made every later call at (1, 2) raise TypeError.
        coefficients._condensation.cache_clear()
        keating_snaith.cache_clear()
        for call, args in ((coeff_numerators, (1, 2.0, 2)), (coeff_numerators, (1.0, 2, 2)),
                           (coeff_numerators, (1, 2, 2.0)), (coeff_numerators, (2, None, 3.0)),
                           (exact_moment, (2.0, 2, 1)), (exact_moment, (3, 1.0, 1)), (exact_moment, (3, 2, 1.0))):
            with pytest.raises(ValueError):
                call(*args)
        assert coeff_numerators(1, 2, 2) == (3, 6, 4) == one_shot_coeff_numerators(1, 2, 2)
        assert exact_moment(2, 2, 1) == 2 == Fraction(2 * 3 * 4, 12)
        assert exact_moment(3, 1, 1) == half_moment_k1_closed(3)
        assert coeff_vector(2, None, 3) == tuple(series_coeff_limit(p, 2) for p in range(4))

    def test_a_non_positive_moment_is_a_wrong_engine(self, monkeypatch):
        recombine = moments._recombine
        for wrong in (lambda *args: -recombine(*args), lambda *args: 0 * recombine(*args)):
            monkeypatch.setattr(moments, "_recombine", wrong)
            for n, two_h, k in ((3, 2, 1), (3, 1, 1), (None, 4, 2)):
                with pytest.raises(ArithmeticError, match="not positive: wrong engine"):
                    exact_moment(n, two_h, k)
            # two_h = 0 is the zeroth moment, a product of factorials: no recombination.
            assert exact_moment(3, 0, 2) == keating_snaith(3, 2)


class TestHalfMoments:
    def test_smallest_case(self):
        value = moment_half_h(1, 1, 1)
        assert value == ExactScalar(Fraction(2))

    def test_n_two(self):
        assert moment_half_h(2, 1, 1).q == 5

    def test_rejects_even_or_inadmissible(self):
        with pytest.raises(ValueError):
            moment_half_h(3, 2, 1)
        with pytest.raises(ValueError):
            moment_half_h(3, 5, 2)
        with pytest.raises(ValueError):
            half_moment_k1_closed(0)
        # The half-integer limit is a truncated series, not an exact moment.
        for two_h, k in ((1, 1), (3, 2)):
            with pytest.raises(ValueError, match="limit_moment_half_h"):
                exact_moment(None, two_h, k)

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
        for k in range(1, 4):
            assert exact_moment(None, 0, k) == limit_moment_zero(k)

    def test_integer_limits(self):
        assert exact_moment(None, 2, 1) == Fraction(1, 12)
        assert exact_moment(None, 2, 2) == Fraction(1, 720)
        assert exact_moment(None, 4, 2) == Fraction(1, 6720)

    def test_integer_limit_matches_scaled_cubic(self):
        # n(n+1)(n+2)/12 scaled by n^3 has limit 1/12, the degree-3 coefficient
        cubic_leading = Fraction(1, 12)
        assert exact_moment(None, 2, 1) == cubic_leading

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

    def test_half_limit_error_within_tail_bound_within_tol(self):
        # Reference: the Fraction recombination over twice the terms the limit used.
        cells = [(two_h, k, tol) for k in range(1, 6) for two_h in range(1, 2 * k + 1, 2)
                 for tol in (1e-4, 1e-8, 1e-12)]
        for two_h, k, tol in cells + [(11, 6, 1e-12)]:
            result = limit_moment_half_h(two_h, k, tol)
            coeffs = coeff_vector(k, None, 2 * (two_h + result.terms_used))
            reference = float(ExactScalar(fraction_recombine(two_h, 1, limit_moment_zero(k), coeffs)))
            assert abs(result.value - reference) <= result.tail_bound <= tol, (two_h, k, tol)

    def test_a_tail_bound_below_the_least_float_is_that_float_not_zero(self):
        # 201 terms leave an exact positive bound whose nearest float is 0.0.
        result = limit_moment_half_h(1, 1, 5e-324)
        assert result.terms_used == 201
        assert result.tail_bound == 5e-324

    def test_half_limit_rejects(self):
        with pytest.raises(ValueError):
            limit_moment_half_h(2, 1, 1e-8)
        with pytest.raises(ValueError):
            limit_moment_half_h(5, 2, 1e-8)
        with pytest.raises(ValueError):
            limit_moment_half_h(1, 1, 0.0)

    def test_half_limit_stops_a_wrong_engine_instead_of_hanging(self, monkeypatch):
        # h_p = p! makes every c_p = 1, so the terms grow and the stopping rule never holds.
        factorials = tuple(map(math.factorial, range(1000)))
        engine = moments.coeff_numerators
        monkeypatch.setattr(moments, "coeff_numerators",
                            lambda k, n, P: factorials[: P + 1] if n is None else engine(k, n, P))
        start = time.perf_counter()
        for two_h, k, tol in ((1, 1, 1e-12), (1, 8, 1e-12), (13, 7, 1e-12), (1, 1, 1e-300)):
            with pytest.raises(ArithmeticError, match="did not settle"):
                limit_moment_half_h(two_h, k, tol)
        assert time.perf_counter() - start < 5.0

    def test_a_tail_bound_not_below_the_value_raises(self):
        # These stopping rules hold where twice the last term still covers |value|:
        # (23, 12) printed -4.57e-173 where a 100-term sum gives +1.470e-176.
        for two_h, k, tol in ((15, 9, 1e-3), (19, 10, 1e-12), (23, 12, 1e-12)):
            with pytest.raises(ArithmeticError, match="sign is uncertain"):
                limit_moment_half_h(two_h, k, tol)
        result = limit_moment_half_h(13, 7, 1e-12)
        assert 0 < result.tail_bound < result.value

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
