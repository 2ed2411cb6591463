from fractions import Fraction
from math import comb, factorial

import pytest

from cue_moments.moments import keating_snaith
from cue_moments.specfun import (
    _scaled_laguerre,
    moment_gen_engine,
    moment_gen_hankel,
    moment_gen_series,
    moment_gen_wronskian,
)

from _brute import fraction_derivative, fraction_horner, lagrange_interpolate, laguerre_terms

ZETAS = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2))


def laguerre(n, alpha):
    """The routes' kernel m! L_m^(alpha), divided by n!: the Laguerre coefficients."""
    return tuple(Fraction(c, factorial(n)) for c in _scaled_laguerre(n, alpha))


class TestLaguerre:
    def test_degree_zero_is_constant_one(self):
        for alpha in (0, 1, 5):
            assert laguerre(0, alpha) == (Fraction(1),)

    def test_small_examples(self):
        assert laguerre(1, 1) == (Fraction(2), Fraction(-1))
        assert laguerre(2, 3) == (Fraction(10), Fraction(-5), Fraction(1, 2))

    def test_coefficient_formula_and_leading_term(self):
        for n in range(9):
            for alpha in (-n, -1, 0, 2, 5):
                if n + alpha < 0:
                    continue
                poly = laguerre(n, alpha)
                assert len(poly) == n + 1
                assert poly[n] == Fraction((-1) ** n, factorial(n))
                for j, c in enumerate(poly):
                    assert c == Fraction((-1) ** j * comb(n + alpha, n - j), factorial(j))

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            _scaled_laguerre(-1, 3)
        with pytest.raises(ValueError):
            _scaled_laguerre(2, -3)

    def test_eval_examples(self):
        assert fraction_horner(laguerre(1, 1), -2) == 4
        assert fraction_horner(laguerre(2, 3), 2) == 2
        for n in range(6):
            for alpha in (0, 1, 4):
                assert fraction_horner(laguerre(n, alpha), 0) == comb(n + alpha, n)


class TestLaguerreIdentities:
    def test_derivative_lowers_degree_and_raises_parameter(self):
        # The determinant routes rest on d^j/dt^j L_m^(alpha) = (-1)^j L_(m-j)^(alpha+j).
        for m in range(13):
            for alpha in range(13):
                derived = laguerre_terms(m, alpha)
                for j in range(m + 1):
                    assert derived == [(-1) ** j * c for c in laguerre_terms(m - j, alpha + j)], (m, alpha, j)
                    derived = fraction_derivative(derived)

    def test_three_term_parameter_recurrence(self):
        for n in range(1, 13):
            for alpha in (0, 1, 2, 5):
                left = laguerre(n, alpha - 1)
                lower = laguerre(n - 1, alpha)
                combined = list(left)
                for j, c in enumerate(lower):
                    combined[j] += c
                assert tuple(combined) == laguerre(n, alpha)


class TestMomentGen:
    def test_zeta_zero_equals_zeroth_moment(self):
        for k in range(1, 5):
            for n in range(1, 9):
                assert moment_gen_series(k, n, 0) == moment_gen_engine(k, n, 0) == keating_snaith(n, k)
        assert moment_gen_wronskian(1, 3, 0) == 4
        assert moment_gen_hankel(2, 1, 0) == 6

    def test_small_series_example(self):
        assert moment_gen_series(1, 1, 1) == 4

    def test_two_by_two_wronskian_example(self):
        # W(L_1^(2), L_2^(2))(-2 zeta), sign (-1)^1: 6 + 6 zeta + 2 zeta^2
        for z in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(7, 3)):
            assert moment_gen_wronskian(2, 1, z) == 6 + 6 * z + 2 * z * z

    def test_hankel_matches_wronskian_spot_checks(self):
        assert moment_gen_hankel(3, 2, Fraction(1, 2)) == moment_gen_wronskian(3, 2, Fraction(1, 2))
        assert moment_gen_hankel(1, 5, Fraction(2, 7)) == moment_gen_wronskian(1, 5, Fraction(2, 7))

    def test_three_route_identity(self):
        for k in range(1, 4):
            for n in range(1, 5):
                for z in ZETAS:
                    w = moment_gen_wronskian(k, n, z)
                    assert w == moment_gen_hankel(k, n, z)
                    assert w == moment_gen_series(k, n, z)
                    assert w == moment_gen_engine(k, n, z)

    def test_positive_on_nonnegative_zeta(self):
        for k in range(1, 4):
            for n in range(1, 5):
                for z in ZETAS:
                    assert moment_gen_wronskian(k, n, z) > 0

    def test_rejects_negative_zeta(self):
        with pytest.raises(ValueError):
            moment_gen_series(1, 1, Fraction(-1, 2))
        with pytest.raises(ValueError):
            moment_gen_wronskian(1, 1, -1)
        with pytest.raises(ValueError):
            moment_gen_engine(1, 1, -1)
        # The routes share one argument check, which also refuses k < 1 and n < 1.
        for route, args in ((moment_gen_hankel, (0, 1, 1)), (moment_gen_series, (1, 0, 1))):
            with pytest.raises(ValueError, match="need k >= 1 and n >= 1"):
                route(*args)

    def test_polynomial_of_bounded_degree(self):
        # k*n + 1 samples determine the whole function: interpolation
        # reproduces it exactly at fresh rational points
        for k, n in ((1, 2), (2, 2), (2, 3)):
            degree = k * n
            points = [
                (Fraction(i), moment_gen_wronskian(k, n, Fraction(i)))
                for i in range(degree + 1)
            ]
            for fresh in (Fraction(degree + 1), Fraction(1, 7), Fraction(19, 4)):
                interpolated = lagrange_interpolate(points, fresh)
                assert interpolated == moment_gen_wronskian(k, n, fresh)
