import math
import re
import warnings

import numpy as np
import pytest

from _haar import haar_v_values
from cue_moments import oracles
from cue_moments.moments import keating_snaith, moment_half_h, moment_integer_h
from cue_moments.oracles import (
    MCEstimate,
    QuadratureError,
    _draw_verblunsky,
    _szego_at_one,
    closed_form_moment_integral,
    mc_moment,
    quad_moment_integral,
)

SEED = 2026
RETRY_SEED = 2027


def exact_moment_float(n, two_h, k):
    if two_h == 0:
        return float(keating_snaith(n, k))
    if two_h % 2 == 0:
        return float(moment_integer_h(n, two_h // 2, k))
    return moment_half_h(n, two_h, k).to_float()


def assert_within_sigma(n, two_h, k, trials=200_000):
    """3-sigma check with the one permitted retry at 4 sigma."""
    exact = exact_moment_float(n, two_h, k)
    est = mc_moment(n, two_h, k, trials, SEED)
    if abs(est.mean - exact) <= 3 * est.stderr:
        return est
    est = mc_moment(n, two_h, k, trials, RETRY_SEED)
    assert abs(est.mean - exact) <= 4 * est.stderr
    return est


def polynomial_from_verblunsky(alpha):
    """Coefficients of Phi_n, highest degree first, by Szegő's recursion on polynomials."""
    phi = np.array([1.0 + 0j])
    for a in alpha:
        # Phi*_j is Phi_j with its coefficients conjugated and reversed.
        rev = np.conj(phi[::-1])
        phi = np.append(phi, 0) - np.conj(a) * np.insert(rev, 0, 0)
    return phi


def fixed_alphas(n, shift):
    """Deterministic Verblunsky coefficients: n - 1 inside the disk, the last on the circle."""
    inner = [(0.15 + 0.7 * ((j + shift) % 5) / 5) * np.exp(1j * (1.0 + 2.3 * j + shift)) for j in range(n - 1)]
    return np.array(inner + [np.exp(1j * (0.4 + 0.9 * n + shift))])


class TestSzegoRecursion:
    def test_examples(self):
        # n = 1: Phi_1(z) = z - conj(alpha_0), one eigenphase at angle(conj(alpha_0)).
        abs_v, abs_vp = _szego_at_one(np.array([-1.0 + 0j]))  # theta = pi
        assert abs_v == pytest.approx(2.0, rel=1e-15)
        assert abs_vp == pytest.approx(0.0, abs=1e-15)
        abs_v, abs_vp = _szego_at_one(np.array([-1j]))  # theta = pi/2
        assert abs_v == pytest.approx(math.sqrt(2), rel=1e-14)
        assert abs_vp == pytest.approx(math.sqrt(2) / 2, rel=1e-14)

    def test_matches_eigenphase_formulas(self):
        for n in range(1, 7):
            for shift in range(4):
                alpha = fixed_alphas(n, shift)
                roots = np.roots(polynomial_from_verblunsky(alpha))
                assert np.allclose(np.abs(roots), 1.0, atol=1e-12)
                half = np.angle(roots) / 2.0
                expected_v = np.prod(2.0 * np.abs(np.sin(half)))
                expected_vp = expected_v * abs(np.sum(np.cos(half) / np.sin(half))) / 2.0
                abs_v, abs_vp = _szego_at_one(alpha)
                assert abs(abs_v - expected_v) <= 1e-10 * expected_v
                assert abs(abs_vp - expected_vp) <= 1e-10 * expected_vp

    def test_batch_rows_match_batches_of_one(self):
        alpha = np.stack([fixed_alphas(5, shift) for shift in range(4)])
        abs_v, abs_vp = _szego_at_one(alpha)
        for row in range(4):
            single_v, single_vp = _szego_at_one(alpha[row : row + 1])
            assert abs_v[row] == single_v[0] and abs_vp[row] == single_vp[0]

    def test_pole_is_non_finite(self):
        # alpha_0 = 1 puts the eigenvalue at z = 1 exactly, where cot(theta/2) has its pole.
        abs_v, abs_vp = _szego_at_one(np.array([1.0 + 0j]))
        assert abs_v == 0.0
        assert not np.isfinite(abs_vp)


def ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate((x, y))
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


KS_DRAWS = 20_000
KS_SEED = 1109
KS_REFERENCE_SEED = 227
# Asymptotic two-sample critical value at significance 1e-4: sqrt(-ln(alpha/2)/2) sqrt(2/m).
KS_CRITICAL = math.sqrt(-math.log(1e-4 / 2) / 2) * math.sqrt(2 / KS_DRAWS)


class TestDistribution:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_matches_qr_haar_reference(self, n):
        abs_v, abs_vp = _szego_at_one(_draw_verblunsky(n, KS_SEED, 0, KS_DRAWS))
        ref_v, ref_vp = haar_v_values(n, KS_DRAWS, KS_REFERENCE_SEED)
        assert ks_statistic(abs_v, ref_v) <= KS_CRITICAL
        assert ks_statistic(abs_vp, ref_vp) <= KS_CRITICAL


class TestMCMoment:
    def test_seed_determinism_and_batch_independence(self):
        a = mc_moment(2, 1, 1, 500, 99)
        b = mc_moment(2, 1, 1, 500, 99)
        assert a == b
        assert isinstance(a, MCEstimate)
        assert a.stderr > 0

    def test_different_seeds_differ(self):
        a = mc_moment(2, 1, 1, 500, 1)
        b = mc_moment(2, 1, 1, 500, 2)
        assert a.mean != b.mean

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_moment(2, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            mc_moment(2, 5, 1, 100, 0)
        with pytest.raises(ValueError):
            mc_moment(0, 1, 1, 100, 0)
        with pytest.raises(ValueError):
            mc_moment(2, 1, 1, 100, -1)
        with pytest.raises(ValueError):
            mc_moment(2, 1, 1, 100, 2 ** 64)

    def test_seed_range_ends(self):
        assert mc_moment(2, 1, 1, 100, 0).stderr > 0
        assert mc_moment(2, 1, 1, 100, 2 ** 64 - 1).stderr > 0

    def test_non_finite_samples_are_left_out_and_counted(self, monkeypatch):
        # alpha = 1 puts the eigenvalue at z = 1: |V| = 0 and |V'| is non-finite.
        # Otherwise trial t has the one eigenphase theta = -(1 + t).
        def draws(n, seed, start, count):
            t = np.arange(start, start + count)
            return np.where(t % 3 == 0, 1.0, np.exp(1j * (1.0 + t)))[:, None]
        monkeypatch.setattr(oracles, "_draw_verblunsky", draws)
        est = mc_moment(1, 1, 1, 30, 0)
        half = np.array([(1.0 + t) / 2 for t in range(30) if t % 3])
        abs_v = 2 * np.abs(np.sin(half))
        finite = abs_v * abs_v * np.abs(np.cos(half) / np.sin(half)) / 2
        assert est.redraws == 10
        assert est.mean == pytest.approx(np.mean(finite), rel=1e-12)
        assert est.stderr == pytest.approx(np.std(finite, ddof=1) / math.sqrt(20), rel=1e-10)

    def test_too_few_finite_samples_raise(self, monkeypatch):
        monkeypatch.setattr(oracles, "_draw_verblunsky", lambda n, seed, start, count: np.ones((count, 1), complex))
        with pytest.raises(ArithmeticError):
            mc_moment(1, 1, 1, 10, 0)

    def test_batch_memory_is_capped_at_large_n(self, monkeypatch):
        # Each trial draws about 2n doubles: at n = 1000 a batch holds
        # 2^21 // 1000 = 2097 trials, not 4096, so one draw stays under 2^22 doubles.
        shapes = []

        def spy(n, seed, start, count):
            alpha = _draw_verblunsky(n, seed, start, count)
            shapes.append((count, 4 * -(-(2 * n - 1) // 4)))
            return alpha
        monkeypatch.setattr(oracles, "_draw_verblunsky", spy)
        est = mc_moment(1000, 2, 1, 2500, 7)
        assert [count for count, _ in shapes] == [2097, 403]
        assert all(count * width <= 2 ** 22 for count, width in shapes)
        assert est.trials == 2500 and est.stderr > 0

    def test_trial_windows_are_independent_of_the_batch(self):
        whole = _draw_verblunsky(4, 5, 0, 10)
        assert np.array_equal(_draw_verblunsky(4, 5, 3, 7), whole[3:])
        assert np.array_equal(_draw_verblunsky(4, 5, 9, 1), whole[9:])

    def test_verblunsky_moduli(self):
        alpha = _draw_verblunsky(3, 11, 0, 2000)
        assert np.all(np.abs(alpha[:, :-1]) < 1.0)
        assert np.allclose(np.abs(alpha[:, -1]), 1.0)
        # |alpha_0|^2 ~ Beta(1, 2) has mean 1/3; |alpha_1|^2 ~ Beta(1, 1) has mean 1/2.
        means = np.mean(np.abs(alpha[:, :-1]) ** 2, axis=0)
        assert abs(means[0] - 1 / 3) < 0.03 and abs(means[1] - 1 / 2) < 0.03

    def test_simple_second_moment(self):
        # E|1 - e^(i theta)|^2 = 2 for a uniform phase
        est = mc_moment(1, 0, 1, 20_000, SEED)
        assert abs(est.mean - 2.0) <= 4 * est.stderr

    @pytest.mark.parametrize(
        "config",
        [(1, 2, 1), (3, 0, 1), (3, 2, 1), (3, 1, 1), (5, 1, 1), (4, 1, 2), (4, 3, 2)],
    )
    def test_matches_exact_moments(self, config):
        assert_within_sigma(*config)


class TestQuadrature:
    def test_size_one_examples(self):
        assert quad_moment_integral(1, 1.0, 1, 1e-8) == pytest.approx(math.pi / math.e, abs=1e-6)
        assert quad_moment_integral(1, 0.0, 1, 1e-8) == pytest.approx(math.pi / 2, abs=1e-6)

    def test_size_two_zeta_zero(self):
        for k in (1, 2):
            expected = math.pi ** 2 * 2 * 2.0 ** (-2 * (2 * k + 1)) * float(keating_snaith(2, k))
            assert quad_moment_integral(k, 0.0, 2, 1e-8) == pytest.approx(expected, abs=1e-6)

    def test_against_closed_form_grid(self):
        for k, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for zeta in (0.0, 0.5, 1.0, 3.0):
                value = quad_moment_integral(k, zeta, n, 1e-8)
                closed = closed_form_moment_integral(k, zeta, n)
                assert abs(value - closed) <= 1e-6
        # Cells an earlier rule missed by 2.1e-8 and 5.7e-9 at tol 1e-9.
        for k, n, zeta in ((3, 1, 3.5), (1, 1, 3.5)):
            value = quad_moment_integral(k, zeta, n, 1e-9)
            assert abs(value - closed_form_moment_integral(k, zeta, n)) <= 1e-9
        # At large k a contour at height 1/2 would cancel terms of size
        # (4/3)^(n+k) and miss tol; the lower saddle height keeps it.
        value = quad_moment_integral(50, 0.0, 1, 1e-9)
        assert abs(value - closed_form_moment_integral(50, 0.0, 1)) <= 1e-9

    def test_even_in_zeta(self):
        for n in (2, 3):
            for zeta in (0.5, 1.0, 3.0):
                plus = quad_moment_integral(1, zeta, n, 1e-8)
                minus = quad_moment_integral(1, -zeta, n, 1e-8)
                assert abs(plus - minus) <= 2e-8

    def test_budget_failure_reported(self, monkeypatch):
        monkeypatch.setattr(oracles, "_QUAD_MAX_NODES", 40)
        with pytest.raises(QuadratureError, match="at the cap of 40 trapezoid nodes"):
            quad_moment_integral(1, 1.0, 1, 1e-10)

    def test_depth_cap_is_an_error(self):
        # No refinement depth certifies these: the rounding floor alone exceeds
        # tol 1e-300, and resolving e^(i zeta x) at zeta = 1e300 needs more
        # nodes than the cap.
        for zeta, tol in ((1.0, 1e-300), (1e300, 1e-8)):
            with pytest.raises(QuadratureError, match="error bound .* exceeds tol"):
                quad_moment_integral(1, zeta, 1, tol)

    def test_overflowing_powers_are_kept_out_of_the_bound(self):
        # (1 + x^2)^(n+k) overflowed at the outer nodes, so the bound read nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as info:
                quad_moment_integral(4, 150.0, 5, 1e-300)
        bound = re.match(r"quadrature error bound (\S+) exceeds tol", str(info.value)).group(1)
        assert math.isfinite(float(bound))

    def test_matches_closed_form_all_orders(self):
        # Includes (k, n, zeta) = (3, 2, 0), where an earlier rule stopped on an
        # accidental agreement and gave 0.224893.  At tol 1e-15 the bound may
        # not be met, but a returned value must still be within tol.
        for k in range(1, 5):
            for n in range(1, oracles.QUAD_N_MAX + 1):
                for zeta in (0.0, 1 / 3, 1.0, 3.5, 10.0, 30.0, -2.0):
                    closed = closed_form_moment_integral(k, zeta, n)
                    for tol in (1e-8, 1e-10):
                        assert abs(quad_moment_integral(k, zeta, n, tol) - closed) <= tol
                    try:
                        assert abs(quad_moment_integral(k, zeta, n, 1e-15) - closed) <= 1e-15
                    except QuadratureError:
                        pass

    def test_closed_form_does_not_underflow_before_its_value(self):
        # Values from the exact rational times pi^n n! 2^-(n+2k-1)n e^-n|zeta| in
        # 50-digit decimals.  The float prefactor alone is subnormal (5, 5, 140)
        # or zero (10, 5, 150) at these cells.
        assert closed_form_moment_integral(5, 140.0, 5) == pytest.approx(5.03238080339871e-276, rel=1e-14, abs=0)
        assert closed_form_moment_integral(10, 150.0, 5) == pytest.approx(3.36949015462162e-274, rel=1e-12, abs=0)
        # Here n|zeta| - j ln 2 rounds to -7.2e16, not to about 708; the value is still 0.
        assert closed_form_moment_integral(1, 4.7612265610968e32, 1) == 0.0

    def test_closed_form_does_not_overflow_before_its_value(self):
        # The exact polynomial alone exceeds the float range here; the value
        # underflows to 0.
        assert closed_form_moment_integral(2, 1e200, 1) == 0.0
        assert closed_form_moment_integral(1, 1e200, 2) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            quad_moment_integral(1, float("nan"), 1, 1e-8)
        with pytest.raises(ValueError):
            quad_moment_integral(1, float("inf"), 2, 1e-8)
        with pytest.raises(ValueError):
            quad_moment_integral(1, 1.0, oracles.QUAD_N_MAX + 1, 1e-8)
        with pytest.raises(ValueError):
            quad_moment_integral(0, 1.0, 1, 1e-8)
        with pytest.raises(ValueError):
            quad_moment_integral(1, 1.0, 1, 0.0)
        with pytest.raises(ValueError, match="tol"):
            quad_moment_integral(1, 1.0, 1, float("inf"))
