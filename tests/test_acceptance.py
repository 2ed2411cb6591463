"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they complete).
"""

import math
import time
from fractions import Fraction

from cue_moments.coefficients import (
    binomial_residual,
    coeff_vector,
    hook_content_sum,
    series_coeff,
    series_coeff_bound,
    series_coeff_closed,
    series_coeff_limit,
)
from cue_moments.moments import exact_moment, half_moment_k1_closed, limit_moment_half_h, moment_half_h
from cue_moments.oracles import closed_form_moment_integral, mc_moment, quad_moment_integral
from cue_moments.partitions import hook_product, partitions_of, pochhammer, transpose
from cue_moments.specfun import moment_gen_engine, moment_gen_hankel, moment_gen_series, moment_gen_wronskian

from _brute import alternating_binomial_sum, two_row_partition_sum

MC_SEED = 2026
MC_RETRY_SEED = 2027


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {status} criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_k1_half_limit():
    start = time.perf_counter()
    result = limit_moment_half_h(1, 1, 1e-12)
    elapsed = time.perf_counter() - start
    target = (math.e ** 2 - 5) / (4 * math.pi)
    error = abs(result.value - target)
    report(
        1,
        error <= 1e-10 and elapsed < 1.0,
        f"limit(two_h=1, k=1) = {result.value:.12f}, |error| = {error:.2e} <= 1e-10, "
        f"runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_2_k2_half_limits():
    start = time.perf_counter()
    first = limit_moment_half_h(1, 2, 1e-8)
    elapsed_first = time.perf_counter() - start
    start = time.perf_counter()
    second = limit_moment_half_h(3, 2, 1e-8)
    elapsed_second = time.perf_counter() - start
    ok = (
        abs(first.value - 0.00815) <= 5e-6
        and abs(second.value - 0.000354) <= 5e-7
        and elapsed_first < 5.0
        and elapsed_second < 5.0
    )
    report(
        2,
        ok,
        f"limit(1,2) = {first.value:.6f} -> 0.00815, limit(3,2) = {second.value:.7f} -> 0.000354, "
        f"runtimes {elapsed_first:.3f}s/{elapsed_second:.3f}s < 5s",
    )


def test_criterion_3_integer_limits_exact():
    values = (
        exact_moment(None, 2, 1),
        exact_moment(None, 2, 2),
        exact_moment(None, 4, 2),
    )
    expected = (Fraction(1, 12), Fraction(1, 720), Fraction(1, 6720))
    report(3, values == expected, f"integer-h limits {values} == (1/12, 1/720, 1/6720) exactly")


def test_criterion_4_half_moment_closed_form():
    start = time.perf_counter()
    ok = all(moment_half_h(n, 1, 1) == half_moment_k1_closed(n) for n in range(1, 51))
    elapsed = time.perf_counter() - start
    report(
        4,
        ok and elapsed < 10.0,
        f"moment_half_h(n,1,1) equals the elementary closed form exactly for n = 1..50, "
        f"runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_5_three_route_identity():
    start = time.perf_counter()
    zetas = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2))
    checks = 0
    ok = True
    for k in range(1, 5):
        for n in range(1, 9):
            for z in zetas:
                w = moment_gen_wronskian(k, n, z)
                ok = ok and w == moment_gen_hankel(k, n, z) == moment_gen_series(k, n, z) == moment_gen_engine(k, n, z)
                checks += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        ok and elapsed < 60.0,
        f"Wronskian = Hankel = series = engine exactly on {checks} cells (k <= 4, n <= 8, 4 zetas), "
        f"runtime {elapsed:.2f}s < 60s",
    )


def test_criterion_6_quadrature():
    start = time.perf_counter()
    pie = quad_moment_integral(1, 1.0, 1, 1e-8)
    ok = abs(pie - math.pi / math.e) <= 1e-6
    worst = abs(pie - math.pi / math.e)
    for k, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for zeta in (0.0, 0.5, 1.0, 3.0):
            diff = abs(
                quad_moment_integral(k, zeta, n, 1e-8) - closed_form_moment_integral(k, zeta, n)
            )
            worst = max(worst, diff)
            ok = ok and diff <= 1e-6
    elapsed = time.perf_counter() - start
    report(
        6,
        ok and elapsed < 120.0,
        f"quadrature matches pi/e and the closed form on the (k, n) grid, "
        f"worst |diff| = {worst:.2e} <= 1e-6, runtime {elapsed:.2f}s < 120s",
    )


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    details = []
    ok = True
    for n, two_h, k in ((3, 0, 1), (3, 2, 1), (5, 1, 1), (4, 1, 2)):
        exact = float(exact_moment(n, two_h, k))
        estimate = mc_moment(n, two_h, k, 200_000, MC_SEED)
        z = (estimate.mean - exact) / estimate.stderr
        if abs(z) > 3.0:  # one retry at 4 sigma permitted
            estimate = mc_moment(n, two_h, k, 200_000, MC_RETRY_SEED)
            z = (estimate.mean - exact) / estimate.stderr
            ok = ok and abs(z) <= 4.0
        details.append(f"({n},{two_h},{k}) z={z:+.2f}")
    elapsed = time.perf_counter() - start
    report(
        7,
        ok and elapsed < 300.0,
        f"Monte Carlo within 3 sigma of exact: {', '.join(details)}, "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_8_identity_suites():
    ok = True

    for two_h in (1, 3, 5):
        for k in (1, 2, 3):
            if two_h > 2 * k:
                continue
            for n in range(1, 11):
                ok = ok and binomial_residual(two_h, n, coeff_vector(k, n, two_h)) == 0
                ok = ok and binomial_residual(two_h, n, [series_coeff(p, k, n) for p in range(two_h + 1)]) == 0

    for p in range(21):
        for k in (1, 2, 3, 4):
            ok = ok and hook_content_sum(p, k) == Fraction(k ** p, math.factorial(p))

    for w in range(13):
        for lam in partitions_of(w, max(w, 1)):
            lam_t = transpose(lam)
            ok = ok and hook_product(lam_t) == hook_product(lam)
            for b in (-3, -1, Fraction(1, 2), 2):
                ok = ok and pochhammer(b, lam_t) == (-1) ** w * pochhammer(-b, lam)

    for p in range(1, 26):
        for n in range(p):
            ok = ok and alternating_binomial_sum(p, n) == 1

    for p in range(26):
        expected = Fraction(2 * math.comb(2 * p + 4, p), math.factorial(p + 2) * math.factorial(p + 3))
        ok = ok and two_row_partition_sum(p) == expected

    for p in range(2, 21):
        for k in (1, 2, 3):
            for n in (1, 5, 25):
                ok = ok and abs(series_coeff(p, k, n)) <= series_coeff_bound(p, k, n)

    for p in range(31):
        for k in (1, 2):
            ok = ok and series_coeff_limit(p, k) == series_coeff_closed(p, k)

    report(8, ok, "all exact identity suites hold on their stated ranges")


def test_criterion_9_scaling():
    limit = limit_moment_half_h(1, 1, 1e-12).value
    gap_10 = abs(float(moment_half_h(10, 1, 1)) / 10 ** 2 - limit)
    gap_80 = abs(float(moment_half_h(80, 1, 1)) / 80 ** 2 - limit)
    report(
        9,
        gap_80 < gap_10,
        f"scaled half moment gap shrinks: {gap_80:.2e} at n=80 < {gap_10:.2e} at n=10",
    )
