"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they complete).
"""

import math
import time
from fractions import Fraction

from cue_moments.moments import exact_moment, limit_moment_half_h
from cue_moments.oracles import closed_form_moment_integral, mc_moment, quad_moment_integral
from cue_moments.verification import check_half_moment_closed_form, check_three_route_identity, run_all_checks

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
    result = check_half_moment_closed_form()
    elapsed = time.perf_counter() - start
    report(
        4,
        result.passed and elapsed < 10.0,
        f"exact_moment(n, 1, 1) equals the elementary closed form exactly for n = 1..50 "
        f"({result.checks} checks), runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_5_three_route_identity():
    start = time.perf_counter()
    result = check_three_route_identity()
    elapsed = time.perf_counter() - start
    report(
        5,
        result.passed and elapsed < 60.0,
        f"Wronskian = Hankel = series = engine exactly on the k <= 4, n <= 8, 4-zeta grid "
        f"({result.checks} checks), runtime {elapsed:.2f}s < 60s",
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
    results = run_all_checks()
    failed = [r.name for r in results if not r.passed]
    report(
        8,
        not failed,
        f"all {len(results)} exact identity suites hold on their stated ranges "
        f"({sum(r.checks for r in results)} checks), failed: {failed or 'none'}",
    )


def test_criterion_9_scaling():
    limit = limit_moment_half_h(1, 1, 1e-12).value
    gap_10 = abs(float(exact_moment(10, 1, 1)) / 10 ** 2 - limit)
    gap_80 = abs(float(exact_moment(80, 1, 1)) / 80 ** 2 - limit)
    report(
        9,
        gap_80 < gap_10,
        f"scaled half moment gap shrinks: {gap_80:.2e} at n=80 < {gap_10:.2e} at n=10",
    )
