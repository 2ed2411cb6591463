"""Exact identity suites used by the CLI ``verify`` command.

Each suite runs an identity that must hold exactly in rational arithmetic,
or, for the half-integer limit, a bound that must hold, and reports how
many cases were checked and how many failed.  A correct build fails
nowhere.  Every suite checks the code that computes printed values
against an independent oracle, or checks an oracle that such a suite
relies on: the engine's coefficients meet the partition sums
(``coefficient-engine``, ``vanishing-residuals``), its reduced polynomial
meets the Wronskian, Hankel and series routes (``three-route-identity``),
the moments meet a closed form (``half-moment-closed-form``), and the
half-integer limit lies within its tail bound of an exact sum of
closed forms (``half-limit-tail-bound``); the partition sums in turn
meet the hook, transpose, bound and closed-form identities.

The kernels of those identities live here and nowhere else, each an
integer sum reduced to one Fraction: :func:`_series_coeff_closed`, the
closed-form limit coefficients of k in {1, 2};
:func:`_series_coeff_bound`, the bound on |series_coeff|;
:func:`_binomial_residual`, the alternating binomial sum that vanishes
for odd two_h <= 2k; :func:`_hook_content_sum`, the sum of [k] / h^2
over the partitions of at most k parts, the only ones with [k]_lam
nonzero; and :func:`_half_limit_weight`, the paper's weights of the
half-integer limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Callable, Iterable, Sequence

from .coefficients import clear_denominators, coeff_vector, series_coeff, series_coeff_limit
from .moments import ExactScalar, exact_moment, half_moment_k1_closed, limit_moment_half_h, limit_moment_zero
from .partitions import hook_product, partitions_of, pochhammer, transpose
from .specfun import moment_gen_engine, moment_gen_hankel, moment_gen_series, moment_gen_wronskian


@dataclass(frozen=True)
class CheckResult:
    """One suite's outcome; ``error`` names the exception that stopped the suite, if one did."""

    name: str
    checks: int
    failures: int
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.error is None


def _run(name: str, cases: Iterable[bool]) -> CheckResult:
    # Every suite hands over a lazy iterable, so all of its work runs here: a
    # case that raises ends this suite with a failed result, not the others.
    checks = 0
    failures = 0
    try:
        for ok in cases:
            checks += 1
            if not ok:
                failures += 1
    except Exception as exc:
        return CheckResult(name, checks, failures, f"{type(exc).__name__}: {exc}")
    return CheckResult(name=name, checks=checks, failures=failures)


def _series_coeff_closed(p: int, k: int) -> Fraction:
    """Closed form of the limiting coefficient ``series_coeff_limit(p, k)``, for k in {1, 2} only."""
    if k == 1:
        return Fraction(2 ** p, factorial(p) * factorial(p + 1))
    return Fraction(
        12 * factorial(2 * p + 4) * 2 ** p,
        factorial(p) * factorial(p + 2) * factorial(p + 3) * factorial(p + 4),
    )


def _series_coeff_bound(p: int, k: int, n: int) -> Fraction:
    """Upper bound for |series_coeff(p, k, n)|, valid for p >= 2.

    Equals (n^p / p!) (1 + k/n)^p (2k)^p (2k-1)! / (2k - 1 + floor(p/k))!,
    formed as the one Fraction (2k (n + k))^p / (p! perm(2k - 1 + q, q)),
    q = floor(p/k).
    """
    q = p // k
    return Fraction((2 * k * (n + k)) ** p, factorial(p) * perm(2 * k - 1 + q, q))


def _binomial_residual(two_h: int, n: int, coeffs: Sequence[Fraction]) -> Fraction:
    """Alternating binomial-weighted sum of the size-n coefficients c_p = ``coeffs[p]``, p <= two_h.

    The sum of C(two_h, p) p! c_p / (-n)^p, taken as integers over the one
    denominator d n^two_h, d the least common denominator of the c_p.
    Identically zero for odd two_h <= 2k, so running it on the engine's
    vector and on the partition sums checks both; entries beyond the
    vector, past p = kn, are zero.
    """
    ints, d = clear_denominators(coeffs[: two_h + 1])
    total = sum((-1) ** p * perm(two_h, p) * n ** (two_h - p) * x for p, x in enumerate(ints))
    return Fraction(total, d * n ** two_h)


def _hook_content_sum(p: int, k: int) -> Fraction:
    """Sum of [k] / h^2 over all partitions of p; equals k^p / p!.

    [k]_lam is 0 past k parts, so only the partitions of at most k parts
    are summed, as integers: the sum of [k] f^2 with f = p!/h, over (p!)^2.
    """
    fp = factorial(p)
    total = sum(pochhammer(k, lam) * (fp // hook_product(lam)) ** 2 for lam in partitions_of(p, k))
    return Fraction(total, fp * fp)


def check_transpose_identities() -> CheckResult:
    """hook(lam') = hook(lam) and [b]_lam' = (-1)^|lam| [-b]_lam for every lam with |lam| <= 12."""
    bases = [(b, -b) for b in (-3, -1, Fraction(1, 2), 2)]
    def cases():
        for w in range(13):
            for lam in partitions_of(w, max(w, 1)):
                lam_t = transpose(lam)
                yield hook_product(lam_t) == hook_product(lam)
                for b, minus_b in bases:
                    value = pochhammer(minus_b, lam)
                    yield pochhammer(b, lam_t) == (-value if w % 2 else value)
    return _run("transpose-identities", cases())


def check_hook_content_sums() -> CheckResult:
    return _run(
        "hook-content-sums",
        (
            _hook_content_sum(p, k) == Fraction(k ** p, factorial(p))
            for p in range(21)
            for k in range(1, 5)
        ),
    )


def check_binomial_residuals() -> CheckResult:
    def cases():
        for two_h in (1, 3, 5):
            for k in (1, 2, 3):
                if two_h > 2 * k:
                    continue
                for n in range(1, 11):
                    yield _binomial_residual(two_h, n, coeff_vector(k, n, two_h)) == 0
                    yield _binomial_residual(two_h, n, [series_coeff(p, k, n) for p in range(two_h + 1)]) == 0
    return _run("vanishing-residuals", cases())


def check_coeff_bounds() -> CheckResult:
    return _run(
        "coefficient-bounds",
        (
            abs(series_coeff(p, k, n)) <= _series_coeff_bound(p, k, n)
            for p in range(2, 21)
            for k in range(1, 4)
            for n in (1, 5, 25)
        ),
    )


def check_closed_forms() -> CheckResult:
    return _run(
        "closed-form-coefficients",
        (
            series_coeff_limit(p, k) == _series_coeff_closed(p, k)
            for p in range(31)
            for k in (1, 2)
        ),
    )


def check_three_route_identity() -> CheckResult:
    def cases():
        for k in range(1, 5):
            for n in range(1, 9):
                for z in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2)):
                    w = moment_gen_wronskian(k, n, z)
                    yield w == moment_gen_hankel(k, n, z)
                    yield w == moment_gen_series(k, n, z)
                    yield w == moment_gen_engine(k, n, z)
    return _run("three-route-identity", cases())


def check_coefficient_engine() -> CheckResult:
    """The determinant engine against the partition sums, one check per coefficient vector.

    The one limit state is asked, k by k, for P = 10 and then P = 20, so in
    a fresh process each request rescales the levels earlier ones stored:
    the second by a longer f, and the next order's first by a deeper level
    as well.  Each finite state, one per n + k - 1, serves the orders that
    share it.
    """
    def cases():
        for k in range(1, 5):
            for n in range(1, 9):
                yield coeff_vector(k, n, k * n) == tuple(series_coeff(p, k, n) for p in range(k * n + 1))
            for P in (10, 20):
                yield coeff_vector(k, None, P) == tuple(series_coeff_limit(p, k) for p in range(P + 1))
    return _run("coefficient-engine", cases())


def check_half_moment_closed_form() -> CheckResult:
    return _run(
        "half-moment-closed-form",
        (exact_moment(n, 1, 1) == half_moment_k1_closed(n) for n in range(1, 51)),
    )


def _half_limit_weight(p: int, two_h: int) -> int:
    """The paper's closed-form weight of c_p in the half-integer limit (odd two_h, n = 1), an integer.

    Past two_h it is two_h! (p - two_h - 1)!; up to it, p! (-1)^(two_h - p)
    times the sum over 1 <= l <= p of (-1)^l C(two_h, p - l) / l, whose
    terms p!/l are integers.
    """
    if p > two_h:
        return factorial(two_h) * factorial(p - two_h - 1)
    fp = factorial(p)
    inner = sum((-1) ** l * comb(two_h, p - l) * (fp // l) for l in range(1, p + 1))
    return -inner if (two_h - p) % 2 else inner


def check_half_limit_tail_bound() -> CheckResult:
    """The half-integer limit within its tail bound of an exact sum, and that bound within tol.

    The reference sums closed forms only: the integer weights of
    :func:`_half_limit_weight` times c_0..c_45 of :func:`_series_coeff_closed`
    (k <= 2), as integers over the coefficients' least common denominator;
    its terms past p = 45 are below 1e-80.
    """
    def cases():
        for two_h, k in ((1, 1), (1, 2), (3, 2)):
            prefactor = Fraction(2 * (-1) ** ((two_h + 1) // 2), 2 ** two_h) * limit_moment_zero(k)
            ints, d = clear_denominators([_series_coeff_closed(p, k) for p in range(46)])
            inner = sum(_half_limit_weight(p, two_h) * x for p, x in enumerate(ints))
            reference = float(ExactScalar(prefactor * Fraction(inner, d)))
            for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
                result = limit_moment_half_h(two_h, k, tol)
                yield abs(result.value - reference) <= result.tail_bound <= tol
    return _run("half-limit-tail-bound", cases())


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_transpose_identities,
    check_hook_content_sums,
    check_binomial_residuals,
    check_coeff_bounds,
    check_closed_forms,
    check_three_route_identity,
    check_coefficient_engine,
    check_half_moment_closed_form,
    check_half_limit_tail_bound,
)


def run_all_checks() -> list[CheckResult]:
    """Run every exact identity suite and collect the results.

    A suite that raises comes back failed, carrying the error, and the rest still run.
    """
    return [check() for check in ALL_CHECKS]
