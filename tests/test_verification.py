"""``verify`` watches the coefficient engine that every printed value uses."""

import csv
import io
import json
import sys

from cue_moments import coefficients, moments, specfun
from cue_moments.cli import main
from cue_moments.verification import _half_limit_weight, run_all_checks

from _brute import fraction_half_limit_weight

SUITES = {
    "transpose-identities": 1360,
    "hook-content-sums": 84,
    "vanishing-residuals": 120,
    "coefficient-bounds": 171,
    "closed-form-coefficients": 62,
    "three-route-identity": 384,
    "coefficient-engine": 40,
    "half-moment-closed-form": 50,
    "half-limit-tail-bound": 18,
}


def test_suites_and_check_counts():
    for cached in (coefficients.series_coeff, coefficients.series_coeff_limit, coefficients._weight):
        cached.cache_clear()
    results = run_all_checks()
    assert {r.name: r.checks for r in results} == SUITES
    assert all(r.passed for r in results)
    # n never enters the key: every n and the limit share the weight of (lam, k)
    assert coefficients._weight.cache_info().currsize == 1483


def test_half_limit_weights_match_their_fraction_form():
    for two_h in (1, 3, 5, 7):
        for p in range(46):
            weight = _half_limit_weight(p, two_h)
            assert type(weight) is int and weight == fraction_half_limit_weight(p, two_h)


def patch_engine(monkeypatch, wrong):
    """Give every package module that imported the engine by name the wrong one."""
    engine = coefficients.coeff_numerators
    patched = [name for name, module in sys.modules.items()
               if name.startswith("cue_moments") and getattr(module, "coeff_numerators", None) is engine]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "coeff_numerators", wrong)
    assert {"cue_moments.coefficients", "cue_moments.moments", "cue_moments.specfun"} <= set(patched)


def test_an_engine_off_by_one_in_h1_fails_verify(monkeypatch, capsys):
    # A clean pass first fills every cache, so none of them may hide the wrong engine.
    assert all(r.passed for r in run_all_checks())
    engine = coefficients.coeff_numerators

    def wrong(k, n, P):
        h = engine(k, n, P)
        return h[:1] + (h[1] + 1,) + h[2:] if len(h) > 1 else h

    patch_engine(monkeypatch, wrong)

    failed = {r.name for r in run_all_checks() if not r.passed}
    assert {"three-route-identity", "vanishing-residuals", "coefficient-engine"} <= failed
    assert main(["verify"]) == 1
    assert "FAILURES detected" in capsys.readouterr().out


def test_a_wronskian_with_parameter_k_in_every_column_fails_only_the_route_identity(monkeypatch):
    # Column j of the Wronskian route has parameter k + j; the Hankel columns all share 2k - 1.
    determinant = specfun._laguerre_det
    monkeypatch.setattr(specfun, "_laguerre_det", lambda n, alphas, t: determinant(n, [alphas[0]] * len(alphas), t))
    assert {r.name for r in run_all_checks() if not r.passed} == {"three-route-identity"}


def test_a_quotient_times_pi_fails_verify_through_the_floats_it_compares(monkeypatch):
    # The floats verify compares come from the quotient that prints the digits.
    to_decimal = moments.to_decimal

    def times_pi(value):
        if isinstance(value, moments.ExactScalar):
            return moments.DECIMAL_CONTEXT.multiply(to_decimal(value.q), moments.DECIMAL_PI)
        return to_decimal(value)

    monkeypatch.setattr(moments, "to_decimal", times_pi)
    assert {r.name for r in run_all_checks() if not r.passed} == {"half-limit-tail-bound"}
    assert main(["verify"]) == 1


def test_a_raising_engine_fails_its_suites_and_the_rest_still_run(monkeypatch, capsys):
    def raising(k, n, P):
        raise ArithmeticError("inexact quotient in the Hankel condensation")

    patch_engine(monkeypatch, raising)
    results = run_all_checks()
    assert [r.name for r in results] == list(SUITES)
    error = "ArithmeticError: inexact quotient in the Hankel condensation"
    raised = {"vanishing-residuals", "three-route-identity", "coefficient-engine", "half-moment-closed-form",
              "half-limit-tail-bound"}
    for r in results:
        assert (r.error, r.passed) == ((error, False) if r.name in raised else (None, True))
        if r.name not in raised:
            assert r.checks == SUITES[r.name]

    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(SUITES) + 1 and lines[-1].startswith("FAILURES detected")
    assert "FAIL coefficient-engine (raised ArithmeticError: inexact quotient in the Hankel condensation" \
        " after 0 checks, 0 failed)" in lines
    assert "PASS transpose-identities (1360 checks)" in lines

    assert main(["verify", "--format", "json"]) == 1
    suites = json.loads(capsys.readouterr().out)["result"]["suites"]
    assert {s["name"]: s["error"] for s in suites if s["error"]} == dict.fromkeys(raised, error)
    assert main(["verify", "--format", "csv"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["name"] for row in rows if row["error"]] == [r.name for r in results if r.error]
