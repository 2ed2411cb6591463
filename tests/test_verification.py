"""``verify`` watches the coefficient engine that every printed value uses."""

import sys

from cue_moments import coefficients
from cue_moments.cli import main
from cue_moments.verification import run_all_checks

SUITES = {
    "transpose-identities": 1360,
    "hook-content-sums": 84,
    "vanishing-residuals": 120,
    "coefficient-bounds": 171,
    "closed-form-coefficients": 62,
    "three-route-identity": 384,
    "coefficient-engine": 36,
    "half-moment-closed-form": 50,
}


def test_suites_and_check_counts():
    results = run_all_checks()
    assert {r.name: r.checks for r in results} == SUITES
    assert all(r.passed for r in results)


def test_an_engine_off_by_one_in_h1_fails_verify(monkeypatch, capsys):
    engine = coefficients.coeff_numerators

    def wrong(k, n, P):
        h = engine(k, n, P)
        return h[:1] + (h[1] + 1,) + h[2:] if len(h) > 1 else h

    # Every package module that imported the engine by name gets the wrong one.
    patched = [name for name, module in sys.modules.items()
               if name.startswith("cue_moments") and getattr(module, "coeff_numerators", None) is engine]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "coeff_numerators", wrong)
    assert {"cue_moments.coefficients", "cue_moments.moments", "cue_moments.specfun"} <= set(patched)

    failed = {r.name for r in run_all_checks() if not r.passed}
    assert {"three-route-identity", "vanishing-residuals", "coefficient-engine"} <= failed
    assert main(["verify"]) == 1
    assert "FAILURES detected" in capsys.readouterr().out
