import argparse
import ast
import csv
import io
import json
import math
import os
import pathlib
import random
import stat
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import cue_moments
from cue_moments import cli, moments, oracles
from cue_moments.cli import _COMMANDS, _command_parser, _decimal, _json, _read, build_parser, format_exact, main
from cue_moments.moments import DECIMAL_PI, ExactScalar, LimitResult, MomentOrder, exact_moment, keating_snaith

from _brute import decimal_15g, decimal_digits, decimal_in_localcontext
from make_golden import COMMANDS, FORMATS


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error or --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_rational_serialization(self):
        assert format_exact(Fraction(3, 10)) == "3/10"
        assert format_exact(Fraction(5)) == "5/1"
        assert format_exact(ExactScalar(Fraction(2))) == "2/pi"

    def test_exact_digits_leave_the_int_to_str_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the int-to-str digit limit must not be changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        q = keating_snaith(3000, 50)
        want = f"{decimal_digits(q.numerator)}/{decimal_digits(q.denominator)}"
        assert len(want) > 4300
        assert format_exact(q) == want

    def test_decimal_beyond_float_range(self):
        assert _decimal(Fraction(15, 10) * 10 ** 400) == "1.5e+400"
        assert _decimal(Fraction(-10 ** 400)) == "-1e+400"
        assert _decimal(Fraction(2, 3) / 10 ** 330) == "6.66666666666667e-331"
        # 10^400 / pi = 3.183098861837906715...e399
        assert _decimal(ExactScalar(Fraction(10 ** 400))) == "3.18309886183791e+399"

    def test_decimal_is_the_exact_value_rounded_once(self):
        for q in (Fraction(1, 3), Fraction(10 ** 300, 7), Fraction(3, 10 ** 300), Fraction(0)):
            assert _decimal(q) == decimal_15g(q)
            assert _decimal(ExactScalar(q)) == decimal_15g(q, over_pi=True)
        for k in range(1, 5):
            for two_h, n in product(range(2 * k + 1), range(1, 13)):
                exact = exact_moment(n, two_h, k)
                over_pi = isinstance(exact, ExactScalar)
                assert _decimal(exact) == decimal_15g(exact.q if over_pi else exact, over_pi), (n, two_h, k)
        # A float detour rounds the first four twice; the last is an exact tie, kept even.
        for cell, shown in [((9, 5, 3), "6060611.33734839"), ((12, 1, 2), "4310.69919244354"),
                            ((4, 7, 4), "75728.6291735738"), ((19, 8, 4), "4.86214584532719e+16"),
                            ((7, 8, 4), "651389684.257812")]:
            assert _decimal(exact_moment(*cell)) == shown, cell

    def test_decimal_rounds_as_in_a_fresh_localcontext(self):
        rng = random.Random(2901)

        def draw(bits):
            return rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, bits))

        sample = [Fraction(draw(400), draw(400) or 1) for _ in range(5000)]
        # Values near 10^-5, 10^-4, 10^14 and 10^15, where the layout switches between
        # fixed and exponent form, on either side of a rounding that carries.
        for e in (-5, -4, 14, 15):
            for x in (Fraction(10) ** e, 3 * Fraction(10) ** e,
                      Fraction(10) ** e * (1 - Fraction(5, 10 ** 16)), Fraction(10) ** e * (1 - Fraction(5, 10 ** 15))):
                sample += [x, -x, x * Fraction(DECIMAL_PI)]
        sample.append(Fraction(0))
        for q in sample:
            assert _decimal(q) == decimal_in_localcontext(q), q
            assert _decimal(ExactScalar(q)) == decimal_in_localcontext(ExactScalar(q)), q
        layouts = {decimal_in_localcontext(q).partition("e")[2] for q in sample}
        assert {"-05", "", "+15"} <= layouts


class TestMomentCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "moment", "--n", "1", "--two-h", "1", "--k", "1")
        assert code == 0
        assert "2/pi ≈ 0.636619772367581" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "moment", "--n", "4", "--two-h", "2", "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "moment"
        assert payload["inputs"] == {"n": 4, "two_h": 2, "k": 1}
        assert payload["exact"] == "10/1"
        # parsing back and re-serializing preserves the exact string exactly
        assert json.loads(json.dumps(payload))["exact"] == "10/1"
        assert Fraction(payload["exact"]) == 10

    def test_decimal_of_a_value_beyond_float_range(self, capsys):
        code, out, err = run_cli(capsys, "moment", "--n", "600", "--two-h", "0", "--k", "14", "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        exact = Fraction(payload["exact"])
        # 15 significant digits, rounded half up from the exact rational
        exponent = len(str(exact.numerator // exact.denominator)) - 1
        digits = (exact * Fraction(10) ** (15 - exponent) + 5) // 10
        mantissa = str(digits).rstrip("0")
        assert payload["result"]["decimal"] == f"{mantissa[0]}.{mantissa[1:]}e+{exponent}"

    def test_exact_string_beyond_the_int_to_str_digit_limit(self, capsys):
        q = keating_snaith(3000, 50)
        digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        want = f"{decimal_digits(q.numerator)}/{decimal_digits(q.denominator)}"
        assert len(want) > 4300
        argv = ["moment", "--n", "3000", "--two-h", "0", "--k", "50"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"moment n=3000 two_h=0 k=50: {want} ≈ ")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["exact"] == want
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[3] == want
        # the limit is never changed
        if digit_limit:
            assert sys.get_int_max_str_digits() == digit_limit

    def test_inadmissible_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "moment", "--n", "2", "--two-h", "5", "--k", "1")
        assert code == 1
        assert "inadmissible" in err
        # An admissible order at size 0 reaches the zeroth moment's own check.
        code, out, err = run_cli(capsys, "moment", "--n", "0", "--two-h", "0", "--k", "1")
        assert (code, out) == (1, "")
        assert err == "error: need n >= 1 and k >= 1, got (0, 1)\n"


class TestLimitCommand:
    def test_half_integer_limit(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--two-h", "1", "--k", "1", "--tol", "1e-12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["result"]["value"]) == pytest.approx(0.190115043734329, abs=1e-10)
        assert float(payload["result"]["tail_bound"]) <= 1e-12

    def test_an_underflowing_tail_bound_prints_the_least_float(self, capsys):
        # 201 terms leave an exact positive bound whose nearest float is 0.0.
        argv = ("limit", "--two-h", "1", "--k", "1", "--tol", "5e-324")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "(tail_bound 4.94e-324, 201 tail terms)" in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["result"]["tail_bound"] == "5e-324"

    def test_non_finite_tol_is_an_error(self, capsys):
        for two_h in ("1", "2"):
            for tol in ("inf", "nan"):
                code, out, err = run_cli(capsys, "limit", "--two-h", two_h, "--k", "1", "--tol", tol)
                assert code == 1
                assert out == ""
                assert err.startswith("error:") and "tol" in err and "finite" in err

    def test_tol_must_be_positive_for_every_two_h(self, capsys):
        for two_h in ("1", "2", "0"):
            for tol in ("-1", "0"):
                code, out, err = run_cli(capsys, "limit", "--two-h", two_h, "--k", "1", "--tol", tol)
                assert (code, out) == (1, "")
                assert err == f"error: tol must be a positive finite number, got {float(tol)}\n"

    @pytest.mark.parametrize("q", [17, 16])
    def test_a_negative_term_is_a_wrong_engine_not_a_number(self, capsys, monkeypatch, q):
        # At (two_h, k) = (1, 6) the stopping rule first reads t_17 and t_16.  A
        # correct engine's terms past two_h are positive; a negative c_q once
        # counted as settled and printed a negative tail_bound.
        engine = moments.coeff_numerators

        def negative(k, n, P):
            h = engine(k, n, P)
            return h[:q] + (-h[q],) + h[q + 1:] if n is None and P >= q else h
        monkeypatch.setattr(moments, "coeff_numerators", negative)
        for output_format in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, "limit", "--two-h", "1", "--k", "6", "--tol", "1e-12",
                                     "--format", output_format)
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.endswith("negative: wrong engine\n")

    def test_a_non_positive_limit_is_a_wrong_engine_not_a_number(self, capsys, monkeypatch):
        # Every CUE moment is positive, so a negated sum is a wrong engine, not a value to print.
        recombine = moments._recombine
        monkeypatch.setattr(moments, "_recombine", lambda *args: -recombine(*args))
        for output_format in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, "limit", "--two-h", "5", "--k", "4", "--tol", "1e-12",
                                     "--format", output_format)
            assert (code, out) == (1, "")
            assert err == "error: the limit after 32 terms is not positive: wrong engine\n"

    def test_a_non_positive_moment_is_a_wrong_engine_not_a_number(self, capsys, monkeypatch):
        # The per-request guard of exact_moment: a negated recombination exits 1, prints nothing.
        recombine = moments._recombine
        monkeypatch.setattr(moments, "_recombine", lambda *args: -recombine(*args))
        for argv in ("moment --n 3 --two-h 2 --k 1", "moment --n 3 --two-h 1 --k 2",
                     "limit --two-h 2 --k 2 --tol 1e-6", "table --n 1,2 --two-h 0,1 --k 1"):
            for output_format in ("text", "json", "csv"):
                code, out, err = run_cli(capsys, *argv.split(), "--format", output_format)
                assert (code, out) == (1, ""), argv
                assert err.startswith("error:") and err.endswith("is not positive: wrong engine\n"), argv

    def test_a_limit_below_the_float_range_prints_its_digits(self, capsys, monkeypatch):
        # The digits come from the exact sum, not from its float view, which is 0.0 here.
        result = LimitResult(exact=ExactScalar(Fraction(1, 10 ** 400)), tail_bound=5e-324, terms_used=3)
        assert result.value == 0.0
        monkeypatch.setattr(cli, "limit_moment_half_h", lambda two_h, k, tol: result)
        code, out, err = run_cli(capsys, "limit", "--two-h", "1", "--k", "1", "--tol", "1e-1")
        assert (code, err) == (0, "")
        assert out == "limit two_h=1 k=1: 3.18309886183791e-401 (tail_bound 4.94e-324, 3 tail terms)\n"
        code, out, err = run_cli(capsys, "limit", "--two-h", "1", "--k", "1", "--tol", "1e-1", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["value"] == "3.18309886183791e-401"

    def test_a_sign_uncertain_limit_is_an_error_not_a_number(self, capsys):
        code, out, err = run_cli(capsys, "limit", "--two-h", "19", "--k", "10", "--tol", "1e-12")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and err.endswith("its sign is uncertain\n")

    def test_even_limit_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--two-h", "2", "--k", "1", "--tol", "1e-10")
        assert code == 0
        assert "1/12" in out

    def test_inadmissible_even_order_is_reported_like_moment(self, capsys):
        code, out, err = run_cli(capsys, "limit", "--two-h", "4", "--k", "1", "--tol", "1e-8")
        assert (code, out) == (1, "")
        assert err == "error: inadmissible order: need 2k + 1 > two_h, got two_h=4, k=1\n"


class TestTableCommand:
    def test_row_count_and_inadmissible_marker(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "1,2,3", "--two-h", "0,1,3", "--k", "1", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert len(rows) == 9
        markers = [r for r in rows if r["exact"] == "inadmissible"]
        assert len(markers) == 3  # two_h = 3 with k = 1 for each n

    def test_marks_exactly_the_orders_moment_order_rejects(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "1", "--two-h", "0,1,2,3,4,5,6,7,8,9", "--k", "1,2,3,4", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert len(rows) == 40
        for row in rows:
            try:
                MomentOrder(row["two_h"], row["k"])
            except ValueError:
                assert row["exact"] == "inadmissible"
            else:
                assert row["exact"] != "inadmissible"

    @pytest.mark.parametrize(
        "lists",
        [
            ("--n", "0,2", "--two-h", "0", "--k", "1"),
            ("--n", "2", "--two-h", "0", "--k", "1,0"),
            # A leading minus must not make argparse read the list as an option.
            ("--n", "-1,2", "--two-h", "0", "--k", "1"),
            ("--n", "2", "--two-h", "-1,0", "--k", "1"),
            ("--n", "2", "--two-h", "0", "--k", "-1,1"),
        ],
    )
    def test_invalid_size_is_an_error_not_inadmissible(self, capsys, lists):
        code, out, err = run_cli(capsys, "table", *lists)
        assert (code, out) == (1, "")
        assert err == "error: command 'table' needs every n >= 1, two_h >= 0 and k >= 1\n"

    @pytest.mark.parametrize("values", ["1,,3", "1,", ",1"])
    def test_an_empty_item_in_a_list_is_a_usage_error(self, capsys, values):
        # Most likely a typo: the list is rejected, not read as the items that remain.
        code, out, err = run_cli(capsys, "table", "--n", values, "--two-h", "0", "--k", "1")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --n: expected comma-separated integers, got {values!r}\n")

    @pytest.mark.parametrize("values", [",", ""])
    def test_a_list_with_no_item_is_a_missing_list(self, capsys, values):
        code, out, err = run_cli(capsys, "table", "--n", values, "--two-h", "0", "--k", "1")
        assert (code, out, err) == (1, "", "error: command 'table' requires --n, --two-h and --k value lists\n")

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "1,2", "--two-h", "0,1", "--k", "1", "--format", "csv")
        assert code == 0
        records = list(csv.DictReader(io.StringIO(out)))
        assert len(records) == 4
        assert set(records[0]) == {"n", "two_h", "k", "exact", "value"}
        by_key = {(r["n"], r["two_h"]): r for r in records}
        assert by_key[("1", "1")]["exact"] == "2/pi"
        assert float(by_key[("2", "0")]["value"]) == 3.0


class TestMCCommand:
    def test_reports_z_score(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--n", "2", "--two-h", "0", "--k", "1",
            "--trials", "4000", "--seed", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "3/1"
        assert abs(float(payload["result"]["z_score"])) < 6
        assert payload["result"]["trials"] == 4000

    def test_out_of_memory_is_an_error_not_a_traceback(self, capsys, monkeypatch):
        def out_of_memory(n, seed, trials, batch):
            raise MemoryError("Unable to allocate 29.1 TiB for an array with shape (2, 2000000000000)")
        monkeypatch.setattr(oracles, "_verblunsky_batches", out_of_memory)
        code, out, err = run_cli(capsys, "mc", "--n", "1000000000000", "--two-h", "0", "--k", "1", "--trials", "2")
        assert code == 1
        assert out == ""
        assert err == "error: Unable to allocate 29.1 TiB for an array with shape (2, 2000000000000)\n"

    def test_exact_value_beyond_float_range_is_an_error_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("mc must not sample a moment it cannot compare")
        monkeypatch.setattr(oracles, "_verblunsky_batches", no_sampling)
        code, out, err = run_cli(capsys, "mc", "--n", "600", "--two-h", "2", "--k", "30", "--trials", "3495")
        assert code == 1
        assert out == ""
        assert err == "error: exact moment 4.33224890205212e+1235 is beyond the float range: mc cannot estimate it\n"

    def test_sampling_does_not_import_numpy_random(self):
        # Importing numpy.random (every bit generator, and hashlib through
        # secrets) once cost the first mc request of a process about 15 ms;
        # the stream needs nothing beyond numpy's core.  A fresh interpreter,
        # since this one may have imported it for other tests.
        program = ("import sys; from cue_moments.cli import main; "
                   "code = main(['mc', '--n', '3', '--two-h', '2', '--k', '1', '--trials', '2000']); "
                   "print('exit', code, 'numpy.random' in sys.modules)")
        src = str(pathlib.Path(cue_moments.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == "exit 0 False"

    def test_negative_seed_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "mc", "--n", "2", "--two-h", "0", "--k", "1", "--trials", "100", "--seed", "-1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "seed" in err

    def test_seed_of_two_to_the_64_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "mc", "--n", "2", "--two-h", "0", "--k", "1", "--trials", "100",
            "--seed", str(2 ** 64),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "seed" in err


class TestQuadCommand:
    def test_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "quad", "--k", "1", "--zeta", "1", "--n", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["result"]["abs_diff"]) <= 1e-6

    def test_non_finite_tol_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "quad", "--k", "1", "--zeta", "1", "--n", "1", "--tol", "inf")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "tol" in err

    def test_integral_within_tol_of_zero_is_marked_uncertified(self, capsys):
        # The closed form is 1.21e-169: the printed integral is quadrature noise.
        code, out, err = run_cli(capsys, "quad", "--k", "2", "--zeta", "400", "--n", "1")
        assert (code, err) == (0, "")
        value = oracles.quad_moment_integral(2, 400.0, 1, 1e-8)
        assert abs(value) <= 1e-8
        assert out.splitlines()[0] == (
            f"quad k=2 zeta=400.0 n=1: integral {value:.3g} (|integral| <= tol 1e-08: no digit certified)"
        )

    def test_negative_exponent_form_zeta_is_a_value(self, capsys):
        spaced = run_cli(capsys, "quad", "--k", "2", "--n", "1", "--zeta", "-1e-3")
        assert spaced == run_cli(capsys, "quad", "--k", "2", "--n", "1", "--zeta=-1e-3")
        assert spaced[0] == 0 and spaced[2] == ""
        assert run_cli(capsys, "quad", "--k", "2", "--n", "1", "--zeta", "-inf") == (
            1, "", "error: zeta must be finite, got -inf\n"
        )

    def test_uncertified_request_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "quad", "--k", "1", "--zeta", "1e300", "--n", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: quadrature error bound")


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert "all suites passed" in out


def usage(command: str = "") -> str:
    """The usage lines of HELP[command]: what a usage error prints before its message."""
    return HELP[command].split("\n\n")[0] + "\n"


class TestConfigHandling:
    @pytest.fixture(autouse=True)
    def width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_missing_required_flag_exits_nonzero(self, capsys):
        assert run_cli(capsys, "moment", "--n", "1", "--k", "1") == (
            2, "", usage("moment") + "cue-moments moment: error: the following arguments are required: --two-h\n")

    def test_unknown_command_rejected(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert (code, out) == (2, "")
        assert err.startswith(usage() + "cue-moments: error: argument command: invalid choice: 'frobnicate'")

    def test_no_command_rejected(self, capsys):
        assert run_cli(capsys) == (
            2, "", usage() + "cue-moments: error: the following arguments are required: command\n")

    def test_unrecognized_argument_shows_the_command_usage(self, capsys):
        # The command's own parser reads everything after the command word, so
        # its usage, not the top level's, comes with the error.
        assert run_cli(capsys, "moment", "--n", "3", "--two-h", "1", "--k", "2", "--bogus") == (
            2, "", usage("moment") + "cue-moments moment: error: unrecognized arguments: --bogus\n")

    def test_an_argv_not_led_by_a_command_reaches_only_the_top_level_parser(self, capsys):
        _command_parser.cache_clear()
        moment = ["moment", "--n", "1", "--two-h", "0", "--k", "1"]
        error = usage() + "cue-moments: error: "
        for argv, want in [
            ([], (2, "", error + "the following arguments are required: command\n")),
            (["--help"], (0, HELP[""], "")),
            (["frobnicate"], (2, "", error + "argument command: invalid choice: 'frobnicate'")),
            (["--format", "json", *moment], (2, "", error + "argument command: invalid choice: 'json'")),
            (["--format=json", "moment"], (2, "", error + "unrecognized arguments: --format=json\n")),
        ]:
            code, out, err = run_cli(capsys, *argv)
            # Python releases word the list of choices after an invalid choice differently.
            assert (code, out, err.partition(" (choose from ")[0]) == want, argv
        # Releases differ on a "--" before the command: 3.11.7 finds the invalid choice '--',
        # 3.13.13 the unrecognized arguments after "moment".  Each is a top-level usage error.
        code, out, err = run_cli(capsys, "--", *moment)
        assert (code, out, err.startswith(error)) == (2, "", True)
        assert _command_parser.cache_info().misses == 0

    def test_a_bare_command_from_the_top_level_parser_reads_no_arguments(self, capsys, monkeypatch):
        # An argparse that drops the "--" of ["--", "moment"] returns the bare command:
        # Python 3.13.13's does, 3.10.13, 3.11.7, 3.12.1 and 3.13.0 do not.
        monkeypatch.setattr(build_parser(), "parse_args", lambda argv: argparse.Namespace(command="moment"))
        assert run_cli(capsys, "--", "moment") == (
            2, "", usage("moment") + "cue-moments moment: error: the following arguments are required: --n, --two-h, --k\n")


# Help of the top level and of each subcommand at COLUMNS=80.
HELP = {
    "": """\
usage: cue-moments [-h] {moment,limit,table,mc,quad,verify} ...

Joint moments of CUE characteristic polynomials and their derivative, exactly.

positional arguments:
  {moment,limit,table,mc,quad,verify}
    moment              exact moment at finite matrix size
    limit               scaled large-size limit of a moment
    table               moments over an (n, 2h, k) grid
    mc                  Monte Carlo estimate over Haar-random unitaries
    quad                direct quadrature of the defining integral (n <= 5)
    verify              run every exact identity suite

options:
  -h, --help            show this help message and exit
""",
    "moment": """\
usage: cue-moments moment [-h] --n N --two-h TWO_H --k K
                          [--format {text,json,csv}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --n N
  --two-h TWO_H         2h (h may be half-integer)
  --k K
  --format {text,json,csv}
  --out PATH
""",
    "limit": """\
usage: cue-moments limit [-h] --two-h TWO_H --k K --tol TOL
                         [--format {text,json,csv}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --two-h TWO_H
  --k K
  --tol TOL
  --format {text,json,csv}
  --out PATH
""",
    "table": """\
usage: cue-moments table [-h] --n LIST --two-h LIST --k LIST
                         [--format {text,json,csv}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --n LIST
  --two-h LIST
  --k LIST
  --format {text,json,csv}
  --out PATH
""",
    "mc": """\
usage: cue-moments mc [-h] --n N --two-h TWO_H --k K --trials TRIALS
                      [--seed SEED] [--format {text,json,csv}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --n N
  --two-h TWO_H
  --k K
  --trials TRIALS
  --seed SEED
  --format {text,json,csv}
  --out PATH
""",
    "quad": """\
usage: cue-moments quad [-h] --k K [--zeta ZETA] --n N [--tol TOL]
                        [--format {text,json,csv}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --k K
  --zeta ZETA
  --n N
  --tol TOL
  --format {text,json,csv}
  --out PATH
""",
    "verify": """\
usage: cue-moments verify [-h] [--format {text,json,csv}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --format {text,json,csv}
  --out PATH
""",
}


class TestParserReuse:
    requests = (["moment", "--n", "3", "--two-h", "1", "--k", "2", "--format", "json"],
                ["limit", "--two-h", "1", "--k", "1", "--tol", "1e-10"])

    def test_reused_parser_carries_no_state(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        _command_parser.cache_clear()
        usage_error = ["moment", "--n", "1", "--k", "1"]
        size_error = ["table", "--n", "1", "--two-h", "-1,0", "--k", "1"]
        first = [run_cli(capsys, *argv) for argv in self.requests]
        assert [code for code, _, _ in first] == [0, 0]
        for disturbance in (usage_error, ["--help"], ["moment", "--help"], size_error):
            seen = run_cli(capsys, *disturbance)
            assert [run_cli(capsys, *argv) for argv in self.requests] == first
            assert run_cli(capsys, *disturbance) == seen
        assert run_cli(capsys, *usage_error)[0] == 2
        assert run_cli(capsys, "--help") == (0, HELP[""], "")
        assert run_cli(capsys, "moment", "--help") == (0, HELP["moment"], "")
        assert run_cli(capsys, *size_error) == (
            1, "", "error: command 'table' needs every n >= 1, two_h >= 0 and k >= 1\n")
        # One parser each for moment, limit and table, and the top level for --help.
        assert _command_parser.cache_info().misses == 3
        assert build_parser.cache_info().misses == 1

    def test_a_request_builds_only_the_parser_of_its_command(self, capsys):
        build_parser.cache_clear()
        _command_parser.cache_clear()
        for built, argv in enumerate(self.requests, start=1):
            assert run_cli(capsys, *argv)[0] == 0
            assert _command_parser.cache_info().misses == built
        # Each was its own command's parser: asking for them again builds nothing.
        for argv in self.requests:
            _command_parser(argv[0])
            assert run_cli(capsys, *argv)[0] == 0
        assert _command_parser.cache_info().misses == 2
        assert build_parser.cache_info().misses == 0
        assert run_cli(capsys, "--help")[0] == 0
        assert build_parser.cache_info().misses == 1
        assert _command_parser.cache_info().misses == 2

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        want = run_cli(capsys, *self.requests[0])
        build_parser.cache_clear()
        _command_parser.cache_clear()
        monkeypatch.setattr(sys, "argv", ["cue-moments", *self.requests[0]])
        assert (main(), *capsys.readouterr()) == want
        assert _command_parser.cache_info().misses == 1
        assert build_parser.cache_info().misses == 0

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        # Build under another width: help must be laid out at the width of the call.
        monkeypatch.setenv("COLUMNS", "40")
        build_parser.cache_clear()
        _command_parser.cache_clear()
        build_parser()
        if command:
            _command_parser(command)
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        assert run_cli(capsys, *argv) == (0, HELP[command], "")


# The requests of the exact_table benchmark workload.
EXACT_TABLE = [["moment", "--n", str(n), "--two-h", str(two_h), "--k", str(k), "--format", "json"]
               for n in range(1, 13) for k in range(1, 5) for two_h in range(2 * k + 1)]

# One request, as argparse reads it in any spelling.
REQUEST = ["moment", "--n", "3", "--two-h", "1", "--k", "2", "--format", "json"]
REQUEST_JSON = """\
{
  "command": "moment",
  "inputs": {
    "n": 3,
    "two_h": 1,
    "k": 2
  },
  "result": {
    "decimal": "22.2284220656302"
  },
  "exact": "50908/(729*pi)"
}
"""


JSON_VALUES = [
    {"inputs": {"n": [1, 2], "tol": 1e-08}, "result": {"rows": [{"k": 1}, {}], "all_passed": True}, "exact": "2/pi"},
    {}, [], [[], {}, [1, [2, {"a": []}]]],
    True, False,
    0, -7, 2 ** 64,
    -0.0, 5e-324, 1e308,
    '"', "\\", "\n", "\x00", "≈", "\u2028", "\U0001d70b", 'a "≈" \\ b\n\x00\u2028\U0001d70b',
]
# Values json.dumps encodes but no payload holds: the runners check every float input first.
NOT_PAYLOAD_VALUES = [(1, "two", (3.5, None)), None, math.nan, math.inf, -math.inf]


class TestJsonWriter:
    @pytest.mark.parametrize("value", JSON_VALUES, ids=repr)
    def test_the_writer_writes_what_json_dumps_writes(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [Fraction(1, 3), {1, 2}])
    def test_a_type_json_does_not_encode_raises(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json(value)

    @pytest.mark.parametrize("value", NOT_PAYLOAD_VALUES, ids=repr)
    def test_a_value_no_payload_holds_raises(self, value):
        json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json(value)

    def test_every_exact_table_request_prints_what_json_dumps_prints(self, capsys):
        for argv in EXACT_TABLE:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


class TestRequestReader:
    @pytest.fixture(autouse=True)
    def width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_the_reader_reads_what_parse_args_reads(self):
        def fields(namespace):  # by repr, so that a --tol of nan equals itself
            return {name: repr(value) for name, value in vars(namespace).items()}
        golden = [[*argv, "--format", output_format] for argv in COMMANDS for output_format in FORMATS]
        declined = []
        for argv in golden + EXACT_TABLE:
            parser = _command_parser(argv[0])[0]
            read = _read(argv[0], argv[1:])
            if read is None:
                declined.append(argv)
            else:
                assert fields(read) == fields(parser.parse_args(argv[1:])), argv
        # Only a value with a leading minus (mc --seed -1) is left to argparse.
        assert declined == [argv for argv in golden if any(token.startswith("-") for token in argv[2::2])]
        assert len(declined) == len(FORMATS)

    @pytest.mark.parametrize("argv, read, want", [
        (REQUEST, True, (0, REQUEST_JSON, "")),
        # The last of a repeated option wins, in the reader as in argparse.
        (["moment", "--n", "5", *REQUEST[3:], "--n", "3"], True, (0, REQUEST_JSON, "")),
        (["moment", "--n=3", *REQUEST[3:]], False, (0, REQUEST_JSON, "")),
        (["moment", "--n", "3", "--tw", "1", *REQUEST[5:]], False, (0, REQUEST_JSON, "")),
        (["quad", "--k", "1", "--n", "1", "--zeta", "-2"], False, (
            0, "quad k=1 zeta=-2.0 n=1: integral 0.637752497381\nclosed form 0.637752497381, |diff| 1.11e-16\n", "")),
        (["table", "--n", "-1,0", "--two-h", "0", "--k", "1"], False, (
            1, "", "error: command 'table' needs every n >= 1, two_h >= 0 and k >= 1\n")),
        (["table", "--n", "1,x", "--two-h", "0", "--k", "1"], False, (
            2, "", usage("table") + "cue-moments table: error: argument --n: expected comma-separated integers, got '1,x'\n")),
        (["moment", "--n", "x", *REQUEST[3:]], False, (
            2, "", usage("moment") + "cue-moments moment: error: argument --n: invalid int value: 'x'\n")),
        ([*REQUEST[:-1], "xml"], False, (
            2, "", usage("moment") + "cue-moments moment: error: argument --format: invalid choice: 'xml'")),
        (REQUEST[:-3], False, (
            2, "", usage("moment") + "cue-moments moment: error: argument --k: expected one argument\n")),
        (["moment", "-h"], False, (0, HELP["moment"], "")),
    ])
    def test_a_declined_request_prints_what_argparse_prints(self, capsys, argv, read, want):
        assert (_read(argv[0], argv[1:]) is not None) == read
        code, out, err = run_cli(capsys, *argv)
        # Python releases word the list of choices after an invalid choice differently.
        assert (code, out, err.partition(" (choose from ")[0]) == want

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_every_declared_option_is_one_the_reader_can_read(self, capsys, command):
        # The reader stores each value whole, converts it once and copies defaults as they are.
        actions = _command_parser(command)[1]
        for flag, action in actions.items():
            assert action.option_strings == [flag] and flag.startswith("--"), flag
            assert action.nargs is None, flag
            assert action.type is None or not isinstance(action.default, str), flag
        # The JSON inputs are the command's own dests, in declared order.
        argv = next([*argv, "--format", "json"] for argv in COMMANDS if argv[0] == command)
        code, out, err = run_cli(capsys, *argv)
        dests = [action.dest for action in actions.values() if action.dest not in ("output_format", "output_path")]
        assert (code, err, list(json.loads(out)["inputs"])) == (0, "", dests)

    def test_the_cli_reads_no_private_attribute_but_the_negative_number_hook(self):
        # No public argparse API lets an option read "-1,0" or "-1e-3" as its value.
        tree = ast.parse(pathlib.Path(cue_moments.cli.__file__).read_text(encoding="utf-8"))
        private = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and node.attr.startswith("_") and not node.attr.endswith("__")}
        assert private == {"_negative_number_matcher"}


class TestFileOutput:
    @pytest.fixture
    def umask(self):
        previous = os.umask(0o022)
        yield
        os.umask(previous)

    def test_a_new_file_gets_the_mode_open_gives_it(self, capsys, tmp_path, umask):
        target, reference = tmp_path / "out.txt", tmp_path / "reference.txt"
        reference.write_text("")
        assert run_cli(capsys, "moment", "--n", "2", "--two-h", "1", "--k", "1", "--out", str(target))[0] == 0
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o644

    def test_an_existing_file_keeps_its_mode(self, capsys, tmp_path, umask):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        target.chmod(0o664)
        assert run_cli(capsys, "moment", "--n", "2", "--two-h", "1", "--k", "1", "--out", str(target))[0] == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o664
        assert target.read_text(encoding="utf-8") == "moment n=2 two_h=1 k=1: 5/pi ≈ 1.59154943091895\n"

    @staticmethod
    def run_in_ascii_locale(argv, utf8="0"):
        """The CLI in a fresh interpreter under LC_ALL=C, with -X utf8=0 by default: stdout is ASCII."""
        src = str(pathlib.Path(cue_moments.__file__).parents[1])
        env = {name: value for name, value in os.environ.items()
               if not name.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
        env.update(PYTHONCOERCECLOCALE="0", LC_ALL="C",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        return subprocess.run([sys.executable, "-X", f"utf8={utf8}", "-m", "cue_moments.cli", *argv],
                              env=env, capture_output=True, timeout=120)

    def test_the_file_is_utf8_in_an_ascii_locale(self, tmp_path):
        target = tmp_path / "out.txt"
        proc = self.run_in_ascii_locale(["moment", "--n", "2", "--two-h", "1", "--k", "1", "--out", str(target)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_bytes() == "moment n=2 two_h=1 k=1: 5/pi ≈ 1.59154943091895\n".encode("utf-8")

    def test_stdout_gets_utf8_bytes_in_an_ascii_locale(self):
        # Text the locale cannot encode is written as the UTF-8 bytes a UTF-8 locale prints.
        for argv in (["moment", "--n", "2", "--two-h", "1", "--k", "1"],
                     ["moment", "--n", "3", "--two-h", "1", "--k", "2"],
                     ["limit", "--two-h", "2", "--k", "1", "--tol", "1e-6"]):
            ascii_run, utf8_run = self.run_in_ascii_locale(argv), self.run_in_ascii_locale(argv, utf8="1")
            assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
            assert ascii_run.stdout == utf8_run.stdout and "≈".encode("utf-8") in ascii_run.stdout

    def test_a_symlinked_target_is_written_through_the_link(self, capsys, tmp_path, umask):
        argv = ["moment", "--n", "2", "--two-h", "1", "--k", "1", "--out"]
        text = "moment n=2 two_h=1 k=1: 5/pi ≈ 1.59154943091895\n"
        real, link = tmp_path / "real.txt", tmp_path / "link.txt"
        real.write_text("old\n")
        real.chmod(0o664)
        link.symlink_to(real.name)
        assert run_cli(capsys, *argv, str(link)) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_text(encoding="utf-8") == text and stat.S_IMODE(real.stat().st_mode) == 0o664
        # A dangling link is written as open(path, "w") writes it: its target is created.
        dangling, missing = tmp_path / "dangling.txt", tmp_path / "sub" / "missing.txt"
        missing.parent.mkdir()
        dangling.symlink_to(missing)
        assert run_cli(capsys, *argv, str(dangling)) == (0, "", "")
        assert dangling.is_symlink() and missing.read_text(encoding="utf-8") == text
        assert stat.S_IMODE(missing.stat().st_mode) == 0o644
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["dangling.txt", "link.txt", "missing.txt",
                                                                    "real.txt", "sub"]

    def test_atomic_write_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["moment", "--n", "2", "--two-h", "1", "--k", "1",
                     "--format", "json", "--out", str(target)])
        assert code == 0
        capsys.readouterr()
        on_disk = json.loads(target.read_text())
        assert on_disk["exact"] == "5/pi"
        assert not list(tmp_path.glob(".cue-moments-*"))

    def test_a_failed_write_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        def disk_full(src, dst):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "replace", disk_full)
        target = tmp_path / "out.json"
        assert run_cli(capsys, "moment", "--n", "2", "--two-h", "1", "--k", "1", "--out", str(target)) == (
            1, "", f"error: cannot write {target}: No space left on device\n")
        assert not list(tmp_path.iterdir())

    def test_missing_directory_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code = main(["moment", "--n", "2", "--two-h", "1", "--k", "1", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(target) in captured.err
        assert not target.parent.exists()
