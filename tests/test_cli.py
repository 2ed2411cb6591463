import csv
import io
import json
import math
import sys
from fractions import Fraction

import pytest

from cue_moments import oracles
from cue_moments.cli import _decimal, build_parser, format_exact, main
from cue_moments.moments import ExactScalar, MomentOrder, keating_snaith

from _brute import decimal_digits


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

    def test_decimal_in_float_range_is_the_float_string(self):
        for q in (Fraction(1, 3), Fraction(10 ** 300, 7), Fraction(3, 10 ** 300), Fraction(0)):
            assert _decimal(q) == f"{float(q):.15g}"
            assert _decimal(ExactScalar(q)) == f"{float(q) / math.pi:.15g}"


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


class TestLimitCommand:
    def test_half_integer_limit(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--two-h", "1", "--k", "1", "--tol", "1e-12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["result"]["value"]) == pytest.approx(0.190115043734329, abs=1e-10)
        assert float(payload["result"]["tail_bound"]) <= 1e-12

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
        def out_of_memory(n, seed, start, count):
            raise MemoryError("Unable to allocate 29.1 TiB for an array with shape (2, 2000000000000)")
        monkeypatch.setattr(oracles, "_draw_verblunsky", out_of_memory)
        code, out, err = run_cli(capsys, "mc", "--n", "1000000000000", "--two-h", "0", "--k", "1", "--trials", "2")
        assert code == 1
        assert out == ""
        assert err == "error: Unable to allocate 29.1 TiB for an array with shape (2, 2000000000000)\n"

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


class TestConfigHandling:
    def test_missing_required_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["moment", "--n", "1", "--k", "1"])
        assert excinfo.value.code != 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


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
    def test_reused_parser_carries_no_state(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        requests = (["moment", "--n", "3", "--two-h", "1", "--k", "2", "--format", "json"],
                    ["limit", "--two-h", "1", "--k", "1", "--tol", "1e-10"])
        usage_error = ["moment", "--n", "1", "--k", "1"]
        size_error = ["table", "--n", "1", "--two-h", "-1,0", "--k", "1"]
        first = [run_cli(capsys, *argv) for argv in requests]
        assert [code for code, _, _ in first] == [0, 0]
        for disturbance in (usage_error, ["--help"], size_error):
            seen = run_cli(capsys, *disturbance)
            assert [run_cli(capsys, *argv) for argv in requests] == first
            assert run_cli(capsys, *disturbance) == seen
        assert run_cli(capsys, *usage_error)[0] == 2
        assert run_cli(capsys, "--help") == (0, HELP[""], "")
        assert run_cli(capsys, *size_error) == (
            1, "", "error: command 'table' needs every n >= 1, two_h >= 0 and k >= 1\n")
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        # Build under another width: help must be laid out at the width of the call.
        monkeypatch.setenv("COLUMNS", "40")
        build_parser.cache_clear()
        build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        assert run_cli(capsys, *argv) == (0, HELP[command], "")


class TestFileOutput:
    def test_atomic_write_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["moment", "--n", "2", "--two-h", "1", "--k", "1",
                     "--format", "json", "--out", str(target)])
        assert code == 0
        capsys.readouterr()
        on_disk = json.loads(target.read_text())
        assert on_disk["exact"] == "5/pi"
        assert not list(tmp_path.glob(".cue-moments-*"))

    def test_missing_directory_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code = main(["moment", "--n", "2", "--two-h", "1", "--k", "1", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(target) in captured.err
        assert not target.parent.exists()
