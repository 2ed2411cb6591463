"""Write ``golden_cli.json`` and ``golden_moments.csv``, the output that ``test_golden.py`` pins.

    PYTHONPATH=src python tests/make_golden.py
    PYTHONPATH=src python tests/make_golden.py --check

With ``--check`` the script writes nothing: for each file it prints the key
of every entry that would change, be added or be removed, then
``N of M entries would change``, and exits 1 if the text of either file
would change at all, 0 if not.  Rewrite the files only from a commit whose
output is trusted.

``golden_cli.json`` holds one record per argv (a subcommand, its flags and
a ``--format``, the record's key), with the stdout, stderr and exit status
of ``cue_moments.cli.main`` on it.  The argvs cover every subcommand in all
three formats, including the error paths (an inadmissible order, a
non-finite ``--tol``, seeds outside [0, 2^64), an empty ``table`` list).
The committed file was written before the CLI was rewritten around a single
emitter, so the test holds every later CLI to the same bytes.  The ``mc``
and ``quad`` records hold floating-point digits of numpy and the platform's
libm; the exact records do not.

``golden_moments.csv`` holds one row per (kind, n, two_h, k), its key: the
``moment`` exact string of every admissible (n, two_h, k) with n <= 12 and
k <= 4, then the scaled limit ``exact_moment(None, 2h, k)`` for k <= 6 and
1 <= h <= k, in the form the CLI prints.  The committed table was written
while the package still summed these coefficients over partitions
(``series_coeff``, ``series_coeff_limit``), so the test holds the
determinant engine to that independent route.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from typing import Iterator

from cue_moments.cli import format_exact
from cue_moments.cli import main as cli_main
from cue_moments.moments import exact_moment

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_CLI = os.path.join(HERE, "golden_cli.json")
GOLDEN_TABLE = os.path.join(HERE, "golden_moments.csv")
FORMATS = ("text", "json", "csv")
COMMANDS = (
    ("moment", "--n", "1", "--two-h", "1", "--k", "1"),
    ("moment", "--n", "4", "--two-h", "2", "--k", "1"),
    ("moment", "--n", "5", "--two-h", "3", "--k", "2"),
    ("moment", "--n", "600", "--two-h", "0", "--k", "14"),
    ("moment", "--n", "2", "--two-h", "5", "--k", "1"),
    ("limit", "--two-h", "0", "--k", "2", "--tol", "1e-10"),
    ("limit", "--two-h", "2", "--k", "1", "--tol", "1e-10"),
    ("limit", "--two-h", "1", "--k", "1", "--tol", "1e-12"),
    ("limit", "--two-h", "3", "--k", "2", "--tol", "1e-8"),
    ("limit", "--two-h", "1", "--k", "1", "--tol", "inf"),
    ("limit", "--two-h", "2", "--k", "1", "--tol", "nan"),
    ("limit", "--two-h", "3", "--k", "1", "--tol", "1e-8"),
    ("limit", "--two-h", "1", "--k", "2", "--tol", "1e-12"),
    ("limit", "--two-h", "3", "--k", "3", "--tol", "1e-10"),
    ("limit", "--two-h", "5", "--k", "4", "--tol", "1e-12"),
    ("limit", "--two-h", "7", "--k", "4", "--tol", "1e-8"),
    ("limit", "--two-h", "9", "--k", "5", "--tol", "1e-12"),
    ("limit", "--two-h", "11", "--k", "6", "--tol", "1e-12"),
    # 83 terms past a 17-term floor: the halving test, not tol, stops it, here and at 1e-12.
    ("limit", "--two-h", "1", "--k", "6", "--tol", "1e-6"),
    # Tight tolerances pin where the stopping rule lands deep in the tail;
    # at 1e-300 it runs 189 terms.
    ("limit", "--two-h", "11", "--k", "6", "--tol", "1e-20"),
    ("limit", "--two-h", "9", "--k", "5", "--tol", "1e-20"),
    ("limit", "--two-h", "1", "--k", "1", "--tol", "1e-300"),
    ("limit", "--two-h", "1", "--k", "6", "--tol", "1e-12"),
    ("limit", "--two-h", "13", "--k", "7", "--tol", "1e-12"),
    ("limit", "--two-h", "1", "--k", "5", "--tol", "1e-20"),
    # The cells whose limit states grow largest: 149 tail terms at k = 8, and at
    # k = 10 a tail bound that leaves the sign open.
    ("limit", "--two-h", "1", "--k", "8", "--tol", "1e-12"),
    ("limit", "--two-h", "19", "--k", "10", "--tol", "1e-12"),
    # The exact sum rounds to 5.60603307475795e-09; its float, rounded again to 15 digits, to ...794e-09.
    ("limit", "--two-h", "5", "--k", "3", "--tol", "1e-8"),
    ("table", "--n", "1,2,3", "--two-h", "0,1,3", "--k", "1,2"),
    ("table", "--n", ",", "--two-h", "0", "--k", "1"),
    ("mc", "--n", "3", "--two-h", "2", "--k", "1", "--trials", "2000", "--seed", "7"),
    ("mc", "--n", "2", "--two-h", "1", "--k", "1", "--trials", "500"),
    ("mc", "--n", "2", "--two-h", "0", "--k", "1", "--trials", "100", "--seed", "-1"),
    ("mc", "--n", "2", "--two-h", "0", "--k", "1", "--trials", "100", "--seed", str(2 ** 64)),
    ("quad", "--k", "1", "--zeta", "1", "--n", "1"),
    ("quad", "--k", "2", "--zeta", "0.5", "--n", "2", "--tol", "1e-10"),
    ("quad", "--k", "1", "--zeta", "nan", "--n", "1"),
    ("verify",),
)
FIELDS = ("kind", "n", "two_h", "k", "exact")


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli_main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


def golden_records() -> Iterator[dict]:
    for command in COMMANDS:
        for output_format in FORMATS:
            yield run_cli([*command, "--format", output_format])


def exact_string(n: int | None, two_h: int, k: int) -> str:
    """The exact string the CLI prints, or ``error: ...`` where a wrong engine makes the moment raise.

    A moment that raises ArithmeticError (one no greater than 0, say) is
    then one changed row, and ``--check`` counts every other row as well.
    """
    try:
        return format_exact(exact_moment(n, two_h, k))
    except ArithmeticError as exc:
        return f"error: {exc}"


def golden_rows() -> Iterator[dict[str, str]]:
    for n in range(1, 13):
        for k in range(1, 5):
            for two_h in range(2 * k + 1):
                exact = exact_string(n, two_h, k)
                yield {"kind": "moment", "n": str(n), "two_h": str(two_h), "k": str(k), "exact": exact}
    for k in range(1, 7):
        for h in range(1, k + 1):
            exact = exact_string(None, 2 * h, k)
            yield {"kind": "limit", "n": "", "two_h": str(2 * h), "k": str(k), "exact": exact}


def dump_rows(rows: list[dict[str, str]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


# Per file: its path, the builder of its entries, the text of a list of
# entries, the entries of a text, and the key of one entry.
GOLDEN_FILES = (
    (GOLDEN_CLI, golden_records, lambda records: json.dumps(records, indent=1) + "\n", json.loads,
     lambda record: " ".join(record["argv"])),
    (GOLDEN_TABLE, golden_rows, dump_rows, lambda text: list(csv.DictReader(io.StringIO(text))),
     lambda row: ",".join(row[field] for field in FIELDS[:-1])),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write (or, with --check, compare) the golden files.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print each entry that would change and exit 1 if any file would")
    args = parser.parse_args(argv)
    drift = False
    for path, build, dumps, loads, key_of in GOLDEN_FILES:
        entries = list(build())
        text = dumps(entries)
        if not args.check:
            with open(path, "w", newline="", encoding="utf-8") as handle:
                handle.write(text)
            continue
        with open(path, newline="", encoding="utf-8") as handle:
            committed_text = handle.read()
        committed = {key_of(entry): entry for entry in loads(committed_text)}
        computed = {key_of(entry): entry for entry in entries}
        changed = [key for key in {**committed, **computed} if committed.get(key) != computed.get(key)]
        name = os.path.basename(path)
        for key in changed:
            state = "added" if key not in committed else "removed" if key not in computed else "changed"
            print(f"{name}: {state}: {key}")
        if not changed and text != committed_text:
            print(f"{name}: changed: entry order or layout")
        print(f"{name}: {len(changed)} of {len(computed)} entries would change")
        drift |= text != committed_text
    return int(drift)


if __name__ == "__main__":
    sys.exit(main())
