"""Write ``golden_cli.json``, the CLI output that ``test_golden.py`` pins.

    PYTHONPATH=src python tests/make_golden_cli.py
    PYTHONPATH=src python tests/make_golden_cli.py --check

With ``--check`` the script writes nothing: it prints the argv (its
``--format`` included) of every record that would change, be added or be
removed, and exits 1 if the file would change at all, 0 if not.

Each record holds one argv (a subcommand, its flags and a ``--format``),
and the stdout, stderr and exit status of ``cue_moments.cli.main`` on it.
The argvs cover every subcommand in all three formats, including the
error paths (an inadmissible order, a non-finite ``--tol``, seeds outside
[0, 2^64), an empty ``table`` list).  The committed file was written
before the CLI was rewritten around a single emitter, so the test holds
every later CLI to the same bytes.  Rewrite it only from a commit whose
output is trusted.  The ``mc`` and ``quad`` records hold floating-point
digits of numpy and the platform's libm; the exact records do not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from typing import Iterator

from cue_moments.cli import main as cli_main

GOLDEN_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
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


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli_main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


def golden_records() -> Iterator[dict]:
    for command in COMMANDS:
        for output_format in FORMATS:
            yield run_cli([*command, "--format", output_format])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write (or, with --check, compare) golden_cli.json.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print each record that would change and exit 1 if any would")
    args = parser.parse_args(argv)
    records = list(golden_records())
    text = json.dumps(records, indent=1) + "\n"
    if not args.check:
        with open(GOLDEN_CLI, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0
    with open(GOLDEN_CLI, encoding="utf-8") as handle:
        committed_text = handle.read()
    committed = {tuple(r["argv"]): r for r in json.loads(committed_text)}
    computed = {tuple(r["argv"]): r for r in records}
    changed = [argv for argv in {**committed, **computed} if committed.get(argv) != computed.get(argv)]
    for argv in changed:
        state = "added" if argv not in committed else "removed" if argv not in computed else "changed"
        print(f"{state}: {' '.join(argv)}")
    if not changed and text != committed_text:
        print("changed: record order or layout")
    print(f"{len(changed)} of {len(computed)} records would change")
    return int(text != committed_text)


if __name__ == "__main__":
    sys.exit(main())
