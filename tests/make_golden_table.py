"""Write ``golden_moments.csv``, the exact strings that ``test_golden.py`` pins.

    PYTHONPATH=src python tests/make_golden_table.py
    PYTHONPATH=src python tests/make_golden_table.py --check

With ``--check`` the script writes nothing: it prints every table row
that would change, be added or be removed (the committed row, then the
computed one), and exits 1 if the file would change at all, 0 if not.

Rows are the ``moment`` exact string of every admissible (n, two_h, k) with
n <= 12 and k <= 4, then the scaled limit ``exact_moment(None, 2h, k)``
for k <= 6 and 1 <= h <= k, in the form the CLI prints.  The committed
table was written while the package still summed these coefficients over
partitions (``series_coeff``, ``series_coeff_limit``), so the test holds
the determinant engine to that independent route.  Rewrite the table
only from a commit whose exact outputs are trusted.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from operator import itemgetter
from typing import Iterator

from cue_moments.cli import format_exact
from cue_moments.moments import exact_moment

GOLDEN_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_moments.csv")
FIELDS = ("kind", "n", "two_h", "k", "exact")


def golden_rows() -> Iterator[dict[str, str]]:
    for n in range(1, 13):
        for k in range(1, 5):
            for two_h in range(2 * k + 1):
                exact = format_exact(exact_moment(n, two_h, k))
                yield {"kind": "moment", "n": str(n), "two_h": str(two_h), "k": str(k), "exact": exact}
    for k in range(1, 7):
        for h in range(1, k + 1):
            exact = format_exact(exact_moment(None, 2 * h, k))
            yield {"kind": "limit", "n": "", "two_h": str(2 * h), "k": str(k), "exact": exact}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write (or, with --check, compare) golden_moments.csv.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print each row that would change and exit 1 if any would")
    args = parser.parse_args(argv)
    rows = list(golden_rows())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if not args.check:
        with open(GOLDEN_TABLE, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        return 0
    with open(GOLDEN_TABLE, newline="", encoding="utf-8") as handle:
        committed_text = handle.read()
    key = itemgetter(*FIELDS[:-1])
    committed = {key(r): r for r in csv.DictReader(io.StringIO(committed_text))}
    computed = {key(r): r for r in rows}
    changed = [cell for cell in {**committed, **computed} if committed.get(cell) != computed.get(cell)]
    for cell in changed:
        for side, table in (("committed", committed), ("computed", computed)):
            row = table.get(cell)
            print(f"{side}: {','.join(row[f] for f in FIELDS) if row else '(none)'}")
    if not changed and text != committed_text:
        print("changed: row order or layout")
    print(f"{len(changed)} of {len(computed)} rows would change")
    return int(text != committed_text)


if __name__ == "__main__":
    sys.exit(main())
