"""Write ``golden_moments.csv``, the exact strings that ``test_golden.py`` pins.

    PYTHONPATH=src python tests/make_golden_table.py

Rows are the ``moment`` exact string of every admissible (n, two_h, k) with
n <= 12 and k <= 4, then ``limit_moment_integer_h(h, k)`` for k <= 6 and
1 <= h <= k, in the form the CLI prints.  The committed table was written
while the package still summed these coefficients over partitions
(``series_coeff``, ``series_coeff_limit``), so the test holds the
determinant engine to that independent route.  Rewrite the table only
from a commit whose exact outputs are trusted.
"""

from __future__ import annotations

import csv
import os
from typing import Iterator

from cue_moments.cli import _exact_moment, format_exact
from cue_moments.moments import limit_moment_integer_h

GOLDEN_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_moments.csv")
FIELDS = ("kind", "n", "two_h", "k", "exact")


def golden_rows() -> Iterator[dict[str, str]]:
    for n in range(1, 13):
        for k in range(1, 5):
            for two_h in range(2 * k + 1):
                exact = format_exact(_exact_moment(n, two_h, k))
                yield {"kind": "moment", "n": str(n), "two_h": str(two_h), "k": str(k), "exact": exact}
    for k in range(1, 7):
        for h in range(1, k + 1):
            exact = format_exact(limit_moment_integer_h(h, k))
            yield {"kind": "limit", "n": "", "two_h": str(2 * h), "k": str(k), "exact": exact}


def main() -> None:
    with open(GOLDEN_TABLE, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(golden_rows())


if __name__ == "__main__":
    main()
