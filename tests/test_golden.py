import csv

from make_golden_table import GOLDEN_TABLE, golden_rows


def test_exact_strings_match_golden_table():
    with open(GOLDEN_TABLE, newline="", encoding="utf-8") as handle:
        pinned = list(csv.DictReader(handle))
    computed = list(golden_rows())
    assert len(computed) == len(pinned) == 309
    for want, got in zip(pinned, computed):
        assert got == want
