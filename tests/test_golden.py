import csv
import json

from make_golden import GOLDEN_CLI, GOLDEN_TABLE, golden_records, golden_rows


def test_exact_strings_match_golden_table():
    with open(GOLDEN_TABLE, newline="", encoding="utf-8") as handle:
        pinned = list(csv.DictReader(handle))
    computed = list(golden_rows())
    assert len(computed) == len(pinned) == 309
    for want, got in zip(pinned, computed):
        assert got == want


def test_cli_output_matches_golden_cli():
    with open(GOLDEN_CLI, encoding="utf-8") as handle:
        pinned = json.load(handle)
    computed = list(golden_records())
    assert len(computed) == len(pinned) == 114
    for want, got in zip(pinned, computed):
        assert got == want
