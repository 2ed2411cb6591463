"""Which checks catch a one-line fault in the exact path: a fixed list of mutants, run and recorded.

    python tests/mutation_census.py            # write tests/mutation_census.json
    python tests/mutation_census.py --check    # write nothing; exit 1 if the census differs from it

A mutant is (file under ``src/cue_moments``, old text, new text, label); its
old text must occur exactly once in that file.  For each mutant, ``src/`` is
copied to a temporary directory and the mutant applied to the copy.  Then
two checks run against the copy, each in a fresh interpreter:
``cue-moments verify`` and ``tests/make_golden.py --check``.  A check kills
the mutant when it exits non-zero or runs past ``TIMEOUT_S``.  The unmutated
copy must pass both first, or the census stops.

The census records, per mutant, the checks that kill it, the ``verify``
suites that fail and the golden entries that change.  ``--check`` prints
every mutant whose record differs from the committed ``mutation_census.json``,
so a change that weakens coverage shows as a diff.  A mutant that both checks
miss is listed with the check that does kill it, or as an open item, in
``ROADMAP.md``.  Tier-1 is not run here: it is the slowest of the checks,
and the census measures what the fast ones see.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CENSUS = os.path.join(HERE, "mutation_census.json")
# Either check takes under a second on the unmutated source (2-core box, Python 3.11).  A
# wrong limit engine can keep the half-integer limit summing terms up to its cap for
# minutes, and that is recorded as a timeout, a kill.
TIMEOUT_S = 30

MUTANTS = (
    ("moments.py", "acc = acc * (p * n) + g * x", "acc = acc * (p * n) - g * x",
     "even-weight sign: -g in the even Horner term"),
    ("moments.py", "k * n if odd else two_h)", "k * n if odd else two_h - 1)",
     "even moments asked with P = two_h - 1, dropping c_two_h"),
    ("moments.py", "a, g = (p - two_h) * a + g, (p - two_h) * g", "a, g = (p - two_h) * a + 2 * g, (p - two_h) * g",
     "odd-weight step: + 2 * g"),
    ("moments.py", "if (two_h + 1) // 2 % 2:", "if (two_h + 1) // 2 % 2 == 0:",
     "folded prefactor sign flipped"),
    ("coefficients.py", "grown = [[x * r for x in level] for level in self.levels[1:]]",
     "grown = [[x * (r * r if j == 3 else r) for x in level] for j, level in enumerate(self.levels[1:], 1)]",
     "limit rescale: r * r for level 3 in _grow_f"),
    ("coefficients.py", "comb(self.N + 1, j + 1) << j", "comb(self.N, j + 1) << j",
     "finite f off by one: L^(1)_(n+k-2)"),
    ("coefficients.py", "t = size + (deepest - 1) ** 2", "t = size + (k - 1) ** 2",
     "limit headroom from the order asked, not the deepest level held"),
    ("coefficients.py", "_condensation(n + k - 1)", "_condensation(n + k)",
     "finite state keyed by n + k"),
    ("coefficients.py", "if len(top) > P or", "if len(top) >= P or",
     "held-prefix fast path answers one entry short"),
    ("coefficients.py", "levels[j - 2], size(j)", "levels[j - 2][: 1 if j <= 3 else None], size(j)",
     "constant-divisor skip applied to level 3"),
    ("cli.py", "_decimal(res.exact)", 'f"{res.value:.15g}"',
     "half-integer limit printed from its float view"),
    ("moments.py", "(h[0],) + (0,)", "(8 * h[0],) + (0,)",
     "tail bound 8x too small: 8 h_0 in its vector"),
    ("moments.py", "DECIMAL_CONTEXT.divide(to_decimal(value.q), DECIMAL_PI)",
     "DECIMAL_CONTEXT.multiply(to_decimal(value.q), DECIMAL_PI)",
     "pi multiplied in to_decimal"),
)


def _run(args: list[str], src: str) -> tuple[int | None, str]:
    """(exit status, stdout) of a fresh interpreter importing the package from ``src``; None on a timeout."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    try:
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout


def _checks(src: str) -> dict:
    """Run ``verify`` and the golden check against ``src``; which fail, and what each reports."""
    record: dict = {"killed_by": []}
    for name, args, pattern in (
        ("verify", ["-m", "cue_moments.cli", "verify"], r"^FAIL (.*)$"),
        ("golden", [os.path.join(HERE, "make_golden.py"), "--check"], r"^(\S+: \d+ of \d+) entries would change$"),
    ):
        status, out = _run(args, src)
        if status != 0:
            record["killed_by"].append(name)
        found = re.findall(pattern, out, re.M)
        record[name] = "timeout" if status is None else found or (f"exit {status}" if status else [])
    return record


def census() -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="mutation-census-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if _checks(src)["killed_by"]:
            raise SystemExit("the unmutated source fails verify or the golden check: no census")
        records = []
        for file, old, new, label in MUTANTS:
            path = os.path.join(src, "cue_moments", file)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            if text.count(old) != 1:
                raise SystemExit(f"{label}: {old!r} occurs {text.count(old)} times in {file}, not once")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text.replace(old, new))
            records.append({"label": label, "file": file, **_checks(src)})
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation census and write (or, with --check, compare) it.")
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if the census differs")
    args = parser.parse_args(argv)
    records = census()
    for record in records:
        print(f"{record['label']}: killed by {', '.join(record['killed_by']) or 'nothing'}")
    text = json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    if not args.check:
        with open(CENSUS, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0
    with open(CENSUS, encoding="utf-8") as handle:
        committed = {record["label"]: record for record in json.load(handle)}
    computed = {record["label"]: record for record in records}
    changed = [label for label in {**committed, **computed} if committed.get(label) != computed.get(label)]
    for label in changed:
        print(f"differs from {os.path.basename(CENSUS)}: {label}")
    return int(bool(changed))


if __name__ == "__main__":
    sys.exit(main())
