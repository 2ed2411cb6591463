"""Write bench/golden.json: the answers the benchmark checks every pass against.

Run from the root of a checkout, at a commit whose outputs are trusted::

    PYTHONPATH=src python3 bench/make_golden.py

The exact strings come from the CLI itself.  Before anything is written,
each entry that an independent route can reach is cross-checked:

* the (two_h, k) = (1, 1) moments against ``half_moment_k1_closed``;
* the k = 1 half-integer limit against (e^2 - 5) / (4 pi);
* each limit cell against a reference summed to tolerance 1e-20;
* each MC cell against the same cell of the exact table.

Quadrature cells store the closed form, which the benchmark compares the
quadrature with; a disagreement is the benchmark's to report, not this file's.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import run
import worker
from cue_moments.cli import format_exact, main as cli_main
from cue_moments.moments import half_moment_k1_closed, limit_moment_half_h
from cue_moments.verification import run_all_checks

REFERENCE_TOL = 1e-20


def answer(req: dict) -> dict:
    rc, body = worker.call_cli(cli_main, worker.argv(req))
    if rc != 0:
        raise SystemExit(f"{worker.argv(req)} failed with {rc}")
    return json.loads(body)


def build() -> dict:
    golden: dict = {"commit": run.git_commit(run.ROOT), "moment": {}, "limit": {}, "mc": {}, "quad": {},
                    "verify": {}}
    reqs = [r for w in worker.WORKLOADS for r in worker.requests(w, 0)]
    for req in reqs:
        cmd = req["cmd"]
        if cmd == "verify":
            continue
        payload = answer(req)
        key = worker.cell_key(req)
        if cmd == "moment":
            golden["moment"][key] = payload["exact"]
        elif cmd == "mc":
            golden["mc"][key] = {"exact": payload["exact"], "value": float(Fraction(payload["exact"]))}
        elif cmd == "limit":
            result = payload["result"]
            ref = limit_moment_half_h(req["two_h"], req["k"], REFERENCE_TOL)
            golden["limit"][key] = {
                "value": float(result["value"]), "tail_bound": float(result["tail_bound"]),
                "terms_used": result["terms_used"], "reference": ref.value,
            }
        else:
            golden["quad"][key] = float(payload["result"]["closed_form"])
    golden["verify"] = {r.name: r.checks for r in run_all_checks()}
    return golden


def cross_check(golden: dict, problems: list[str]) -> None:
    for key, text in golden["moment"].items():
        n, two_h, k = map(int, key.split(","))
        if (two_h, k) == (1, 1) and text != format_exact(half_moment_k1_closed(n)):
            problems.append(f"moment {key}: {text} != half_moment_k1_closed")
    k1 = limit_moment_half_h(1, 1, 1e-12)
    if abs(k1.value - (math.e ** 2 - 5) / (4 * math.pi)) > k1.tail_bound + 1e-15:
        problems.append(f"k=1 limit {k1.value!r} != (e^2 - 5)/(4 pi)")
    for key, cell in golden["limit"].items():
        if abs(cell["value"] - cell["reference"]) > cell["tail_bound"] or cell["tail_bound"] > 1e-12:
            problems.append(f"limit {key}: {cell}")
    for key, cell in golden["mc"].items():
        if golden["moment"].get(key, cell["exact"]) != cell["exact"]:
            problems.append(f"mc {key}: {cell['exact']} != moment {golden['moment'][key]}")


def main() -> int:
    problems: list[str] = []
    golden = build()
    cross_check(golden, problems)
    for line in problems:
        print("FAIL " + line, file=sys.stderr)
    if problems:
        return 1
    with open(worker.GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    entries = sum(len(v) for v in golden.values() if isinstance(v, dict))
    print(f"wrote {worker.GOLDEN_PATH}: {entries} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
