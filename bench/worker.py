"""One benchmark pass, run in a fresh interpreter so every package cache starts cold.

``run.py`` starts this file once per pass::

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --t0 MONOTONIC

with ``PYTHONPATH`` pointing at the package sources.  Times are the
process's CPU seconds (``time.process_time``), counted from its start, so
set-up includes interpreter start-up, as it does for a CLI user.  ``--t0``
is the parent's ``time.monotonic()`` just before the process was started;
the elapsed seconds measured from it are kept beside the CPU seconds.

The pass sends every request of the workload through
``cue_moments.cli.main(argv)`` with ``--format json``, one after the other,
then parses and checks each answer against ``golden.json``.  With
``--trace 1`` each request is preceded by timed calls into the public
functions of the layers below the CLI (see ``_traced``), and the spans are
returned with the report.  The report is one JSON line on standard output.

This file imports only modules that ``cue_moments.cli`` itself loads, so
the pass measures the program's import and memory footprint, not the
benchmark's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

WORKLOADS = ("exact_table", "exact_large", "mc", "verify")

# exact_large: distinct (n, k) per cell, so no cell reuses another's cache entries.
LARGE_MOMENTS = ((30, 3, 3), (12, 7, 4), (6, 9, 5), (400, 8, 8))
LARGE_LIMITS = ((11, 6), (9, 5))
LIMIT_TOL = "1e-12"
# mc: (n, two_h, k, trials).  n=3 is the reference call of the project roadmap.
MC_CELLS = ((3, 2, 1, 80_000), (8, 2, 2, 40_000))
MC_Z_MAX = 4.0
# verify: quadrature over k, n and zeta; 1/3 is written as the float the CLI parses.
QUAD_ZETAS = ("0", "0.3333333333333333", "1", "3.5", "10")
QUAD_TOL = "1e-10"
# (k, n, zeta) quadrature cells left out of the verify workload because the
# program answers them wrongly: at k=3, n=2, zeta=0 the x^2 piece of the
# adaptive Simpson sum stops at pi/24 (true 15 pi/384) on a panel whose two
# halves agree by accident, so quad gives 0.224893 against the closed form
# 0.210837 at every tol.  `run.py --self-test` probes each one and says when
# it is fixed and belongs back in the workload.
QUAD_KNOWN_BAD = ((3, 2, "0"),)
QUAD_MAX_ERR = 1e-6
REFERENCE_EVERY_S = 0.25
# The three-route grid of the default verify suite.
ROUTE_GRID = tuple(
    (k, n, z)
    for k in range(1, 5)
    for n in range(1, 9)
    for z in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2))
)
# The (p, max_parts) keys of partitions_of that the default verify suites reach.
VERIFY_PARTITION_KEYS = tuple(sorted(
    {(w, max(w, 1)) for w in range(21)}
    | {(p, 1) for p in range(51)}
    | {(p, 2) for p in range(31)}
    | {(p, 3) for p in range(25)}
    | {(p, 4) for p in range(33)}
))


def requests(workload: str, seed: int) -> list[dict]:
    """The workload's requests in the order the seed gives.

    The seed shuffles the order and sets the MC seeds; the set of cells,
    and so the work, is the same for every seed.
    """
    rng = random.Random(seed)
    if workload == "exact_table":
        reqs = [
            {"cmd": "moment", "n": n, "two_h": two_h, "k": k}
            for n in range(1, 13)
            for k in range(1, 5)
            for two_h in range(2 * k + 1)
        ]
    elif workload == "exact_large":
        reqs = [{"cmd": "moment", "n": n, "two_h": two_h, "k": k} for n, two_h, k in LARGE_MOMENTS]
        reqs += [{"cmd": "limit", "two_h": two_h, "k": k, "tol": LIMIT_TOL} for two_h, k in LARGE_LIMITS]
    elif workload == "mc":
        reqs = [
            {"cmd": "mc", "n": n, "two_h": two_h, "k": k, "trials": trials, "seed": rng.getrandbits(63)}
            for n, two_h, k, trials in MC_CELLS
        ]
    elif workload == "verify":
        reqs = [{"cmd": "verify"}]
        reqs += [
            {"cmd": "quad", "k": k, "n": n, "zeta": zeta, "tol": QUAD_TOL}
            for k in range(1, 5)
            for n in (1, 2)
            for zeta in QUAD_ZETAS
            if (k, n, zeta) not in QUAD_KNOWN_BAD
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def argv(req: dict) -> list[str]:
    out = [req["cmd"]]
    for key, value in req.items():
        if key != "cmd":
            out += ["--" + key.replace("_", "-"), str(value)]
    return out + ["--format", "json"]


def cell_key(req: dict) -> str:
    """Key of a request's entry in golden.json."""
    fields = {"moment": ("n", "two_h", "k"), "mc": ("n", "two_h", "k"),
              "limit": ("two_h", "k", "tol"), "quad": ("k", "n", "zeta", "tol")}[req["cmd"]]
    return ",".join(str(req[f]) for f in fields)


def ops_of(req: dict, golden: dict) -> int:
    """Ops one request stands for: Haar trials for mc, identity checks for verify, else 1."""
    if req["cmd"] == "mc":
        return req["trials"]
    if req["cmd"] == "verify":
        return sum(golden["verify"].values())
    return 1


def check(req: dict, rc, body: str, golden: dict) -> tuple[int, int, dict, str | None]:
    """(attempted ops, failed ops, counts, first failure) for one answer."""
    cmd = req["cmd"]
    attempted = ops_of(req, golden)
    counts: dict = {}
    if rc != 0 and cmd != "verify":
        return attempted, attempted, counts, f"{argv(req)}: exit {rc}"
    try:
        payload = json.loads(body)
        result = payload["result"]
        if cmd == "verify":
            suites = result["suites"]
            attempted = sum(s["checks"] for s in suites)
            failed = sum(s["failures"] for s in suites)
            if rc != 0 and failed == 0:
                failed = attempted
            counts["verification.checks"] = attempted
            return attempted, failed, counts, (f"verify: {failed} checks failed" if failed else None)
        want = golden[cmd][cell_key(req)]
        if cmd == "moment":
            ok = payload["exact"] == want
            why = f"exact {payload['exact']!r} != golden {want!r}"
        elif cmd == "limit":
            value = float(result["value"])
            tail = float(result["tail_bound"])
            counts["moments.limit_terms"] = result["terms_used"]
            ok = abs(value - want["reference"]) <= tail and tail <= float(req["tol"])
            why = f"value {value!r} reference {want['reference']!r} tail_bound {tail!r}"
        elif cmd == "mc":
            mean = float(result["mean"])
            stderr = float(result["stderr"])
            z = (mean - want["value"]) / stderr
            counts["oracles.mc_redraws"] = result["redraws"]
            ok = math.isfinite(z) and abs(z) <= MC_Z_MAX
            why = f"z-score {z!r}"
        else:  # quad
            diff = abs(float(result["integral"]) - want)
            ok = diff <= QUAD_MAX_ERR
            why = f"|integral - closed form| = {diff!r}"
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return attempted, attempted, counts, f"{argv(req)}: {exc!r}"
    return attempted, (0 if ok else attempted), counts, (None if ok else f"{argv(req)}: {why}")


def call_cli(main, args: list[str]) -> tuple[object, str]:
    """Run one CLI request in-process; returns (exit status or exception, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(args)
    except (Exception, SystemExit) as exc:
        rc = repr(exc)
    return rc, out.getvalue()


class Tracer:
    """Spans kept in memory: [request id, name, start, end, self seconds].

    A span's self time is its duration minus the lower-layer work the call
    repeats.  The package caches ``partitions_of``, ``series_coeff`` and
    ``series_coeff_limit``, so a layer called after the one below finds
    its input cached; box products, ``keating_snaith`` and the moment
    functions are not cached, so their measured time is subtracted from
    the span of the caller that recomputes them.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.layers: dict[str, float] = {}
        self.request = -1
        self.enumerated: set = set()
        self.coeff_seen: set = set()

    def open(self, cmd: str) -> int:
        self.request += 1
        self.spans.append([self.request, "request." + cmd, time.process_time(), None, None])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.process_time()
        children = sum(s[3] - s[2] for s in self.spans[index + 1:])
        span[4] = span[3] - span[2] - children

    def add(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0) + value

    def timed(self, name: str, fn, *args, repeats: float = 0.0):
        """Call fn(*args) in a span; returns (result, seconds)."""
        start = time.process_time()
        result = fn(*args)
        end = time.process_time()
        self.spans.append([self.request, name, start, end, end - start - repeats])
        self.add(name + "_s", end - start - repeats)
        return result, end - start


def _enumerate(tr: Tracer, lib, keys) -> None:
    """partitions_of over (p, max_parts) keys; counts each key's partitions once per pass."""
    def enum():
        for key in keys:
            parts = lib.partitions.partitions_of(*key)
            if key not in tr.enumerated:
                tr.enumerated.add(key)
                tr.add("partitions.count", len(parts))

    tr.timed("partitions.enum", enum)


def _coefficient_chain(tr: Tracer, lib, ps, k: int, n: int | None) -> None:
    """partitions_of -> box products -> series_coeff (n given) or series_coeff_limit."""
    part = lib.partitions
    coeff = lib.coefficients
    _enumerate(tr, lib, [(p, k) for p in ps])
    cold = [p for p in ps if (p, k, n) not in tr.coeff_seen]
    tr.coeff_seen.update((p, k, n) for p in cold)

    def box():
        for p in cold:
            for lam in part.partitions_of(p, k):
                part.pochhammer(k, lam)
                part.pochhammer(2 * k, lam)
                part.hook_product(lam)
                if n is not None:
                    part.pochhammer(-n, lam)

    _, box_s = tr.timed("partitions.box", box)
    if n is None:
        tr.timed("coefficients.series_coeff_limit",
                 lambda: [coeff.series_coeff_limit(p, k) for p in ps], repeats=box_s)
    else:
        tr.timed("coefficients.series_coeff",
                 lambda: [coeff.series_coeff(p, k, n) for p in ps], repeats=box_s)


def _moment_ps(n: int, two_h: int, k: int) -> range:
    """The p for which the moment functions call series_coeff(p, k, n) and enumerate."""
    if two_h == 0:
        return range(0)
    if two_h % 2 == 0:
        return range(min(two_h, k * n) + 1)
    return range(1, k * n + 1)


def _moment_chain(tr: Tracer, lib, n: int, two_h: int, k: int) -> float:
    """Exact-moment layers bottom-up; returns the moment span's seconds."""
    _coefficient_chain(tr, lib, _moment_ps(n, two_h, k), k, n)
    mom = lib.moments
    _, ks = tr.timed("moments.keating_snaith", mom.keating_snaith, n, k)
    if two_h == 0:
        fn, args = mom.keating_snaith, (n, k)
    elif two_h % 2 == 0:
        fn, args = mom.moment_integer_h, (n, two_h // 2, k)
    else:
        fn, args = mom.moment_half_h, (n, two_h, k)
    _, moment_s = tr.timed("moments.moment", fn, *args, repeats=ks)
    return moment_s


def _traced(tr: Tracer, lib, req: dict, golden: dict) -> tuple[object, str]:
    """One request with its lower layers called first, each in a span."""
    cmd = req["cmd"]
    args = argv(req)
    index = tr.open(cmd)
    if cmd == "moment":
        wrapped = _moment_chain(tr, lib, req["n"], req["two_h"], req["k"])
    elif cmd == "limit":
        two_h, k = req["two_h"], req["k"]
        terms = golden["limit"][cell_key(req)]["terms_used"]
        _coefficient_chain(tr, lib, range(1, two_h + terms + 1), k, None)
        _, wrapped = tr.timed("moments.limit", lib.moments.limit_moment_half_h,
                              two_h, k, float(req["tol"]))
    elif cmd == "mc":
        n, two_h, k, trials = req["n"], req["two_h"], req["k"], req["trials"]
        wrapped = _moment_chain(tr, lib, n, two_h, k)
        _, mc_s = tr.timed("oracles.mc", lib.oracles.mc_moment, n, two_h, k, trials, req["seed"])
        wrapped += mc_s
        tr.add(f"oracles.mc_trials.n{n}", trials)
        tr.add(f"oracles.mc_time.n{n}", mc_s)
        # Arrays mc_moment allocates, from their shapes: the per-trial value
        # vector, and the Ginibre, Q and R stacks of one batch.
        batch = min(4096, trials)
        nbytes = 8 * trials + 3 * 16 * batch * n * n
        tr.layers["oracles.mc_bytes_computed"] = max(tr.layers.get("oracles.mc_bytes_computed", 0), nbytes)
    elif cmd == "quad":
        k, n, zeta, tol = req["k"], req["n"], float(req["zeta"]), float(req["tol"])
        _coefficient_chain(tr, lib, range(k * n + 1), k, n)
        _, ks = tr.timed("moments.keating_snaith", lib.moments.keating_snaith, n, k)
        _, closed_s = tr.timed("oracles.closed_form", lib.oracles.closed_form_moment_integral,
                               k, zeta, n, repeats=ks)
        _, quad_s = tr.timed("oracles.quad", lib.oracles.quad_moment_integral, k, zeta, n, tol)
        wrapped = closed_s + quad_s
    else:  # verify
        _enumerate(tr, lib, VERIFY_PARTITION_KEYS)
        for route in ("wronskian", "hankel", "series"):
            fn = getattr(lib.specfun, "moment_gen_" + route)
            tr.timed("specfun." + route, lambda: [fn(k, n, z) for k, n, z in ROUTE_GRID])
        wrapped = 0.0
        for suite in lib.verification.ALL_CHECKS:
            _, suite_s = tr.timed("verification." + suite.__name__.removeprefix("check_"), suite)
            wrapped += suite_s
    rc, body = tr.timed("cli.request", call_cli, lib.cli.main, args, repeats=wrapped)[0]
    tr.close(index)
    return rc, body


def _library() -> argparse.Namespace:
    """The package's modules, whose public functions the traced chain calls."""
    from cue_moments import cli, coefficients, moments, oracles, partitions, specfun, verification

    return argparse.Namespace(cli=cli, coefficients=coefficients, moments=moments, oracles=oracles,
                              partitions=partitions, specfun=specfun, verification=verification)


def _peak_rss_mb() -> float:
    # VmHWM is the kernel's peak-RSS counter, the value getrusage reports as
    # ru_maxrss; read here so the worker needs no module the package lacks.
    with open("/proc/self/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reference_s() -> float:
    """CPU seconds a fixed pure-Python loop takes: how fast this core runs now.

    The loop touches no package code, so no change to the package moves it;
    run.py scales every time of the pass by it.
    """
    start = time.process_time()
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) % 1_000_003
    return time.process_time() - start


def run_pass(workload: str, seed: int, trace: bool, t0: float) -> dict:
    """Set up, send every request, check the answers; the pass's report."""
    from cue_moments.cli import main

    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    reqs = requests(workload, seed)
    lib = _library() if trace else None
    tracer = Tracer() if trace else None
    setup_done = time.process_time()
    setup_elapsed = time.monotonic() - t0
    # The reference loop is timed after set-up and then between requests, at
    # least REFERENCE_EVERY_S of work apart and after the last one; work_s[i]
    # is the request time between samples i-1 and i, so sampling stays untimed.
    ref_s = [reference_s()]
    work_s = [0.0]
    mark = time.process_time()

    answers = []
    for i, req in enumerate(reqs):
        if trace:
            answers.append(_traced(tracer, lib, req, golden))
        else:
            answers.append(call_cli(main, argv(req)))
        worked = time.process_time() - mark
        if worked >= REFERENCE_EVERY_S or i == len(reqs) - 1:
            work_s.append(worked)
            ref_s.append(reference_s())
            mark = time.process_time()
    elapsed = time.monotonic() - t0
    peak = _peak_rss_mb()

    attempted = failed = 0
    counts: dict = {}
    failures = []
    for req, (rc, body) in zip(reqs, answers):
        a, f, c, why = check(req, rc, body, golden)
        attempted += a
        failed += f
        for name, value in c.items():
            counts[name] = counts.get(name, 0) + value
        if why:
            failures.append(why)

    from cue_moments.coefficients import series_coeff

    info = series_coeff.cache_info()
    counts["coefficients.cache_hits"] = info.hits
    counts["coefficients.cache_misses"] = info.misses
    numpy = sys.modules.get("numpy")
    report = {
        "setup_s": setup_done,
        "wall_s": setup_done + sum(work_s),
        "setup_elapsed_s": setup_elapsed,
        "elapsed_s": elapsed,
        "ref_s": ref_s,
        "work_s": work_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "peak_rss_mb": peak,
        "counts": counts,
        "numpy": numpy.__version__ if numpy else None,
        "modules": sorted(sys.modules),
    }
    if trace:
        report["layers"] = tracer.layers
        report["spans"] = tracer.spans
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    report = run_pass(args.workload, args.seed, bool(args.trace), args.t0)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
