"""Benchmark of the cue-moments CLI and of each package layer below it.

Run from the root of a checkout::

    python3 bench/run.py --workload exact_table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1            # every workload, both modes, and the CLI set
    python3 bench/run.py --self-test               # exact counts repeat; outputs correct

One client sends requests in a closed loop.  A run repeats passes until
``--seconds`` are spent; every pass starts a fresh worker interpreter
(``worker.py``), so the package's caches start cold as they do for a CLI
user.  With ``--trace 0`` the last line of standard output is the JSON
result with the end-to-end metrics; with ``--trace 1`` passes alternate
between untraced and traced, and the result holds the per-layer metrics.
Times are reported in reference seconds (see ``scaled``).  Metric names
and units are read from ``BENCHMARK.json``.  Outputs, spans and the
environment are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every reported time is scaled to a core on which worker.reference_s() takes
# this long: about its time on the 2.1 GHz Xeon the baseline was measured on,
# when that shared host was quiet.  See scaled().
REFERENCE_S = 0.015
MIN_PASSES = 3  # per mode, so every median has at least three samples
RUN_LIMIT_S = 170.0  # no pass of a run outlives this, so every run ends within 180 s

# Counts that must repeat exactly, and the passes they are read from.  Counts
# the program reports (cache_info, CLI output) come from untraced passes, so
# they describe the program alone; the others exist only in the traced chain.
UNTRACED_COUNTS = ("coefficients.cache_hits", "coefficients.cache_misses", "moments.limit_terms",
                   "oracles.mc_redraws", "verification.checks")
TRACED_COUNTS = ("partitions.count", "oracles.mc_bytes_computed")

# The fixed subprocess CLI set of the project roadmap, with the seconds it quotes.
ROADMAP_SET = (
    ("moment_n1", ["moment", "--n", "1", "--two-h", "1", "--k", "1"], 0.27),
    ("mc_200k", ["mc", "--n", "3", "--two-h", "2", "--k", "1", "--trials", "200000", "--seed", "7"], 7.8),
    ("verify", ["verify"], 0.8),
)


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def git_commit(root: str) -> str:
    """HEAD of the repository at root, read from .git; 'unknown' outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, numpy_version: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: "1" for var in THREAD_VARS},
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def one_pass(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run one worker; its report, or {'error': ...} if it did not finish cleanly."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s", "wall": time.monotonic() - t0}
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "wall": wall}
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker printed no report: {proc.stdout[-2000:]!r}", "wall": wall}
    report["wall"] = wall
    return report


def scaled(p: dict) -> tuple[float, float]:
    """A pass's (setup_s, wall_s) in reference seconds.

    The worker times everything in its own CPU seconds, which leave out
    the time other tenants of a shared host hold the core; for the
    single-threaded worker they equal its wall time on an idle core.  What
    other tenants still change is how fast the core runs while the worker
    holds it: by up to 1.5x, in phases of seconds to minutes.  The
    reference loop, timed in the same process after set-up and between
    requests, drifts with it.  So each stretch of work is scaled by
    REFERENCE_S over the mean of the loop's times at its two ends, and
    set-up by its time right after set-up.  The scaled times are steady
    from run to run where the raw seconds are not; the raw seconds stay in
    each pass's record in bench/out/.
    """
    refs, works = p["ref_s"], p["work_s"]
    setup = p["setup_s"] * REFERENCE_S / refs[0]
    work = sum(w * 2 * REFERENCE_S / (a + b) for w, a, b in zip(works[1:], refs, refs[1:]))
    return setup, setup + work


def work_scale(p: dict) -> float:
    """Reference seconds per raw second over a pass's requests."""
    setup, wall = scaled(p)
    return (wall - setup) / (p["wall_s"] - p["setup_s"])


def import_times() -> dict:
    """numpy and package import seconds from one ``python -X importtime`` import of the CLI."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cue_moments.cli"],
                          env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    numpy_us = package_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = int(cumulative)
        if depth == 0 and name.strip().startswith("cue_moments"):
            package_us += int(cumulative)
    factor = REFERENCE_S / worker.reference_s()
    return {"setup.numpy_import_s": numpy_us / 1e6 * factor,
            "setup.package_import_s": package_us / 1e6 * factor}


def run_passes(workload: str, seed: int, seconds: float, trace: bool, min_passes: int) -> dict:
    """Alternate untraced (and, when tracing, traced) passes until the time is spent."""
    untraced: list[dict] = []
    traced: list[dict] = []
    imports: list[dict] = []
    errors: list[str] = []
    start = time.monotonic()
    last = 0.0
    while not errors:
        elapsed = time.monotonic() - start
        enough = len(untraced) >= min_passes and (not trace or len(traced) >= min_passes)
        if enough and elapsed + last > seconds:
            break
        tracing = trace and len(traced) < len(untraced)
        report = one_pass(workload, seed, tracing, RUN_LIMIT_S - elapsed)
        last = report["wall"]
        if "error" in report:
            errors.append(report["error"])
        else:
            (traced if tracing else untraced).append(report)
            if tracing:
                imports.append(import_times())
    return {"untraced": untraced, "traced": traced, "imports": imports, "errors": errors}


def _same(passes: list[dict], source: str, name: str, warnings: list[str]):
    values = [p[source].get(name, 0) for p in passes]
    if len(set(values)) > 1:
        warnings.append(f"{name} differs between passes: {values}")
    return values[0] if values else 0


def end_to_end(untraced: list[dict]) -> dict:
    """Medians over a run's untraced passes, times in reference seconds."""
    attempted = sum(p["attempted"] for p in untraced)
    failed = sum(p["failed"] for p in untraced)
    return {
        "setup_s": statistics.median(scaled(p)[0] for p in untraced),
        "wall_s": statistics.median(scaled(p)[1] for p in untraced),
        "ops_per_s": statistics.median(p["attempted"] / (scaled(p)[1] - scaled(p)[0]) for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(run: dict, names: list[str], warnings: list[str]) -> dict:
    untraced, traced = run["untraced"], run["traced"]
    out: dict = {}
    for name in names:
        if name in UNTRACED_COUNTS:
            out[name] = _same(untraced, "counts", name, warnings)
        elif name in TRACED_COUNTS:
            out[name] = _same(traced, "layers", name, warnings)
        elif name.startswith("oracles.mc_trials_per_s."):
            n = name.rsplit(".", 1)[1]
            rates = [p["layers"][f"oracles.mc_trials.{n}"]
                     / (p["layers"][f"oracles.mc_time.{n}"] * work_scale(p))
                     for p in traced if f"oracles.mc_time.{n}" in p["layers"]]
            out[name] = statistics.median(rates) if rates else 0.0
        elif name.startswith("setup."):
            out[name] = statistics.median(i[name] for i in run["imports"])
        elif name == "trace.overhead_frac":
            out[name] = (statistics.median(scaled(p)[1] for p in traced)
                         / statistics.median(scaled(p)[1] for p in untraced) - 1.0)
        elif name.endswith("_s"):  # a layer's self seconds; 0 where the workload never enters it
            out[name] = statistics.median(p["layers"].get(name, 0.0) * work_scale(p) for p in traced)
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            min_passes: int = MIN_PASSES) -> dict:
    """One run: passes, checks and metrics, written to bench/out/."""
    run = run_passes(workload, seed, seconds, trace, min_passes)
    passes = run["untraced"] + run["traced"]
    warnings: list[str] = []
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = list(dict.fromkeys(f for p in passes for f in p["failures"]))[:10] + run["errors"]
    correct = not run["errors"] and failed == 0 and bool(run["untraced"])
    if run["errors"]:
        with open(worker.GOLDEN_PATH) as handle:
            golden = json.load(handle)
        ops = sum(worker.ops_of(r, golden) for r in worker.requests(workload, seed))
        attempted += ops * len(run["errors"])
        failed += ops * len(run["errors"])
    metrics: dict = {}
    if run["untraced"] and (run["traced"] or not trace):
        if trace:
            values = per_layer(run, [m["name"] for m in spec["per_layer"]], warnings)
        else:
            values = end_to_end(run["untraced"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer" if trace else "end_to_end"]}
    untraced = run["untraced"]
    raw = {
        "wall_cpu_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_cpu_s": statistics.median(p["setup_s"] for p in untraced),
        "wall_elapsed_s": statistics.median(p["elapsed_s"] for p in untraced),
        "setup_elapsed_s": statistics.median(p["setup_elapsed_s"] for p in untraced),
        "reference_s": statistics.median(statistics.mean(p["ref_s"]) for p in untraced),
    } if untraced else {}
    env = environment(seed, passes[0]["numpy"] if passes else None)
    record = {
        "workload": workload, "trace": int(trace), "seconds": seconds, "env": env,
        "correct": correct, "attempted": attempted, "failed": failed, "failures": failures,
        "warnings": warnings, "metrics": metrics, "raw_medians": raw,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "modules")} for p in passes],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    if trace:
        with open(stem + "-spans.json", "w") as handle:
            json.dump([p["spans"] for p in run["traced"]], handle)
    record["modules"] = [p["modules"] for p in passes]
    return record


def print_record(record: dict) -> None:
    print("env " + json.dumps(record["env"]))
    fail_frac = record["failed"] / max(record["attempted"], 1)
    print(f"workload {record['workload']} trace {record['trace']}: {len(record['passes'])} passes, "
          f"{record['attempted']} ops attempted, {record['failed']} failed, fail_frac {fail_frac:.6g} ratio")
    for line in record["failures"] + record["warnings"]:
        print("  " + line)
    if record["raw_medians"]:
        print("  unscaled medians: " + ", ".join(f"{k} {v:.4g} s" for k, v in record["raw_medians"].items()))
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")


def roadmap_set(repeat: int) -> dict:
    """Median raw wall seconds of each roadmap CLI call, each in its own interpreter.

    The reference loop's time before each call is kept beside them, to show
    how fast the host was; these seconds are not scaled.
    """
    out = {}
    for name, args, quoted in ROADMAP_SET:
        walls = []
        refs = []
        for _ in range(repeat):
            refs.append(worker.reference_s())
            t0 = time.monotonic()
            subprocess.run([sys.executable, "-m", "cue_moments.cli", *args], env=worker_env(), cwd=ROOT,
                           capture_output=True, check=True, timeout=RUN_LIMIT_S)
            walls.append(time.monotonic() - t0)
        out[name] = {"argv": args, "median_s": statistics.median(walls), "runs_s": walls,
                     "roadmap_s": quoted, "reference_s": statistics.median(refs)}
    return out


def self_test(spec: dict, seed: int) -> int:
    """Each workload traced twice with one seed: outputs correct, counts exactly repeated."""
    # What the program loads by itself: the CLI imported and run once.
    program = ("import sys, cue_moments.cli as c; c.main(['moment', '--n', '1', '--two-h', '0', '--k', '1']);"
               " sys.stderr.write(' '.join(sys.modules))")
    baseline = subprocess.run([sys.executable, "-c", program], env=worker_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60).stderr.split()
    counts = UNTRACED_COUNTS + TRACED_COUNTS
    problems = []
    for workload in worker.WORKLOADS:
        first, second = (measure(workload, seed, 0.0, True, spec, min_passes=1) for _ in range(2))
        for record in (first, second):
            if not record["correct"] or record["warnings"]:
                problems.append(f"{workload}: {record['failures'] + record['warnings']}")
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} then {b}")
        if workload != "mc":  # the MC path loads numpy submodules lazily while it samples
            extra = {m for mods in first["modules"] for m in mods} - set(baseline)
            if extra:
                problems.append(f"{workload}: worker loads modules the package does not: {sorted(extra)}")
        print(f"{workload}: " + ", ".join(f"{n}={first['metrics'][n]['value']}" for n in counts))
    if "numpy" in sys.modules:
        problems.append("run.py itself imported numpy")
    for k, n, zeta in worker.QUAD_KNOWN_BAD:
        req = {"cmd": "quad", "k": k, "n": n, "zeta": zeta, "tol": worker.QUAD_TOL}
        proc = subprocess.run([sys.executable, "-m", "cue_moments.cli", *worker.argv(req)],
                              env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
        result = json.loads(proc.stdout)["result"] if proc.returncode == 0 else {}
        diff = abs(float(result["integral"]) - float(result["closed_form"])) if result else math.inf
        state = "still wrong" if not diff <= worker.QUAD_MAX_ERR else "now right: put it back into verify"
        print(f"known defect {worker.argv(req)}: |integral - closed form| = {diff:.3g}, {state}")
    for line in problems:
        print("FAIL " + line)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def run_all(spec: dict, seed: int, seconds: float, out_path: str | None) -> int:
    """Every workload untraced and traced, then the roadmap CLI set; one table."""
    results = {}
    for workload in worker.WORKLOADS:
        for trace in (False, True):
            record = measure(workload, seed, seconds, trace, spec)
            print_record(record)
            results.setdefault(workload, {"env": record["env"]})[f"trace{int(trace)}"] = {
                key: record[key] for key in ("correct", "attempted", "failed", "failures", "metrics",
                                             "raw_medians")
            }
    roadmap = roadmap_set(3)
    print("roadmap CLI set (subprocess, unscaled, median of 3):")
    for name, r in roadmap.items():
        print(f"  {name:12s} {r['median_s']:.3f} s   (roadmap quotes {r['roadmap_s']} s; "
              f"reference loop {1000 * r['reference_s']:.1f} ms)")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump({"seconds": seconds, "workloads": results, "roadmap_cli_set": roadmap},
                      handle, indent=1)
            handle.write("\n")
    return 0 if all(r[t]["correct"] for r in results.values() for t in ("trace0", "trace1")) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=worker.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    parser.add_argument("--out", help="with --all, also write the results to this JSON file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cue_moments", "cli.py")):
        print(f"error: no package sources at {SRC}; run from the root of a cue-moments checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.self_test:
        return self_test(spec, args.seed)
    if args.all:
        return run_all(spec, args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("--workload is required unless --all or --self-test is given")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print_record(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
