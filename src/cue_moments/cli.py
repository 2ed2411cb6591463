"""Command-line frontend: single moments, limits, tables, oracles, verification.

Each runner computes its values once; :func:`_emit` writes them as text, JSON or CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from itertools import product

from .moments import (
    ExactScalar,
    MomentOrder,
    keating_snaith,
    limit_moment_half_h,
    limit_moment_integer_h,
    limit_moment_zero,
    moment_half_h,
    moment_integer_h,
)
from .oracles import QUAD_N_MAX, closed_form_moment_integral, mc_moment, quad_moment_integral
from .verification import run_all_checks

# A runner's text lines, JSON payload (inputs, result, optional exact) and CSV rows.
Output = tuple[list[str], dict, list[dict]]


def format_exact(value: Fraction | ExactScalar) -> str:
    """Canonical exact string: num/den for rationals, q/pi forms for pi multiples.

    Digits print through ``Decimal``, which the int-to-str digit limit does not cover.
    """
    if isinstance(value, ExactScalar):
        return str(value)
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _to_float(value: Fraction | ExactScalar) -> float:
    return value.to_float() if isinstance(value, ExactScalar) else float(value)


_PI = Decimal("3.14159265358979323846264338327950288419716939937511")


def _decimal(value: float | Fraction | ExactScalar) -> str:
    """15 significant digits, as ``f"{x:.15g}"`` prints a float.

    An exact value outside the range of normal floats is rounded from its
    exact rational, so it neither overflows nor loses digits to underflow.
    """
    if not isinstance(value, float):
        try:
            x = _to_float(value)
        except OverflowError:
            x = math.inf
        q = value.q if isinstance(value, ExactScalar) else value
        if q != 0 and not sys.float_info.min <= abs(x) < math.inf:
            return _decimal_exact(value)
        value = x
    return f"{value:.15g}"


def _decimal_exact(value: Fraction | ExactScalar) -> str:
    q, over_pi = (value.q, True) if isinstance(value, ExactScalar) else (value, False)
    with localcontext() as ctx:
        ctx.Emax, ctx.Emin, ctx.prec = MAX_EMAX, MIN_EMIN, 40
        d = Decimal(q.numerator) / q.denominator
        if over_pi:
            d /= _PI
        ctx.prec = 15
        sign, digits, exp = (+d).normalize().as_tuple()
    text = "".join(map(str, digits))
    mantissa = text[0] + ("." + text[1:] if len(text) > 1 else "")
    return f"{'-' if sign else ''}{mantissa}e{exp + len(text) - 1:+03d}"


def _exact_moment(n: int, two_h: int, k: int) -> Fraction | ExactScalar:
    MomentOrder(two_h, k)
    if two_h == 0:
        return keating_snaith(n, k)
    if two_h % 2 == 0:
        return moment_integer_h(n, two_h // 2, k)
    return moment_half_h(n, two_h, k)


def _moment_row(n: int, two_h: int, k: int) -> dict:
    exact = _exact_moment(n, two_h, k)
    return {"n": n, "two_h": two_h, "k": k, "exact": format_exact(exact), "value": _decimal(exact)}


def _moment_line(row: dict) -> str:
    cell = f"{row['exact']} ≈ {row['value']}" if row["value"] else row["exact"]
    return f"n={row['n']} two_h={row['two_h']} k={row['k']}: {cell}"


def _run_moment(args: argparse.Namespace) -> Output:
    row = _moment_row(args.n, args.two_h, args.k)
    inputs = {"n": args.n, "two_h": args.two_h, "k": args.k}
    payload = {"inputs": inputs, "result": {"decimal": row["value"]}, "exact": row["exact"]}
    return ["moment " + _moment_line(row)], payload, [row]


def _run_limit(args: argparse.Namespace) -> Output:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {args.tol}")
    two_h, k = args.two_h, args.k
    exact_str, tail_bound, terms = "", 0.0, 0
    if two_h % 2 == 0:
        exact = limit_moment_zero(k) if two_h == 0 else limit_moment_integer_h(two_h // 2, k)
        exact_str, value = format_exact(exact), _decimal(exact)
        cell = f"{exact_str} ≈ {value}"
    else:
        res = limit_moment_half_h(two_h, k, args.tol)
        value, tail_bound, terms = _decimal(res.value), res.tail_bound, res.terms_used
        cell = f"{value} (tail_bound {tail_bound:.3g}, {terms} tail terms)"
    result = {"value": value, "tail_bound": repr(tail_bound), "terms_used": terms}
    payload = {"inputs": {"two_h": two_h, "k": k, "tol": args.tol}, "result": result}
    if exact_str:
        payload["exact"] = exact_str
    row = {"two_h": two_h, "k": k, "exact": exact_str, **result}
    return [f"limit two_h={two_h} k={k}: {cell}"], payload, [row]


def _run_table(args: argparse.Namespace) -> Output:
    if not (args.n and args.two_h and args.k):
        raise ValueError("command 'table' requires --n, --two-h and --k value lists")
    if min(args.n) < 1 or min(args.two_h) < 0 or min(args.k) < 1:
        raise ValueError("command 'table' needs every n >= 1, two_h >= 0 and k >= 1")
    rows = []
    for n, two_h, k in product(args.n, args.two_h, args.k):
        try:
            MomentOrder(two_h, k)
        except ValueError:
            # The sizes are valid, so the order is inadmissible: the cell stays, marked.
            rows.append({"n": n, "two_h": two_h, "k": k, "exact": "inadmissible", "value": ""})
        else:
            rows.append(_moment_row(n, two_h, k))
    inputs = {"n": list(args.n), "two_h": list(args.two_h), "k": list(args.k)}
    return [_moment_line(r) for r in rows], {"inputs": inputs, "result": {"rows": rows}}, rows


def _run_mc(args: argparse.Namespace) -> Output:
    est = mc_moment(args.n, args.two_h, args.k, args.trials, args.seed)
    exact = _exact_moment(args.n, args.two_h, args.k)
    exact_str = format_exact(exact)
    z = (est.mean - _to_float(exact)) / est.stderr if est.stderr > 0 else 0.0
    inputs = {"n": args.n, "two_h": args.two_h, "k": args.k, "trials": args.trials, "seed": args.seed}
    result = {"mean": repr(est.mean), "stderr": repr(est.stderr), "trials": est.trials,
              "seed": est.seed, "redraws": est.redraws, "z_score": _decimal(z)}
    text = [
        f"mc n={args.n} two_h={args.two_h} k={args.k}: mean {est.mean:.9g} stderr {est.stderr:.3g} "
        f"(trials {est.trials}, seed {est.seed}, redraws {est.redraws})",
        f"exact {exact_str} ≈ {_decimal(exact)}, z-score {z:+.3f}",
    ]
    row = dict(inputs, mean=result["mean"], stderr=result["stderr"], redraws=est.redraws,
               exact=exact_str, z_score=result["z_score"])
    return text, {"inputs": inputs, "result": result, "exact": exact_str}, [row]


def _run_quad(args: argparse.Namespace) -> Output:
    value = quad_moment_integral(args.k, args.zeta, args.n, args.tol)
    closed = closed_form_moment_integral(args.k, args.zeta, args.n)
    diff = f"{abs(value - closed):.3g}"
    inputs = {"k": args.k, "zeta": args.zeta, "n": args.n, "tol": args.tol}
    result = {"integral": repr(value), "closed_form": repr(closed), "abs_diff": diff}
    # tol bounds the absolute error, so no digit of an integral within tol of 0 is certified.
    shown = (f"{value:.3g} (|integral| <= tol {args.tol:g}: no digit certified)"
             if abs(value) <= args.tol else f"{value:.12g}")
    text = [f"quad k={args.k} zeta={args.zeta} n={args.n}: integral {shown}",
            f"closed form {closed:.12g}, |diff| {diff}"]
    return text, {"inputs": inputs, "result": result}, [dict(inputs, **result)]


def _run_verify(args: argparse.Namespace) -> Output:
    results = run_all_checks()
    all_passed = all(r.passed for r in results)
    text = [
        f"PASS {r.name} ({r.checks} checks)" if r.passed
        else f"FAIL {r.name} ({r.failures}/{r.checks} checks failed)"
        for r in results
    ]
    text.append(
        f"{'all suites passed' if all_passed else 'FAILURES detected'} "
        f"({sum(r.checks for r in results)} checks total)"
    )
    rows = [{"name": r.name, "checks": r.checks, "failures": r.failures} for r in results]
    return text, {"inputs": {}, "result": {"suites": rows, "all_passed": all_passed}}, rows


_RUNNERS = {"moment": _run_moment, "limit": _run_limit, "table": _run_table,
            "mc": _run_mc, "quad": _run_quad, "verify": _run_verify}


def _emit(args: argparse.Namespace, text: list[str], payload: dict, rows: list[dict]) -> None:
    if args.output_format == "json":
        body = json.dumps({"command": args.command, **payload}, indent=2) + "\n"
    elif args.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        body = buffer.getvalue()
    else:
        body = "\n".join(text) + "\n"
    if args.output_path is None:
        sys.stdout.write(body)
        return
    directory = os.path.dirname(os.path.abspath(args.output_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".cue-moments-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(body)
        os.replace(tmp_path, args.output_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit status."""
    try:
        text, payload, rows = _RUNNERS[args.command](args)
        _emit(args, text, payload, rows)
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {args.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    # Only verify can report a failure in its result: any failed suite exits 1.
    return 0 if payload["result"].get("all_passed", True) else 1


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call.

    Parsing keeps no state in the parser: each ``parse_args`` returns a fresh
    namespace, and help and usage are formatted at the terminal width of the
    moment, so :func:`main` can serve many requests in one process.
    """
    parser = argparse.ArgumentParser(
        prog="cue-moments",
        description="Joint moments of CUE characteristic polynomials and their derivative, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_moment = sub.add_parser("moment", help="exact moment at finite matrix size")
    p_moment.add_argument("--n", type=int, required=True)
    p_moment.add_argument("--two-h", type=int, required=True, dest="two_h", help="2h (h may be half-integer)")
    p_moment.add_argument("--k", type=int, required=True)

    p_limit = sub.add_parser("limit", help="scaled large-size limit of a moment")
    p_limit.add_argument("--two-h", type=int, required=True, dest="two_h")
    p_limit.add_argument("--k", type=int, required=True)
    p_limit.add_argument("--tol", type=float, required=True)

    p_table = sub.add_parser("table", help="moments over an (n, 2h, k) grid")
    p_table.add_argument("--n", type=_int_list, required=True, metavar="LIST")
    p_table.add_argument("--two-h", type=_int_list, required=True, dest="two_h", metavar="LIST")
    p_table.add_argument("--k", type=_int_list, required=True, metavar="LIST")
    # A list with a leading minus ("-1,0") is a value, so it reaches the size check.
    p_table._negative_number_matcher = re.compile(r"^-\d[\d,-]*$")

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate over Haar-random unitaries")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--two-h", type=int, required=True, dest="two_h")
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=0)

    p_quad = sub.add_parser("quad", help=f"direct quadrature of the defining integral (n <= {QUAD_N_MAX})")
    p_quad.add_argument("--k", type=int, required=True)
    p_quad.add_argument("--zeta", type=float, default=1.0)
    p_quad.add_argument("--n", type=int, required=True)
    p_quad.add_argument("--tol", type=float, default=1e-8)

    sub.add_parser("verify", help="run every exact identity suite")

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json", "csv"), default="text", dest="output_format")
        p.add_argument("--out", dest="output_path", default=None, metavar="PATH")

    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
