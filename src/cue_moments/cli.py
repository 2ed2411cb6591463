"""Command-line frontend: single moments, limits, tables, oracles, verification."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
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
from .oracles import closed_form_moment_integral, mc_moment, quad_moment_integral
from .verification import run_all_checks


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    two_h: int | None = None
    k: int | None = None
    trials: int | None = None
    seed: int = 0
    tol: float | None = None
    zeta: float = 1.0
    grid_n: tuple[int, ...] = field(default_factory=tuple)
    grid_two_h: tuple[int, ...] = field(default_factory=tuple)
    grid_k: tuple[int, ...] = field(default_factory=tuple)
    output_format: str = "text"
    output_path: str | None = None


def format_exact(value: Fraction | ExactScalar) -> str:
    """Canonical exact string: num/den for rationals, q/pi forms for pi multiples."""
    if isinstance(value, ExactScalar):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


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
    q, over_pi = (value.q, value.pi_exp == -1) if isinstance(value, ExactScalar) else (value, False)
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


def _emit(config: RunConfig, text_lines: list[str], payload: dict, csv_fields: list[str], csv_rows: list[dict]) -> None:
    if config.output_format == "json":
        body = json.dumps(payload, indent=2) + "\n"
    elif config.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=csv_fields)
        writer.writeheader()
        writer.writerows(csv_rows)
        body = buffer.getvalue()
    else:
        body = "\n".join(text_lines) + "\n"
    if config.output_path is None:
        sys.stdout.write(body)
        return
    directory = os.path.dirname(os.path.abspath(config.output_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".cue-moments-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(body)
        os.replace(tmp_path, config.output_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"command '{config.command}' requires --{name.replace('_', '-')}")


def _run_moment(config: RunConfig) -> int:
    _require(config, "n", "two_h", "k")
    exact = _exact_moment(config.n, config.two_h, config.k)
    exact_str = format_exact(exact)
    decimal = _decimal(exact)
    inputs = {"n": config.n, "two_h": config.two_h, "k": config.k}
    payload = {
        "command": "moment",
        "inputs": inputs,
        "result": {"decimal": decimal},
        "exact": exact_str,
    }
    text = [f"moment n={config.n} two_h={config.two_h} k={config.k}: {exact_str} ≈ {decimal}"]
    fields = ["n", "two_h", "k", "exact", "value"]
    rows = [dict(inputs, exact=exact_str, value=decimal)]
    _emit(config, text, payload, fields, rows)
    return 0


def _run_limit(config: RunConfig) -> int:
    _require(config, "two_h", "k", "tol")
    if not math.isfinite(config.tol):
        raise ValueError(f"tol must be a finite number, got {config.tol}")
    inputs = {"two_h": config.two_h, "k": config.k, "tol": config.tol}
    exact_str = None
    if config.two_h % 2 == 0:
        exact = (
            limit_moment_zero(config.k)
            if config.two_h == 0
            else limit_moment_integer_h(config.two_h // 2, config.k)
        )
        exact_str = format_exact(exact)
        value, tail_bound, terms = exact, 0.0, 0
    else:
        res = limit_moment_half_h(config.two_h, config.k, config.tol)
        value, tail_bound, terms = res.value, res.tail_bound, res.terms_used
    result = {"value": _decimal(value), "tail_bound": repr(tail_bound), "terms_used": terms}
    payload = {"command": "limit", "inputs": inputs, "result": result}
    if exact_str is not None:
        payload["exact"] = exact_str
    line = f"limit two_h={config.two_h} k={config.k}: {_decimal(value)} (tail_bound {tail_bound:.3g}, {terms} tail terms)"
    if exact_str is not None:
        line = f"limit two_h={config.two_h} k={config.k}: {exact_str} ≈ {_decimal(value)}"
    fields = ["two_h", "k", "exact", "value", "tail_bound", "terms_used"]
    rows = [{"two_h": config.two_h, "k": config.k, "exact": exact_str or "",
             "value": _decimal(value), "tail_bound": repr(tail_bound), "terms_used": terms}]
    _emit(config, [line], payload, fields, rows)
    return 0


def _run_table(config: RunConfig) -> int:
    if not (config.grid_n and config.grid_two_h and config.grid_k):
        raise ValueError("command 'table' requires --n, --two-h and --k value lists")
    rows = []
    for n, two_h, k in product(config.grid_n, config.grid_two_h, config.grid_k):
        try:
            exact = _exact_moment(n, two_h, k)
            row = {
                "n": n,
                "two_h": two_h,
                "k": k,
                "exact": format_exact(exact),
                "value": _decimal(exact),
            }
        except ValueError:
            # Inadmissible cells stay in the table with an explicit marker.
            row = {"n": n, "two_h": two_h, "k": k, "exact": "inadmissible", "value": ""}
        rows.append(row)
    inputs = {
        "n": list(config.grid_n),
        "two_h": list(config.grid_two_h),
        "k": list(config.grid_k),
    }
    payload = {"command": "table", "inputs": inputs, "result": {"rows": rows}}
    text = [
        f"n={r['n']} two_h={r['two_h']} k={r['k']}: "
        + (f"{r['exact']} ≈ {r['value']}" if r["value"] else r["exact"])
        for r in rows
    ]
    _emit(config, text, payload, ["n", "two_h", "k", "exact", "value"], rows)
    return 0


def _run_mc(config: RunConfig) -> int:
    _require(config, "n", "two_h", "k", "trials")
    estimate = mc_moment(config.n, config.two_h, config.k, config.trials, config.seed)
    result = {
        "mean": repr(estimate.mean),
        "stderr": repr(estimate.stderr),
        "trials": estimate.trials,
        "seed": estimate.seed,
        "redraws": estimate.redraws,
    }
    exact = _exact_moment(config.n, config.two_h, config.k)
    exact_float = _to_float(exact)
    z = (estimate.mean - exact_float) / estimate.stderr if estimate.stderr > 0 else 0.0
    result["z_score"] = _decimal(z)
    inputs = {
        "n": config.n,
        "two_h": config.two_h,
        "k": config.k,
        "trials": config.trials,
        "seed": config.seed,
    }
    payload = {"command": "mc", "inputs": inputs, "result": result, "exact": format_exact(exact)}
    text = [
        f"mc n={config.n} two_h={config.two_h} k={config.k}: mean {estimate.mean:.9g} "
        f"stderr {estimate.stderr:.3g} (trials {estimate.trials}, seed {estimate.seed}, "
        f"redraws {estimate.redraws})",
        f"exact {format_exact(exact)} ≈ {_decimal(exact)}, z-score {z:+.3f}",
    ]
    fields = ["n", "two_h", "k", "trials", "seed", "mean", "stderr", "redraws", "exact", "z_score"]
    rows = [dict(inputs, mean=repr(estimate.mean), stderr=repr(estimate.stderr),
                 redraws=estimate.redraws, exact=format_exact(exact), z_score=_decimal(z))]
    _emit(config, text, payload, fields, rows)
    return 0


def _run_quad(config: RunConfig) -> int:
    _require(config, "n", "k")
    tol = config.tol if config.tol is not None else 1e-8
    value = quad_moment_integral(config.k, config.zeta, config.n, tol)
    closed = closed_form_moment_integral(config.k, config.zeta, config.n)
    inputs = {"k": config.k, "zeta": config.zeta, "n": config.n, "tol": tol}
    result = {
        "integral": repr(value),
        "closed_form": repr(closed),
        "abs_diff": f"{abs(value - closed):.3g}",
    }
    payload = {"command": "quad", "inputs": inputs, "result": result}
    text = [
        f"quad k={config.k} zeta={config.zeta} n={config.n}: integral {value:.12g}",
        f"closed form {closed:.12g}, |diff| {abs(value - closed):.3g}",
    ]
    fields = ["k", "zeta", "n", "tol", "integral", "closed_form", "abs_diff"]
    rows = [dict(inputs, integral=repr(value), closed_form=repr(closed),
                 abs_diff=f"{abs(value - closed):.3g}")]
    _emit(config, text, payload, fields, rows)
    return 0


def _run_verify(config: RunConfig) -> int:
    results = run_all_checks()
    all_passed = all(r.passed for r in results)
    text = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"{r.checks} checks" if r.passed else f"{r.failures}/{r.checks} checks failed"
        text.append(f"{status} {r.name} ({detail})")
    text.append(
        f"{'all suites passed' if all_passed else 'FAILURES detected'} "
        f"({sum(r.checks for r in results)} checks total)"
    )
    payload = {
        "command": "verify",
        "inputs": {},
        "result": {
            "suites": [
                {"name": r.name, "checks": r.checks, "failures": r.failures} for r in results
            ],
            "all_passed": all_passed,
        },
    }
    fields = ["name", "checks", "failures"]
    rows = [{"name": r.name, "checks": r.checks, "failures": r.failures} for r in results]
    _emit(config, text, payload, fields, rows)
    return 0 if all_passed else 1


_RUNNERS = {
    "moment": _run_moment,
    "limit": _run_limit,
    "table": _run_table,
    "mc": _run_mc,
    "quad": _run_quad,
    "verify": _run_verify,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        return _RUNNERS[config.command](config)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {config.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return 1


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cue-moments",
        description="Joint moments of CUE characteristic polynomials and their derivative, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text", dest="output_format")
        p.add_argument("--out", dest="output_path", default=None, metavar="PATH")

    p_moment = sub.add_parser("moment", help="exact moment at finite matrix size")
    p_moment.add_argument("--n", type=int, required=True)
    p_moment.add_argument("--two-h", type=int, required=True, dest="two_h", help="2h (h may be half-integer)")
    p_moment.add_argument("--k", type=int, required=True)
    add_common(p_moment)

    p_limit = sub.add_parser("limit", help="scaled large-size limit of a moment")
    p_limit.add_argument("--two-h", type=int, required=True, dest="two_h")
    p_limit.add_argument("--k", type=int, required=True)
    p_limit.add_argument("--tol", type=float, required=True)
    add_common(p_limit)

    p_table = sub.add_parser("table", help="moments over an (n, 2h, k) grid")
    p_table.add_argument("--n", type=_int_list, required=True, metavar="LIST")
    p_table.add_argument("--two-h", type=_int_list, required=True, dest="two_h", metavar="LIST")
    p_table.add_argument("--k", type=_int_list, required=True, metavar="LIST")
    add_common(p_table)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate over Haar-random unitaries")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--two-h", type=int, required=True, dest="two_h")
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=0)
    add_common(p_mc)

    p_quad = sub.add_parser("quad", help="direct quadrature of the defining integral (n = 1 or 2)")
    p_quad.add_argument("--k", type=int, required=True)
    p_quad.add_argument("--zeta", type=float, default=1.0)
    p_quad.add_argument("--n", type=int, required=True)
    p_quad.add_argument("--tol", type=float, default=1e-8)
    add_common(p_quad)

    p_verify = sub.add_parser("verify", help="run every exact identity suite")
    add_common(p_verify)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.command == "table":
        config.grid_n = args.n
        config.grid_two_h = args.two_h
        config.grid_k = args.k
    else:
        for name in ("n", "two_h", "k", "trials", "seed", "tol", "zeta"):
            if hasattr(args, name):
                setattr(config, name, getattr(args, name))
    config.output_format = args.output_format
    config.output_path = args.output_path
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
