"""Command-line frontend: single moments, limits, tables, oracles, verification.

Each runner computes its values once; :func:`_emit` writes them as text,
JSON or CSV.  An exact value's ``≈`` digits, and the half-integer limit's
digits, are :func:`_decimal`'s 15-digit rounding of
:func:`~cue_moments.moments.to_decimal`, the quotient its float also
rounds.  JSON is written in one pass by :func:`_json`, which writes the
bytes ``json.dumps(..., indent=2)`` writes for every payload.
The command table, ``_COMMANDS``, declares each command once: summary,
runner and options.  :func:`main` reads a request with its command's parser,
built from the table on first use; a well-formed request, ``--option value``
pairs spelled in full, is read from that parser's ``Action`` objects without
an argparse pass, and argparse parses every other argv (help, abbreviations,
``--opt=value``, negative numbers, usage errors), so what it prints is
unchanged.  The top-level parser only names the commands, for help and usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import re
import stat
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii

from .moments import DECIMAL_CONTEXT, ExactScalar, MomentOrder, exact_moment, limit_moment_half_h, to_decimal
from .oracles import QUAD_N_MAX, closed_form_moment_integral, mc_moment, quad_moment_integral
from .verification import run_all_checks

# A runner's text lines, JSON payload (result, optional exact) and CSV rows.
Output = tuple[list[str], dict, list[dict]]

# _decimal's second rounding, to 15 digits, after to_decimal's quotient.  Its methods
# change only the context's sticky flags, which nothing reads.
_DECIMAL_15 = DECIMAL_CONTEXT.copy()
_DECIMAL_15.prec = 15


def format_exact(value: Fraction | ExactScalar) -> str:
    """Canonical exact string: num/den for rationals, q/pi forms for pi multiples.

    Digits print through ``Decimal``, which the int-to-str digit limit does not cover.
    """
    if isinstance(value, ExactScalar):
        return str(value)
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _decimal(value: Fraction | ExactScalar) -> str:
    """15 significant digits of an exact value, laid out as ``f"{x:.15g}"`` lays out a float.

    The digits are :func:`~cue_moments.moments.to_decimal`'s 40-digit
    quotient, the one its float rounds, rounded half-even to 15, so no digit
    depends on the range of floats.
    """
    d = _DECIMAL_15.normalize(to_decimal(value))
    exponent = d.adjusted()
    if -4 <= exponent < 15:
        return f"{d:f}"
    return f"{_DECIMAL_15.scaleb(d, -exponent):f}e{exponent:+03d}"


def _moment_row(n: int, two_h: int, k: int) -> dict:
    exact = exact_moment(n, two_h, k)
    return {"n": n, "two_h": two_h, "k": k, "exact": format_exact(exact), "value": _decimal(exact)}


def _moment_line(row: dict) -> str:
    cell = f"{row['exact']} ≈ {row['value']}" if row["value"] else row["exact"]
    return f"n={row['n']} two_h={row['two_h']} k={row['k']}: {cell}"


def _run_moment(args: argparse.Namespace) -> Output:
    row = _moment_row(args.n, args.two_h, args.k)
    payload = {"result": {"decimal": row["value"]}, "exact": row["exact"]}
    return ["moment " + _moment_line(row)], payload, [row]


def _run_limit(args: argparse.Namespace) -> Output:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {args.tol}")
    two_h, k = args.two_h, args.k
    exact_str, tail_bound, terms = "", 0.0, 0
    if two_h % 2 == 0:
        exact = exact_moment(None, two_h, k)
        exact_str, value = format_exact(exact), _decimal(exact)
        cell = f"{exact_str} ≈ {value}"
    else:
        res = limit_moment_half_h(two_h, k, args.tol)
        value, tail_bound, terms = _decimal(res.exact), res.tail_bound, res.terms_used
        cell = f"{value} (tail_bound {tail_bound:.3g}, {terms} tail terms)"
    result = {"value": value, "tail_bound": repr(tail_bound), "terms_used": terms}
    payload = {"result": result}
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
    return [_moment_line(r) for r in rows], {"result": {"rows": rows}}, rows


def _run_mc(args: argparse.Namespace) -> Output:
    exact = exact_moment(args.n, args.two_h, args.k)
    try:
        exact_float = float(exact)
    except OverflowError:
        raise ArithmeticError(
            f"exact moment {_decimal(exact)} is beyond the float range: mc cannot estimate it") from None
    est = mc_moment(args.n, args.two_h, args.k, args.trials, args.seed)
    exact_str = format_exact(exact)
    z = (est.mean - exact_float) / est.stderr if est.stderr > 0 else 0.0
    result = {"mean": repr(est.mean), "stderr": repr(est.stderr), "trials": est.trials,
              "seed": est.seed, "redraws": est.redraws, "z_score": f"{z:.15g}"}
    text = [
        f"mc n={args.n} two_h={args.two_h} k={args.k}: mean {est.mean:.9g} stderr {est.stderr:.3g} "
        f"(trials {est.trials}, seed {est.seed}, redraws {est.redraws})",
        f"exact {exact_str} ≈ {_decimal(exact)}, z-score {z:+.3f}",
    ]
    row = dict(_inputs(args), mean=result["mean"], stderr=result["stderr"], redraws=est.redraws,
               exact=exact_str, z_score=result["z_score"])
    return text, {"result": result, "exact": exact_str}, [row]


def _run_quad(args: argparse.Namespace) -> Output:
    value = quad_moment_integral(args.k, args.zeta, args.n, args.tol)
    closed = closed_form_moment_integral(args.k, args.zeta, args.n)
    diff = f"{abs(value - closed):.3g}"
    result = {"integral": repr(value), "closed_form": repr(closed), "abs_diff": diff}
    # tol bounds the absolute error, so no digit of an integral within tol of 0 is certified.
    shown = (f"{value:.3g} (|integral| <= tol {args.tol:g}: no digit certified)"
             if abs(value) <= args.tol else f"{value:.12g}")
    text = [f"quad k={args.k} zeta={args.zeta} n={args.n}: integral {shown}",
            f"closed form {closed:.12g}, |diff| {diff}"]
    return text, {"result": result}, [dict(_inputs(args), **result)]


def _run_verify(args: argparse.Namespace) -> Output:
    results = run_all_checks()
    all_passed = all(r.passed for r in results)
    text = [
        f"PASS {r.name} ({r.checks} checks)" if r.passed
        else f"FAIL {r.name} ({r.failures}/{r.checks} checks failed)" if r.error is None
        else f"FAIL {r.name} (raised {r.error} after {r.checks} checks, {r.failures} failed)"
        for r in results
    ]
    text.append(
        f"{'all suites passed' if all_passed else 'FAILURES detected'} "
        f"({sum(r.checks for r in results)} checks total)"
    )
    rows = [{"name": r.name, "checks": r.checks, "failures": r.failures} for r in results]
    # Only a suite that raised adds the column, so a passing run prints what it always has.
    if any(r.error is not None for r in results):
        rows = [dict(row, error=r.error or "") for row, r in zip(rows, results)]
    return text, {"result": {"suites": rows, "all_passed": all_passed}}, rows


def _json(value, pad: str = "\n") -> str:
    """What ``json.dumps(value, indent=2)`` returns, written in one pass.

    ``pad`` is a newline and the indent of the line ``value`` starts on.
    Python 3.10 and 3.11 serve ``indent`` only from json's pure-Python
    encoder, which takes about twice as long.  It writes only what a payload
    holds: str, bool, int, finite float, list, and dict with str keys.  The
    runners check every float input before they build a payload, so any
    other value, None, a tuple or a non-finite float included, raises TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, list):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(value, dict):
        items = [encode_basestring_ascii(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    raise TypeError(f"{value!r} of type {type(value).__name__} is not a payload value")


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; a list with no item ("" or ",") is empty, for the command to report."""
    parts = text.split(",")
    if not any(parts):
        return []
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


_INT = {"type": int, "required": True}
_INT_LIST = {"type": _int_list, "required": True, "metavar": "LIST"}

# The one declaration of every command: its summary, its runner, its options (flag ->
# add_argument keywords; each parser adds the output options after them), and the
# pattern of the values with a leading minus that its options read, or None.
_COMMANDS = {
    "moment": ("exact moment at finite matrix size", _run_moment, {
        "--n": _INT, "--two-h": {**_INT, "help": "2h (h may be half-integer)"}, "--k": _INT}, None),
    "limit": ("scaled large-size limit of a moment", _run_limit, {
        "--two-h": _INT, "--k": _INT, "--tol": {"type": float, "required": True}}, None),
    # A list with a leading minus ("-1,0") is a value, so it reaches the size check.
    "table": ("moments over an (n, 2h, k) grid", _run_table,
              {"--n": _INT_LIST, "--two-h": _INT_LIST, "--k": _INT_LIST}, re.compile(r"^-\d[\d,-]*$")),
    "mc": ("Monte Carlo estimate over Haar-random unitaries", _run_mc, {
        "--n": _INT, "--two-h": _INT, "--k": _INT, "--trials": _INT, "--seed": {"type": int, "default": 0}}, None),
    # Negative floats in any syntax float() reads ("-1e-3", "-inf") are values, so they reach the checks.
    "quad": (f"direct quadrature of the defining integral (n <= {QUAD_N_MAX})", _run_quad, {
        "--k": _INT, "--zeta": {"type": float, "default": 1.0}, "--n": _INT, "--tol": {"type": float, "default": 1e-8}},
        re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)),
    "verify": ("run every exact identity suite", _run_verify, {}, None),
}
_OUTPUT_OPTIONS = {"--format": {"choices": ("text", "json", "csv"), "default": "text", "dest": "output_format"},
                   "--out": {"dest": "output_path", "default": None, "metavar": "PATH"}}


def _inputs(args: argparse.Namespace) -> dict:
    """The JSON ``inputs`` of a request: its command's own options, by dest, in declared order."""
    actions = _command_parser(args.command)[1]
    return {action.dest: getattr(args, action.dest) for flag, action in actions.items() if flag not in _OUTPUT_OPTIONS}


def _emit(args: argparse.Namespace, text: list[str], payload: dict, rows: list[dict]) -> None:
    if args.output_format == "json":
        body = _json({"command": args.command, "inputs": _inputs(args), **payload}) + "\n"
    elif args.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        body = buffer.getvalue()
    else:
        body = "\n".join(text) + "\n"
    if args.output_path is None:
        try:
            sys.stdout.write(body)
        except UnicodeEncodeError:
            # A stream that cannot encode the text (an ASCII locale) gets its UTF-8
            # bytes, as a file does; the text layer wrote nothing before it raised.
            sys.stdout.flush()
            sys.stdout.buffer.write(body.encode("utf-8"))
            sys.stdout.buffer.flush()
        return
    # Through a symlink, as open(path, "w") writes: the link stays and its target,
    # existing or not, is the file written.
    path = os.path.realpath(args.output_path)
    # The file gets the mode open(path, "w") leaves: an existing one keeps its own,
    # a new one gets 0o666 less the umask, which os can read only by setting it.
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        os.umask(umask := os.umask(0o777))
        mode = 0o666 & ~umask
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".cue-moments-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(body)
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit status."""
    try:
        text, payload, rows = _COMMANDS[args.command][1](args)
        _emit(args, text, payload, rows)
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {args.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    # Only verify can report a failure in its result: any failed suite exits 1.
    return 0 if payload["result"].get("all_passed", True) else 1


@functools.cache
def _command_parser(command: str) -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    """The parser of one command, built from its table entry on first use, and its options' actions by flag."""
    _, _, options, negative_values = _COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"cue-moments {command}")
    parser.set_defaults(command=command)
    if negative_values is not None:
        # No public argparse API lets an option read a value with a leading minus.
        parser._negative_number_matcher = negative_values
    return parser, {flag: parser.add_argument(flag, **kwargs) for flag, kwargs in (options | _OUTPUT_OPTIONS).items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built on first use and shared by every later call.

    It names the commands and declares none of their arguments.  :func:`main`
    needs it only for help and usage errors, that is for an argv that does
    not start with a command name: no arguments, ``--help``, an unknown
    command, an option before the command.  Parsing keeps no state in a
    parser: each ``parse_args`` returns a fresh namespace, and help and usage
    are formatted at the terminal width of the moment, so :func:`main` can
    serve many requests in one process.
    """
    parser = argparse.ArgumentParser(
        prog="cue-moments",
        description="Joint moments of CUE characteristic polynomials and their derivative, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, *_) in _COMMANDS.items():
        sub.add_parser(command, help=summary)
    return parser


def _read(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """What the command parser's ``parse_args(tokens)`` returns for ``--option value`` pairs, or None.

    Each option must be one the table declares, spelled in full; its value
    must not start with "-", must convert with the action's ``type`` and lie
    in its ``choices``; every required option must be given.  As in
    argparse, the last of a repeated option wins and the declared defaults
    fill the rest; no option declares ``nargs`` or a string default for its
    ``type`` to convert.  Anything else (help, an abbreviation, ``--opt=value``,
    a negative number, a usage error) returns None, so argparse prints what it
    always has.  Only documented ``Action`` attributes are read; the tests check them.
    """
    actions = _command_parser(command)[1]
    if len(tokens) % 2:
        return None
    values = {"command": command}
    try:
        for option, text in zip(tokens[::2], tokens[1::2]):
            action = actions.get(option)
            if action is None or text[:1] == "-":
                return None
            values[action.dest] = value = (action.type or str)(text)
            if action.choices is not None and value not in action.choices:
                return None
    except (argparse.ArgumentTypeError, ValueError):
        return None
    for action in actions.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Read ``argv`` (default ``sys.argv[1:]``) once, run its command, return the exit status.

    A well-formed request, a command name and then ``--option value``
    pairs, is read by :func:`_read` from its command's declared options;
    argparse parses only what the reader declines.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = _read(argv[0], argv[1:])
        return run(_command_parser(argv[0])[0].parse_args(argv[1:]) if args is None else args)
    # Help or a usage error, which exit.  Only an argparse that drops a "--" before the
    # command returns, with a bare command (3.13.13's does; 3.10.13, 3.11.7, 3.12.1 and
    # 3.13.0 do not): it runs as if it came alone.
    command = build_parser().parse_args(argv).command
    return run(_command_parser(command)[0].parse_args([]))


if __name__ == "__main__":
    sys.exit(main())
