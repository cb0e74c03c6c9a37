"""Command-line front end.

Subcommands: ``matrix`` (build and print one of the four families),
``factorize`` (eigen-decomposition with verification), ``order`` (closed
form, optionally cross-checked by brute force), ``census`` (full sweep
over a finite field) and ``selftest`` (packaged invariant suites).

Exit codes: 0 ok; 1 selftest or cross-check failure; 2 parse error
(``ParseError``); 3 precondition violation (``OutOfRange``,
``ZeroParameter``, ``SingularParameter``, ``MixedFields``,
``DimensionMismatch``); 4 factorization refused because x^2 = 1
(``SingularParameter`` from ``factorize``); 5 census over an infinite field
(``InfiniteField``).  The library checks every precondition and raises a
typed error; ``main`` maps the error's class to its code through
``EXIT_CODES``, so no subcommand repeats a library check.

Start-up: ``main`` builds its argparse parser on its first call and reuses
it for every later call in the process, and it finds the handler of a
subcommand by name (``cmd_<subcommand>``) at call time.  ``selftest`` is
imported only when the ``selftest`` subcommand runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .census import census_csv, census_json, census_rows, census_table
from .errors import (
    DimensionMismatch,
    InfiniteField,
    MixedFields,
    OutOfRange,
    ParseError,
    SingularParameter,
    ZeroParameter,
)
from .fields import parse_element, parse_field_spec
from .matrices import SquareMatrix, d_matrix, matrix_to_json, p1_matrix, p2_matrix, q_matrix
from .orders import oracle_agrees, q_order, q_order_bruteforce
from .spectral import factorize_q, verify_factorization

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NOT_DIAGONALIZABLE = 4
EXIT_INFINITE_CENSUS = 5

# the exit code of each library error class that ``main`` reports; an error
# of any other class propagates
EXIT_CODES = {
    ParseError: EXIT_PARSE,
    OutOfRange: EXIT_PRECONDITION,
    ZeroParameter: EXIT_PRECONDITION,
    SingularParameter: EXIT_PRECONDITION,
    MixedFields: EXIT_PRECONDITION,
    DimensionMismatch: EXIT_PRECONDITION,
    InfiniteField: EXIT_INFINITE_CENSUS,
}

_MATRIX_KINDS = {"p1": (p1_matrix, 1), "p2": (p2_matrix, 1), "q": (q_matrix, 2), "d": (d_matrix, 1)}


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _split_params(text: str) -> list[str]:
    """Split a comma-separated parameter list, respecting [...] brackets."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _print_matrix(mat: SquareMatrix, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(matrix_to_json(mat), indent=2))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(mat.texts())
    else:
        print(mat)


def cmd_matrix(args) -> int:
    field = parse_field_spec(args.field)
    builder, arity = _MATRIX_KINDS[args.kind]
    params = _split_params(args.params)
    if len(params) != arity:
        raise ParseError(f"kind {args.kind} takes {arity} parameter(s), got {len(params)}")
    elems = [parse_element(p, field) for p in params]
    _print_matrix(builder(*elems, args.n), args.format)
    return EXIT_OK


def cmd_factorize(args) -> int:
    field = parse_field_spec(args.field)
    y = parse_element(args.y, field)
    x = parse_element(args.x, field)
    try:
        dec = factorize_q(y, x, args.n)
    except SingularParameter:
        if y.is_zero():
            _err(
                "x^2 = 1: the similarity parameter does not exist, but with y = 0 "
                "the matrix is already diagonal (the identity)"
            )
        else:
            _err(
                "x^2 = 1 and y != 0: not diagonalizable "
                "(diagonalizable only when x is outside {1,-1} or y = 0)"
            )
        return EXIT_NOT_DIAGONALIZABLE
    if args.format == "json":
        payload = dec.to_json()
        verified = payload["verified"]
        print(json.dumps(payload, indent=2))
    else:
        verified = verify_factorization(dec)
        print(f"field: {field.spec()}")
        print(f"n: {args.n}")
        print(f"y = {y}")
        print(f"x = {x}")
        print(f"z = {dec.z}")
        for label, mat in (("P1(z)", dec.left), ("D(x^2)", dec.middle), ("P1(-z)", dec.right)):
            print(f"{label}:")
            for line in mat.row_texts():
                print(f"  {line}")
        print(f"verified={'true' if verified else 'false'}")
    return EXIT_OK if verified else EXIT_FAILURE


def cmd_order(args) -> int:
    field = parse_field_spec(args.field)
    y = parse_element(args.y, field)
    x = parse_element(args.x, field)
    formula = q_order(y, x, args.n)
    if not args.oracle:
        if args.format == "json":
            print(json.dumps(formula.to_json()))
        else:
            print(formula)
        return EXIT_OK
    cap = args.cap
    if cap is None and not field.is_finite:
        cap = 1000
    brute = q_order_bruteforce(y, x, args.n, cap)
    agree = oracle_agrees(formula, brute)
    if args.format == "json":
        print(json.dumps({"formula": formula.to_json(), "oracle": brute.to_json(), "agree": agree}))
    else:
        print(f"formula={formula}")
        print(f"oracle={brute}")
    if not agree:
        _err("formula and brute-force order disagree (this is a bug, not a usage error)")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_census(args) -> int:
    field = parse_field_spec(args.field)
    mismatches: list[str] = []
    rows = census_rows(field, args.n, mismatches if args.verify else None, args.cap)
    render = {"csv": census_csv, "json": census_json, "table": census_table}[args.format]
    render(rows, sys.stdout)
    for m in mismatches:
        _err(m)
    return EXIT_FAILURE if mismatches else EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    reports = run_all()
    width = max(len(r.name) for r in reports)
    failed = False
    for rep in reports:
        status = f"{len(rep.failures)} FAILED" if rep.failures else "ok"
        print(f"{rep.name.ljust(width)}  {rep.checks:5d} checks  {status}")
        for message in rep.failures[:10]:
            print(f"  - {message}")
        failed = failed or bool(rep.failures)
    total = sum(r.checks for r in reports)
    print(f"selftest: {'FAIL' if failed else 'PASS'} ({len(reports)} suites, {total} checks)")
    return EXIT_FAILURE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zhangliu",
        description="Exact Pascal-family matrices over finite fields and the rationals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="build and print one matrix")
    p.add_argument("--field", required=True, help="gf:p | gf:p^k | gf:p^k:m=c0,...,ck | qq")
    p.add_argument("--kind", required=True, choices=sorted(_MATRIX_KINDS))
    p.add_argument("--params", required=True, help="one element, or two comma-separated for kind q")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])

    p = sub.add_parser("factorize", help="eigen-decomposition of q_matrix(y, x, n)")
    p.add_argument("--field", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--format", default="table", choices=["table", "json"])

    p = sub.add_parser("order", help="order of q_matrix(y, x, n)")
    p.add_argument("--field", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force oracle")
    p.add_argument("--cap", type=int, default=None, help="brute-force cap (default 1000 over qq)")
    p.add_argument("--format", default="table", choices=["table", "json"])

    p = sub.add_parser("census", help="order and diagonalizability for every (y, x)")
    p.add_argument("--field", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p.add_argument("--verify", action="store_true", help="check every row against the oracles")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; no effect (output is identical for every value)"
    )
    p.add_argument("--cap", type=int, default=None)

    sub.add_parser("selftest", help="run the packaged invariant suites")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except tuple(EXIT_CODES) as e:
        _err(str(e))
        return next(EXIT_CODES[cls] for cls in type(e).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
