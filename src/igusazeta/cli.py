"""Command-line front end.

Subcommands: count, rep-roots, poincare, zeta, report, verify.  Each runs one
path: argparse parses and range-checks the arguments, _result computes the
JSON data, the text and the exit code, and main prints one of the two once.
Exit codes: 0 success (or all checks passed), 1 verification failure,
2 usage or parse error, 3 domain error (composite prime, zero polynomial, ...).
Output to a pipe whose reader has gone ends quietly with the command's own
exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import igusa, oracle, padic
from .errors import ParseError, VariableError, ZetaError
from .exactpoly import IntPoly

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_])|(?P<op>\*\*|[+\-*^])")


def _tokenize(s: str) -> list[tuple[str, str, int]]:
    s = s.replace("−", "-")
    tokens = []
    pos = 0
    n = len(s)
    while pos < n:
        if s[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(s, pos)
        if m is None:
            raise ParseError(f"unexpected character {s[pos]!r}", pos)
        if m.lastgroup == "name":
            if m.group() != "x":
                raise VariableError(f"unknown variable {m.group()!r}, only x is allowed", pos)
            tokens.append(("x", "x", pos))
        elif m.lastgroup == "int":
            tokens.append(("int", m.group(), pos))
        else:
            op = "^" if m.group() == "**" else m.group()
            tokens.append(("op", op, pos))
        pos = m.end()
    return tokens


def parse_poly(s: str) -> IntPoly:
    """Parse an integer polynomial in x, e.g. "2*x^2 + 3*x + 1".

    Whitespace is ignored, repeated terms of the same degree are summed, and
    coefficients may be arbitrarily large.
    """
    tokens = _tokenize(s)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    coeffs: dict[int, int] = {}
    i = 0

    def term(sign: int) -> None:
        nonlocal i
        coeff = sign
        degree = 0
        while True:
            if i >= len(tokens):
                raise ParseError("expected a term", len(s))
            kind, text, pos = tokens[i]
            if kind == "int":
                coeff *= int(text)
                i += 1
            elif kind == "x":
                i += 1
                if i < len(tokens) and tokens[i][:2] == ("op", "^"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "int":
                        where = tokens[i][2] if i < len(tokens) else len(s)
                        raise ParseError("expected an integer exponent after '^'", where)
                    degree += int(tokens[i][1])
                    i += 1
                else:
                    degree += 1
            else:
                raise ParseError(f"unexpected {text!r} in term", pos)
            if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                i += 1
                continue
            break
        coeffs[degree] = coeffs.get(degree, 0) + coeff

    sign = 1
    if tokens[i][:2] == ("op", "+"):
        i += 1
    elif tokens[i][:2] == ("op", "-"):
        sign = -1
        i += 1
    term(sign)
    while i < len(tokens):
        kind, text, pos = tokens[i]
        if (kind, text) == ("op", "+"):
            i += 1
            term(1)
        elif (kind, text) == ("op", "-"):
            i += 1
            term(-1)
        else:
            raise ParseError(f"expected '+' or '-', got {text!r}", pos)

    top = max(coeffs) if coeffs else 0
    return IntPoly(coeffs.get(d, 0) for d in range(top + 1))


def _at_least(low: int, name: str):
    """An argparse type: an int of at least low (0 or 1)."""
    bound = "nonnegative" if low == 0 else "positive"

    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be {bound}")
        return value

    check.__name__ = "int"  # argparse names the type in "invalid int value"
    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igusazeta",
        description="Exact root counts mod prime powers, Poincare series, and "
        "Igusa local zeta functions of integer univariate polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--poly", required=True, help="polynomial in x, e.g. '2*x^2+3*x+1'")
        sp.add_argument("--prime", required=True, type=int, help="the prime p")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = common("count", "print the number of roots mod p^k")
    sp.add_argument("--k", required=True, type=_at_least(0, "k"), help="the precision k")
    sp = common("rep-roots", "print the representative roots mod p^k")
    sp.add_argument("--k", required=True, type=_at_least(1, "k"), help="the precision k")
    common("poincare", "print the Poincare series")
    common("zeta", "print the Igusa local zeta function")
    common("report", "print the full pipeline report")
    sp = common("verify", "cross-check against the brute-force oracle")
    sp.add_argument(
        "--kmax", required=True, type=_at_least(0, "kmax"), help="check up to this precision"
    )
    sp.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_BUDGET,
        help="enumeration budget for p^k (default %(default)s)",
    )
    return parser


def _result(args: argparse.Namespace, f: IntPoly) -> tuple[dict, str, int]:
    """The JSON data, the text and the exit code of one subcommand."""
    p = args.prime
    head = {"poly": f.to_text(), "prime": str(p)}
    if args.command == "count":
        n = igusa.root_count(f, p, args.k)
        return {**head, "k": args.k, "count": str(n)}, str(n), 0
    if args.command == "rep-roots":
        reps = padic.representative_roots(f, p, args.k)
        data = {**head, "k": args.k, "rep_roots": [r.to_json_dict() for r in reps]}
        return data, "\n".join(r.describe() for r in reps) or "(no roots)", 0
    if args.command in ("poincare", "zeta"):
        series = getattr(igusa.report(f, p), args.command)
        return {**head, args.command: series.to_json_dict()}, series.to_text(), 0
    if args.command == "report":
        rep = igusa.report(f, p)
        return rep.to_json_dict(), rep.describe(), 0
    result = oracle.verify_instance(f, p, args.kmax, args.budget)
    return result.to_json_dict(), result.describe(), 0 if result.all_pass else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        f = parse_poly(args.poly)
        data, text, code = _result(args, f)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        print(json.dumps(data) if args.json else text, flush=True)
    except BrokenPipeError:
        # The reader has gone, as with `| head`: end quietly.  Point stdout
        # at devnull so that the interpreter's final flush cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
