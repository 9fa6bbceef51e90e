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

from . import igusa, padic
from .errors import ArgumentError, ParseError, VariableError, ZetaError
from .exactpoly import IntPoly, decimal_text

# One token per match; whitespace matches no group, so finditer skips it.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<x>x)|(?P<name>[A-Za-z_])|(?P<op>\*\*|[-+*^])|(?P<bad>\S)")


def _integer(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than Python converts (sys.get_int_max_str_digits)
        raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None


def parse_poly(s: str) -> IntPoly:
    """Parse an integer polynomial in x, e.g. "2*x^2 + 3*x + 1", by the grammar

        poly = [sign] term {sign term},  term = factor {"*" factor},
        factor = integer | "x" ["^" integer],  sign = "+" | "-"

    with whitespace between tokens, "**" for "^" and "−" for "-".  So "2x" is
    an error and an exponent is a nonnegative integer literal.  Terms of the
    same degree are summed, and the degree is the largest with a nonzero sum.
    A syntax error, or a literal longer than Python's int-string digit limit,
    raises ParseError with its position; a degree too large to store raises
    ArgumentError.
    """
    s = s.replace("−", "-")
    tokens = []
    for m in _TOKEN.finditer(s):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "name":
            raise VariableError(f"unknown variable {text!r}, only x is allowed", pos)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        tokens.append((kind, "^" if text == "**" else text, pos))
    if not tokens:
        raise ParseError("empty polynomial", 0)
    tokens.append(("end", "", len(s)))

    coeffs: dict[int, int] = {}
    i = 0
    while tokens[i][0] != "end":
        _, text, pos = tokens[i]
        if text in ("+", "-"):
            i += 1
        elif i:  # only the first term may omit its sign
            raise ParseError(f"expected '+' or '-', got {text!r}", pos)
        coeff, degree = -1 if text == "-" else 1, 0
        while True:
            kind, text, pos = tokens[i]
            if kind == "int":
                coeff *= _integer(text, pos)
            elif kind == "x" and tokens[i + 1][1] == "^":
                i += 2
                kind, text, pos = tokens[i]
                if kind != "int":
                    raise ParseError("expected an integer exponent after '^'", pos)
                degree += _integer(text, pos)
            elif kind == "x":
                degree += 1
            elif kind == "end":
                raise ParseError("expected a term", pos)
            else:
                raise ParseError(f"unexpected {text!r} in term", pos)
            i += 1
            if tokens[i][1] != "*":
                break
            i += 1
        coeffs[degree] = coeffs.get(degree, 0) + coeff

    # Terms that cancel, such as 0*x^9 or x^9 - x^9, do not raise the degree.
    coeffs = {degree: coeff for degree, coeff in coeffs.items() if coeff}
    top = max(coeffs, default=0)
    try:
        dense = [0] * (top + 1)
    except (MemoryError, OverflowError):
        raise ArgumentError(f"a polynomial of degree {top} does not fit in memory") from None
    for degree, coeff in coeffs.items():
        dense[degree] = coeff
    return IntPoly(dense)


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
        help="enumeration budget for p^k (default 10000000)",
    )
    return parser


def _result(args: argparse.Namespace, f: IntPoly) -> tuple[dict, str, int]:
    """The JSON data, the text and the exit code of one subcommand."""
    p = args.prime
    head = {"poly": f.to_text(), "prime": str(p)}
    if args.command == "count":
        n = igusa.root_count(f, p, args.k)
        text = decimal_text(n)
        return {**head, "k": args.k, "count": text}, text, 0
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
    from . import oracle  # only verify pays for the oracle's import

    budget = oracle.DEFAULT_BUDGET if args.budget is None else args.budget
    result = oracle.verify_instance(f, p, args.kmax, budget)
    return result.to_json_dict(), result.describe(), 0 if result.all_pass else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        data, text, code = _result(args, parse_poly(args.poly))
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
