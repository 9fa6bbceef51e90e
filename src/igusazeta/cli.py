"""Command-line front end.

Subcommands: count, rep-roots, poincare, zeta, report, verify.
Exit codes: 0 success (or all checks passed), 1 verification failure,
2 usage or parse error, 3 domain error (composite prime, zero polynomial, ...).
"""

from __future__ import annotations

import argparse
import json
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igusazeta",
        description="Exact root counts mod prime powers, Poincare series, and "
        "Igusa local zeta functions of integer univariate polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--poly", required=True, help="polynomial in x, e.g. '2*x^2+3*x+1'")
        sp.add_argument("--prime", required=True, type=int, help="the prime p")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("count", help="print the number of roots mod p^k")
    common(sp)
    sp.add_argument("--k", required=True, type=int, help="the precision k")

    sp = sub.add_parser("rep-roots", help="print the representative roots mod p^k")
    common(sp)
    sp.add_argument("--k", required=True, type=int, help="the precision k")

    sp = sub.add_parser("poincare", help="print the Poincare series")
    common(sp)

    sp = sub.add_parser("zeta", help="print the Igusa local zeta function")
    common(sp)

    sp = sub.add_parser("report", help="print the full pipeline report")
    common(sp)

    sp = sub.add_parser("verify", help="cross-check against the brute-force oracle")
    common(sp)
    sp.add_argument("--kmax", required=True, type=int, help="check up to this precision")
    sp.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_BUDGET,
        help="enumeration budget for p^k (default %(default)s)",
    )

    return parser


def _emit(data: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(data))
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        f = parse_poly(args.poly)
        p = args.prime
        if not padic.is_prime(p):
            print(f"{p} is not prime", file=sys.stderr)
            return 3

        if args.command == "count":
            if args.k < 0:
                print("k must be nonnegative", file=sys.stderr)
                return 2
            n = igusa.root_count(f, p, args.k)
            _emit(
                {"poly": f.to_text(), "prime": str(p), "k": args.k, "count": str(n)},
                args.json,
                str(n),
            )
            return 0

        if args.command == "rep-roots":
            if args.k < 1:
                print("k must be positive", file=sys.stderr)
                return 2
            reps = padic.representative_roots(f, p, args.k)
            data = {
                "poly": f.to_text(),
                "prime": str(p),
                "k": args.k,
                "rep_roots": [r.to_json_dict() for r in reps],
            }
            _emit(data, args.json, "\n".join(r.describe() for r in reps) or "(no roots)")
            return 0

        if args.command == "poincare":
            series = igusa.poincare_series(f, p)
            data = {"poly": f.to_text(), "prime": str(p), "poincare": series.to_json_dict()}
            _emit(data, args.json, series.to_text())
            return 0

        if args.command == "zeta":
            z = igusa.zeta_function(f, p)
            data = {"poly": f.to_text(), "prime": str(p), "zeta": z.to_json_dict()}
            _emit(data, args.json, z.to_text())
            return 0

        if args.command == "report":
            rep = igusa.report(f, p)
            _emit(rep.to_json_dict(), args.json, rep.describe())
            return 0

        if args.command == "verify":
            if args.kmax < 0:
                print("kmax must be nonnegative", file=sys.stderr)
                return 2
            result = oracle.verify_instance(f, p, args.kmax, args.budget)
            if args.json:
                print(json.dumps(result.to_json_dict()))
            else:
                for check in result.checks:
                    status = "PASS" if check.passed else "FAIL"
                    line = f"{status} {check.name}"
                    if not check.passed:
                        line += f" expected={check.expected} actual={check.actual}"
                    print(line)
                print("all checks passed" if result.all_pass else "SOME CHECKS FAILED")
            return 0 if result.all_pass else 1

        raise AssertionError(f"unhandled command {args.command!r}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
