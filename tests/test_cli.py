import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import igusazeta
from igusazeta.cli import main, parse_poly
from igusazeta.errors import ArgumentError, ParseError, VariableError
from igusazeta.exactpoly import IntPoly


class TestParsePoly:
    def test_examples(self):
        assert parse_poly("2*x^2+3*x+1") == IntPoly([1, 3, 2])
        assert parse_poly("x^2 - 1") == IntPoly([-1, 0, 1])
        assert parse_poly("x + x") == IntPoly([0, 2])

    def test_whitespace_and_signs(self):
        assert parse_poly("  -4*x^3 + x - 12 ") == IntPoly([-12, 1, 0, -4])
        assert parse_poly("+5") == IntPoly([5])
        assert parse_poly("-x") == IntPoly([0, -1])

    def test_unicode_minus(self):
        assert parse_poly("x−1") == IntPoly([-1, 1])

    def test_big_coefficients(self):
        n = 10**40 + 7
        assert parse_poly(f"{n}*x^2") == IntPoly([0, 0, n])

    def test_products_and_powers(self):
        assert parse_poly("2*x*x") == IntPoly([0, 0, 2])
        assert parse_poly("x^2*3") == IntPoly([0, 0, 3])
        assert parse_poly("x**2") == IntPoly([0, 0, 1])

    def test_round_trip_with_to_text(self):
        for f in (IntPoly([1, 3, 2]), IntPoly([-12, 1, 0, -4]), IntPoly([7])):
            assert parse_poly(f.to_text()) == f

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("2*x^2 + @")
        assert err.value.position == 8
        with pytest.raises(ParseError):
            parse_poly("")
        with pytest.raises(ParseError):
            parse_poly("2 + * 3")
        with pytest.raises(ParseError):
            parse_poly("x^")
        with pytest.raises(ParseError):
            parse_poly("x^-2")

    def test_missing_operator_between_terms(self):
        with pytest.raises(ParseError, match="expected '\\+' or '-'") as err:
            parse_poly("2x")
        assert err.value.position == 1

    def test_variable_error(self):
        with pytest.raises(VariableError) as err:
            parse_poly("y^2")
        assert err.value.position == 0

    @pytest.mark.parametrize(
        "text, cls, message, position",
        [
            ("2*x^2 + @", ParseError, "unexpected character '@'", 8),
            ("y^2", VariableError, "unknown variable 'y', only x is allowed", 0),
            ("", ParseError, "empty polynomial", 0),
            ("   ", ParseError, "empty polynomial", 0),
            ("-", ParseError, "expected a term", 1),
            ("x^", ParseError, "expected an integer exponent after '^'", 2),
            ("x^-2", ParseError, "expected an integer exponent after '^'", 2),
            ("2 + * 3", ParseError, "unexpected '*' in term", 4),
            ("2x", ParseError, "expected '+' or '-', got 'x'", 1),
            ("2 3", ParseError, "expected '+' or '-', got '3'", 2),
            ("x^2^3", ParseError, "expected '+' or '-', got '^'", 3),
        ],
    )
    def test_rejected_input(self, text, cls, message, position):
        with pytest.raises(cls) as err:
            parse_poly(text)
        assert type(err.value) is cls
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_degree_that_does_not_fit(self):
        # 10^30 exceeds any list index, so nothing is allocated
        degree = "9" * 30
        message = f"a polynomial of degree {degree} does not fit in memory"
        with pytest.raises(ArgumentError) as err:
            parse_poly(f"x^{degree}")
        assert str(err.value) == message

    def test_terms_that_cancel_do_not_raise_the_degree(self):
        degree = "9" * 30
        assert parse_poly(f"0*x^{degree} + x") == IntPoly([0, 1])
        assert parse_poly(f"x^{degree} + 2 - x^{degree}") == IntPoly([2])
        assert parse_poly(f"x^{degree} - x^{degree}").is_zero

    @pytest.mark.parametrize("text, position", [("9" * 4301 + "*x", 0), ("x^" + "1" * 4301, 2)])
    def test_literal_past_the_int_string_limit(self, text, position):
        # Python refuses int() of more than sys.get_int_max_str_digits()
        # digits, 4300 by default; the parser reports it as a syntax error.
        with pytest.raises(ParseError) as err:
            parse_poly("x + " + text)
        assert err.value.position == position + 4
        assert str(err.value) == (
            f"integer literal of 4301 digits is too long (at position {position + 4})"
        )


class TestMain:
    def test_count(self, capsys):
        assert main(["count", "--poly", "x^2-1", "--prime", "2", "--k", "7"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_count_with_content(self, capsys):
        assert main(["count", "--poly", "12", "--prime", "2", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_zeta_json(self, capsys):
        assert main(["zeta", "--poly", "x", "--prime", "7", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["zeta"] == {"num": ["6"], "den": ["7", "-1"]}

    def test_poincare_text(self, capsys):
        assert main(["poincare", "--poly", "x^2", "--prime", "3"]) == 0
        assert capsys.readouterr().out.strip() == "(t + 3) / (-t^2 + 3)"

    def test_composite_prime(self, capsys):
        assert main(["zeta", "--poly", "x", "--prime", "4"]) == 3
        assert capsys.readouterr().err == "error: p must be prime: 4 is not prime\n"

    @pytest.mark.parametrize("prime", ["1", "0", "-7"])
    @pytest.mark.parametrize(
        "command",
        [["zeta"], ["count", "--k", "2"], ["verify", "--kmax", "3"]],
        ids=["zeta", "count", "verify"],
    )
    def test_prime_below_two(self, capsys, command, prime):
        assert main([*command, "--poly", "x", "--prime", prime]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: p must be at least 2\n"

    def test_strong_pseudoprime_rejected(self, capsys):
        # 1287836182261 * 2575672364521 passes Miller-Rabin to the bases 2..37.
        n = "3317044064679887385961981"
        assert main(["zeta", "--poly", "x^2-1", "--prime", n]) == 3
        assert f"{n} is not prime" in capsys.readouterr().err

    def test_zero_polynomial(self, capsys):
        assert main(["zeta", "--poly", "0", "--prime", "3"]) == 3
        assert main(["count", "--poly", "0", "--prime", "3", "--k", "2"]) == 3

    def test_parse_error_exit_code(self, capsys):
        assert main(["count", "--poly", "y^2", "--prime", "2", "--k", "1"]) == 2
        assert "unknown variable" in capsys.readouterr().err
        assert main(["count", "--poly", "y+1", "--prime", "3", "--k", "1"]) == 2
        assert main(["count", "--poly", "x +", "--prime", "3", "--k", "1"]) == 2

    def test_degree_that_does_not_fit(self, capsys):
        degree = "9" * 30
        assert main(["zeta", "--poly", f"x^{degree}", "--prime", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a polynomial of degree {degree} does not fit in memory\n"

    def test_literal_past_the_int_string_limit(self, capsys):
        assert main(["zeta", "--poly", "9" * 4301 + "*x", "--prime", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: integer literal of 4301 digits is too long (at position 0)\n"

    def test_count_past_the_int_string_limit(self, capsys):
        # x^2 has 2^15000 roots mod 2^30000: 4516 digits
        limit = sys.get_int_max_str_digits()
        assert main(["count", "--poly", "x^2", "--prime", "2", "--k", "30000"]) == 0
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{2**15000}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_report_past_the_int_string_limit(self, capsys):
        # Each literal converts, but their product has 6000 digits.
        limit = sys.get_int_max_str_digits()
        nines = "9" * 3000
        assert main(["report", "--poly", f"{nines}*{nines}*x", "--prime", "2"]) == 0
        assert capsys.readouterr().out.startswith(f"polynomial: {'9' * 2999}8{'0' * 2999}1*x\n")
        assert sys.get_int_max_str_digits() == limit
        # The limit comes back when the command fails, too.
        assert main(["report", "--poly", f"{nines}*{nines}*x", "--prime", "4"]) == 3
        assert sys.get_int_max_str_digits() == limit

    def test_library_output_past_the_int_string_limit_equals_the_cli(self, capsys):
        # The library writes the 6000-digit coefficient itself, under the
        # default limit, and leaves the limit as it was.
        limit = sys.get_int_max_str_digits()
        nines = "9" * 3000
        rep = igusazeta.report(IntPoly([0, (10**3000 - 1) ** 2]), 2)
        assert main(["report", "--poly", f"{nines}*{nines}*x", "--prime", "2"]) == 0
        assert capsys.readouterr().out == rep.describe() + "\n"
        assert main(["report", "--poly", f"{nines}*{nines}*x", "--prime", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == rep.to_json_dict()
        assert sys.get_int_max_str_digits() == limit

    def test_terms_that_cancel_do_not_raise_the_degree(self, capsys):
        assert main(["zeta", "--poly", "0*x^99999999999 + x", "--prime", "7"]) == 0
        assert capsys.readouterr().out == "(6) / (-t + 7)\n"

    def test_usage_error(self, capsys):
        assert main(["count", "--poly", "x"]) == 2
        assert main(["nonsense"]) == 2

    def test_rep_roots_with_content(self, capsys):
        assert main(["rep-roots", "--poly", "12", "--prime", "2", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "all residues (mod 2^2)"
        assert main(["rep-roots", "--poly", "12", "--prime", "2", "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "(no roots)"
        assert main(["rep-roots", "--poly", "2*x", "--prime", "2", "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0 + 2^2*m (mod 2^3), digits 0,0"
        code = main(["rep-roots", "--poly", "2*x", "--prime", "2", "--k", "3", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rep_roots"] == [{"digits": ["0", "0"], "length": 2}]

    def test_rep_roots_json(self, capsys):
        code = main(["rep-roots", "--poly", "x^2-1", "--prime", "2", "--k", "7", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rep_roots"] == [
            {"digits": ["1", "0", "0", "0", "0", "0"], "length": 6},
            {"digits": ["1", "1", "1", "1", "1", "1"], "length": 6},
        ]

    def test_verify_all_pass(self, capsys):
        code = main(["verify", "--poly", "x^2-1", "--prime", "2", "--kmax", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_verify_json(self, capsys):
        code = main(["verify", "--poly", "x^2-1", "--prime", "2", "--kmax", "8", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_pass"] is True and data["kmax"] == 8

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["count", "--k", "-1"], "k must be nonnegative"),
            (["rep-roots", "--k", "0"], "k must be positive"),
            (["verify", "--kmax", "-1"], "kmax must be nonnegative"),
        ],
        ids=["count", "rep-roots", "verify"],
    )
    def test_precision_out_of_range(self, capsys, argv, message):
        assert main(argv[:1] + ["--poly", "x", "--prime", "3"] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["count", "rep-roots", "verify"])
    def test_precision_not_an_integer(self, capsys, command):
        flag = "--kmax" if command == "verify" else "--k"
        assert main([command, "--poly", "x", "--prime", "3", flag, "abc"]) == 2
        captured = capsys.readouterr()
        assert "invalid int value: 'abc'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_verify_budget_below_one(self, capsys, budget):
        code = main(["verify", "--poly", "x", "--prime", "2", "--kmax", "3", "--budget", budget])
        assert code == 3
        captured = capsys.readouterr()
        assert "enumeration budget" in captured.err
        assert "all checks passed" not in captured.out

    def test_verify_budget_help_names_the_default(self, capsys):
        # the parser writes the default out, so that the CLI loads the oracle
        # only for verify; the two must not drift apart
        from igusazeta.oracle import DEFAULT_BUDGET

        assert main(["verify", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"enumeration budget for p^k (default {DEFAULT_BUDGET})" in help_text

    def test_verify_decides_p_before_the_budget(self, capsys):
        argv = ["verify", "--poly", "x", "--prime", "4", "--kmax", "3", "--budget", "0"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: p must be prime: 4 is not prime\n"

    def test_verify_table_that_does_not_fit(self, capsys, monkeypatch):
        import igusazeta.oracle as oracle

        next_level = oracle._next_level

        def refuse(f, roots, step, m):
            if m // step * len(roots) >= 2**20:
                raise MemoryError
            return next_level(f, roots, step, m)

        # every residue is a root of 2^40 mod 2^k up to the budget, so
        # level 20 has 2^20 candidates, refused as if memory ran out
        monkeypatch.setattr(oracle, "_next_level", refuse)
        argv = ["verify", "--poly", "1099511627776", "--prime", "2", "--kmax", "40",
                "--budget", "10000000000"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: an array of 1048576 residues does not fit in memory\n"

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        import igusazeta.oracle as oracle

        levels = oracle._root_levels

        # every level loses its smallest root, so f's roots are misplaced
        monkeypatch.setattr(
            oracle, "_root_levels", lambda f, p, K: (r[1:] for r in levels(f, p, K))
        )
        code = main(["verify", "--poly", "x", "--prime", "3", "--kmax", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        *checks, last = out.splitlines()
        assert last == "SOME CHECKS FAILED"
        failing = [line for line in checks if not line.startswith("PASS ")]
        assert failing
        for line in failing:
            assert re.fullmatch(r"FAIL \S.* expected=.* actual=.*", line), line

    def test_report_json_round_trip(self, capsys):
        code = main(["report", "--poly", "2*x^2+3*x+1", "--prime", "2", "--json"])
        assert code == 0
        text = capsys.readouterr().out
        data = json.loads(text)
        assert list(data) == [
            "poly",
            "prime",
            "delta",
            "k0",
            "n",
            "content_shift",
            "branches",
            "poincare",
            "zeta",
        ]
        assert data["delta"] == 1 and data["k0"] == 5 and data["n"] == 1
        assert data["branches"][0] == {
            "e": 1,
            "nu": 0,
            "k_align": 5,
            "prefix": ["1", "1", "1", "1", "1"],
        }
        # parsing the emitted JSON and re-serializing is the identity
        from igusazeta.igusa import report
        from igusazeta.ratfun import RationalFunction

        f = parse_poly(data["poly"])
        p = int(data["prime"])
        again = report(f, p).to_json_dict()
        assert json.dumps(again) == text.strip()
        num, den = ([int(c) for c in data["zeta"][k]] for k in ("num", "den"))
        zeta = RationalFunction(IntPoly(num), IntPoly(den))
        assert zeta.to_json_dict() == data["zeta"]

    def test_report_constant(self, capsys):
        code = main(["report", "--poly", "12", "--prime", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["delta"] is None and data["k0"] is None
        assert data["n"] == 0 and data["content_shift"] == 2
        assert data["poincare"] == {"num": ["1", "1", "1"], "den": ["1"]}

    def test_big_prime_backend(self, capsys):
        code = main(["count", "--poly", "x^2-1", "--prime", "1000003", "--k", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(capsys, case):
    """Exact stdout and exit code of every subcommand, text and --json.

    cli_golden.json holds the output of `python -m igusazeta <argv>` as it
    was before the one-emitter rewrite of cli.main.
    """
    assert main(case["argv"]) == case["code"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_closed_pipe_ends_quietly(fmt):
    # About 113 KB of text: more than a pipe holds, so the writer is still
    # writing when the reader goes away.
    argv = ["verify", "--poly", "x", "--prime", "2", "--kmax", "6000", "--budget", "1"]
    src = str(Path(igusazeta.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "igusazeta", *argv, *fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline(1024)
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert first
    assert code == 0
    assert err == ""


def test_verify_runs_without_numpy():
    # The oracle enumerates in Python ints, so verify needs no numpy; report,
    # zeta and friends never enumerate, so they skip the oracle's import.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import igusazeta\n"
        "from igusazeta.cli import main\n"
        "assert main(['zeta', '--poly', 'x^2 - 1', '--prime', '2']) == 0\n"
        "assert 'igusazeta.oracle' not in sys.modules\n"
        "assert main(['verify', '--poly', 'x^2 - 1', '--prime', '2', '--kmax', '8']) == 0\n"
        "assert igusazeta.brute_count(igusazeta.parse_poly('x^2 - 1'), 2, 3) == 4\n"
    )
    src = str(Path(igusazeta.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
