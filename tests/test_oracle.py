import json
import random
import sys
from fractions import Fraction

import pytest

from igusazeta.errors import ArgumentError, BudgetExceeded
from igusazeta.exactpoly import IntPoly, decimal_text
from igusazeta import oracle, padic
from igusazeta.exactpoly import content_and_primitive
from igusazeta.igusa import report
from igusazeta.oracle import (
    _fmt_reps,
    brute_count,
    brute_rep_roots,
    verify_instance,
)
from igusazeta.padic import count_roots, representative_roots

from corpus import CORPUS
from igusazeta.cli import parse_poly


class TestBruteCount:
    def test_examples(self):
        assert brute_count(IntPoly([-1, 0, 1]), 2, 3) == 4
        assert brute_count(IntPoly([1, 3, 2]), 2, 2) == 1
        assert brute_count(IntPoly([0, 1]), 3, 4) == 1

    def test_k_zero(self):
        assert brute_count(IntPoly([5]), 7, 0) == 1

    def test_negative_precision(self):
        with pytest.raises(ArgumentError, match="nonnegative"):
            brute_count(IntPoly([0, 1]), 2, -1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_count(IntPoly([0, 1]), 2, 24)
        assert brute_count(IntPoly([0, 1]), 2, 24, budget=2**24) == 1

    def test_modulus_past_the_old_int64_limit_enumerates_exactly(self):
        # Python ints cannot overflow, so the budget alone bounds p^k; the
        # oracle once refused every p^k above 3037000499, past which a
        # product of two residues outgrows int64.
        assert brute_count(IntPoly([0, 1]), 2, 32, budget=2**33) == 1
        reps = brute_rep_roots(IntPoly([0, 1]), 3, 20, budget=10**10)
        assert [r.digits for r in reps] == [(0,) * 20]
        # x^2 + 2 has two roots mod 3^k for every k; mod 3^30 each squares
        # past 2^63.
        f, m = IntPoly([2, 0, 1]), 3**30
        roots = oracle._roots_mod(f, 3, 30, budget=m)
        assert len(roots) == 2 and roots[0] + roots[1] == m
        assert all((r * r + 2) % m == 0 and r * r > 2**63 for r in roots)


# The int64-limit cases sit past the limit 3037000499 that the oracle once
# had; the budget is the only limit a refusal reports.
@pytest.mark.parametrize(
    "p, k, budget, limit",
    [(2, 24, 10**7, 10**7), (2, 34, 2**33, 2**33), (3, 21, 10**10, 10**10)],
    ids=["budget", "int64-limit", "int64-limit-odd-p"],
)
def test_budget_error_carries_the_modulus_and_the_limit(p, k, budget, limit):
    want = f"p\\^k = {p**k} exceeds the enumeration budget {budget}"
    with pytest.raises(BudgetExceeded, match=want) as err:
        brute_count(IntPoly([0, 1]), p, k, budget=budget)
    assert (err.value.modulus, err.value.limit, err.value.size) == (p**k, limit, None)


def test_budget_error_past_the_int_string_limit():
    # p^k has 6021 digits, past Python's 4300-digit int-string limit
    with pytest.raises(BudgetExceeded) as err:
        brute_count(IntPoly([0, 1]), 2, 20000)
    assert err.value.modulus == 2**20000
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"p^k = {2**20000} exceeds the enumeration budget 10000000"
    finally:
        sys.set_int_max_str_digits(old)
    assert str(err.value) == want


def _refusing(n, step="build"):
    """oracle._next_level, except that it raises MemoryError, as a level
    that outgrows memory does, when the level has n or more candidates:
    before any candidate is evaluated (build), or once its roots are
    collected (read)."""
    next_level = oracle._next_level

    def call(f, roots, lift, m):
        if m // lift * len(roots) < n:
            return next_level(f, roots, lift, m)
        if step == "read":
            next_level(f, roots, lift, m)
        raise MemoryError

    return call


@pytest.mark.parametrize("step", ["build", "read"])
@pytest.mark.parametrize("call", [brute_count, brute_rep_roots])
def test_table_that_does_not_fit_is_a_budget_error(monkeypatch, call, step):
    # Every residue is a root of 243 mod 3^k for k <= 5, so level k has 3^k
    # candidates.  Level 5 fails while its candidates are evaluated (build)
    # or as its roots are returned (read); the error names that level's size.
    monkeypatch.setattr(oracle, "_next_level", _refusing(243, step))
    with pytest.raises(BudgetExceeded, match="an array of 243 residues does not fit") as err:
        call(IntPoly([243]), 3, 5)
    assert (err.value.modulus, err.value.limit, err.value.size) == (None, None, 243)


def test_root_list_that_does_not_fit_is_a_budget_error(monkeypatch):
    # the representative roots group the level's roots as Python ints
    def refuse(*args):
        raise MemoryError

    monkeypatch.setattr(oracle, "_decompose", refuse)
    with pytest.raises(BudgetExceeded, match="an array of 81 residues does not fit"):
        brute_rep_roots(IntPoly([81]), 3, 4)


@pytest.mark.parametrize("p", [1, 0, -1, -2])
@pytest.mark.parametrize("call", [brute_count, brute_rep_roots])
def test_p_below_two_rejected(call, p):
    # brute_count(x, 1, 3) used to return 1; p = 0 divided by zero and p = -2
    # asked for a table of negative size
    with pytest.raises(ArgumentError, match="p must be at least 2"):
        call(IntPoly([0, 1]), p, 3)


class TestBruteRepRoots:
    def test_double_root(self):
        reps = brute_rep_roots(IntPoly([0, 0, 1]), 3, 4)
        assert [(r.digits, r.length) for r in reps] == [((0, 0), 2)]

    def test_merged_odd_residues(self):
        reps = brute_rep_roots(IntPoly([-1, 0, 1]), 2, 3)
        assert [r.digits for r in reps] == [(1,)]

    def test_rootless(self):
        assert brute_rep_roots(IntPoly([1, 0, 1]), 3, 2) == []

    def test_everything_is_a_root(self):
        reps = brute_rep_roots(IntPoly([12]), 2, 2)
        assert [r.digits for r in reps] == [()]

    def test_negative_precision(self):
        with pytest.raises(ArgumentError, match="nonnegative"):
            brute_rep_roots(IntPoly([0, 1]), 2, -1)

    def test_denotes_exactly_the_root_set(self):
        rng = random.Random(321)
        for _ in range(80):
            p = rng.choice((2, 3, 5))
            k = rng.randint(1, 5)
            f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))])
            m = p**k
            reps = brute_rep_roots(f, p, k)
            seen = set()
            for r in reps:
                residues = set(r.residues())
                assert not (seen & residues)
                seen |= residues
            assert seen == {x for x in range(m) if f(x) % m == 0}

    def test_families_come_in_digit_order(self):
        # (x - 2)^2 (x - 3)(x - 4)(x - 10) mod 3^4: four families of three
        # lengths whose digits interleave; by the residue of their prefixes
        # they would come 2, 3, 4, 10.
        f = IntPoly([-2, 1]) ** 2 * IntPoly([-3, 1]) * IntPoly([-4, 1]) * IntPoly([-10, 1])
        reps = brute_rep_roots(f, 3, 4)
        assert [r.digits for r in reps] == [(0, 1, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0)]
        assert reps == representative_roots(f, 3, 4)


class TestVerifyInstance:
    def test_fraction_text_past_the_int_string_limit(self):
        # a series check at k = 15000 compares fractions with 2^15000 below
        qs = [Fraction(-3, 2**15000), Fraction(10**5000 + 1), Fraction(7, 2)]
        texts = [oracle._fraction_text(q) for q in qs]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert texts == [str(q) for q in qs]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_library_count_past_the_int_string_limit_is_reported(self, monkeypatch):
        # A tree whose counts are all off by 10^5000 fails the count, series
        # and closed-form checks, and each failure writes its values exactly.
        offset = 10**5000
        run = oracle._run_pipeline

        def off_by_offset(f, p, kmax):
            result, tree = run(f, p, kmax)
            counts = [n + offset for n in tree.counts()]
            tree.counts = lambda: counts
            return result, tree

        monkeypatch.setattr(oracle, "_run_pipeline", off_by_offset)
        f, p, kmax = parse_poly("x^2 - 1"), 2, 6
        result = verify_instance(f, p, kmax)
        checks = {c.name: c for c in result.checks}
        for k in range(kmax + 1):
            n = brute_count(f, p, k)
            got = checks.pop(f"count k={k}")
            assert (got.expected, got.actual, got.passed) == (
                decimal_text(n), decimal_text(n + offset), False
            )
            got = checks.pop(f"series k={k}")
            assert (got.expected, got.actual, got.passed) == (
                oracle._fraction_text(Fraction(n + offset, p**k)),
                oracle._fraction_text(Fraction(n, p**k)),
                False,
            )
        k0 = report(f, p).stable_precision
        for k in range(k0, k0 + 2 * f.degree + 3):
            n = count_roots(f, p, k)
            got = checks.pop(f"closed-form k={k}")
            assert (got.expected, got.actual, got.passed) == (
                decimal_text(n + offset), decimal_text(n), False
            )
        # the tree's representative roots are untouched
        assert [c.name for c in checks.values()] == [f"rep-roots k={k}" for k in range(1, 7)]
        assert all(c.passed for c in checks.values())
        assert not result.all_pass
        text = result.describe()
        assert f"FAIL count k=0 expected=1 actual={decimal_text(1 + offset)}" in text
        assert text.endswith("SOME CHECKS FAILED")
        assert json.loads(json.dumps(result.to_json_dict()))["checks"][0]["actual"] == (
            decimal_text(1 + offset)
        )

    @pytest.mark.parametrize(
        "text,p",
        [("2*x^2 + 3*x + 1", 2), ("x^2 - 1", 2), ("x^3 - x^2 - x + 1", 3)],
    )
    def test_known_instances_all_pass(self, text, p):
        result = verify_instance(parse_poly(text), p, 20, budget=10**6)
        assert result.all_pass
        assert result.checks

    def test_whole_corpus_all_pass(self):
        for text, p in CORPUS:
            result = verify_instance(parse_poly(text), p, 12, budget=10**5)
            failing = [c for c in result.checks if not c.passed]
            assert not failing, (text, p, failing[:3])

    def test_negative_kmax(self):
        with pytest.raises(ArgumentError, match="kmax must be nonnegative"):
            verify_instance(parse_poly("x"), 3, -1)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_enumerates_nothing(self, budget):
        # these used to pass on the series and closed-form checks alone, which
        # compare the library with itself
        with pytest.raises(BudgetExceeded):
            verify_instance(parse_poly("x"), 2, 3, budget=budget)

    def test_p_is_decided_before_the_budget(self):
        with pytest.raises(ArgumentError, match="p must be prime: 4 is not prime"):
            verify_instance(parse_poly("x"), 4, 3, budget=0)

    def test_builds_one_lifting_tree(self, monkeypatch):
        # the report under test and the library side of every check share it
        built = []
        init = padic._LiftingTree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(padic._LiftingTree, "__init__", counting_init)
        for text, p in [("x^2 - 1", 2), ("4*x^2 + 8", 2), ("12", 2), ("x^6 - 64", 2)]:
            built.clear()
            verify_instance(parse_poly(text), p, 12, budget=10**5)
            assert len(built) == 1, (text, p, len(built))

    def test_library_side_matches_the_public_functions(self):
        # The report's tree must answer each precision as the per-precision
        # public functions do.
        for text, p in CORPUS:
            f = parse_poly(text)
            _, g = content_and_primitive(f, p)
            result = verify_instance(f, p, 12, budget=10**5)
            seen = set()
            for check in result.checks:
                kind, k = check.name.split(" k=")
                k = int(k)
                if kind == "count":
                    assert check.actual == str(count_roots(f, p, k)), (text, p, k)
                elif kind == "rep-roots":
                    want = _fmt_reps(representative_roots(g, p, k))
                    assert check.actual == want, (text, p, k)
                elif kind == "closed-form":
                    assert check.expected == str(count_roots(g, p, k)), (text, p, k)
                seen.add(kind)
            assert {"count", "series"} <= seen
            if g.degree >= 1:
                assert {"rep-roots", "closed-form"} <= seen

    def test_json_shape(self):
        result = verify_instance(parse_poly("x"), 3, 4)
        data = result.to_json_dict()
        assert data["all_pass"] is True
        assert {"name", "expected", "actual", "pass"} == set(data["checks"][0])

    def test_constructed_multiplicity_battery(self):
        rng = random.Random(42)
        for _ in range(60):
            p = rng.choice((2, 3, 5))
            f = IntPoly([1])
            for _ in range(rng.randint(1, 3)):
                a, e = rng.randint(-6, 6), rng.randint(1, 3)
                f = f * (IntPoly([-a, 1]) ** e)
            if rng.random() < 0.5:
                f = f * IntPoly([rng.randint(1, 9), rng.randint(0, 3), 1])
            if rng.random() < 0.3:
                f = f * p
            if f.degree > 7:
                continue
            result = verify_instance(f, p, 8, budget=3 * 10**4)
            failing = [c for c in result.checks if not c.passed]
            assert not failing, (f.to_text(), p, failing[:3])

    def test_random_dense_battery(self):
        rng = random.Random(7)
        for _ in range(80):
            p = rng.choice((2, 3, 5, 7))
            f = IntPoly([rng.randint(-40, 40) for _ in range(rng.randint(1, 7))])
            if f.is_zero:
                continue
            result = verify_instance(f, p, 7, budget=2 * 10**4)
            failing = [c for c in result.checks if not c.passed]
            assert not failing, (f.to_text(), p, failing[:3])


_CONTENT_CASES = [("4*x^2 + 8", 2), ("12", 2), ("2*x^3 - 4", 2)]


def _deepest(p):
    # the deepest precision verify_instance(f, p, 12, budget=10**5) checks
    return max(k for k in range(13) if p**k <= 10**5)


class TestResidueTable:
    """verify_instance's one enumeration of the root levels per polynomial."""

    def test_checks_match_the_per_precision_oracle(self):
        # verify_instance reads every precision off one pass over the root
        # levels; each check must agree with enumerating mod p^k on its own.
        # Budget 10^5 stops p = 5 and 7 before kmax, kmax 12 stops p = 2.
        for text, p in CORPUS + _CONTENT_CASES:
            f = parse_poly(text)
            _, g = content_and_primitive(f, p)
            result = verify_instance(f, p, 12, budget=10**5)
            seen = {"count": [], "rep-roots": []}
            for check in result.checks:
                kind, k = check.name.split(" k=")
                k = int(k)
                if kind == "count":
                    assert check.expected == str(brute_count(f, p, k)), (text, p, k)
                elif kind == "rep-roots":
                    want = _fmt_reps(brute_rep_roots(g, p, k))
                    assert check.expected == want, (text, p, k)
                else:
                    continue
                seen[kind].append(k)
            deepest = _deepest(p)
            assert seen["count"] == list(range(deepest + 1)), (text, p)
            assert seen["rep-roots"] == list(range(1, deepest + 1)), (text, p)

    def test_one_table_per_polynomial(self, monkeypatch):
        # f's root levels serve the count checks; the rep-root checks share
        # them unless the content is positive, when they need g's.
        enumerated = []
        levels = oracle._root_levels

        def counting_levels(f, p, K):
            enumerated.append((f, K))
            return levels(f, p, K)

        monkeypatch.setattr(oracle, "_root_levels", counting_levels)
        for text, p in CORPUS + _CONTENT_CASES:
            f = parse_poly(text)
            c, g = content_and_primitive(f, p)
            enumerated.clear()
            verify_instance(f, p, 12, budget=10**5)
            K = _deepest(p)
            want = [(f, K), (g, K)] if c > 0 else [(f, K)]
            assert enumerated == want, (text, p, enumerated)

    def test_budget_alone_stops_the_checks(self):
        # a budget past the old int64 limit 3037000499 checks every k with
        # p^k <= the budget, and the checks still pass there
        budget = 2 * 10**10
        for text, p in CORPUS + _CONTENT_CASES:
            result = verify_instance(parse_poly(text), p, 40, budget=budget)
            counted = [c.name for c in result.checks if c.name.startswith("count ")]
            deepest = max(k for k in range(41) if p**k <= budget)
            assert counted == [f"count k={k}" for k in range(deepest + 1)], (text, p)
            assert p**deepest > 3037000499, (text, p)
            assert result.all_pass, (text, p)

    def test_table_that_does_not_fit_is_a_budget_error(self, monkeypatch):
        # x^2 - 1 has 4 roots mod 2^k for k >= 3, so each level from 4 on
        # has 8 candidates; refusing 8 stops verify_instance at level 4.
        monkeypatch.setattr(oracle, "_next_level", _refusing(8))
        with pytest.raises(BudgetExceeded, match="an array of 8 residues"):
            verify_instance(parse_poly("x^2 - 1"), 2, 12, budget=10**5)

    def test_brute_side_never_reads_the_tree(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the brute-force side read the library")

        for owner, attr in [
            (padic, "_LiftingTree"),
            (padic, "roots_mod_p"),
            (padic, "count_roots"),
            (padic, "representative_roots"),
            (oracle, "count_roots"),
            (oracle, "representative_roots"),
            (oracle, "root_count"),
            (oracle, "poincare_series"),
            (oracle, "_run_pipeline"),
        ]:
            monkeypatch.setattr(owner, attr, refuse)
        f = parse_poly("x^3 - x^2 - x + 1")  # (x - 1)^2 (x + 1)
        assert brute_count(f, 3, 4) == 10  # 1 mod 9, and -1 mod 81
        assert _fmt_reps(brute_rep_roots(f, 3, 4)) == "1,0|2,2,2,2"
        levels = list(oracle._root_levels(f, 3, 4))
        assert levels == [[x for x in range(3**k) if f(x) % 3**k == 0] for k in range(5)]
