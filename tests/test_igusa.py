import inspect
from fractions import Fraction

import pytest

import igusazeta
from igusazeta.errors import ArgumentError, InconsistentLengths, RegimeViolation, ZeroPolynomial
from igusazeta import igusa
from igusazeta.exactpoly import (
    IntPoly,
    content_and_primitive,
    discriminant,
    squarefree_part,
    valuation,
)
from igusazeta.igusa import (
    BranchParams,
    _extract_branches,
    _run_pipeline,
    closed_form_count,
    discriminant_valuation,
    report,
)
from igusazeta.oracle import verify_instance
from igusazeta.padic import _LiftingTree, _reduce_mod_p, count_roots, representative_roots
from igusazeta import ratfun
from igusazeta.ratfun import RationalFunction

from corpus import CORPUS
from igusazeta.cli import main, parse_poly
from test_cli import GOLDEN

RF = RationalFunction

X = IntPoly([0, 1])
X2 = IntPoly([0, 0, 1])
X2_MINUS_1 = IntPoly([-1, 0, 1])
QUADRATIC = IntPoly([1, 3, 2])  # 2x^2 + 3x + 1


class TestDiscriminantValuation:
    def test_examples(self):
        assert discriminant_valuation(QUADRATIC, 2) == 1
        assert discriminant_valuation(X2_MINUS_1, 2) == 2
        assert discriminant_valuation(X2_MINUS_1, 5) == 0

    @staticmethod
    def _instances():
        x = X
        squares = [(x - 3) ** 2 * (x**3 - 8), (x - 1) ** 2 * (x + 1), x**4 * (x - 2) ** 3]
        for p in (2, 3, 5):
            for e, a in ((2, 1), (3, 1), (2, 2), (4, 1)):
                lift = x**e - p ** (e * a)
                yield lift, p
                yield lift * (x - 1) ** 2, p
                yield lift * (x - p) ** 2, p
                yield -3 * lift * (x**2 + p) ** 2, p
            for f in squares:
                yield f, p
                yield 6 * f, p
        for text, p in CORPUS:
            f = parse_poly(text)
            if f.degree >= 1:
                yield f, p

    def test_equals_valuation_of_squarefree_part_discriminant(self):
        for f, p in self._instances():
            expected = valuation(discriminant(squarefree_part(f)), p)
            assert discriminant_valuation(f, p) == expected, (f, p)

    def test_gcd_runs_only_for_repeated_factors(self, monkeypatch):
        calls = []

        def counting(f):
            calls.append(f)
            return squarefree_part(f)

        monkeypatch.setattr(igusa, "squarefree_part", counting)
        for f, p in self._instances():
            calls.clear()
            discriminant_valuation(f, p)
            repeated = squarefree_part(f).degree < f.degree
            assert len(calls) == (1 if repeated else 0), (f, p)

    # Around the mod-p squarefree test: p | lc, f' = 0 mod p, a repeated
    # factor mod p only or over Q, and f squarefree mod p although deg f'
    # drops there.
    EDGE_CASES = {
        "p_divides_lc": (5 * X2 + X + 1, 5, 1),
        "x5_minus_2": (X**5 - 2, 5, 5),
        "x3_at_3": (X**3 - 3 * X + 9, 3, 3),
        "square_mod_p": (X2 + 5, 5, 1),
        "square_at_2": ((X - 1) ** 2 * (X + 1), 2, 2),
        "square_at_3": ((X - 1) ** 2 * (X + 1), 3, 0),
        "x2_at_2": (X2 + X + 1, 2, 0),
        "x3_plus_x_at_3": (X**3 + X + 1, 3, 0),
    }

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases_of_the_mod_p_test(self, case):
        f, p, delta = self.EDGE_CASES[case]
        assert discriminant_valuation(f, p) == delta
        assert valuation(discriminant(squarefree_part(f)), p) == delta

    def test_discriminant_skipped_exactly_when_squarefree_mod_p(self, monkeypatch):
        cases = list(self._instances()) + [(X, 2)]
        cases += [(f, p) for f, p, _ in self.EDGE_CASES.values()]
        # p does not divide lc(f) and f mod p is squarefree exactly when p
        # divides neither lc(f) nor the discriminant of f.
        skip = [
            f.leading_coefficient % p != 0 and discriminant(f.primitive()) % p != 0
            for f, p in cases
        ]
        assert any(skip) and not all(skip)

        def refuse(h):
            raise AssertionError("discriminant was computed")

        monkeypatch.setattr(igusa, "discriminant", refuse)
        for (f, p), skipped in zip(cases, skip):
            if skipped:
                assert discriminant_valuation(f, p) == 0, (f, p)
            else:
                with pytest.raises(AssertionError, match="discriminant was computed"):
                    discriminant_valuation(f, p)

    def test_content_is_ignored(self):
        # 2x^2 + 2 = 2 (x^2 + 1), and D(x^2 + 1) = -4
        f = IntPoly([2, 0, 2])
        assert discriminant_valuation(f, 2) == 2
        assert report(f, 2).stable_precision == 7


class TestStabilityThreshold:
    def test_examples(self):
        assert report(QUADRATIC, 2).stable_precision == 5
        assert report(X2, 3).stable_precision == 3
        assert report(X2_MINUS_1, 2).stable_precision == 7


class TestBranchParams:
    @pytest.mark.parametrize(
        "e, nu, k_align, message",
        [
            (0, 0, 1, "multiplicity must be positive"),
            (1, -1, 1, "valuation must be nonnegative"),
            (2, 1, 4, "k_align is not aligned"),
        ],
    )
    def test_validation(self, e, nu, k_align, message):
        with pytest.raises(ArgumentError, match=message):
            BranchParams(multiplicity=e, valuation=nu, k_align=k_align, prefix=())


class TestExtractBranches:
    def test_simple_branch(self):
        branches = list(report(QUADRATIC, 2).branches)
        assert len(branches) == 1
        b = branches[0]
        assert (b.multiplicity, b.valuation, b.k_align) == (1, 0, 5)
        assert b.prefix == (1, 1, 1, 1, 1)

    def test_double_root(self):
        branches = list(report(X2, 3).branches)
        assert len(branches) == 1
        b = branches[0]
        assert (b.multiplicity, b.valuation, b.k_align) == (2, 0, 4)

    def test_two_branches(self):
        branches = list(report(X2_MINUS_1, 2).branches)
        assert len(branches) == 2
        for b in branches:
            assert (b.multiplicity, b.valuation, b.k_align) == (1, 1, 7)

    def test_no_branches(self):
        assert list(report(IntPoly([1, 0, 1]), 3).branches) == []

    @pytest.mark.parametrize(
        "text, p", [("4*x^2 + 8", 2), ("9*x^2 - 27", 3), ("8*x^3 + 16*x", 2), ("12", 2)]
    )
    def test_content_input_has_the_branches_of_its_primitive_part(self, text, p):
        f = parse_poly(text)
        _, g = content_and_primitive(f, p)
        assert list(report(f, p).branches) == list(report(g, p).branches)


def _index_children(tree):
    """Rebuild tree.kids from the node records, after they were edited."""
    tree.kids = [[] for _ in tree.nodes]
    for n, (parent, *_) in enumerate(tree.nodes[1:], 1):
        tree.kids[parent].append(n)


class _FakeTree(_LiftingTree):
    """Fabricated node records (parent, digit, depth, used) at p = 2, walked
    to precision 12, for a degree-2 primitive part with c = 0 and k0 = 7.
    Each row (prefix, used) is one branch: the node at the end of prefix is
    a maximal representative root at precision 7, and below it hangs a chain
    of digit-1 children.  The row's used precisions run from that node down.
    A row's last node that reaches 12 is a leaf the walk left unexpanded; its
    polynomial is 1, so the chain has no record past it.
    """

    def __init__(self, *rows):
        self.p, self.k, self.nodes, self.tops, self.polys = 2, 12, [(-1, 0, 0, 0)], [], {}
        for prefix, used in rows:
            parent = 0
            for depth, digit in enumerate(prefix, 1):
                self.nodes.append((parent, digit, depth, used[0]))
                parent = len(self.nodes) - 1
            self.tops.append((parent, tuple(prefix)))
            for depth, u in enumerate(used[1:], len(prefix) + 1):
                self.nodes.append((len(self.nodes) - 1, 1, depth, u))
            if used[-1] >= self.k:
                self.polys[len(self.nodes) - 1] = IntPoly([1])
        _index_children(self)

    def _at(self, k):
        assert k == 7
        return [self.tops]


def _branches_of(tree):
    return _extract_branches(tree, 0, 2, 7)


class TestInconsistentLengths:
    def test_fabricated_length_sequence_is_rejected(self):
        # a branch whose length never grows: its chain ends at its top record,
        # a leaf with no child to read a second record from
        with pytest.raises(InconsistentLengths, match="precisions 12: a chain node has 0 children"):
            _branches_of(_FakeTree(((1, 1), (12,))))

    def test_changing_branch_count_is_rejected(self):
        # the chain splits in two at depth 4, below the top at depth 3
        tree = _FakeTree(((1, 1, 1), (7, 9, 11, 13)))
        tree.nodes.append((4, 0, 5, 11))
        _index_children(tree)
        with pytest.raises(InconsistentLengths, match="used precisions 7, 9: a chain node has 2"):
            _branches_of(tree)

    def test_true_lengths_are_accepted(self):
        # used 7, 9, 11, 13 from depth 3: e = 2, nu = 7 - 2*3 = 1
        (b,) = _branches_of(_FakeTree(((0, 1, 1), (7, 9, 11, 13))))
        assert (b.multiplicity, b.valuation, b.k_align, b.prefix) == (2, 1, 7, (0, 1, 1))

    @pytest.mark.parametrize(
        "used",
        [
            # steps 2, 1, 2
            (7, 9, 10, 12),
            # e = 2 until the last step
            (7, 9, 11, 12),
        ],
        ids=["unequal_spacing", "breaks_after_correct_start"],
    )
    def test_ceiling_law_violation_is_rejected(self, used):
        with pytest.raises(InconsistentLengths) as err:
            _branches_of(_FakeTree(((0, 1, 1), used)))
        message = str(err.value)
        assert f"prefix (0, 1, 1), used precisions {', '.join(map(str, used))}" in message
        assert "not one constant e" in message

    def test_threshold_before_the_chain_is_rejected(self):
        # e = 2, but the top's used precision 9 is 2 past k0 = 7: the length
        # at 7 would be 1 below the top's depth by the ceiling law
        with pytest.raises(InconsistentLengths, match="precision 7 is not on the chain"):
            _branches_of(_FakeTree(((0, 1), (9, 11, 13))))

    def test_negative_valuation_is_rejected(self):
        # e = 2 with used 7 at depth 4: nu = 7 - 8 = -1
        with pytest.raises(InconsistentLengths, match="negative"):
            _branches_of(_FakeTree(((1, 1, 1, 1), (7, 9, 11, 13))))

    def test_prefix_matching_two_roots_is_rejected(self):
        # the node at precision 7 has two children
        tree = _FakeTree(((1,), (7, 8)))
        tree.nodes.append((1, 0, 2, 8))
        _index_children(tree)
        with pytest.raises(InconsistentLengths, match="used precisions 7: a chain node has 2"):
            _branches_of(tree)

    def test_prefix_matching_no_root_is_rejected(self):
        # the node at precision 7 has no child, though it is not covered at 12
        with pytest.raises(InconsistentLengths, match="precisions 7: a chain node has 0 children"):
            _branches_of(_FakeTree(((1,), (7,))))

    def test_chain_that_dies_before_the_walks_limit_is_rejected(self):
        # x^2 - 1 at 2 (k0 = 7): the chain of prefix 1,0,0,0,0,0 has used
        # precisions 7..12; moving its last record to the root ends it at 11.
        tree = _LiftingTree(X2_MINUS_1, 2, 12)
        assert _branches_of(tree) == list(report(X2_MINUS_1, 2).branches)
        _, digit, depth, used = tree.nodes[-1]
        assert (depth, used) == (11, 12)
        tree.nodes[-1] = (0, digit, depth, used)
        _index_children(tree)
        with pytest.raises(InconsistentLengths) as err:
            _branches_of(tree)
        assert str(err.value) == (
            "prefix (1, 0, 0, 0, 0, 0), used precisions 7, 8, 9, 10, 11:"
            " a chain node has 0 children"
        )

    def test_multiplicity_above_degree_is_rejected(self):
        # used 7, 10, 13 from depth 2: one lawful branch with e = 3 > 2
        with pytest.raises(InconsistentLengths, match="multiplicity 3 exceeds the degree 2"):
            _branches_of(_FakeTree(((0, 1), (7, 10, 13))))

    def test_chain_error_carries_the_chain(self):
        with pytest.raises(InconsistentLengths) as err:
            _branches_of(_FakeTree(((0, 1, 1), (7, 9, 10, 12))))
        assert (err.value.prefix, err.value.used) == ((0, 1, 1), (7, 9, 10, 12))
        assert err.value.multiplicities is err.value.degree is None

    def test_multiplicity_error_carries_the_multiplicities_and_the_degree(self):
        tree = _FakeTree(((1, 1, 1), (7, 9, 11, 13)), ((0, 1, 1), (7, 9, 11, 13)))
        with pytest.raises(InconsistentLengths, match="multiplicity 4 exceeds the degree 3") as err:
            _extract_branches(tree, 0, 3, 7)
        assert (err.value.multiplicities, err.value.degree) == ((2, 2), 3)
        assert err.value.prefix is err.value.used is None


class TestRootCount:
    def test_negative_precision(self):
        # with content 2 this used to return the float 2**-1
        with pytest.raises(ArgumentError, match="nonnegative"):
            count_roots(IntPoly([12]), 2, -1)


class TestPrimeBelowTwo:
    # p = 1 and p = -1 used to hang in valuation, p = 0 divided by zero
    @pytest.mark.parametrize("p", [1, 0, -1, -2])
    @pytest.mark.parametrize(
        "call",
        [
            lambda f, p: count_roots(f, p, 2),
            lambda f, p: count_roots(f, p, 0),
            lambda f, p: representative_roots(f, p, 2),
            lambda f, p: report(f, p),
            lambda f, p: discriminant_valuation(f, p),
            lambda f, p: verify_instance(f, p, 2),
        ],
        ids=[
            "count_roots",
            "count_roots_k0",
            "representative_roots",
            "report",
            "discriminant_valuation",
            "verify_instance",
        ],
    )
    def test_rejected(self, call, p):
        with pytest.raises(ArgumentError, match="p must be at least 2"):
            call(IntPoly([1, 1]), p)


@pytest.mark.parametrize(
    "p, message",
    [
        (4, "p must be prime"),
        (6, "p must be prime"),
        (1, "p must be at least 2"),
        (0, "p must be at least 2"),
    ],
)
@pytest.mark.parametrize("call", [discriminant_valuation])
def test_discriminant_rejects_p_that_is_not_prime(call, p, message):
    # x^2 + 1 at 4 used to give delta = 1 and k0 = 5
    with pytest.raises(ArgumentError, match=message):
        call(IntPoly([1, 0, 1]), p)


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize(
    "call",
    [report, lambda f, p: verify_instance(f, p, 2)],
    ids=["report", "verify_instance"],
)
def test_pipeline_rejects_composite_p(call, p):
    # 12*x + 12 at 6 used to fail inside branch extraction with
    # InconsistentLengths, an error that stands for an internal bug.
    with pytest.raises(ArgumentError, match="p must be prime"):
        call(parse_poly("12*x + 12"), p)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: count_roots(f, 3, 2),
        lambda f: representative_roots(f, 3, 2),
    ],
    ids=["count_roots", "representative_roots"],
)
def test_zero_polynomial_rejected(call):
    with pytest.raises(ZeroPolynomial):
        call(IntPoly())


class TestClosedFormCount:
    def test_two_simple_branches(self):
        branches = list(report(X2_MINUS_1, 2).branches)
        assert closed_form_count(branches, 2, 10, 7) == 4

    def test_double_root(self):
        branches = list(report(X2, 3).branches)
        assert closed_form_count(branches, 3, 8, 3) == 81

    def test_empty(self):
        assert closed_form_count([], 3, 9, 3) == 0

    def test_regime_violation(self):
        branches = list(report(X2_MINUS_1, 2).branches)
        with pytest.raises(RegimeViolation):
            closed_form_count(branches, 2, 6, 7)

    def test_constant_primitive_part_has_no_stable_precision(self):
        r = report(IntPoly([12]), 2)
        with pytest.raises(RegimeViolation, match="no stable precision"):
            closed_form_count(r.branches, 2, 5, r.stable_precision)


class TestPoincareSeries:
    def test_linear(self):
        for p in (2, 3, 5, 7, 101):
            assert report(X, p).poincare == RF(IntPoly([p]), IntPoly([p, -1]))

    def test_square(self):
        for p in (2, 3, 5, 101):
            assert report(X2, p).poincare == RF(IntPoly([p, 1]), IntPoly([p, 0, -1]))

    def test_constant_with_content(self):
        assert report(IntPoly([12]), 2).poincare == RF(IntPoly([1, 1, 1]))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            report(IntPoly(), 3).poincare


class TestZetaFunction:
    def test_linear(self):
        for p in (2, 3, 5, 7, 101):
            assert report(X, p).zeta == RF(IntPoly([p - 1]), IntPoly([p, -1]))

    def test_square(self):
        for p in (2, 3, 5, 101):
            assert report(X2, p).zeta == RF(IntPoly([p - 1]), IntPoly([p, 0, -1]))

    def test_unit_constant(self):
        assert report(IntPoly([1]), 5).zeta == RF(IntPoly([1]))
        assert report(IntPoly([1]), 2).zeta == RF(IntPoly([1]))


class TestReport:
    def test_worked_quadratic(self):
        r = report(QUADRATIC, 2)
        assert r.disc_valuation == 1
        assert r.stable_precision == 5
        assert r.n == 1
        b = r.branches[0]
        assert (b.multiplicity, b.valuation, b.k_align) == (1, 0, 5)

    def test_linear_at_7(self):
        r = report(X, 7)
        assert (r.disc_valuation, r.stable_precision, r.n) == (0, 2, 1)
        assert r.poincare == RF(IntPoly([7]), IntPoly([7, -1]))
        assert r.zeta == RF(IntPoly([6]), IntPoly([7, -1]))

    def test_rootless(self):
        r = report(IntPoly([1, 0, 1]), 3)
        assert r.n == 0
        assert r.poincare == RF(IntPoly([1]))
        assert r.zeta == RF(IntPoly([1]))

    def test_builds_one_lifting_tree(self, monkeypatch):
        from igusazeta import padic

        built = []
        init = padic._LiftingTree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(padic._LiftingTree, "__init__", counting_init)
        for text, p in [("x^2 - 1", 2), ("x^3 - x^2 - x + 1", 3), ("4*x^2 + 8", 2), ("12", 2)]:
            built.clear()
            report(parse_poly(text), p)
            assert len(built) == 1, (text, p)

    def test_constant_primitive_part(self):
        r = report(IntPoly([12]), 2)
        assert r.content_shift == 2
        assert r.disc_valuation is None
        assert r.stable_precision is None
        assert r.n == 0
        assert r.poincare == RF(IntPoly([1, 1, 1]))

    def test_no_polynomial_gcd_reduces_p_and_z(self, monkeypatch, capsys):
        # P and Z are reduced by the known factors p - t^e of their
        # denominator.  Only RationalFunction's reduction is refused here:
        # squarefree_part keeps its own gcd, as for x^2 at 2.
        def refuse(f, g):
            raise RuntimeError("poly_gcd on the report path")

        monkeypatch.setattr(ratfun, "poly_gcd", refuse)
        for f, p in _instances():
            report(f, p)
        cases = [c for c in GOLDEN if c["argv"][0] in ("report", "poincare", "zeta")]
        assert len(cases) == 24
        for case in cases:
            assert main(case["argv"]) == case["code"]
            assert capsys.readouterr().out == case["stdout"]


def _linear_tops(tree, c, k0):
    """Whether each maximal representative root at c + k0 is a leaf whose
    polynomial is linear mod p, in prefix order."""
    [tops] = tree._at(c + k0)
    return [n in tree.polys and len(_reduce_mod_p(tree.polys[n], tree.p)) == 2 for n, _ in tops]


class TestWalkDepth:
    # A report walks its tree to c + k0 and no further.  The branch reader
    # takes a chain whose top is linear mod p to no record past the top
    # (Hensel's lemma gives e = 1), and every other chain to exactly 3
    # records, expanding a leaf of the walk one node at a time.  (x - 1)^3
    # at 3 and x^4 at 2 have delta = 0 and a chain of step e > (d + 2)/2;
    # x^2 - 2 and 7x^2 - 14 at 7 are squarefree mod 7, so every top is linear.
    CASES = {
        "x-1_cubed_at_3": ((X - 1) ** 3, 3, [(3, 0)]),
        "x4_at_2": (X**4, 2, [(4, 0)]),
        "x-1_sq_x+1_at_5": ((X - 1) ** 2 * (X + 1), 5, [(2, 0), (1, 0)]),
        "x2-2_at_7": (X2 - 2, 7, [(1, 0), (1, 0)]),
        "7x2-14_at_7": (7 * X2 - 14, 7, [(1, 0), (1, 0)]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_walk_to_c_plus_k0_and_3_records_per_chain(self, case):
        f, p, branches = self.CASES[case]
        result, tree = _run_pipeline(f, p)
        c, k0 = result.content_shift, result.stable_precision
        assert [(b.multiplicity, b.valuation) for b in result.branches] == branches
        assert tree.k == c + k0
        [tops] = tree._at(c + k0)
        linear = _linear_tops(_LiftingTree(f, p, tree.k), c, k0)
        assert linear == [e == 1 for e, _ in branches]
        for (n, _), top_is_linear in zip(tops, linear):
            records = [n]
            while tree.kids[records[-1]]:
                (child,) = tree.kids[records[-1]]
                records.append(child)
            assert len(records) == (1 if top_is_linear else 3)
            assert records[-1] in tree.polys  # a leaf not expanded yet
        assert result == _run_pipeline(f, p, kmax=k0 + 2 * f.degree + 2)[0]

    @pytest.mark.parametrize("text, p", CORPUS + [("x^3 - 3*x^2 + 3*x - 1", 3)])
    def test_reading_chains_past_the_walk_changes_no_shallow_answer(self, text, p):
        f = parse_poly(text)
        result, tree = _run_pipeline(f, p)
        fresh = _LiftingTree(f, p, tree.k)
        # every chain whose top is not linear mod p was read past the walk,
        # so the tree grew unless every top is linear
        k0 = result.stable_precision
        linear = [] if k0 is None else _linear_tops(fresh, result.content_shift, k0)
        assert len(tree.nodes) > len(fresh.nodes) or all(linear)
        assert tree.counts() == fresh.counts()
        for k in range(1, tree.k + 1):
            assert tree.roots(k) == fresh.roots(k), k

    def test_mod_p_squarefree_test_runs_once_per_report(self, monkeypatch):
        calls = []
        squarefree_mod_p = igusa._squarefree_mod_p

        def counting(f, p):
            calls.append((f, p))
            return squarefree_mod_p(f, p)

        monkeypatch.setattr(igusa, "_squarefree_mod_p", counting)
        for text, p in [("x^2 - 2", 7), ("x^2 - 1", 2), ("49*x^2 - 98", 7), ("12", 2)]:
            calls.clear()
            f = parse_poly(text)
            report(f, p)
            constant = content_and_primitive(f, p)[1].degree == 0
            assert len(calls) == (0 if constant else 1), (text, p)


def _instances():
    for text, p in CORPUS:
        yield parse_poly(text), p


class TestPipelineInvariants:
    def test_branches_are_sorted_by_prefix(self):
        for f, p in _instances():
            prefixes = [b.prefix for b in report(f, p).branches]
            assert all(a < b for a, b in zip(prefixes, prefixes[1:])), (f, p, prefixes)

    def test_series_matches_counts(self):
        for f, p in _instances():
            _, g = content_and_primitive(f, p)
            if g.degree >= 1:
                kmax = report(g, p).stable_precision + 2 * g.degree + 2
            else:
                kmax = 8
            coeffs = report(f, p).poincare.series(kmax)
            for k in range(kmax + 1):
                assert coeffs[k] == Fraction(count_roots(f, p, k), p**k)

    def test_closed_form_matches_recursion(self):
        for f, p in _instances():
            _, g = content_and_primitive(f, p)
            if g.degree < 1:
                continue
            result = report(g, p)
            k0 = result.stable_precision
            for k in range(k0, k0 + 2 * g.degree + 3):
                assert closed_form_count(result.branches, p, k, k0) == count_roots(g, p, k)

    def test_branch_count_stable_on_window(self):
        for f, p in _instances():
            _, g = content_and_primitive(f, p)
            if g.degree < 1:
                continue
            result = report(g, p)
            k0, n = result.stable_precision, result.n
            for k in range(k0, k0 + 2 * g.degree + 3):
                assert len(representative_roots(g, p, k)) == n

    def test_length_law_on_window(self):
        for f, p in _instances():
            _, g = content_and_primitive(f, p)
            if g.degree < 1:
                continue
            result = report(g, p)
            k0 = result.stable_precision
            for k in range(k0, k0 + 2 * g.degree + 3):
                reps = representative_roots(g, p, k)
                for b in result.branches:
                    hits = [r for r in reps if r.digits[: len(b.prefix)] == b.prefix]
                    assert len(hits) == 1
                    assert hits[0].length == b.prefix_length(k)

    def test_squarefree_constancy(self):
        for f, p in _instances():
            if f.degree < 1 or discriminant(f) == 0:
                continue
            _, g = content_and_primitive(f, p)
            if g.degree < 1:
                continue
            result = report(g, p)
            k0 = result.stable_precision
            counts = {
                closed_form_count(result.branches, p, k, k0)
                for k in range(k0, k0 + 2 * g.degree + 3)
            }
            assert len(counts) == 1

    def test_degree_bounds(self):
        for f, p in _instances():
            P = report(f, p).poincare
            c, g = content_and_primitive(f, p)
            d = f.degree
            if g.degree >= 1:
                bound_num = report(g, p).stable_precision + 2 * d
            else:
                # constant primitive part: P is the content polynomial 1+...+t^(c-1)+t^c
                bound_num = c
            assert P.den.degree <= d + 1
            assert P.num.degree <= bound_num

    def test_poincare_zeta_identity(self):
        # (1 - t) P + t Z = 1, cleared of denominators
        one_minus_t, t = IntPoly([1, -1]), IntPoly([0, 1])
        for f, p in _instances():
            r = report(f, p)
            P, Z = r.poincare, r.zeta
            assert one_minus_t * P.num * Z.den + t * Z.num * P.den == P.den * Z.den


def test_each_public_name_is_its_own_object():
    # One name per result: report(f, p) carries delta, k0, the branches, P and
    # Z, and count_roots counts, so no public name is another one's alias.
    public = {
        name: value
        for name, value in vars(igusazeta).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    public.update((name, getattr(igusazeta, name)) for name in igusazeta._ORACLE_NAMES)
    names_of = {}
    for name, value in public.items():
        names_of.setdefault(id(value), []).append(name)
    assert [names for names in names_of.values() if len(names) > 1] == []
    for name in (
        "extract_branches",
        "poincare_series",
        "root_count",
        "stability_threshold",
        "zeta_function",
    ):
        assert not hasattr(igusazeta, name), name
