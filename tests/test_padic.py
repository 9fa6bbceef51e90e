import math
import random

import pytest

from igusazeta import padic
from igusazeta.errors import (
    ArgumentError,
    IdenticallyZeroModP,
    InconsistentLengths,
    ZetaError,
)
from igusazeta.exactpoly import IntPoly, content_and_primitive, valuation
from igusazeta.igusa import report
from igusazeta.oracle import brute_count, brute_rep_roots
from igusazeta.padic import (
    RepRoot,
    _LiftingTree,
    _MR_PROVEN_BELOW,
    _strong_lucas_probable_prime,
    count_roots,
    is_prime,
    representative_roots,
    roots_mod_p,
)

from corpus import CORPUS
from igusazeta.cli import parse_poly
from reference_walk import assert_tree_matches


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(7, 7) == 1
        assert valuation(0, 5) == math.inf

    def test_negative(self):
        assert valuation(-8, 2) == 3


class TestIsPrime:
    def test_small_against_sieve(self):
        limit = 1000
        flags = [True] * (limit + 1)
        flags[0] = flags[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if flags[i]:
                flags[i * i :: i] = [False] * len(flags[i * i :: i])
        for n in range(-3, limit + 1):
            assert is_prime(n) == (n >= 0 and flags[n])

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_large(self):
        assert is_prime(10**9 + 7)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)

    def test_strong_pseudoprimes_to_all_witnesses(self):
        # The least strong pseudoprimes to the first 12 and 13 prime bases.
        assert 399165290221 * 798330580441 == _MR_PROVEN_BELOW
        assert not is_prime(_MR_PROVEN_BELOW)
        assert not is_prime(1287836182261 * 2575672364521)

    def test_beyond_the_proven_bound(self):
        for e in (89, 107, 127, 521):
            assert is_prime(2**e - 1)
        assert not is_prime(2**128 + 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))
        assert not is_prime((2**89 - 1) ** 2)

    def test_lucas_rejects_squares_and_zero_jacobi_symbols(self):
        assert not _strong_lucas_probable_prime(1000003**2)
        # 539191 = 41 * 13151: (D/n) is 0 at D = 41
        assert not _strong_lucas_probable_prime(539191)

    def test_lucas_pseudoprimes_are_caught_by_miller_rabin(self):
        # The first strong Lucas pseudoprimes for Selfridge's parameters
        # (OEIS A217255): the Lucas half alone accepts them.
        for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
            assert _strong_lucas_probable_prime(n)
            assert not is_prime(n)

    def test_matches_sympy_beyond_the_proven_bound(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        for _ in range(400):
            n = rng.randrange(_MR_PROVEN_BELOW, 10**30)
            assert is_prime(n) == sympy.isprime(n), n
        for _ in range(40):
            q = sympy.nextprime(rng.randrange(_MR_PROVEN_BELOW, 10**40))
            assert is_prime(q)
            assert not is_prime(q * sympy.nextprime(rng.randrange(10**6, 10**20)))

    def test_one_test_per_prime_per_report(self):
        # The tree calls roots_mod_p, which checks p, at every node.
        x, p = IntPoly([0, 1]), 1000003
        f = (x - 1) ** 2 * (x - 5) * (x**2 - 3) * (x - p**3)
        is_prime.cache_clear()
        report(f, p)
        assert is_prime.cache_info().misses == 1


class TestCheckPrime:
    def test_primes_pass(self):
        for p in (2, 3, 65537, 10**9 + 7, 2**61 - 1):
            assert padic.check_prime(p) is None

    @pytest.mark.parametrize(
        "p, message",
        [
            (1, "p must be at least 2"),
            (0, "p must be at least 2"),
            (-7, "p must be at least 2"),
            (4, "p must be prime: 4 is not prime"),
            (65536, "p must be prime: 65536 is not prime"),
            (_MR_PROVEN_BELOW, f"p must be prime: {_MR_PROVEN_BELOW} is not prime"),
        ],
    )
    def test_rejects(self, p, message):
        with pytest.raises(ArgumentError, match=message) as err:
            padic.check_prime(p)
        # Callers may catch either the package's errors or ValueError.
        assert isinstance(err.value, ZetaError)
        assert isinstance(err.value, ValueError)


class TestRootsModP:
    def test_examples(self):
        assert roots_mod_p(IntPoly([1, 3, 2]), 2) == [1]
        assert roots_mod_p(IntPoly([1, 0, 1]), 5) == [2, 3]
        assert roots_mod_p(IntPoly([1, 0, 1]), 3) == []

    def test_p_below_two(self):
        with pytest.raises(ArgumentError, match="p must be at least 2"):
            roots_mod_p(IntPoly([0, 1]), 1)

    def test_identically_zero(self):
        with pytest.raises(IdenticallyZeroModP):
            roots_mod_p(IntPoly([2, 4, 6]), 2)
        with pytest.raises(IdenticallyZeroModP):
            roots_mod_p(IntPoly(), 5)

    def test_splitting_backend_matches_scan(self, monkeypatch):
        rng = random.Random(2024)
        for p in (3, 5, 7, 101, 1009):
            for _ in range(30):
                f = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(1, 6))])
                try:
                    scan = roots_mod_p(f, p)
                except IdenticallyZeroModP:
                    continue
                with monkeypatch.context() as m:
                    m.setattr(padic, "DEFAULT_SCAN_THRESHOLD", 0)
                    split = roots_mod_p(f, p)
                assert scan == split

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_linear_against_a_scan(self, p):
        rng = random.Random(p)
        for _ in range(40):
            lead = rng.randrange(1, p) + p * rng.randint(-5, 5)
            f = IntPoly([rng.randint(-(10**6), 10**6), lead])
            assert roots_mod_p(f, p) == [r for r in range(p) if f(r) % p == 0]

    @pytest.mark.parametrize("p", [1000003, 2**127 - 1])
    def test_linear_at_large_primes(self, monkeypatch, p):
        # solved before either backend: the splitting backend is never asked
        monkeypatch.setattr(padic, "_roots_by_splitting", None)
        rng = random.Random(p)
        for _ in range(40):
            lead = rng.randrange(1, p) + p * rng.randint(-3, 3)
            f = IntPoly([rng.randint(-(p**2), p**2), lead])
            [r] = roots_mod_p(f, p)
            assert 0 <= r < p and f(r) % p == 0

    def test_linear_mod_p_only(self):
        # 101*x^2 + 7*x + 3 is 7*x + 3 mod 101, and 3 + 7*14 = 101
        assert roots_mod_p(IntPoly([3, 7, 101]), 101) == [14]
        # 202*x^2 + 101*x + 5 is the nonzero constant 5 mod 101
        assert roots_mod_p(IntPoly([5, 101, 202]), 101) == []
        assert roots_mod_p(IntPoly([5, 1000003]), 1000003) == []

    def test_splitting_backend_repeated_roots(self, monkeypatch):
        # (x-1)^2 (x-2) keeps the gcd path honest about multiplicities
        monkeypatch.setattr(padic, "DEFAULT_SCAN_THRESHOLD", 0)
        f = IntPoly([-2, 5, -4, 1])
        assert roots_mod_p(f, 1009) == [1, 2]


class TestSquarefreeModP:
    P = 1000003  # 3 mod 4, so -1 is not a square and x^2 + 1 has no root

    def test_rootless_squares(self):
        p = self.P
        assert p % 4 == 3
        q = IntPoly([1, 0, 1])
        assert padic._squarefree_mod_p(q, p)
        for f in (q**2, q**2 * IntPoly([4, 0, 1]), q**2 + IntPoly([0, p]), 3 * q**3):
            assert roots_mod_p(f, p) == []
            assert not padic._squarefree_mod_p(f, p), f

    def test_squarefree_rootless_product(self):
        # (x^2 + 1)(x^2 + 4) is squarefree mod p, and x^2 + 4 has no root either
        p = self.P
        f = IntPoly([1, 0, 1]) * IntPoly([4, 0, 1])
        assert roots_mod_p(f, p) == [] and padic._squarefree_mod_p(f, p)


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return padic._fp_trim(out)


def fp_powmod_schoolbook(base, e, m, p):
    """base^e mod (m, p) by right-to-left square-and-multiply, each step a
    schoolbook product reduced by padic._fp_divmod."""
    result = padic._fp_divmod([1], m, p)[1]
    square = padic._fp_divmod(base, m, p)[1]
    while e:
        if e & 1:
            result = padic._fp_divmod(_fp_mul(result, square, p), m, p)[1]
        square = padic._fp_divmod(_fp_mul(square, square, p), m, p)[1]
        e >>= 1
    return result


# 2^61 - 1 and 2^127 - 1 need packed slots wider than 8 bytes.
LARGE_PRIMES = [65537, 1000003, 2**61 - 1, 2**127 - 1]


class TestSplittingBackend:
    @pytest.mark.parametrize("p", [3, 1009, 1000003])
    def test_divmod(self, p):
        rng = random.Random(p)
        for _ in range(60):
            m = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
            a = padic._fp_trim([rng.randrange(p) for _ in range(rng.randint(0, 12))])
            q, r = padic._fp_divmod(a, m, p)
            assert padic._fp_sub(a, r, p) == _fp_mul(q, m, p)
            assert len(r) < len(m)
            if len(a) < len(m):
                assert q == [] and r == a

    @pytest.mark.parametrize("p", [3, 1009, 1000003, 2**61 - 1, 2**127 - 1])
    def test_powmod(self, p):
        rng = random.Random(p)
        for n in range(9):
            m = [rng.randrange(p) for _ in range(n)] + [1]
            # x, a base of degree below deg m, and one longer than m
            for size in (0, n, n + 4):
                base = padic._fp_trim([rng.randrange(p) for _ in range(size)]) if size else [0, 1]
                power = padic._fp_divmod([1], m, p)[1]
                for e in range(1, 41):
                    power = padic._fp_divmod(_fp_mul(power, base, p), m, p)[1]
                    assert padic._fp_powmod(base, e, m, p) == power
                for e in (p, (p - 1) // 2):
                    assert padic._fp_powmod(base, e, m, p) == fp_powmod_schoolbook(base, e, m, p)

    @pytest.mark.parametrize("p", [3, 1009, 1000003, 2**61 - 1])
    def test_gcd_matches_sympy(self, p):
        # sympy's gf_gcd writes the highest coefficient first
        galoistools = pytest.importorskip("sympy.polys.galoistools")
        from sympy import ZZ

        rng = random.Random(p)

        def poly(degree, lc=None):
            return [rng.randrange(p) for _ in range(degree)] + [lc or rng.randrange(1, p)]

        # zero arguments, then pairs with a planted common factor g and
        # pairs of their cofactors; u has lc 2, so it is not monic above p = 2
        cases = [([], [], []), ([], poly(3, 2), []), (poly(4, 2), [], []), (poly(0), poly(5), [])]
        for _ in range(60):
            g = poly(rng.randint(1, 4))
            u, v = poly(rng.randint(0, 6), 2), poly(rng.randint(0, 6))
            cases += [(_fp_mul(g, u, p), _fp_mul(g, v, p), g), (u, v, [])]
        for a, b, g in cases:
            saved = a[:], b[:]
            want = [int(c) for c in galoistools.gf_gcd(a[::-1], b[::-1], p, ZZ)[::-1]]
            assert padic._fp_gcd(a, b, p) == want, (a, b)
            assert padic._fp_gcd(b, a, p) == want, (a, b)
            assert (a, b) == saved
            assert len(want) >= len(g)

    @pytest.mark.parametrize(
        "p, degrees, word",
        [
            (1000003, range(16, 31), True),
            # 2 bits(p) + bits(2n) is 64 and 66: one 8-byte word a slot, and 9 bytes
            (536870909, [30], True),
            (536870923, [16], False),
            # p^2 alone needs 64 bits here, so one word a slot would carry
            (4294967291, [16], False),
        ],
        ids=["benchmark-prime", "widest-word", "narrowest-bytes", "word-would-carry"],
    )
    def test_powmod_at_the_slot_width_boundary(self, p, degrees, word):
        rng = random.Random(p)
        for n in degrees:
            assert (2 * p.bit_length() + (2 * n).bit_length() <= 64) == word
            m = [rng.randrange(p) for _ in range(n)] + [1]
            a = rng.randrange(1, p)
            full = [rng.randrange(1, p) for _ in range(n)]
            for base in ([0, 1], [a, 1], full):
                for e in (p, (p - 1) // 2, rng.randrange(2, p)):
                    assert padic._fp_powmod(base, e, m, p) == fp_powmod_schoolbook(base, e, m, p)

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_roots_above_the_scan_threshold(self, p):
        assert p >= padic.DEFAULT_SCAN_THRESHOLD
        rng = random.Random(p)
        a = rng.randrange(2, p)
        while pow(a, (p - 1) // 2, p) != p - 1:
            a += 1
        for size in range(1, 9):
            roots = [rng.randrange(p) for _ in range(size)]
            roots += roots[: rng.randint(0, 2)]
            f = IntPoly([-a, 0, 1])
            for r in roots:
                f = f * IntPoly([-r, 1])
            assert roots_mod_p(f, p) == sorted(set(roots))
        assert roots_mod_p(IntPoly([-3 * roots[0], 3]), p) == [roots[0]]
        assert padic._roots_by_splitting([5], p) == []

    def test_counter_runs_past_trial_elements_that_do_not_split(self):
        # the Legendre symbols of 430 + a and 554 + a agree for a = 0 .. 25
        p = 1009
        legendre = [[pow(r + a, (p - 1) // 2, p) for r in (430, 554)] for a in range(27)]
        assert all(x == y for x, y in legendre[:26]) and legendre[26][0] != legendre[26][1]
        fp = padic._reduce_mod_p(IntPoly([-430, 1]) * IntPoly([-554, 1]), p)
        assert padic._roots_by_splitting(fp, p) == [430, 554]

    def test_constant_has_no_roots(self):
        assert padic._roots_by_splitting([5], 1009) == []

    def test_no_random_generator(self):
        assert not hasattr(padic, "random")


@pytest.mark.parametrize(
    "call, p",
    [
        (lambda f, p: count_roots(f, p, 1), 65536),
        (lambda f, p: count_roots(f, p, 2), 4),
        (lambda f, p: count_roots(f, p, 2), 6),
        (lambda f, p: representative_roots(f, p, 1), 65536),
        (lambda f, p: representative_roots(f, p, 2), 4),
        (lambda f, p: representative_roots(f, p, 2), 6),
        (roots_mod_p, 65536),
        (roots_mod_p, 4),
        (roots_mod_p, 9),
    ],
    ids=[
        "count_roots-65536",
        "count_roots-4",
        "count_roots-6",
        "representative_roots-65536",
        "representative_roots-4",
        "representative_roots-6",
        "roots_mod_p-65536",
        "roots_mod_p-4",
        "roots_mod_p-9",
    ],
)
def test_composite_p_rejected(call, p):
    # At 65536 the splitting backend, which assumes a field, gave one root of
    # x^2 - 1 where there are four (1, 32767, 32769, 65535).  At 4 the scan
    # answered [1, 3], roots of x^2 - 1 in Z/4, not in a field.
    with pytest.raises(ArgumentError, match="p must be prime"):
        call(IntPoly([-1, 0, 1]), p)


class TestRepresentativeRoots:
    def test_double_root_prefix(self):
        reps = representative_roots(IntPoly([0, 0, 1]), 3, 5)
        assert [(r.digits, r.length) for r in reps] == [((0, 0, 0), 3)]

    def test_two_branches_mod_128(self):
        reps = representative_roots(IntPoly([-1, 0, 1]), 2, 7)
        assert {r.digits for r in reps} == {
            (1, 0, 0, 0, 0, 0),
            (1, 1, 1, 1, 1, 1),
        }

    def test_single_branch_mod_32(self):
        reps = representative_roots(parse_poly("2*x^2+3*x+1"), 2, 5)
        assert [r.digits for r in reps] == [(1, 1, 1, 1, 1)]

    def test_maximality_merges_below_threshold(self):
        # all odd residues mod 8 are roots of x^2 - 1
        reps = representative_roots(IntPoly([-1, 0, 1]), 2, 3)
        assert [r.digits for r in reps] == [(1,)]
        # every residue mod 2 is a root of x^3 - x
        reps = representative_roots(IntPoly([0, -1, 0, 1]), 2, 1)
        assert [r.digits for r in reps] == [()]

    def test_content_matches_oracle(self):
        # f = p^c * g: every residue is a root mod p^k for k <= c
        for f, p in [(IntPoly([12]), 2), (IntPoly([0, 2]), 2), (IntPoly([-27, 0, 9]), 3)]:
            for k in range(1, 6):
                assert representative_roots(f, p, k) == brute_rep_roots(f, p, k), (f, p, k)

    def test_invalid_precision(self):
        with pytest.raises(ArgumentError):
            representative_roots(IntPoly([0, 1]), 2, 0)

    def test_splitting_backend_gives_same_decomposition(self, monkeypatch):
        rng = random.Random(909)
        for _ in range(20):
            f = IntPoly([rng.randint(-200, 200) for _ in range(rng.randint(2, 6))])
            for p in (101, 257):
                default = representative_roots(f, p, 4)
                with monkeypatch.context() as m:
                    m.setattr(padic, "DEFAULT_SCAN_THRESHOLD", 0)
                    forced = representative_roots(f, p, 4)
                assert default == forced

    def test_deep_precision_does_not_overflow_the_stack(self):
        reps = representative_roots(IntPoly([0, 0, 1]), 2, 4000)
        assert [r.length for r in reps] == [2000]


class TestLiftingTree:
    # p^c * (x^e - p^(e*a)): e roots of valuation a, a deep tree; x^6 - 64 at 2
    # has k0 = 223
    TEMPLATES = [
        (2, 2, 1, 0),
        (2, 3, 1, 0),
        (3, 2, 1, 0),
        (2, 5, 1, 0),
        (3, 3, 1, 0),
        (6, 2, 1, 0),
        (2, 3, 1, 2),
    ]

    # prod_{j<p} (x - 1 - j*p^m): p simple roots that share their first m
    # digits, so the node of those digits has p children and merges them
    CLUSTERS = [(p, m) for p in (2, 3) for m in range(1, 5)] + [(5, 1), (5, 2)]

    @staticmethod
    def _instances():
        for text, p in CORPUS:
            f = parse_poly(text)
            if f.degree >= 1:
                yield f, p
        for e, p, a, c in TestLiftingTree.TEMPLATES:
            yield p**c * IntPoly([-(p ** (e * a))] + [0] * (e - 1) + [1]), p

    @staticmethod
    def _assert_children_and_cover(tree):
        # kids[n] lists the nodes whose parent is n, in increasing order and
        # with increasing digits; only a node with p children is covered past
        # its own used precision
        parents = [parent for parent, *_ in tree.nodes]
        for n, kids in enumerate(tree.kids):
            assert kids == [m for m in range(n + 1, len(parents)) if parents[m] == n]
            digits = [tree.nodes[m][1] for m in kids]
            assert digits == sorted(set(digits))
            if tree.cover[n] > tree.nodes[n][3]:
                assert len(kids) == tree.p, n

    def test_walking_deeper_never_changes_a_shallower_answer(self):
        # One reference walk per k: the count mod p^k is the total size of the
        # families representative_roots returns, which is what count_roots sums.
        for f, p in self._instances():
            c, g = content_and_primitive(f, p)
            top = c + report(g, p).stable_precision + 2 * g.degree + 1
            tree = _LiftingTree(f, p, top)
            counts = tree.counts()
            assert len(counts) == top + 1 and counts[0] == 1
            for k in range(1, top + 1):
                reps = representative_roots(f, p, k)
                assert tree.roots(k) == reps, (f, p, k)
                assert counts[k] == sum(r.count for r in reps), (f, p, k)

    def test_matches_the_plain_walk_past_the_brute_force_budget(self):
        for f, p in self._instances():
            assert_tree_matches(f, p)

    @pytest.mark.parametrize("text, p", [("x^20 - 1", 3), ("x^16 - 1", 5)])
    def test_matches_the_plain_walk_at_high_degree(self, text, p):
        f = parse_poly(text)
        assert report(f, p).disc_valuation == 0
        assert_tree_matches(f, p)

    def test_descent_yields_each_node_with_its_digits_in_increasing_order(self):
        # the order of roots(k) and of a report's branches is the descent's own
        for f, p in self._instances():
            c, g = content_and_primitive(f, p)
            tree = _LiftingTree(f, p, c + report(g, p).stable_precision + 2 * g.degree + 1)
            for k in range(1, tree.k + 1):
                [found] = tree._at(k)
                for n, digits in found:
                    path = []
                    while n > 0:
                        n, digit, _, _ = tree.nodes[n]
                        path.append(digit)
                    assert tuple(reversed(path)) == digits, (f, p, k)
                strings = [digits for _, digits in found]
                assert all(a < b for a, b in zip(strings, strings[1:])), (f, p, k)

    def test_children_are_indexed_once_in_digit_order(self):
        for f, p in self._instances():
            c, g = content_and_primitive(f, p)
            top = c + report(g, p).stable_precision + 2 * g.degree + 1
            self._assert_children_and_cover(_LiftingTree(f, p, top))

    @pytest.mark.parametrize("p, m", CLUSTERS)
    def test_planted_cluster_merges_at_its_depth(self, p, m):
        f = math.prod((IntPoly([-1 - j * p**m, 1]) for j in range(p)), start=IntPoly([1]))
        tree = _LiftingTree(f, p, p * m + 2)
        self._assert_children_and_cover(tree)
        nodes = zip(tree.nodes, tree.cover)
        merged = [depth for (_, _, depth, used), cover in nodes if cover > used]
        assert merged == [m]
        assert_tree_matches(f, p)

    def test_rejects_precision_beyond_its_walk(self):
        tree = _LiftingTree(IntPoly([-1, 0, 1]), 2, 5)
        with pytest.raises(ArgumentError):
            tree.roots(6)

    def test_a_digit_that_is_no_root_is_a_typed_error(self, monkeypatch):
        # x^2 + 1 has no root mod 3; a digit 0 substituted anyway leaves
        # 9x^2 + 1, with no p to divide out.  This check is a raise, not an
        # assert, so it also runs under python -O.
        monkeypatch.setattr(padic, "roots_mod_p", lambda g, p: [0])
        with pytest.raises(InconsistentLengths) as err:
            _LiftingTree(IntPoly([1, 0, 1]), 3, 4)
        assert str(err.value) == (
            "digit 0 at depth 1 is no root mod 3: substituting it divided out p^0"
        )


class TestRepRootType:
    def test_validation(self):
        with pytest.raises(ArgumentError, match="p must be at least 2"):
            RepRoot(p=1, k=2, digits=())
        with pytest.raises(ArgumentError, match="k must be nonnegative"):
            RepRoot(p=3, k=-1, digits=())
        with pytest.raises(ArgumentError):
            RepRoot(p=3, k=2, digits=(3,))
        with pytest.raises(ArgumentError):
            RepRoot(p=3, k=1, digits=(1, 2))

    def test_value_and_count(self):
        r = RepRoot(p=2, k=7, digits=(1, 1, 1, 1, 1, 1))
        assert r.value == 63
        assert r.count == 2
        assert set(r.residues()) == {63, 127}
        assert r.covers(127) and not r.covers(65)

    def test_empty_prefix(self):
        r = RepRoot(p=2, k=3, digits=())
        assert r.count == 8
        assert r.covers(5)


class TestCountRoots:
    def test_examples(self):
        assert count_roots(IntPoly([-1, 0, 1]), 2, 7) == 4
        assert count_roots(IntPoly([0, 1]), 5, 3) == 1
        assert count_roots(IntPoly([1, 0, 1]), 3, 9) == 0

    def test_k_zero_convention(self):
        assert count_roots(IntPoly([1, 0, 1]), 3, 0) == 1

    def test_content_matches_oracle(self):
        for f, p in [(IntPoly([12]), 2), (IntPoly([0, 2]), 2), (IntPoly([-27, 0, 9]), 3)]:
            for k in range(6):
                assert count_roots(f, p, k) == brute_count(f, p, k), (f, p, k)


def _instances(max_pk=2000):
    for text, p in CORPUS:
        f = parse_poly(text)
        k = 1
        while p**k <= max_pk:
            yield f, p, k
            k += 1


class TestAgainstOracle:
    def test_disjoint_cover(self):
        for f, p, k in _instances():
            reps = representative_roots(f, p, k)
            covered = set()
            for r in reps:
                residues = set(r.residues())
                assert not (covered & residues), "representative roots overlap"
                covered |= residues
            m = p**k
            brute = {x for x in range(m) if f(x) % m == 0}
            assert covered == brute

    def test_cardinality_bound(self):
        for f, p, k in _instances():
            reps = representative_roots(f, p, k)
            assert len([r for r in reps if r.length >= 1]) <= f.degree

    def test_counts_match_oracle(self):
        for f, p, k in _instances():
            assert count_roots(f, p, k) == brute_count(f, p, k)

    def test_equals_brute_decomposition(self):
        for f, p, k in _instances():
            assert representative_roots(f, p, k) == brute_rep_roots(f, p, k)

    def test_monotone_refinement(self):
        for f, p, k in _instances(max_pk=500):
            finer = representative_roots(f, p, k + 1)
            coarser = representative_roots(f, p, k)
            for r in finer:
                assert any(c.digits == r.digits[: c.length] for c in coarser)

    def test_count_growth_bounded(self):
        for f, p, k in _instances():
            assert count_roots(f, p, k) <= p * count_roots(f, p, k - 1)

    def test_random_small_polynomials(self):
        rng = random.Random(1234)
        for _ in range(120):
            p = rng.choice((2, 3, 5))
            f = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 5))])
            if f.is_zero:
                continue
            k = rng.randint(1, 6)
            if p**k > 10**6:
                continue
            assert representative_roots(f, p, k) == brute_rep_roots(f, p, k)
            assert count_roots(f, p, k) == brute_count(f, p, k)
