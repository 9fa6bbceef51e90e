"""Property tests: the pipeline against the brute-force oracle, the
oracle's root levels against the definition of a root, the lifting tree
against a plain walk from the definitions and the branches against a deeper
walk, on generated inputs f = unit * p^c * prod (a_i + p^j_i x)^e_i, a
report against the full-depth walk on those and on f squarefree mod p, the
discriminant valuation against its definition, the packed x^e mod (m, p) of
the splitting backend against a schoolbook square-and-multiply, the F_p gcd
against plain Euclid, compose_linear against the binomial expansion, and
parse_poly against IntPoly.to_text."""

import math
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from igusazeta.cli import parse_poly
from igusazeta.exactpoly import (
    IntPoly,
    compose_linear,
    content_and_primitive,
    discriminant,
    squarefree_part,
    valuation,
)
from igusazeta.igusa import _run_pipeline, discriminant_valuation, report
from igusazeta.oracle import _root_levels, verify_instance
from igusazeta.padic import _fp_gcd, _fp_powmod, _fp_trim, _squarefree_mod_p

from reference_walk import assert_tree_matches
from test_padic import LARGE_PRIMES, _fp_mul, fp_powmod_schoolbook


@st.composite
def products(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    unit = draw(st.sampled_from([u for u in range(-2 * p, 2 * p + 1) if u % p]))
    f = IntPoly([unit * p ** draw(st.integers(0, 2))])
    # Up to three factors with distinct multiplicities, so that the branches
    # often have several distinct e and the denominator several factors
    # p - t^e.  j > 0 with p not dividing a gives a factor without p-adic
    # roots, which only moves the discriminant.
    n = draw(st.integers(1, 3))
    for e in draw(st.permutations([1, 2, 3]))[:n]:
        a = draw(st.integers(-(p**2), p**2))
        j = draw(st.sampled_from([0, 0, 0, 1]))
        f = f * IntPoly([a, p**j]) ** e
    return f, p


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(products())
def test_series_holds_past_the_counts_it_was_built_from(instance):
    f, p = instance
    c, g = content_and_primitive(f, p)
    if g.degree >= 1:
        # P is built from N_0 .. N_(c + k0 - 1) and the branches' closed-form
        # tails; check well beyond c + k0.
        kmax = c + report(g, p).stable_precision + 4 * g.degree
    else:
        kmax = c + 4
    result = verify_instance(f, p, kmax, budget=10**3)
    assert result.all_pass, [x for x in result.checks if not x.passed]


@st.composite
def level_instances(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    # p-content, repeated roots that p often divides, and a cofactor with
    # negative coefficients and a constant term that may exceed p^K.
    f = IntPoly([draw(st.sampled_from([1, -1, 2, -3])) * p ** draw(st.integers(0, 3))])
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(-(p**3), p**3))
        f = f * IntPoly([-a, 1]) ** draw(st.integers(1, 3))
    cofactor = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=3))
    cofactor[0] += draw(st.sampled_from([0, 0, 5000, -5000]))
    return f * IntPoly(cofactor), p


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(level_instances())
def test_root_levels_are_the_root_sets(instance):
    f, p = instance
    K = max(k for k in range(13) if p**k <= 4096)
    want = [[x for x in range(p**k) if f(x) % p**k == 0] for k in range(K + 1)]
    assert list(_root_levels(f, p, K)) == want


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(products())
def test_tree_matches_the_plain_walk_past_the_brute_force_budget(instance):
    assert_tree_matches(*instance)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(products(), st.integers(0, 30))
def test_branches_do_not_depend_on_walk_depth(instance, kmax):
    # A verification walks the tree deeper than a report, and every chain
    # is checked down to the tree's limit, not only near k0.
    f, p = instance
    assert _run_pipeline(f, p)[0].branches == _run_pipeline(f, p, kmax)[0].branches


@st.composite
def simple_instances(draw):
    # f = p^j * g with g squarefree mod p: a dense g, or a product of linear
    # factors distinct mod p, each root a random lift of its residue.
    p = draw(st.sampled_from([2, 3, 101, 1000003]))
    if draw(st.booleans()):
        d = draw(st.integers(1, 8))
        low = draw(st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d))
        g = IntPoly(low + [draw(st.integers(1, 10**6).filter(lambda a: a % p))])
    else:
        g = IntPoly([draw(st.sampled_from([1, -1, 5]))])
        residues = st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, 6), unique=True)
        for r in draw(residues):
            g = g * IntPoly([-(r + p * draw(st.integers(-(10**4), 10**4))), 1])
    assume(_squarefree_mod_p(g, p))
    return p ** draw(st.integers(0, 3)) * g, p


def _assert_report_matches_the_full_depth_walk(f, p):
    # A report walks to c + k0 and reads each chain to 3 records; a walk to
    # c + k0 + 2d + 2, the depth of a verification, checks every chain down
    # to there and gives the same branches (prefixes included), P and Z.
    # P's tails past c + k0 expand to that walk's counts, at any p.
    result, tree = _run_pipeline(f, p)
    c, k0, d = result.content_shift, result.stable_precision, f.degree
    assert tree.k == c + k0
    deep, deep_tree = _run_pipeline(f, p, kmax=k0 + 2 * d + 2)
    assert deep_tree.k == c + k0 + 2 * d + 2
    assert (result.branches, result.poincare, result.zeta) == (
        deep.branches,
        deep.poincare,
        deep.zeta,
    )
    counts = deep_tree.counts()
    assert result.poincare.series(deep_tree.k) == [Fraction(n, p**k) for k, n in enumerate(counts)]


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(simple_instances())
def test_squarefree_mod_p_report_matches_the_full_depth_walk(instance):
    _assert_report_matches_the_full_depth_walk(*instance)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(products())
def test_report_matches_the_full_depth_walk(instance):
    _assert_report_matches_the_full_depth_walk(*instance)


@st.composite
def discriminant_instances(draw):
    p = draw(st.sampled_from([2, 3, 5, 101, 1000003]))
    f = IntPoly([draw(st.integers(1, 3))])
    # Factors of degree 1..3 whose leading coefficient p divides now and
    # then, some squared, so that both sides of the mod-p squarefree test
    # (p | lc, repeated factors mod p or over Q) come up.
    for _ in range(draw(st.integers(1, 3))):
        lc = draw(st.sampled_from([1, -1, 2, 3, p]))
        low = draw(st.lists(st.integers(-(p**2), p**2), min_size=1, max_size=3))
        f = f * IntPoly(low + [lc]) ** draw(st.sampled_from([1, 1, 2]))
    return f, p


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(discriminant_instances())
def test_discriminant_valuation_matches_its_definition(instance):
    f, p = instance
    assert discriminant_valuation(f, p) == valuation(discriminant(squarefree_part(f)), p)


@st.composite
def powmod_instances(draw):
    p = draw(st.sampled_from([3, 1009] + LARGE_PRIMES))
    digit = st.integers(0, p - 1)
    m = draw(st.lists(digit, max_size=12)) + [1]
    base = _fp_trim(draw(st.lists(digit, max_size=16)))
    return base, draw(st.integers(1, 10**6)), m, p


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(powmod_instances())
def test_packed_powmod_matches_schoolbook(instance):
    assert _fp_powmod(*instance) == fp_powmod_schoolbook(*instance)


def _fp_gcd_schoolbook(a, b, p):
    """The monic gcd over F_p by plain Euclid: each divisor made monic, each
    update reduced mod p."""
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        while len(a) >= len(b):
            top, shift = a[-1], len(a) - len(b)
            for j, c in enumerate(b):
                a[shift + j] = (a[shift + j] - top * c) % p
            _fp_trim(a)
        a, b = b, a
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


@st.composite
def gcd_instances(draw):
    # a = g u and b = g v over F_p, every leading coefficient any unit (so,
    # above p = 2, mostly not 1): g = 1 or a common factor, b = 0 now and
    # then, deg a = deg b often.
    p = draw(st.sampled_from([2, 3, 101, 1000003, 536870909, 2**61 - 1]))

    def poly(degree):
        return [draw(st.integers(0, p - 1)) for _ in range(degree)] + [draw(st.integers(1, p - 1))]

    g = poly(draw(st.integers(0, 4)))
    du = draw(st.integers(0, 8))
    dv = draw(st.one_of(st.just(du), st.integers(0, 8)))
    a = _fp_mul(g, poly(du), p)
    b = [] if draw(st.integers(0, 7)) == 0 else _fp_mul(g, poly(dv), p)
    return a, b, p


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(gcd_instances())
def test_fp_gcd_matches_euclid_and_keeps_its_arguments(instance):
    a, b, p = instance
    saved = a[:], b[:]
    assert _fp_gcd(a, b, p) == _fp_gcd_schoolbook(a, b, p)
    assert _fp_gcd(b, a, p) == _fp_gcd_schoolbook(a, b, p)
    assert (a, b) == saved


shifts = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**20), 10**20))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(-(10**40), 10**40), max_size=12), shifts, shifts)
def test_compose_linear_matches_the_binomial_expansion(coeffs, a, b):
    # f(a + b x) = sum_i c_i sum_j C(i, j) a^(i - j) b^j x^j; the lifting tree
    # and tests/reference_walk.py both shift with compose_linear, so this is
    # its independent check.
    expanded = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            expanded[j] += c * math.comb(i, j) * a ** (i - j) * b**j
    assert compose_linear(IntPoly(coeffs), a, b) == IntPoly(expanded)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(-(10**40), 10**40), max_size=13), st.data())
def test_parse_poly_reads_back_to_text(coeffs, data):
    f = IntPoly(coeffs)
    text = f.to_text()
    assert parse_poly(text) == f
    # The same tokens with "**" for "^" and random whitespace around each.
    space = st.sampled_from(["", "", " ", "\t", "  \t"])
    tokens = ["**" if t == "^" else t for t in re.findall(r"\d+|[-+*^x]", text)]
    respaced = "".join(data.draw(space) + t for t in tokens) + data.draw(space)
    assert parse_poly(respaced) == f
