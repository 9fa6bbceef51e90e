"""Acceptance suite.

Each test covers one acceptance criterion, prints exactly one PASS/FAIL line
for it (run with `pytest tests/test_acceptance.py -v -s` to see them all),
and fails loudly with the first few offending cases otherwise.
"""

import random
import time
from fractions import Fraction

from igusazeta.exactpoly import IntPoly, content_and_primitive, discriminant
from igusazeta.igusa import closed_form_count, report
from igusazeta.oracle import brute_count, brute_rep_roots
from igusazeta.padic import count_roots, representative_roots
from igusazeta.ratfun import RationalFunction

from corpus import CORPUS
from igusazeta.cli import parse_poly

RF = RationalFunction
PK_LIMIT = 10**6


def _criterion(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{len(failures)} failures, first: {failures[0]}]"
    print(f"{status}: criterion {number} - {description}{detail}")
    assert not failures, f"criterion {number}: {description}{detail}"


def _instances():
    for text, p in CORPUS:
        yield text, parse_poly(text), p


def _poincare_zeta_identity(P, Z) -> bool:
    """(1 - t) P + t Z = 1, cleared of denominators:
    (1 - t) Pn Zd + t Zn Pd = Pd Zd."""
    one_minus_t, t = IntPoly([1, -1]), IntPoly([0, 1])
    return one_minus_t * P.num * Z.den + t * Z.num * P.den == P.den * Z.den


def _ks_within_budget(p):
    k = 0
    while p**k <= PK_LIMIT:
        yield k
        k += 1


def test_criterion_1_oracle_equivalence_counts():
    started = time.monotonic()
    failures = []
    for text, f, p in _instances():
        for k in _ks_within_budget(p):
            expected = brute_count(f, p, k)
            actual = count_roots(f, p, k)
            if expected != actual:
                failures.append((text, p, k, expected, actual))
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _criterion(1, f"counts equal brute force for p^k <= 1e6 ({elapsed:.1f}s)", failures)


def test_criterion_2_rep_root_decomposition():
    failures = []
    for text, f, p in _instances():
        _, g = content_and_primitive(f, p)
        for k in _ks_within_budget(p):
            if k == 0:
                continue
            expected = brute_rep_roots(g, p, k)
            actual = representative_roots(g, p, k)
            if expected != actual:
                failures.append((text, p, k))
    _criterion(2, "representative roots equal the brute decomposition", failures)


def test_criterion_3_closed_form_regime():
    failures = []
    for text, f, p in _instances():
        c, g = content_and_primitive(f, p)
        if g.degree >= 1:
            result = report(g, p)
            k0 = result.stable_precision
            for k in range(k0, k0 + 2 * g.degree + 3):
                expected = count_roots(g, p, k)
                actual = closed_form_count(result.branches, p, k, k0)
                if expected != actual:
                    failures.append((text, p, k, expected, actual))
        else:
            # constant primitive part: no branches, count must vanish beyond c
            for k in range(c + 1, c + 6):
                if count_roots(f, p, k) != 0:
                    failures.append((text, p, k))
    _criterion(3, "closed-form counts match the recursion on the stable window", failures)


def test_criterion_4_series_consistency():
    failures = []
    for text, f, p in _instances():
        _, g = content_and_primitive(f, p)
        if g.degree >= 1:
            kmax = report(g, p).stable_precision + 2 * g.degree + 2
        else:
            kmax = 10
        coeffs = report(f, p).poincare.series(kmax)
        for k in range(kmax + 1):
            want = Fraction(count_roots(f, p, k), p**k)
            if coeffs[k] != want:
                failures.append((text, p, k, str(want), str(coeffs[k])))
    _criterion(4, "Poincare series coefficients equal N_k / p^k exactly", failures)


def test_criterion_5_known_closed_forms():
    failures = []
    x = IntPoly([0, 1])
    x2 = IntPoly([0, 0, 1])
    for p in (2, 3, 5, 101):
        want_linear = RF(IntPoly([p - 1]), IntPoly([p, -1]))
        got_linear = report(x, p).zeta
        if got_linear != want_linear:
            failures.append(("x", p, got_linear))
        want_square = RF(IntPoly([p - 1]), IntPoly([p, 0, -1]))
        got_square = report(x2, p).zeta
        if got_square != want_square:
            failures.append(("x^2", p, got_square))
    _criterion(5, "zeta(x,p) = (p-1)/(p-t) and zeta(x^2,p) = (p-1)/(p-t^2)", failures)


def test_criterion_6_degree_bounds():
    failures = []
    for text, f, p in _instances():
        P = report(f, p).poincare
        c, g = content_and_primitive(f, p)
        d = f.degree
        bound_num = report(g, p).stable_precision + 2 * d if g.degree >= 1 else c
        if P.den.degree > d + 1:
            failures.append((text, p, "den", P.den.degree))
        if P.num.degree > bound_num:
            failures.append((text, p, "num", P.num.degree, bound_num))
    _criterion(6, "deg(B) <= d+1 and deg(A) <= k0+2d", failures)


def test_criterion_7_squarefree_constancy():
    failures = []
    for text, f, p in _instances():
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
        if len(counts) != 1:
            failures.append((text, p, sorted(counts)))
    _criterion(7, "squarefree inputs have constant N_k on the stable window", failures)


def test_criterion_8_poincare_zeta_identity():
    failures = []
    for text, f, p in _instances():
        r = report(f, p)
        if not _poincare_zeta_identity(r.poincare, r.zeta):
            failures.append((text, p))
    _criterion(8, "(1-t)*P(t) + t*Z(t) = 1, cleared of denominators", failures)


def test_criterion_9_scaling_smoke():
    # seed chosen so the instance has several branches mod 101 (n = 4)
    rng = random.Random(9)
    p = 101
    coeffs = [rng.choice((-1, 1)) * rng.randrange(10**29, 10**30) for _ in range(11)]
    f = IntPoly(coeffs)
    assert f.degree == 10

    failures = []
    started = time.monotonic()
    rep = report(f, p)
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        failures.append(("runtime", elapsed))

    c, g = content_and_primitive(f, p)
    k0 = rep.stable_precision
    d = f.degree

    # criterion 3 on this instance
    for k in range(k0, k0 + 2 * d + 3):
        if closed_form_count(rep.branches, p, k, k0) != count_roots(g, p, k):
            failures.append(("closed-form", k))

    # criterion 4 on this instance (oracle skipped: p^k exceeds any budget)
    kmax = k0 + 2 * d + 2
    coeffs_series = rep.poincare.series(kmax)
    for k in range(kmax + 1):
        if coeffs_series[k] != Fraction(count_roots(f, p, k), p**k):
            failures.append(("series", k))

    # criterion 6
    if rep.poincare.den.degree > d + 1:
        failures.append(("den degree", rep.poincare.den.degree))
    if rep.poincare.num.degree > k0 + 2 * d:
        failures.append(("num degree", rep.poincare.num.degree))

    # criterion 8
    if not _poincare_zeta_identity(rep.poincare, rep.zeta):
        failures.append(("identity",))

    _criterion(
        9,
        f"degree-10 / 30-digit / p=101 report in {elapsed:.2f}s with criteria 3,4,6,8",
        failures,
    )
