"""The oracle's pruned enumeration against the definition of a root.

oracle._root_levels tests only the p lifts of the roots one level up.  These
tests compare every level k with p^k <= 3000 against a scan of all residues
mod p^k, with f evaluated in Python integers, so they rest on nothing but
the definition.
"""

import random

import pytest

from igusazeta.exactpoly import IntPoly
from igusazeta.oracle import _root_levels

PRIMES = (2, 3, 5, 7)


def _deepest(p):
    k = 0
    while p ** (k + 1) <= 3000:
        k += 1
    return k


def _assert_levels_are_the_root_sets(f, p):
    K = _deepest(p)
    levels = list(_root_levels(f, p, K))
    want = [[x for x in range(p**k) if f(x) % p**k == 0] for k in range(K + 1)]
    assert levels == want, (f, p)


def _product(*factors):
    out = IntPoly([1])
    for h in factors:
        out = out * h
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_random_polynomials(p):
    rng = random.Random(f"root-levels:{p}")
    for _ in range(40):
        f = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(1, 6))])
        _assert_levels_are_the_root_sets(f, p)


@pytest.mark.parametrize("p", PRIMES)
def test_power_of_p_content(p):
    rng = random.Random(f"root-levels-content:{p}")
    for c in range(1, 5):
        g = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(1, 4))] + [1])
        _assert_levels_are_the_root_sets(IntPoly([p**c]) * g, p)


@pytest.mark.parametrize("p", PRIMES)
def test_identically_zero_mod_p_with_unit_content(p):
    # x^p - x vanishes at every residue mod p, yet p does not divide it
    fermat = IntPoly([0, -1] + [0] * (p - 2) + [1])
    _assert_levels_are_the_root_sets(fermat, p)
    _assert_levels_are_the_root_sets(fermat + IntPoly([p]), p)
    _assert_levels_are_the_root_sets(fermat * fermat, p)


@pytest.mark.parametrize("p", PRIMES)
def test_repeated_roots(p):
    for a, b, e in [(1, 0, 2), (p, 1, 3), (1 + p**2, -1, 2), (0, 0, 4)]:
        f = _product(*[IntPoly([-a, 1])] * e, IntPoly([-b, 1]))
        _assert_levels_are_the_root_sets(f, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("c", [0, 1, -1, 2, 12, 3**5, 5**4, 7**4, 2**11 * 3])
def test_constants(p, c):
    _assert_levels_are_the_root_sets(IntPoly([c]), p)
