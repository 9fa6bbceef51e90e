"""A plain walk of root counts and representative roots from their
definitions, for precisions the brute-force oracle cannot enumerate.

The walk uses only compose_linear and content_and_primitive and tries every
digit in range(p): no roots mod p, no lifting tree, no merged children.
assert_tree_matches compares it with the lifting tree.
"""

from functools import lru_cache

from igusazeta.exactpoly import IntPoly, compose_linear, content_and_primitive
from igusazeta.igusa import discriminant_valuation
from igusazeta.padic import RepRoot, _LiftingTree


@lru_cache(maxsize=None)
def _children(g: IntPoly, p: int) -> tuple[tuple[int, IntPoly], ...]:
    # (v, h) with g(r + p*y) = p^v h(y) and v >= 1, over the digits r of p
    out = []
    for r in range(p):
        v, h = content_and_primitive(compose_linear(g, r, p), p)
        if v >= 1:
            out.append((v, h))
    return tuple(out)


@lru_cache(maxsize=None)
def count(f: IntPoly, p: int, k: int) -> int:
    """N_k(f): the number of x mod p^k with f(x) = 0 mod p^k."""
    c, g = content_and_primitive(f, p)
    if c >= k:
        return p**k
    total = 0
    for v, h in _children(g, p):
        if c + v >= k:
            total += p ** (k - 1)
        else:
            total += p ** (c + v - 1) * count(h, p, k - c - v)
    return total


def _extensions(f: IntPoly, p: int, k: int, digits: tuple[int, ...]) -> int:
    # N_k of y -> f(s + p^l y), s the digits' value and l their number: p^l
    # times the roots mod p^k that extend the digits.
    s = sum(d * p**i for i, d in enumerate(digits))
    return count(compose_linear(f, s, p ** len(digits)), p, k)


def roots(f: IntPoly, p: int, k: int) -> list[RepRoot]:
    """The maximal representative roots mod p^k: the digit prefixes all of
    whose extensions are roots while those of the one-digit-shorter prefix
    are not, sorted by digit string.
    """
    out = []
    stack = [()]
    while stack:
        digits = stack.pop()
        n = _extensions(f, p, k, digits)
        if n == p**k:
            out.append(RepRoot(p=p, k=k, digits=digits))
        elif n:
            stack += [digits + (d,) for d in range(p)]
    return sorted(out, key=lambda r: r.digits)


def assert_tree_matches(f: IntPoly, p: int, roots_up_to: int = 15) -> None:
    """The lifting tree's counts at every k <= c + k0 + 2d + 1 and its
    representative roots at every k <= roots_up_to equal the plain walk's.
    """
    c, g = content_and_primitive(f, p)
    # k0 from delta, which walks no tree
    k0 = g.degree * (discriminant_valuation(g, p) + 1) + 1
    top = c + k0 + 2 * g.degree + 1
    tree = _LiftingTree(f, p, max(top, roots_up_to))
    counts = tree.counts()
    for k in range(top + 1):
        assert counts[k] == count(f, p, k), (f.to_text(), p, k)
    for k in range(1, roots_up_to + 1):
        assert tree.roots(k) == roots(f, p, k), (f.to_text(), p, k)
