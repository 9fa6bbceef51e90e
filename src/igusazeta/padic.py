"""Roots modulo p, representative roots modulo prime powers, and exact root counts.

A representative root packages a whole family of roots of f mod p^k: a fixed
base-p digit prefix of length l together with every possible choice of the
remaining k - l digits.  The root set of f mod p^k is the disjoint union of
at most deg(f) such families (plus possibly the single length-0 family when
every residue is a root), which is what makes exact counting cheap even when
p^k is astronomically large.  One lifting tree, walked to the deepest
precision needed, holds these families for every shallower precision too;
its children are indexed once, as the walk records them, and its readers
descend that index in digit order.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Iterator

from .errors import ArgumentError, IdenticallyZeroModP, InconsistentLengths
from .exactpoly import IntPoly, compose_linear, content_and_primitive, decimal_text

DEFAULT_SCAN_THRESHOLD = 1 << 16

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to every base in _MR_WITNESSES (Sorenson and
# Webster, 2015); below it those bases decide primality.
_MR_PROVEN_BELOW = 318665857834031151167461


@functools.lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with a fixed witness set, plus a strong
    Lucas test from _MR_PROVEN_BELOW on.

    Below _MR_PROVEN_BELOW (about 3.19e23) the twelve witnesses are proven
    to decide primality.  From there on the Miller-Rabin rounds (base 2
    among them) together with the strong Lucas test make up the Baillie-PSW
    test: no composite passing it is known, but none is proven not to exist.
    No randomness is involved.  The answer is cached: check_prime asks
    about the same p at every node of the lifting tree.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN_BELOW or _strong_lucas_probable_prime(n)


def check_prime(p: int) -> None:
    """Raise ArgumentError unless p is a prime.  Every entry point that needs
    a prime p asks here first, and nowhere else decides primality.
    """
    if p < 2:
        raise ArgumentError("p must be at least 2")
    if not is_prime(p):
        raise ArgumentError(f"p must be prime: {decimal_text(p)} is not prime")


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0.
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # Strong Lucas test with Selfridge's parameters (method A): D is the
    # first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.
    # n is odd and has no prime factor below 41.
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def halve(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    # U_k, V_k and Q^k mod n, by binary doubling from k = 1 up to k = d.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = halve(U + V), halve(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@dataclass(frozen=True)
class RepRoot:
    """One representative root of f mod p^k: the residues congruent to the
    digit prefix modulo p^length, all of which are roots.

    A maximal representative root additionally has the property that dropping
    its last fixed digit would admit a non-root.
    """

    p: int
    k: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise ArgumentError("p must be at least 2")
        if self.k < 0:
            raise ArgumentError("k must be nonnegative")
        if len(self.digits) > self.k:
            raise ArgumentError("prefix longer than the precision")
        if any(d < 0 or d >= self.p for d in self.digits):
            raise ArgumentError("digits must lie in [0, p)")

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        """The smallest residue in the family."""
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.p + d
        return acc

    @property
    def count(self) -> int:
        """Number of residues mod p^k in the family: p^(k - length)."""
        return self.p ** (self.k - self.length)

    def covers(self, x: int) -> bool:
        return (x - self.value) % self.p ** self.length == 0

    def residues(self) -> Iterator[int]:
        """All residues in the family; only sensible when p^(k-l) is small."""
        step = self.p**self.length
        v = self.value
        for m in range(self.count):
            yield v + m * step

    def describe(self) -> str:
        p = decimal_text(self.p)
        if not self.digits:
            return f"all residues (mod {p}^{self.k})"
        return (
            f"{decimal_text(self.value)} + {p}^{self.length}*m"
            f" (mod {p}^{self.k}), digits {','.join(map(decimal_text, self.digits))}"
        )

    def to_json_dict(self) -> dict:
        return {"digits": [decimal_text(d) for d in self.digits], "length": self.length}


def _reduce_mod_p(f: IntPoly, p: int) -> list[int]:
    return _fp_trim([c % p for c in f.coeffs])


def roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """All residues r in [0, p) with f(r) = 0 mod p, sorted.

    An f that is linear mod p, as at most nodes of a lifting-tree chain are,
    is solved before either backend: its one root is -f_0 / f_1 mod p.  Two
    backends, both deterministic, take every other f: an exhaustive scan
    (for p = 2 and every p below DEFAULT_SCAN_THRESHOLD) and gcd with x^p - x
    followed by equal-degree splitting for large p.  The splitting backend
    computes x^p mod f, and the powers that split, with packed products: each
    residue mod f is one int with a fixed-width slot per coefficient, so a
    product is one big-int multiply.  It counts its trial elements
    a = 0, 1, 2, ... rather than drawing them, and any p consecutive ones
    split a product of distinct linear factors, so each split ends within p
    trials.  Only a prime p is taken: any other p raises ArgumentError.
    """
    check_prime(p)
    fp = _reduce_mod_p(f, p)
    if not fp:
        raise IdenticallyZeroModP(f"polynomial is identically zero mod {p}")
    if len(fp) == 2:
        return [-fp[0] * pow(fp[1], -1, p) % p]
    if p == 2 or p < DEFAULT_SCAN_THRESHOLD:
        out = []
        for r in range(p):
            acc = 0
            for c in reversed(fp):
                acc = (acc * r + c) % p
            if acc == 0:
                out.append(r)
        return out
    return _roots_by_splitting(fp, p)


# ---------------------------------------------------------------------------
# F_p polynomial helpers for the splitting backend and the squarefree test
# (coefficients ascending).


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _fp_trim(out)


def _fp_divmod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic m; neither argument is changed.

    The inner updates are not reduced: an entry takes at most deg m of them,
    each below p^2, and is reduced mod p once, when it becomes a quotient
    coefficient or, at the end, a remainder coefficient.
    """
    r = a[:]
    dm = len(m) - 1
    q = [0] * max(len(a) - dm, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + dm] % p
        if c:
            for j in range(dm):
                r[i + j] -= c * m[j]
    return _fp_trim(q), _fp_trim([c % p for c in r[:dm]])


def _fp_powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """base^e mod (m, p) for e >= 1 and a monic m: the callers pass p, or
    (p - 1) // 2 with p odd, since the splitting backend never runs at p = 2.
    Left to right over the bits of e, so each multiply is by the reduced base
    (x for x^p mod f).

    A residue is packed into one int, a slot of w bytes per coefficient
    (Kronecker substitution), so a product is one big-int multiply.  The
    product's slots from n = deg m up are reduced mod p and folded back as
    multiples of the rows x^(n + i) mod m, built once per call; a zero slot
    is skipped, as are all but one in a product by x or x + a.  The sum is
    then unpacked, reduced mod p and packed again.  No slot carries into the
    next: a product slot is a sum of at most n terms below p^2, and the rows
    add at most n - 1 more such terms, so every slot stays below
    2n p^2 <= 2^(8w).  When that allows w <= 8, which is when
    2 bits(p) + bits(2n) <= 64 (p < 2^29 up to degree 31), the slot is one
    64-bit word, and a residue is packed and unpacked through array("Q");
    wider slots go one int.to_bytes or int.from_bytes per coefficient.
    """
    n = len(m) - 1
    if n == 0:
        return []
    w = max((2 * p.bit_length() + (2 * n).bit_length() + 7) // 8, 8)
    low = 8 * w * n
    mask = (1 << low) - 1

    if w == 8:

        def pack(a: list[int]) -> int:
            return int.from_bytes(array("Q", a).tobytes(), sys.byteorder)

        def unpack(x: int, k: int) -> list[int]:
            return [c % p for c in memoryview(x.to_bytes(8 * k, sys.byteorder)).cast("Q")]

    else:

        def pack(a: list[int]) -> int:
            return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")

        def unpack(x: int, k: int) -> list[int]:
            b = x.to_bytes(k * w, "little")
            return [int.from_bytes(b[i : i + w], "little") % p for i in range(0, k * w, w)]

    row = [-c % p for c in m[:n]]
    rows = []
    for _ in range(n - 1):
        rows.append(pack(row))
        top = row[-1]
        row = [(c - top * mc) % p for c, mc in zip([0] + row[:-1], m)]

    def mulmod(x: int, y: int) -> int:
        prod = x * y
        acc = prod & mask
        for h, r in zip(unpack(prod >> low, n - 1), rows):
            if h:
                acc += h * r
        return pack(unpack(acc, n))

    b = result = pack(_fp_divmod(base, m, p)[1])
    for bit in bin(e)[3:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, b)
    return _fp_trim(unpack(result, n))


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b over F_p ([] when both are zero).

    Euclid on the remainders as they come, none made monic: each division
    runs in place on a copy of the dividend, scales by the inverse of lc(b),
    and reduces the remainder mod p once at the end, as _fp_divmod does but
    with no quotient kept.  Only the final gcd is made monic.  Neither
    argument is changed.
    """
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        for i in range(len(a) - 1 - db, -1, -1):
            c = a[i + db] * inv % p
            if c:
                for j in range(db):
                    a[i + j] -= c * b[j]
        del a[db:]
        a, b = b, _fp_trim([c % p for c in a])
    return _fp_monic(a, p) if a else []


def _squarefree_mod_p(f: IntPoly, p: int) -> bool:
    """True when p does not divide lc(f) and f mod p is squarefree over F_p,
    i.e. gcd(f mod p, f' mod p) = 1.  Exactly then p does not divide
    Res(f, f'), even if deg f' drops mod p.  A derivative that vanishes mod p,
    as for x^p - a or a constant, gives False.  p must be prime.
    """
    fp = _reduce_mod_p(f, p)
    if len(fp) != len(f.coeffs):
        return False
    dfp = _fp_trim([i * c % p for i, c in enumerate(fp)][1:])
    return bool(dfp) and _fp_gcd(fp, dfp, p) == [1]


def _roots_by_splitting(fp: list[int], p: int) -> list[int]:
    f = _fp_monic(fp, p)
    xp = _fp_powmod([0, 1], p, f, p)
    lin = _fp_gcd(_fp_sub(xp, [0, 1], p), f, p)
    roots: list[int] = []
    stack = [lin] if len(lin) > 1 else []
    # One counter of trial elements runs across the whole stack: a value that
    # failed to split g fails on every factor of g too.  For distinct roots r
    # and s the Legendre symbols of (a + r)(a + s) sum to -1 over all a, so
    # any p consecutive trials split g.
    a = 0
    while stack:
        g = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        while True:
            h = _fp_powmod([a % p, 1], (p - 1) // 2, g, p)
            a += 1
            u = _fp_gcd(_fp_sub(h, [1], p), g, p)
            if 1 < len(u) < len(g):
                stack += [u, _fp_divmod(g, u, p)[0]]
                break
    return sorted(roots)


# ---------------------------------------------------------------------------
# The lifting tree.


class _LiftingTree:
    """The lifting tree of a nonzero f at a prime p, walked once to precision
    k.  It holds the representative roots and the root counts of f mod p^j
    for every j <= k.

    Every node strips the p-power content of its polynomial and adds it to
    the precision used along the path: at the root, f = p^c * g uses
    precision c, since every residue is a root mod p^j for j <= c.  Each
    node below the root is one digit r of a root: its polynomial is the
    parent's with x -> r + p*x substituted, content stripped.  A node whose
    used precision reaches k is not expanded: every extension of its digits
    is a root mod p^k.  It keeps its polynomial, so that the branch reader
    can follow a chain past k one node at a time.
    """

    def __init__(self, f: IntPoly, p: int, k: int):
        check_prime(p)
        self.p, self.k = p, k
        c, g = content_and_primitive(f, p)
        # (parent, digit, depth, used precision) per node; parents come first.
        # kids[n]: node n's children, in digit order; polys[n]: its polynomial
        # while it is not expanded.
        self.nodes = [(-1, 0, 0, c)]
        self.kids: list[list[int]] = [[]]
        self.cover = [c]
        self.polys = {0: g}
        stack = [0] if c < k else []
        while stack:
            stack += [m for m in self._expand(stack.pop()) if self.nodes[m][3] < k]
        # cover[n]: the largest precision at which every extension of node n's
        # digits is a root.  A node whose p children are all covered at some
        # precision is covered there too, so the children merge into it.  A
        # child's cover is never below its parent's, so node n is the maximal
        # representative root mod p^j exactly for j in (cover[parent], cover[n]].
        for n in range(len(self.nodes) - 1, -1, -1):
            if len(self.kids[n]) == p:
                self.cover[n] = max(self.cover[n], min(self.cover[m] for m in self.kids[n]))

    def _expand(self, node: int) -> list[int]:
        """The node's children, recorded first if it is not expanded yet: one
        per root r of its polynomial g mod p, in digit order, whose used
        precision adds the p-content v >= 1 of g(r + p*x).  A child of a leaf
        past k is covered at its own used precision, above k, so no answer up
        to k changes.
        """
        g = self.polys.pop(node, None)
        if g is not None:
            _, _, depth, used = self.nodes[node]
            for r in roots_mod_p(g, self.p):
                v, h = content_and_primitive(compose_linear(g, r, self.p), self.p)
                if v < 1:
                    raise InconsistentLengths(
                        f"digit {r} at depth {depth + 1} is no root mod {self.p}:"
                        f" substituting it divided out p^{v}"
                    )
                self.kids[node].append(len(self.nodes))
                self.kids.append([])
                self.polys[len(self.nodes)] = h
                self.nodes.append((node, r, depth + 1, used + v))
                self.cover.append(used + v)
        return self.kids[node]

    def _at(self, k: int, last: int | None = None) -> list[list[tuple[int, tuple[int, ...]]]]:
        """For each precision j = k, ..., last (last defaults to k), the
        maximal representative roots mod p^j, as (node, digits) pairs in
        digit-string order.

        One descent serves every j: it follows kids from the root, lowest
        digit first, and lists node n under each j in (cover[parent],
        cover[n]] (j <= cover[0] at the root), the precisions at which n is
        maximal.  It stops on each path at the first node covered at last.
        """
        last = k if last is None else last
        if not 1 <= k <= last <= self.k:
            raise ArgumentError(f"precisions {k}..{last} are outside 1..{self.k} of this tree")
        out: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(k, last + 1)]
        path, stack = [], [0]
        while stack:
            n = stack.pop()
            parent, digit, depth, _ = self.nodes[n]
            # path[j]: the digit at depth j on the way to n (0 at the root)
            path[depth:] = [digit]
            cover = self.cover[n]
            if cover >= k:
                pair = (n, tuple(path[1:]))
                below = self.cover[parent] if depth else -1
                for j in range(max(below + 1, k), min(cover, last) + 1):
                    out[j - k].append(pair)
            if cover < last:
                stack += reversed(self.kids[n])
        return out

    def roots(self, k: int) -> list[RepRoot]:
        """The maximal representative roots mod p^k, sorted by digit string."""
        [found] = self._at(k)
        return [RepRoot(p=self.p, k=k, digits=digits) for _, digits in found]

    def counts(self) -> list[int]:
        """N_0 .. N_k: the number of roots mod p^j for every j <= k.

        One sweep adds each node to the counts of the precisions in its
        interval, from its parent's cover (-1 at the root) up to its own.
        """
        out = [0] * (self.k + 1)
        for (parent, _, depth, _), cover in zip(self.nodes, self.cover):
            below = self.cover[parent] if parent >= 0 else -1
            for j in range(below + 1, min(cover, self.k) + 1):
                out[j] += self.p ** (j - depth)
        return out


def representative_roots(f: IntPoly, p: int, k: int) -> list[RepRoot]:
    """The maximal disjoint representative-root decomposition of the root set
    of a nonzero f mod p^k, sorted by digit string.  Requires k >= 1.
    """
    if k < 1:
        raise ArgumentError("precision k must be positive")
    return _LiftingTree(f, p, k).roots(k)


def count_roots(f: IntPoly, p: int, k: int) -> int:
    """Exact number of roots of a nonzero f mod p^k (1 for k = 0)."""
    if k < 0:
        raise ArgumentError("precision k must be nonnegative")
    return _LiftingTree(f, p, k).counts()[k]
