"""Seeded instance generators for the four benchmark workloads.

Every generator takes the seed as its only argument and returns the batch as a
list of `Instance`; the same seed always gives the same batch.  The program
under test sees only `Instance.text` and `Instance.p`.  This module does its
own small polynomial arithmetic and never imports igusazeta, so generating a
batch cannot depend on the code being measured.

Batches are stratified: the seed picks coefficients, translations and unit
factors, but each slot of a batch has a fixed structural class (root count
mod p, lifting template, or degree).  Per-instance cost follows the class, so
the median and the tail percentile land in the same class for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 9
VERIFY_KMAX = 12
VERIFY_BUDGET = 10**6

ACCEPT_P = 101
# Slots per number of roots mod p (4 means 4 or more).  Random dense degree-10
# polynomials mod 101 have 0, 1, 2, 3 roots roughly 37/37/18/6 % of the time;
# the quotas follow that shape while putting the median inside the one-root
# class and the tail percentile (p68 at 32 instances) inside the two-root
# class.  Only instances with delta = 0 (about 98% of them) are kept, since
# delta = 1 doubles k0 and the cost of a slot.
ACCEPT_QUOTAS = {0: 9, 1: 10, 2: 8, 3: 4, 4: 1}

ROOTLESS_P = 1000003
# Median among the degree-18 slots, tail percentile (p68) among the degree-20 ones.
ROOTLESS_DEGREES = [16] * 11 + [18] * 8 + [20] * 5 + [22] * 5 + [24] * 2 + [30]

# The instances of the repository's test corpus, as (coefficients, p).
ORACLE_CORPUS = [
    ([0, 1], 2),
    ([0, 1], 7),
    ([0, 0, 1], 2),
    ([0, 0, 1], 3),
    ([-1, 0, 1], 2),
    ([-1, 0, 1], 5),
    ([1, 3, 2], 2),
    ([1, -1, -1, 1], 3),
    ([1, 0, 1], 3),
    ([1, 0, 1], 5),
    ([0, -1, 0, 1], 2),
    ([12], 2),
    ([8, 0, 4], 2),
]
ORACLE_RANDOM_SLOTS = 19
ORACLE_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Instance:
    text: str  # the polynomial as the program parses it
    p: int
    coeffs: tuple[int, ...]  # lowest degree first, for the checker only
    label: str  # the structural class of the slot

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


# ---------------------------------------------------------------------------
# Plain integer polynomial helpers (coefficients lowest degree first).


def trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def _power(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = mul(out, a)
    return out


def _shift(a: list[int], t: int) -> list[int]:
    """a(x - t): a translation, which keeps every root count mod p^k."""
    acc = [0]
    for c in reversed(a):
        acc = mul(acc, [-t, 1])
        acc[0] += c
    return trim(acc)


def _text(coeffs: list[int]) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0 and len(coeffs) > 1:
            continue
        mono = "" if i == 0 else ("*x" if i == 1 else f"*x^{i}")
        terms.append(f"{c}{mono}")
    return " + ".join(terms).replace("+ -", "- ")


def _instance(coeffs: list[int], p: int, label: str) -> Instance:
    return Instance(_text(coeffs), p, tuple(coeffs), label)


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # a mod b over F_p; both reduced and trimmed to a nonzero leading term.
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - c * x) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _squarefree_mod(coeffs: list[int], p: int) -> bool:
    """Whether f mod p keeps its degree and has no repeated factor, which
    makes p a non-divisor of the discriminant (delta = 0)."""
    if coeffs[-1] % p == 0:
        return False
    a = [c % p for c in coeffs]
    b = [i * c % p for i, c in enumerate(coeffs)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _fp_rem(a, b, p)
    return len(a) == 1


def _roots_mod(coeffs: list[int], p: int) -> int:
    red = [c % p for c in coeffs]
    count = 0
    for r in range(p):
        acc = 0
        for c in reversed(red):
            acc = (acc * r + c) % p
        count += acc == 0
    return count


# ---------------------------------------------------------------------------
# accept-d10: the typical user instance.


def _dense_d10(rng: random.Random) -> list[int]:
    # Same draw as acceptance criterion 9, so random.Random(9) reproduces it.
    return [rng.choice((-1, 1)) * rng.randrange(10**29, 10**30) for _ in range(11)]


def accept_d10(seed: int) -> list[Instance]:
    quotas = dict(ACCEPT_QUOTAS)
    rng = random.Random(f"accept-d10:{seed}")
    out = []
    candidate = _dense_d10(random.Random(seed))
    while len(out) < sum(ACCEPT_QUOTAS.values()):
        roots = min(_roots_mod(candidate, ACCEPT_P), 4)
        if quotas[roots] and _squarefree_mod(candidate, ACCEPT_P):
            quotas[roots] -= 1
            out.append(_instance(candidate, ACCEPT_P, f"roots={roots}"))
        candidate = _dense_d10(rng)
    return out


# ---------------------------------------------------------------------------
# deep-lift: high discriminant valuation at small p.


def _lin(a: int) -> list[int]:
    return [-a, 1]


# (label, p, polynomial, copies).  k0 = deg * (delta + 1) + 1 ranges from 7
# to 133.  The copies put the batch median among the templates that cost about
# 40 ms each and the tail percentile (p68 at 32 instances) on the six copies
# of the three-root template near 0.2 s, so both stay put across seeds.
# x^6 - 2^6 (k0 = 223, about 18 s) is left out: one such sample would
# outweigh the rest of the batch.
DEEP_TEMPLATES = [
    ("x^2-5^2", 5, [-(5**2), 0, 1], 2),
    ("x^2-3^4", 3, [-(3**4), 0, 1], 2),
    ("x^2-2^4", 2, [-(2**4), 0, 1], 1),
    ("content:2^3(x^2-2^6)", 2, [-(2**9), 0, 2**3], 1),
    ("x^3-5^3", 5, [-(5**3), 0, 0, 1], 1),
    ("near:(x-1)(x-1-3^6)", 3, mul(_lin(1), _lin(1 + 3**6)), 1),
    ("x^3-3^3", 3, [-(3**3), 0, 0, 1], 2),
    ("x^3-2^6", 2, [-(2**6), 0, 0, 1], 2),
    ("content:5^2(x^3-5^6)", 5, [-(5**8), 0, 0, 5**2], 2),
    ("mult:(x-1)^3(x-1-2^4)", 2, mul(_power(_lin(1), 3), _lin(1 + 2**4)), 2),
    ("mult:(x-1)^2(x+1)^2(x-4)", 3, mul(_power(mul(_lin(1), _lin(-1)), 2), _lin(4)), 2),
    ("x^2-2^20", 2, [-(2**20), 0, 1], 1),
    ("near:(x-1)(x-1-2^8)(x-2)", 2, mul(mul(_lin(1), _lin(1 + 2**8)), _lin(2)), 6),
    ("x^4-2^4", 2, [-(2**4), 0, 0, 0, 1], 3),
    ("x^5-2^5", 2, [-(2**5), 0, 0, 0, 0, 1], 3),
    ("x^4-2^8", 2, [-(2**8), 0, 0, 0, 1], 1),
]


def _unit(rng: random.Random, p: int) -> int:
    while True:
        u = rng.randrange(10**5, 10**6)
        if u % p:
            return u


def deep_lift(seed: int) -> list[Instance]:
    """Each copy of a template translated by a random t and scaled by a random
    p-adic unit: root counts mod p^k, delta and k0 stay those of the template,
    only the digits and coefficient sizes change with the seed."""
    rng = random.Random(f"deep-lift:{seed}")
    out = []
    for label, p, poly, copies in DEEP_TEMPLATES:
        for _ in range(copies):
            t = rng.randrange(10**5, 10**6)
            u = _unit(rng, p) * rng.choice((-1, 1))
            coeffs = [u * c for c in _shift(poly, t)]
            out.append(_instance(coeffs, p, label))
    return out


# ---------------------------------------------------------------------------
# highdeg-rootless: degree 16 to 30 at a prime above the scan threshold.


def _irreducible_quadratics(rng: random.Random, p: int, n: int) -> list[list[int]]:
    found: set[tuple[int, int]] = set()
    while len(found) < n:
        b, c = rng.randrange(p), rng.randrange(p)
        disc = (b * b - 4 * c) % p
        if disc and pow(disc, (p - 1) // 2, p) == p - 1:
            found.add((c, b))
    return [[c, b, 1] for c, b in sorted(found)]


def highdeg_rootless(seed: int) -> list[Instance]:
    """f = h + p*r, monic of the listed degree, with h a product of distinct
    monic quadratics irreducible mod p: f has no root mod p, so P = Z = 1."""
    rng = random.Random(f"highdeg-rootless:{seed}")
    p = ROOTLESS_P
    out = []
    for d in ROOTLESS_DEGREES:
        h = [1]
        for q in _irreducible_quadratics(rng, p, d // 2):
            h = mul(h, q)
        r = [rng.choice((-1, 1)) * rng.randrange(10**28, 10**29) for _ in range(d)]
        coeffs = [h[i] + p * r[i] for i in range(d)] + [1]
        out.append(_instance(coeffs, p, f"degree={d}"))
    return out


# ---------------------------------------------------------------------------
# oracle-verify: brute-force verification of small instances.


def oracle_verify(seed: int) -> list[Instance]:
    rng = random.Random(f"oracle-verify:{seed}")
    out = [_instance(c, p, "corpus") for c, p in ORACLE_CORPUS]
    for i in range(ORACLE_RANDOM_SLOTS):
        p = ORACLE_PRIMES[i % len(ORACLE_PRIMES)]
        d = 2 + i % 3
        coeffs = [rng.randint(-20, 20) for _ in range(d)] + [rng.choice((1, -1, 2, 3))]
        out.append(_instance(coeffs, p, f"random:p={p},d={d}"))
    return out


GENERATORS = {
    "accept-d10": accept_d10,
    "deep-lift": deep_lift,
    "highdeg-rootless": highdeg_rootless,
    "oracle-verify": oracle_verify,
}


def generate(workload: str, seed: int) -> list[Instance]:
    return GENERATORS[workload](seed)
