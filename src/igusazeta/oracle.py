"""Brute-force ground truth used to verify the whole pipeline.

The roots of f mod p^k are found by evaluating f, with nothing taken from
the lifting tree or the closed forms this module checks.  The search is
exhaustive although it does not evaluate every residue: a root x mod p^k
reduces to a root x mod p^(k-1), so every root at level k is one of the p
lifts r + j*p^(k-1) of a root r at level k-1, and testing those candidates
finds them all.  Level 0 is the single residue 0.  Each level evaluates f at
every candidate by Python-int Horner steps, exact at any modulus.  This is
the digit-by-digit view of Dwivedi, Mittal and Saxena's root counter, but
the oracle only enumerates: it compares no valuations and shifts no
polynomials, so a fault in the tree cannot hide in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import ArgumentError, BudgetExceeded
from .exactpoly import IntPoly, decimal_text
from .exactpoly import content_and_primitive  # noqa: F401  rebound by benchmarks/tracer.py
from .igusa import _run_pipeline, closed_form_count
from .igusa import poincare_series, root_count  # noqa: F401  rebound by benchmarks/tracer.py
from .padic import RepRoot, check_prime
from .padic import count_roots, representative_roots  # noqa: F401  rebound by benchmarks/tracer.py

DEFAULT_BUDGET = 10**7


def _check_budget(p: int, k: int, budget: int) -> None:
    """Raise BudgetExceeded unless p^k is at most the budget."""
    if p < 2:
        raise ArgumentError("p must be at least 2")
    if k < 0:
        raise ArgumentError("precision k must be nonnegative")
    m = p**k
    if m > budget:
        raise BudgetExceeded(
            f"p^k = {decimal_text(m)} exceeds the enumeration budget {decimal_text(budget)}",
            modulus=m,
            limit=budget,
        )


def _does_not_fit(n: int) -> BudgetExceeded:
    return BudgetExceeded(f"an array of {n} residues does not fit in memory", size=n)


def _root_levels(f: IntPoly, p: int, K: int) -> Iterator[list[int]]:
    """The sorted list of roots of f mod p^k, for k = 0, 1, ..., K.

    The caller checks p^K with _check_budget.  Only the previous level is
    kept while the next is built, and no level is longer than p^K.  A level
    that does not fit in memory raises BudgetExceeded with its number of
    candidates.
    """
    roots = [0]
    m = 1
    yield roots
    for _ in range(K):
        step, m = m, m * p
        try:
            roots = _next_level(f, roots, step, m)
        except MemoryError:  # the level's p * len(roots) candidates
            raise _does_not_fit(p * len(roots)) from None
        yield roots


def _next_level(f: IntPoly, roots: list[int], step: int, m: int) -> list[int]:
    """The lifts x = r + j*step, j < m // step, of the roots r mod step at
    which f vanishes mod m, in increasing order.

    x is a root when x * h(x) = -f(0) mod m, where h = (f - f(0)) / x is
    evaluated by Horner's rule mod m, so no step outgrows m^2 whatever the
    degree of f.
    """
    c0, *rest = f.coeffs or (0,)
    high = [c % m for c in reversed(rest)]
    target = -c0 % m
    out = []
    # j outer and r < step inner, so the lifts come in increasing order.
    for j in range(0, m, step):
        for r in roots:
            x = j + r
            acc = 0
            for c in high:
                acc = (acc * x + c) % m
            if acc * x % m == target:
                out.append(x)
    return out


def _rep_digits(roots: list[int], p: int, k: int) -> list[tuple[int, ...]]:
    """The digit strings of the maximal representative roots mod p^k of a
    level's roots, as _decompose builds them."""
    reps: list[tuple[int, ...]] = []
    try:  # the grouping of the roots allocates
        if roots:
            _decompose(roots, p, k, 0, (), reps)
    except MemoryError:
        raise _does_not_fit(len(roots)) from None
    # _decompose visits the digits in increasing order, depth first, so the
    # prefixes come out sorted.
    return reps


def _roots_mod(f: IntPoly, p: int, k: int, budget: int) -> list[int]:
    """The roots of f mod p^k, once _check_budget admits p^k."""
    _check_budget(p, k, budget)
    for roots in _root_levels(f, p, k):
        pass
    return roots


def brute_count(f: IntPoly, p: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of roots of f mod p^k, by exhaustive enumeration."""
    return len(_roots_mod(f, p, k, budget))


def brute_rep_roots(
    f: IntPoly, p: int, k: int, budget: int = DEFAULT_BUDGET
) -> list[RepRoot]:
    """The maximal disjoint representative-root decomposition of the actual
    root set, built greedily: a prefix is emitted once all of its extensions
    are roots while the one-digit-shorter prefix has a non-root extension.
    """
    return [RepRoot(p=p, k=k, digits=d) for d in _rep_digits(_roots_mod(f, p, k, budget), p, k)]


def _decompose(
    vals: list[int],
    p: int,
    k: int,
    level: int,
    prefix: tuple[int, ...],
    out: list[tuple[int, ...]],
) -> None:
    # vals: the roots congruent to prefix mod p^level, nonempty.
    if len(vals) == p ** (k - level):
        out.append(prefix)
        return
    step = p**level
    groups: dict[int, list[int]] = {}
    for v in vals:
        groups.setdefault((v // step) % p, []).append(v)
    for digit in sorted(groups):
        _decompose(groups[digit], p, k, level + 1, prefix + (digit,), out)


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    actual: str
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    poly: IntPoly
    prime: int
    kmax: int
    budget: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly.to_text(),
            "prime": decimal_text(self.prime),
            "kmax": self.kmax,
            "budget": self.budget,
            "checks": [c.to_json_dict() for c in self.checks],
            "all_pass": self.all_pass,
        }

    def describe(self) -> str:
        lines = [
            f"PASS {c.name}"
            if c.passed
            else f"FAIL {c.name} expected={c.expected} actual={c.actual}"
            for c in self.checks
        ]
        lines.append("all checks passed" if self.all_pass else "SOME CHECKS FAILED")
        return "\n".join(lines)


def _fraction_text(q: Fraction) -> str:
    # str(q), exact at any size
    text = decimal_text(q.numerator)
    return text if q.denominator == 1 else f"{text}/{decimal_text(q.denominator)}"


def _fmt_reps(reps: list[tuple[int, ...]]) -> str:
    """Representative roots, given by their digit strings, as one text."""
    if not reps:
        return "-"
    return "|".join(",".join(map(str, d)) if d else "()" for d in reps)


def verify_instance(
    f: IntPoly, p: int, kmax: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Cross-check the pipeline against brute enumeration for one (f, p).

    Compares root counts and representative roots for every k <= kmax with
    p^k within the budget, the Poincare series coefficients up to kmax, and
    the closed-form counts on the stable window.  Failures become report
    entries, never exceptions, and every value is written exactly.  p is
    checked first.  A budget below 1 enumerates nothing, so it raises
    BudgetExceeded.

    The library side is the report of (f, p) and the one lifting tree it is
    read from, walked deep enough to answer every precision checked.  With
    f = p^c * g, c the report's content shift, the representative roots and
    closed-form counts are those of g, read off the tree at precision c + k:
    one descent of the tree gives the digit strings at every precision.  The
    brute-force side is one pass over the root levels of f: each level gives
    the count check, and the representative roots come from the same level,
    or, when c > 0, from the level of g enumerated alongside.
    """
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    check_prime(p)
    _check_budget(p, 0, budget)
    deepest = 0
    while deepest < kmax and p ** (deepest + 1) <= budget:
        deepest += 1
    checks: list[CheckResult] = []

    def check(name: str, expected, actual, write) -> None:
        # equal values have one text, so an equal pair is written once
        text = write(expected)
        passed = expected == actual
        checks.append(CheckResult(name, text, text if passed else write(actual), passed))

    result, tree = _run_pipeline(f, p, kmax)
    c, k0 = result.content_shift, result.stable_precision
    g = IntPoly(a // p**c for a in f.coeffs) if c else f
    counts = tree.counts()
    tree_reps = tree._at(c + 1, c + deepest) if deepest else []

    f_levels = _root_levels(f, p, deepest)
    g_levels = _root_levels(g, p, deepest) if c else None
    reps: list[str] = []  # the expected representative roots, by k
    for k, roots in enumerate(f_levels):
        check(f"count k={k}", len(roots), counts[k], decimal_text)
        reps.append(_fmt_reps(_rep_digits(next(g_levels) if c else roots, p, k)))
    for k, pairs in enumerate(tree_reps, 1):
        check(f"rep-roots k={k}", reps[k], _fmt_reps([d for _, d in pairs]), str)

    series = result.poincare.series(kmax)
    for k in range(kmax + 1):
        check(f"series k={k}", Fraction(counts[k], p**k), series[k], _fraction_text)

    if g.degree >= 1:
        for k in range(k0, k0 + 2 * g.degree + 3):
            check(
                f"closed-form k={k}",
                counts[c + k] // p**c,
                closed_form_count(result.branches, p, k, k0),
                decimal_text,
            )

    return VerificationReport(
        poly=f, prime=p, kmax=kmax, budget=budget, checks=tuple(checks)
    )
