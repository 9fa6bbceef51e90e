"""Brute-force ground truth used to verify the whole pipeline.

Everything here works by direct enumeration of all residues mod p^k, so it is
independent of the lifting recursion and the closed forms it checks.  A
residue table holds f(x) mod p^K for every x below p^K; since
(f(x) mod p^K) mod p^k = f(x) mod p^k, the roots mod every p^k with k <= K are
read off a prefix of it, and verify_instance evaluates each polynomial once,
at the deepest modulus it checks.  The table is an int64 array, exact since
_check_budget admits no modulus above _INT64_SAFE_MODULUS.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, BudgetExceeded
from .exactpoly import IntPoly, content_and_primitive
from .igusa import _run_pipeline, closed_form_count
from .igusa import poincare_series, root_count  # noqa: F401  rebound by benchmarks/tracer.py
from .padic import RepRoot, check_prime
from .padic import count_roots, representative_roots  # noqa: F401  rebound by benchmarks/tracer.py

DEFAULT_BUDGET = 10**7

# isqrt(2^63 - 1): products of residues below this stay inside int64.
_INT64_SAFE_MODULUS = 3_037_000_499


def _check_budget(p: int, k: int, budget: int) -> int:
    """p^k, if at most the budget and _INT64_SAFE_MODULUS; else BudgetExceeded."""
    if p < 2:
        raise ArgumentError("p must be at least 2")
    if k < 0:
        raise ArgumentError("precision k must be nonnegative")
    m = p**k
    if m > budget:
        raise BudgetExceeded(f"p^k = {m} exceeds the enumeration budget {budget}")
    if m > _INT64_SAFE_MODULUS:
        raise BudgetExceeded(f"p^k = {m} exceeds the int64 limit {_INT64_SAFE_MODULUS}")
    return m


@contextmanager
def _in_memory(m: int):
    try:
        yield
    except MemoryError:
        raise BudgetExceeded(f"a table of {m} residues does not fit in memory") from None


def _residue_table(f: IntPoly, m: int) -> np.ndarray:
    """Array whose entry x is f(x) mod m, for every x in [0, m)."""
    with _in_memory(m):
        xs = np.arange(m, dtype=np.int64)
        acc = np.zeros(m, dtype=np.int64)
        for c in reversed(f.coeffs):
            acc *= xs
            acc += c % m
            acc %= m
        return acc


def _roots_below(table: np.ndarray, m: int) -> np.ndarray:
    # The roots mod m, for m dividing the table's modulus.
    with _in_memory(m):
        return np.flatnonzero(table[:m] % m == 0)


def _rep_roots(table: np.ndarray, p: int, k: int) -> list[RepRoot]:
    m = p**k
    reps: list[tuple[int, ...]] = []
    with _in_memory(m):  # the root list and its grouping allocate too
        roots = _roots_below(table, m).tolist()
        if roots:
            _decompose(roots, p, k, 0, (), reps)
    return sorted((RepRoot(p=p, k=k, digits=d) for d in reps), key=lambda r: r.digits)


def brute_count(f: IntPoly, p: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of roots of f mod p^k by evaluating every residue."""
    m = _check_budget(p, k, budget)
    return len(_roots_below(_residue_table(f, m), m))


def brute_rep_roots(
    f: IntPoly, p: int, k: int, budget: int = DEFAULT_BUDGET
) -> list[RepRoot]:
    """The maximal disjoint representative-root decomposition of the actual
    root set, built greedily: a prefix is emitted once all of its extensions
    are roots while the one-digit-shorter prefix has a non-root extension.
    """
    m = _check_budget(p, k, budget)
    return _rep_roots(_residue_table(f, m), p, k)


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
            "prime": str(self.prime),
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


def _fmt_reps(reps: list[RepRoot]) -> str:
    if not reps:
        return "-"
    return "|".join(",".join(map(str, r.digits)) if r.digits else "()" for r in reps)


def verify_instance(
    f: IntPoly, p: int, kmax: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Cross-check the pipeline against brute enumeration for one (f, p).

    Compares root counts and representative roots for every k <= kmax that
    _check_budget admits, read off one residue table per polynomial at the
    deepest such k, the Poincare series coefficients up to kmax, and the
    closed-form counts on the stable window.  Failures become report entries,
    never exceptions.  p is checked first.  A budget below 1 enumerates
    nothing, so it raises BudgetExceeded.

    The library side is the report of (f, p) and the one lifting tree it is
    read from, walked deep enough to answer every precision checked.  With
    f = p^c * g, the representative roots and closed-form counts are those
    of g, read off the tree at precision c + k.
    """
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    check_prime(p)
    deepest, m = 0, _check_budget(p, 0, budget)
    with suppress(BudgetExceeded):
        while deepest < kmax:
            m = _check_budget(p, deepest + 1, budget)
            deepest += 1
    checks: list[CheckResult] = []
    c, g = content_and_primitive(f, p)
    result, tree = _run_pipeline(f, p, kmax)
    k0 = result.stable_precision
    counts = tree.counts()

    table = _residue_table(f, m)
    for k in range(deepest + 1):
        expected = len(_roots_below(table, p**k))
        actual = counts[k]
        checks.append(
            CheckResult(f"count k={k}", str(expected), str(actual), expected == actual)
        )

    if c > 0:
        del table  # keep one table alive at a time
        table = _residue_table(g, m)
    for k in range(1, deepest + 1):
        expected = _fmt_reps(_rep_roots(table, p, k))
        actual = _fmt_reps(tree.roots(c + k))
        checks.append(
            CheckResult(f"rep-roots k={k}", expected, actual, expected == actual)
        )

    series = result.poincare.series(kmax)
    for k in range(kmax + 1):
        want = Fraction(counts[k], p**k)
        got = series[k]
        checks.append(CheckResult(f"series k={k}", str(want), str(got), want == got))

    if g.degree >= 1:
        for k in range(k0, k0 + 2 * g.degree + 3):
            expected = counts[c + k] // p**c
            actual = closed_form_count(result.branches, p, k, k0)
            checks.append(
                CheckResult(
                    f"closed-form k={k}", str(expected), str(actual), expected == actual
                )
            )

    return VerificationReport(
        poly=f, prime=p, kmax=kmax, budget=budget, checks=tuple(checks)
    )
