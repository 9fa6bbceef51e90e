"""Correctness checks, run on the results after the timed region.

A result fails when the request raised, or when it disagrees with:
  - the expected output recorded for the default seed (benchmarks/expected/),
    each entry of which was cross-checked by `verify_instance` when recorded;
  - brute-force root counts (`oracle.brute_count`) for every p^k <= 10^6,
    through the Poincare series coefficients N_k / p^k, for any seed;
  - the identity (1 - t) P + t Z = 1 between the two rational functions;
  - P = Z = 1 on highdeg-rootless, whose instances have no root mod p;
  - on oracle-verify: all_pass and the number of checks verify_instance makes.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from igusazeta.exactpoly import IntPoly
from igusazeta.oracle import brute_count

import workloads

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
BRUTE_LIMIT = 10**6


def digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def load_expected(workload: str, seed: int) -> list[dict] | None:
    """The recorded outputs for the default seed; None for any other seed."""
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(expected_path(workload)) as fh:
        return json.load(fh)["instances"]


def _series(num: list[int], den: list[int], order: int) -> list[Fraction]:
    out: list[Fraction] = []
    for j in range(order + 1):
        s = Fraction(num[j] if j < len(num) else 0)
        for i in range(1, min(j, len(den) - 1) + 1):
            s -= den[i] * out[j - i]
        out.append(s / den[0])
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _ints(data: dict) -> tuple[list[int], list[int]]:
    return [int(c) for c in data["num"]], [int(c) for c in data["den"]]


def expected_check_count(inst: workloads.Instance) -> int:
    """The number of checks verify_instance makes at the workload's settings."""
    p, kmax, budget = inst.p, workloads.VERIFY_KMAX, workloads.VERIFY_BUDGET
    ks = sum(1 for k in range(kmax + 1) if p**k <= budget)
    closed = 2 * inst.degree + 3 if inst.degree >= 1 else 0
    return ks + (ks - 1) + (kmax + 1) + closed


def _report_problem(workload: str, inst: workloads.Instance, result: dict) -> str | None:
    pn, pd = _ints(result["poincare"])
    zn, zd = _ints(result["zeta"])
    if not pd or pd[0] == 0:
        return "Poincare denominator vanishes at t = 0"
    # (1 - t) P + t Z = 1, cleared of denominators: (1-t) pn zd + t zn pd = pd zd.
    mul = workloads.mul
    left = workloads.trim(_add(mul(mul([1, -1], pn), zd), mul([0, 1], mul(zn, pd))))
    if left != mul(pd, zd):
        return "(1 - t) P + t Z != 1"
    if workload == "highdeg-rootless" and (pn, pd, zn, zd) != ([1], [1], [1], [1]):
        return "rootless instance without P = Z = 1"
    f = IntPoly(inst.coeffs)
    ks = [k for k in range(64) if inst.p**k <= BRUTE_LIMIT]
    coeffs = _series(pn, pd, ks[-1])
    for k in ks:
        want = Fraction(brute_count(f, inst.p, k, BRUTE_LIMIT), inst.p**k)
        if coeffs[k] != want:
            return f"series coefficient {k} is {coeffs[k]}, brute force gives {want}"
    return None


def _verify_problem(inst: workloads.Instance, result: dict) -> str | None:
    if not result["all_pass"]:
        failed = [c["name"] for c in result["checks"] if not c["pass"]]
        return f"verify_instance failed {failed[:3]}"
    want = expected_check_count(inst)
    if len(result["checks"]) != want:
        return f"{len(result['checks'])} checks, expected {want}"
    return None


def problem(workload: str, inst: workloads.Instance, result, expected: dict | None) -> str | None:
    """Why `result` is wrong for `inst`, or None when it is correct."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    if expected is not None:
        if (expected["text"], expected["p"]) != (inst.text, inst.p):
            return "expected output belongs to another instance"
        if digest(result) != expected["sha256"]:
            return "differs from the recorded expected output"
    if workload == "oracle-verify":
        return _verify_problem(inst, result)
    return _report_problem(workload, inst, result)
