#!/usr/bin/env python3
"""Record the expected outputs of the default seed in benchmarks/expected/.

    python3 benchmarks/record_expected.py [WORKLOAD ...]

Every output is first cross-checked once by `oracle.verify_instance` (at the
oracle-verify workload's kmax and budget) and by the benchmark's own checks;
an instance that fails either stops the recording.  Only run this when the
workloads change, or when the program's output format changes on purpose.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

run.import_program()

import checks  # noqa: E402  (needs the program on sys.path)
from igusazeta import oracle  # noqa: E402
from igusazeta.exactpoly import IntPoly  # noqa: E402


def record(workload: str) -> None:
    seed = workloads.DEFAULT_SEED
    request = run.make_request(workload)
    entries = []
    for i, inst in enumerate(workloads.generate(workload, seed)):
        result = request(inst)
        if workload == "oracle-verify":
            cross = result["all_pass"]
            summary = {"checks": len(result["checks"])}
        else:
            kmax, budget = workloads.VERIFY_KMAX, workloads.VERIFY_BUDGET
            cross = oracle.verify_instance(IntPoly(inst.coeffs), inst.p, kmax, budget).all_pass
            summary = {"delta": result["delta"], "k0": result["k0"], "n": result["n"]}
        why = checks.problem(workload, inst, result, None)
        if not cross or why:
            raise SystemExit(f"{workload} instance {i} ({inst.text}, p={inst.p}) "
                             f"failed: verify_instance all_pass={cross}, check: {why}")
        entries.append({"text": inst.text, "p": inst.p, "label": inst.label,
                        "sha256": checks.digest(result), **summary})
        print(f"{workload} {i}: {inst.label} {summary}", file=sys.stderr)
    with open(checks.expected_path(workload), "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "python": sys.version.split()[0], "instances": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.GENERATORS):
        record(name)
