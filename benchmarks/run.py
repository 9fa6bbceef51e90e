#!/usr/bin/env python3
"""The igusazeta benchmark: one workload, run as a closed loop.

    python3 benchmarks/run.py --workload accept-d10 --seed 9 --seconds 20 --trace 0

One process and one caller: each request starts when the previous one has
returned.  A run makes whole passes over the workload's fixed batch until the
next pass would overrun --seconds (at least one pass).  Every instance keeps
its median latency over the passes, so the latency percentiles always come
from the same number of samples, the batch size.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, including the tracer's own
overhead; it also writes the spans of the first traced pass to
benchmarks/out/.  Results are checked after the timed region (see checks.py);
the last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

LAYERS = ("cli", "igusa", "padic", "exactpoly", "ratfun", "oracle", "bench")


def import_program() -> None:
    """Import igusazeta from this checkout's src/, and from nowhere else."""
    pkg = os.path.join(SRC, "igusazeta")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"error: no igusazeta sources at {pkg}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import igusazeta

    if os.path.dirname(os.path.abspath(igusazeta.__file__)) != pkg:
        raise SystemExit(f"error: igusazeta was imported from {igusazeta.__file__}")


def setup(workload: str, seed: int):
    """What a run pays before its first request: importing the package (numpy
    dominates), generating the batch from the seed and loading the expected
    outputs.  Returns (seconds, batch, expected)."""
    start = time.perf_counter()
    import_program()
    import checks

    batch = workloads.generate(workload, seed)
    expected = checks.load_expected(workload, seed)
    return time.perf_counter() - start, batch, expected


def setup_samples(workload: str, seed: int, n: int = SETUP_SAMPLES) -> list[float]:
    """Set-up times of n fresh processes, so each pays the cold import."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def make_request(workload: str):
    """The call a user makes, looked up through the modules at call time so
    that the tracer's wrappers are used when installed."""
    from igusazeta import cli, igusa, oracle

    if workload == "oracle-verify":
        kmax, budget = workloads.VERIFY_KMAX, workloads.VERIFY_BUDGET

        def request(inst):
            f = cli.parse_poly(inst.text)
            return oracle.verify_instance(f, inst.p, kmax, budget).to_json_dict()
    else:

        def request(inst):
            return igusa.report(cli.parse_poly(inst.text), inst.p).to_json_dict()

    return request


def run_pass(batch, request, tracer=None):
    """One pass over the batch: (wall seconds, latencies, results)."""
    clock = time.perf_counter
    latencies, results = [], []
    with tracer.installed() if tracer else nullcontext():
        start = clock()
        for i, inst in enumerate(batch):
            t0 = clock()
            try:
                with tracer.request(i) if tracer else nullcontext():
                    result = request(inst)
            except Exception as exc:  # counted as a failed request
                result = exc
            latencies.append(clock() - t0)
            results.append(result)
        wall = clock() - start
    return wall, latencies, results


class Loop:
    """Passes over one batch, with the results of later passes compared to
    the first pass outside the timed region."""

    def __init__(self, workload, batch, expected, request):
        self.workload, self.batch, self.expected = workload, batch, expected
        self.request = request
        self.first: list | None = None
        self.repeats: list[int] = []
        self.passes = 0
        self.failed = 0
        self.walls: dict[str, list[float]] = {"plain": [], "traced": []}
        self.latencies: list[list[float]] = [[] for _ in batch]
        self.tracers = []
        self.peak_rss_mb = 0.0

    def run(self, seconds: float, traced: bool) -> None:
        modes = ("plain", "traced") if traced else ("plain",)
        try:  # warm-up, untimed: first calls into numpy, the regex parser, ...
            self.request(self.batch[0])
        except Exception:  # the timed passes count it
            pass
        if traced:
            from tracer import Tracer
        start = time.perf_counter()
        longest = 0.0
        while True:
            round_start = time.perf_counter()
            for mode in modes:
                tracer = None
                if mode == "traced":
                    tracer = Tracer()
                    self.tracers.append(tracer)
                wall, lat, results = run_pass(self.batch, self.request, tracer)
                self.walls[mode].append(wall)
                if mode == "plain":
                    for i, x in enumerate(lat):
                        self.latencies[i].append(x)
                self._compare(results)
            longest = max(longest, time.perf_counter() - round_start)
            if time.perf_counter() - start + longest > seconds:
                break
        # Peak memory of the measured passes, before the checker runs.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _compare(self, results) -> None:
        self.passes += 1
        if self.first is None:
            self.first = results
            self.repeats = [0] * len(results)
            return
        for i, result in enumerate(results):
            if isinstance(result, BaseException) or result != self.first[i]:
                self.failed += 1
            else:
                self.repeats[i] += 1

    def check(self) -> list[str]:
        """Check the first pass.  A later pass fails where its result differs
        from the first pass's, or repeats a wrong one.  Returns the problems."""
        import checks

        problems = []
        for i, (inst, result) in enumerate(zip(self.batch, self.first)):
            expected = self.expected[i] if self.expected is not None else None
            try:
                why = checks.problem(self.workload, inst, result, expected)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                why = f"malformed result ({type(exc).__name__}: {exc})"
            if why is not None:
                problems.append(f"instance {i} ({inst.label}, p={inst.p}): {why}")
                self.failed += 1 + self.repeats[i]
        return problems

    @property
    def attempted(self) -> int:
        return self.passes * len(self.batch)


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest integer percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


def end_to_end(loop: Loop, setup_s: list[float]) -> tuple[dict, str]:
    per_instance = [statistics.median(x) for x in loop.latencies]
    q, tail = tail_percentile(per_instance)
    ok = loop.attempted - loop.failed
    metrics = {
        "instances_per_s": (ok / sum(loop.walls["plain"]), "1/s"),
        "latency_p50_s": (statistics.median(per_instance), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    note = (f"latency_tail_s is p{q} of n={len(per_instance)} per-instance medians"
            f" over {loop.passes} passes; setup_s is the median of {len(setup_s)}"
            f" fresh processes")
    return metrics, note


def per_layer(loop: Loop) -> tuple[dict, str]:
    totals = [t.totals() for t in loop.tracers]

    def calls(name):
        return totals[0].get(name, {}).get("calls", 0)

    def median(name, field="self_s"):
        return statistics.median(t.get(name, {}).get(field, 0.0) for t in totals)

    quantities = loop.tracers[0].quantity_totals()
    layer_self = [t.layer_self() for t in loop.tracers]
    plain = statistics.median(loop.walls["plain"])
    traced = statistics.median(loop.walls["traced"])
    n = len(loop.batch)
    m = {
        "exactpoly.compose_linear.calls": (calls("exactpoly.compose_linear"), "count"),
        "exactpoly.compose_linear.self_s": (median("exactpoly.compose_linear"), "s"),
        "exactpoly.compose_linear.peak_bits": (
            quantities.get("exactpoly.compose_linear.peak_bits", 0), "bits"),
        "padic.roots_mod_p.calls": (calls("padic.roots_mod_p"), "count"),
        "padic.roots_mod_p.scan.self_s": (median("padic.roots_mod_p.scan"), "s"),
        "padic.roots_mod_p.split.calls": (calls("padic.roots_mod_p.split"), "count"),
        "padic.roots_mod_p.split.self_s": (median("padic.roots_mod_p.split"), "s"),
        "padic.representative_roots.calls": (calls("padic.representative_roots"), "count"),
        "padic.representative_roots.self_s": (median("padic.representative_roots"), "s"),
        "igusa.window_walks.calls": (calls("igusa.window_walks"), "count"),
        "igusa.window_walks.total_s": (median("igusa.window_walks", "total_s"), "s"),
        "igusa.head_counts.calls": (calls("igusa.head_counts"), "count"),
        "igusa.head_counts.total_s": (median("igusa.head_counts", "total_s"), "s"),
        "igusa.report.self_s": (median("igusa.report"), "s"),
        "exactpoly.discriminant.self_s": (median("exactpoly.discriminant"), "s"),
        "exactpoly.squarefree_part.self_s": (median("exactpoly.squarefree_part"), "s"),
        "ratfun.RationalFunction.calls": (calls("ratfun.RationalFunction"), "count"),
        "ratfun.RationalFunction.self_s": (median("ratfun.RationalFunction"), "s"),
        "exactpoly.poly_gcd.calls": (calls("exactpoly.poly_gcd"), "count"),
        "ratfun.series.self_s": (median("ratfun.series"), "s"),
        "oracle.brute_count.self_s": (median("oracle.brute_count"), "s"),
        "oracle.brute_rep_roots.self_s": (median("oracle.brute_rep_roots"), "s"),
        "oracle.residues_enumerated": (
            quantities.get("oracle.brute_count.residues", 0)
            + quantities.get("oracle.brute_rep_roots.residues", 0), "count"),
        "oracle.pipeline_calls": (
            sum(calls(name) for name in totals[0] if name.startswith("oracle.pipeline.")),
            "count"),
        "cli.parse_poly.self_s": (median("cli.parse_poly"), "s"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            statistics.median(s.get(layer, 0.0) for s in layer_self), "s")
    m["trace.untraced_instances_per_s"] = (n / plain, "1/s")
    m["trace.traced_instances_per_s"] = (n / traced, "1/s")
    m["trace.overhead_ratio"] = (traced / plain, "ratio")
    note = (f"{len(loop.tracers)} traced and {len(loop.walls['plain'])} untraced passes"
            f" of {n} instances; counts from the first traced pass, times are medians")
    return m, note


def write_trace(loop: Loop, workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    data = {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "requests": [{"id": i, "text": x.text, "p": x.p, "label": x.label}
                     for i, x in enumerate(loop.batch)],
        **loop.tracers[0].dump(),
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print one set-up time and exit (used for setup_s)")
    args = ap.parse_args(argv)

    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0

    _, batch, expected = setup(args.workload, args.seed)
    setup_s = setup_samples(args.workload, args.seed) if not args.trace else []

    loop = Loop(args.workload, batch, expected, make_request(args.workload))
    loop.run(args.seconds, traced=bool(args.trace))
    problems = loop.check()
    for line in problems[:5]:
        print(f"wrong result: {line}", file=sys.stderr)

    if args.trace:
        metrics, note = per_layer(loop)
        note += f"; spans in {os.path.relpath(write_trace(loop, args.workload, args.seed), ROOT)}"
    else:
        metrics, note = end_to_end(loop, setup_s)
    print(f"# {args.workload} seed={args.seed} python={sys.version.split()[0]}: {note}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
