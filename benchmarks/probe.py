#!/usr/bin/env python3
"""Single-instance probes: the numbers quoted in ROADMAP "Recent", regenerated.

    python3 benchmarks/probe.py [NAME ...] [--limit SECONDS]

Each probe times report() on one instance untraced, then runs it again under
the benchmark's tracer for the self-time share of every traced function.
Both runs stop at the wall-clock limit: an instance that runs past it is
reported as "exceeded" rather than left to hang.  Prints one JSON line per
probe.  With no NAME, runs every probe.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import run
import workloads

PROBES = {
    "x6-64": "x^6 - 64 at p = 2 (delta = 36, k0 = 223)",
    "d30-discriminant": "the degree-30 highdeg-rootless instance of the default seed",
    "criterion-9": "the degree-10 acceptance instance, random.Random(9), at p = 101",
    "x6-4096": "x^6 - 4096 at p = 2 (k0 = 403)",
}


class LimitExceeded(Exception):
    pass


def _instance(name: str) -> tuple[str, int]:
    seed = workloads.DEFAULT_SEED
    if name == "x6-64":
        return "x^6 - 64", 2
    if name == "x6-4096":
        return "x^6 - 4096", 2
    if name == "d30-discriminant":
        inst = workloads.highdeg_rootless(seed)[workloads.ROOTLESS_DEGREES.index(30)]
    else:
        inst = workloads.accept_d10(seed)[0]
    return inst.text, inst.p


def _on_alarm(signum, frame):
    raise LimitExceeded


def _timed(call, limit: float):
    """(seconds, result) of call(), or (None, None) past the limit."""
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        result = call()
    except LimitExceeded:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, result


def probe(name: str, limit: float) -> dict:
    from igusazeta import cli, igusa
    from tracer import Tracer

    text, p = _instance(name)
    out = {"probe": name, "poly": text if len(text) < 80 else text[:77] + "...",
           "p": p, "limit_s": limit}
    wall, result = _timed(lambda: igusa.report(cli.parse_poly(text), p), limit)
    if wall is None:
        return {**out, "status": "exceeded"}
    tracer = Tracer()

    def traced():
        with tracer.installed(), tracer.request(0):
            return igusa.report(cli.parse_poly(text), p)

    traced_wall, _ = _timed(traced, limit)
    if traced_wall is None:
        return {**out, "status": "exceeded", "wall_s": wall, "traced": "exceeded"}
    totals = tracer.totals()
    # Sub-buckets (the scan part of roots_mod_p) have no layer: skip them,
    # so that the shares add up.
    shares = {n: t["self_s"] / traced_wall for n, t in totals.items()
              if tracer.layer_of[n] is not None and t["self_s"] / traced_wall >= 0.001}
    return {
        **out, "status": "ok", "wall_s": wall, "traced_wall_s": traced_wall,
        "delta": result.disc_valuation, "k0": result.stable_precision, "n": result.n,
        "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "layer_share": {k: v / traced_wall for k, v in sorted(
            tracer.layer_self().items(), key=lambda kv: -kv[1])},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help=", ".join(f"{k}: {v}" for k, v in PROBES.items()))
    ap.add_argument("--limit", type=float, default=60.0,
                    help="wall-clock limit per run, in seconds (default 60)")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.names) - set(PROBES))
    if unknown:
        ap.error(f"unknown probe {', '.join(unknown)}; choose from {', '.join(PROBES)}")
    run.import_program()
    for name in args.names or list(PROBES):
        print(json.dumps(probe(name, args.limit)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
