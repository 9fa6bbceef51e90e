"""Outside-in tracing of igusazeta's layers, without editing the package.

Each module of the package looks up the functions of the modules it uses as
module globals at call time.  `Tracer.installed()` rebinds those globals (and
the two `RationalFunction` methods) to wrappers, so every call that crosses
from one layer into another passes through a wrapper; leaving the block puts
the originals back.

Coarse boundaries record a span each (name, start, end, parent span,
request).  Hot leaf calls, such as the tens of thousands of Taylor shifts of a
deep-lift batch, only update per-request counters.  Both kinds feed the same
self-time accounting: a call's self time is its duration minus the time of
the wrapped calls made inside it.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

from igusazeta import cli, igusa, oracle, padic, ratfun

# The harness's own time inside a request: wrapper overhead and to_json_dict.
BENCH_LAYER = "bench"


def _peak_bits(args, kwargs, out) -> int:
    return max((abs(c).bit_length() for c in out.coeffs), default=0)


def _residues(args, kwargs, out) -> int:
    return args[1] ** args[2]


class _Frame:
    __slots__ = ("child_s", "span", "split")

    def __init__(self, span):
        self.child_s = 0.0
        self.span = span
        self.split = False


class Tracer:
    """Per-request counters and spans for one traced pass over a batch."""

    def __init__(self):
        # (request, name) -> [calls, total_s, self_s]
        self.counters: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (request, name) -> summed or maximal quantity (residues, peak bits)
        self.quantities: dict[tuple[int, str], int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request)
        self.layer_of: dict[str, str | None] = {"request": BENCH_LAYER}
        self._stack: list[_Frame] = []
        self._span_ids = itertools.count()
        self._request = -1

    # -- recording ---------------------------------------------------------

    def _record(self, name, frame, start, end, sub=None):
        stack = self._stack
        dur = end - start
        if stack:
            stack[-1].child_s += dur
        for key in (name, sub) if sub else (name,):
            entry = self.counters[(self._request, key)]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame.child_s
        if frame.span is not None:
            parent = next((f.span for f in reversed(stack) if f.span is not None), None)
            self.spans.append((frame.span, name, start, end, parent, self._request))

    def _wrap(self, target, name, layer, span, quantity=None, maximum=False,
              marks_split=False, scan_name=None):
        self.layer_of[name] = layer
        if scan_name:
            # A sub-bucket of `name`: counted there already, so no layer.
            self.layer_of[scan_name] = None
        stack = self._stack
        clock = time.perf_counter
        quantities = self.quantities
        suffix = ".peak_bits" if maximum else ".residues"

        def wrapper(*args, **kwargs):
            if marks_split and stack:
                stack[-1].split = True
            frame = _Frame(next(self._span_ids) if span else None)
            stack.append(frame)
            start = clock()
            try:
                out = target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                sub = scan_name if scan_name and not frame.split else None
                self._record(name, frame, start, end, sub)
            if quantity is not None:
                key = (self._request, name + suffix)
                value = quantity(args, kwargs, out)
                if not maximum:
                    quantities[key] += value
                elif value > quantities[key]:
                    quantities[key] = value
            return out

        return wrapper

    @contextmanager
    def request(self, request_id: int):
        """Attribute everything inside the block to one request."""
        self._request = request_id
        frame = _Frame(next(self._span_ids))
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record("request", frame, start, end)
            self._request = -1

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Route the package's cross-layer calls through wrappers."""
        RF = ratfun.RationalFunction
        originals = []

        def patch(owner, attr, name, layer, span=False, call=None, **extra):
            orig = getattr(owner, attr)
            originals.append((owner, attr, orig))
            wrapper = self._wrap(call or orig, name, layer, span, **extra)
            setattr(owner, attr, wrapper)
            return wrapper

        try:
            # padic's own collaborators, as used by the lifting walk.
            walk = patch(padic, "representative_roots", "padic.representative_roots", "padic")
            patch(padic, "roots_mod_p", "padic.roots_mod_p", "padic",
                  scan_name="padic.roots_mod_p.scan")
            patch(padic, "_roots_by_splitting", "padic.roots_mod_p.split", "padic",
                  marks_split=True)
            patch(padic, "compose_linear", "exactpoly.compose_linear", "exactpoly",
                  quantity=_peak_bits, maximum=True)
            # igusa's imports from exactpoly and padic.
            patch(igusa, "report", "igusa.report", "igusa", span=True)
            patch(igusa, "discriminant", "exactpoly.discriminant", "exactpoly", span=True)
            patch(igusa, "squarefree_part", "exactpoly.squarefree_part", "exactpoly", span=True)
            patch(igusa, "content_and_primitive", "exactpoly.content_and_primitive", "exactpoly")
            patch(igusa, "valuation", "padic.valuation", "padic")
            patch(igusa, "representative_roots", "igusa.window_walks", "igusa",
                  span=True, call=walk)
            patch(igusa, "count_roots", "igusa.head_counts", "igusa", span=True)
            # ratfun's imports and RationalFunction construction.
            patch(ratfun, "poly_gcd", "exactpoly.poly_gcd", "exactpoly")
            patch(ratfun, "exact_divide", "exactpoly.exact_divide", "exactpoly")
            patch(RF, "__init__", "ratfun.RationalFunction", "ratfun")
            patch(RF, "series", "ratfun.series", "ratfun", span=True)
            # oracle's imports.
            patch(oracle, "verify_instance", "oracle.verify_instance", "oracle", span=True)
            patch(oracle, "brute_count", "oracle.brute_count", "oracle", span=True,
                  quantity=_residues)
            patch(oracle, "brute_rep_roots", "oracle.brute_rep_roots", "oracle", span=True,
                  quantity=_residues)
            patch(oracle, "content_and_primitive", "exactpoly.content_and_primitive",
                  "exactpoly")
            patch(oracle, "closed_form_count", "igusa.closed_form_count", "igusa")
            for attr, layer, call in (
                ("root_count", "igusa", None),
                ("poincare_series", "igusa", None),
                ("_run_pipeline", "igusa", None),
                ("count_roots", "padic", None),
                ("representative_roots", "padic", walk),
            ):
                patch(oracle, attr, f"oracle.pipeline.{attr}", layer, span=True, call=call)
            # The parser the benchmark calls, as `igusazeta report` does.
            patch(cli, "parse_poly", "cli.parse_poly", "cli", span=True)
            yield self
        finally:
            for owner, attr, orig in reversed(originals):
                setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Counters summed over the requests: name -> calls, total_s, self_s."""
        out: dict[str, dict] = {}
        for (_, name), (calls, total, self_s) in self.counters.items():
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += self_s
        return out

    def quantity_totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, key), value in self.quantities.items():
            if key.endswith(".peak_bits"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
        return out

    def layer_self(self) -> dict[str, float]:
        """Self time per package module (plus the harness's own)."""
        out: dict[str, float] = defaultdict(float)
        for name, t in self.totals().items():
            if self.layer_of[name] is not None:
                out[self.layer_of[name]] += t["self_s"]
        return dict(out)

    def dump(self) -> dict:
        """Spans and per-request counters, for writing out after the run."""
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": par, "request": r}
                for i, n, s, e, par, r in self.spans
            ],
            "counters": [
                {"request": r, "name": n, "calls": c, "total_s": t, "self_s": s}
                for (r, n), (c, t, s) in sorted(self.counters.items())
            ],
            "quantities": [
                {"request": r, "name": n, "value": v}
                for (r, n), v in sorted(self.quantities.items())
            ],
        }
