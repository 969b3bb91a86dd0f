"""Spans around the calls into each ``reswitch`` layer, for the traced run.

The tracer wraps layer functions where their callers look them up (module
globals such as ``reswitch.harness.verify_single_switch``, and two methods),
runs the real entry points, and restores every original on exit. Each call
becomes a span ``(name, start, end, parent, request)`` kept in memory and
written out at the end. Horner evaluation is too frequent for one span per
call, so ``polynomial.eval`` is summed in place instead; it counts only
evaluations made outside root isolation, gcd and refinement, which are
timed as their own spans.

Nothing here changes what the library computes; a layer function that a
later version no longer has is simply not wrapped and reads as zero.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from time import perf_counter
from typing import Any, Callable, Optional

import reswitch
from reswitch import cli, complementarity, factorspace, harness, model, polynomial, switching

POLY_SPANS = ("polynomial.isolate", "polynomial.gcd", "polynomial.refine")

# (module, attribute, span name): every place a layer function is looked up
WRAPPED = (
    (harness, "run_falsification", "harness.run"),
    (harness, "generate_technology", "harness.generate"),
    (harness, "_grid_mismatches", "harness.grid_check"),
    (harness, "detect_reswitching", "switching.detect"),
    (harness, "find_complementary_pair", "complementarity.search"),
    (harness, "verify_single_switch", "factorspace.verify"),
    (cli, "cmd_analyze", "cli.analyze"),
    (cli, "load_model", "cli.load"),
    (cli, "detect_reswitching", "switching.detect"),
    (cli, "pairwise_switch_points", "switching.switch_points"),
    (cli, "verify_single_switch", "factorspace.verify"),
    (cli, "find_complementary_pair", "complementarity.search"),
    (switching, "detect_reswitching", "switching.detect"),
    (switching, "pairwise_switch_points", "switching.switch_points"),
    (switching, "dominance_map", "switching.dominance"),
    (switching, "pairwise_tangencies", "switching.tangencies"),
    (switching, "isolate_real_roots", "polynomial.isolate"),
    (switching, "poly_gcd", "polynomial.gcd"),
    (switching, "refine_root", "polynomial.refine"),
    (complementarity, "find_complementary_pair", "complementarity.search"),
    (factorspace, "relative_price_curve", "factorspace.curve"),
    (factorspace, "interest_rates_for_relative_price", "factorspace.preimages"),
    (factorspace, "refine_root", "polynomial.refine"),
    (polynomial, "isolate_real_roots", "polynomial.isolate"),
    (polynomial, "poly_gcd", "polynomial.gcd"),
    (model.Technique, "cost_at", "model.cost"),
)

# per-layer metric -> span name, reported as outermost calls or busy seconds
CALLS = {
    "polynomial.isolate.calls": "polynomial.isolate",
    "switching.dominance.calls": "switching.dominance",
    "factorspace.verify.calls": "factorspace.verify",
    "complementarity.search.calls": "complementarity.search",
}
BUSY = {
    "polynomial.isolate.busy_s": "polynomial.isolate",
    "polynomial.refine.busy_s": "polynomial.refine",
    "polynomial.gcd.busy_s": "polynomial.gcd",
    "model.cost.busy_s": "model.cost",
    "switching.dominance.busy_s": "switching.dominance",
    "switching.switch_points.busy_s": "switching.switch_points",
    "switching.tangencies.busy_s": "switching.tangencies",
    "factorspace.verify.busy_s": "factorspace.verify",
    "factorspace.curve.busy_s": "factorspace.curve",
    "factorspace.preimages.busy_s": "factorspace.preimages",
    "complementarity.search.busy_s": "complementarity.search",
    "harness.generate.busy_s": "harness.generate",
    "cli.load.busy_s": "cli.load",
    "cli.analyze.busy_s": "cli.analyze",
}
COUNTS = (
    "polynomial.roots_exact",
    "polynomial.roots_bracketed",
    "polynomial.max_coeff_bits",
    "switching.pairs",
    "switching.segments",
    "switching.boundaries",
    "switching.reswitch_found",
    "factorspace.verified",
    "factorspace.unmet",
    "complementarity.witness_found",
    "harness.trials",
    "harness.grid_checks",
)


def _coeff_bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs),
        default=0,
    )


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request, outermost]
        self.counts: Counter = Counter()
        self.request: Optional[int] = None
        self.eval_calls = 0
        self.eval_busy = 0.0
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._poly_depth = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self._recorders = {
            "polynomial.isolate": self._record_isolate,
            "switching.dominance": self._record_dominance,
            "switching.detect": self._record_detect,
            "factorspace.verify": self._record_verify,
            "complementarity.search": self._record_search,
            "harness.generate": self._record_trial,
            "harness.grid_check": self._record_grid_check,
        }

    # -- wrapping -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        original_call = polynomial.Polynomial.__call__
        self._saved.append((polynomial.Polynomial, "__call__", original_call))
        tracer = self

        def horner(poly, x):
            if tracer._poly_depth:
                return original_call(poly, x)
            start = perf_counter()
            try:
                return original_call(poly, x)
            finally:
                tracer.eval_busy += perf_counter() - start
                tracer.eval_calls += 1

        polynomial.Polynomial.__call__ = horner
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        record = self._recorders.get(name)

        def wrapper(*args, **kwargs):
            result = tracer._call(name, fn, args, kwargs)
            if record is not None:
                record(args, result)
            return result

        return wrapper

    def _call(self, name: str, fn: Callable, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.request, self._depth[name] == 0]
        self.spans.append(span)
        self._stack.append(index)
        self._depth[name] += 1
        poly = name in POLY_SPANS
        self._poly_depth += poly
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._poly_depth -= poly
            self._depth[name] -= 1
            self._stack.pop()

    # -- counts at the same boundaries --------------------------------------

    def _record_isolate(self, args, roots) -> None:
        if self._depth["polynomial.isolate"]:
            return
        exact = sum(1 for r in roots if r.is_exact)
        self.counts["polynomial.roots_exact"] += exact
        self.counts["polynomial.roots_bracketed"] += len(roots) - exact
        bits = _coeff_bits(args[0])
        if bits > self.counts["polynomial.max_coeff_bits"]:
            self.counts["polynomial.max_coeff_bits"] = bits

    def _record_dominance(self, args, dom) -> None:
        distinct = {t.labor for t in args[0].techniques}
        self.counts["switching.pairs"] += len(list(combinations(distinct, 2)))
        self.counts["switching.segments"] += len(dom.segments)
        self.counts["switching.boundaries"] += len(dom.boundaries)

    def _record_detect(self, args, report) -> None:
        self.counts["switching.reswitch_found"] += bool(report.reswitching)

    def _record_verify(self, args, verdict) -> None:
        if verdict.single_switch is True:
            self.counts["factorspace.verified"] += 1
        elif verdict.single_switch is None:
            self.counts["factorspace.unmet"] += 1

    def _record_search(self, args, witness) -> None:
        self.counts["complementarity.witness_found"] += witness is not None

    def _record_trial(self, args, ts) -> None:
        self.counts["harness.trials"] += 1

    def _record_grid_check(self, args, mismatches) -> None:
        self.counts["harness.grid_checks"] += 1

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric over the spans recorded so far."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        child_time: Counter = Counter()
        for index, (name, start, end, parent, _, outermost) in enumerate(self.spans):
            if outermost:
                calls[name] += 1
                busy[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {m: calls[s] for m, s in CALLS.items()}
        out.update({m: float(busy[s]) for m, s in BUSY.items()})
        out["polynomial.eval.busy_s"] = self.eval_busy
        out.update({m: self.counts[m] for m in COUNTS})
        searches = calls["complementarity.search"]
        out["complementarity.found_ratio"] = (
            self.counts["complementarity.witness_found"] / searches if searches else 0.0
        )
        out["cli.glue_s"] = sum(
            end - start - child_time[index]
            for index, (name, start, end, *_) in enumerate(self.spans)
            if name == "cli.analyze"
        )
        return out

    def write_spans(self, path: str, env: dict) -> None:
        """One JSON object per line: the environment, then every span with
        times relative to the first span and its parent's line index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "reswitch": reswitch.__file__}) + "\n")
            for name, start, end, parent, request, _ in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "request": request,
                }) + "\n")
