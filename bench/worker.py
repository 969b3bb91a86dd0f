"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py`` in a fresh interpreter, so set-up time and peak memory
belong to this workload alone. The process prints ``ready`` once set-up is
done (``import reswitch``, input generation, one untimed warm-up request),
then a single JSON line with its results. Modes:

* ``setup``: stop after ``ready``.
* ``measure``: closed loop with one client for ``--seconds``; each request
  is timed on its own, the next is sent when the previous one returned.
* ``plain`` / ``traced``: the fixed request list of the traced run, without
  and with spans.

Every output is checked after the timed region; failures are counted, and a
request that raised counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import reswitch  # noqa: E402

if not os.path.abspath(reswitch.__file__).startswith(SRC + os.sep):
    sys.exit(f"reswitch imported from {reswitch.__file__}, not from {SRC}")

from workloads import WORKLOADS  # noqa: E402

# Host-speed correction. The machines this runs on are shared, and their
# speed for pure-Python code drifts by tens of percent over seconds to
# minutes, which no run length averages away. So the worker times a fixed
# stdlib Fraction kernel (no reswitch code) at least every CAL_EVERY_S and
# scales each request's time by CAL_REF_S over the median of the last
# CAL_WINDOW kernel times: the result reads as the time on a host where the
# kernel takes CAL_REF_S. Raw times are reported next to the corrected ones.
CAL_REF_S = 0.0022
CAL_EVERY_S = 0.05
CAL_WINDOW = 5
_CAL_COEFFS = [Fraction(k, 7) - 3 for k in range(9)]
_CAL_POINTS = [1 + Fraction(k, 64) for k in range(1, 40)]


def kernel_time() -> float:
    """Seconds for two passes of Horner's rule over fixed rationals."""
    start = time.perf_counter()
    for _ in range(2):
        acc = Fraction(0)
        for x in _CAL_POINTS:
            value = Fraction(0)
            for c in reversed(_CAL_COEFFS):
                value = value * x + c
            acc += value
    return time.perf_counter() - start


class Stream:
    """Request ``i`` of a workload's seeded stream; the first ``prepared``
    requests are generated during set-up, later ones when first needed."""

    def __init__(self, workload, seed: int, workdir: str, prepared: int):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.items = [workload.request(seed, i, workdir) for i in range(prepared)]

    def __getitem__(self, index: int):
        while len(self.items) <= index:
            self.items.append(self.workload.request(self.seed, len(self.items), self.workdir))
        return self.items[index]


def _run(workload, request):
    try:
        return workload.execute(request), None
    except Exception:  # a failed request is counted, the loop keeps going
        return None, traceback.format_exc(limit=3)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "plain", "traced"))
    parser.add_argument("--out", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    workdir = os.path.join(args.out, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _work(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _work(args, workload, workdir: str) -> int:
    traced_run = args.mode in ("plain", "traced")
    prepared = workload.trace_requests if traced_run else workload.trace_requests * 2
    stream = Stream(workload, args.seed, workdir, prepared)
    warm_request = workload.request(0, 0, workdir)
    warm_output, warm_error = _run(workload, warm_request)
    warm_problems = [warm_error] if warm_error else workload.check(warm_request, warm_output)
    if warm_problems:
        sys.exit(f"warm-up request failed: {warm_problems}")
    print("ready", flush=True)
    setup_speed = CAL_REF_S / statistics.median(kernel_time() for _ in range(CAL_WINDOW))
    if args.mode == "setup":
        print(json.dumps({"setup_speed": setup_speed}), flush=True)
        return 0

    outputs, errors, latencies, corrected = [], {}, [], []
    kernel_times: deque = deque(maxlen=CAL_WINDOW)
    last_cal = float("-inf")
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer().__enter__()
    start = time.perf_counter()
    i = 0
    while True:
        request = stream[i]
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            kernel_times.append(kernel_time())
            last_cal = time.perf_counter()
        speed = CAL_REF_S / statistics.median(kernel_times)
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        output, error = _run(workload, request)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        corrected.append((t1 - t0) * speed)
        outputs.append(output)
        if error:
            errors[i] = error
        i += 1
        if traced_run:
            if i == workload.trace_requests:
                break
        elif t1 - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.__exit__(None, None, None)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = {}
    for k, output in enumerate(outputs):
        if k in errors:
            continue
        try:
            found = workload.check(stream[k], output)
        except Exception:
            found = [traceback.format_exc(limit=3)]
        if found:
            problems[k] = found
    good = [o for k, o in enumerate(outputs) if k not in errors]
    result = {
        "attempted": len(outputs),
        "failed": len(set(problems) | set(errors)),
        "problems": [f"request {k}: {p}" for k, ps in sorted(problems.items()) for p in ps][:20]
        + [f"request {k} raised: {e}" for k, e in sorted(errors.items())][:5],
        "wall_s": wall,
        "units": workload.units * len(outputs),
        "tail_pct": workload.tail_pct,
        "setup_speed": setup_speed,
        "raw": _timings(latencies, workload),
        "corrected": _timings(corrected, workload),
        "peak_rss_mib": rss_kib / 1024,
        "summary": workload.summary(good) if not errors else {},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(
            os.path.join(args.out, f"trace-{args.workload}-{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "requests": len(outputs)},
        )
    print(json.dumps(result), flush=True)
    return 0


def _timings(latencies: list[float], workload) -> dict[str, float]:
    return {
        "throughput": workload.units * len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * _percentile(latencies, workload.tail_pct),
    }


def _percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


if __name__ == "__main__":
    sys.exit(main())
