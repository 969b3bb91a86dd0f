"""Benchmark entry point for reswitch.

    python3 bench/run.py --workload {falsify,menu,analyze,hatta} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed. With ``--trace 0`` the workload is
set up ``SETUPS`` times in fresh interpreters (the last one then runs the
timed loop) and every end-to-end metric is printed. With ``--trace 1`` two
fresh interpreters run the workload's fixed request list, one plain and one
with spans, and every per-layer metric is printed; spans go to
``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the environment and a table of the metrics with their units. No thread
or process runs beside the one being timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("falsify", "menu", "analyze", "hatta")
SETUPS = 5
RUN_TIMEOUT_S = 170  # the whole run, all interpreters included

END_TO_END_UNITS = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git reports 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


class WorkerError(RuntimeError):
    pass


def _timed_out(signum, frame):
    raise WorkerError(f"run exceeded {RUN_TIMEOUT_S} s")


def run_worker(args, mode: str) -> tuple[float, dict]:
    """Start one fresh interpreter; return its set-up time (spawn to
    ``ready``) and its result line (empty in setup mode)."""
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", OUT,
    ]
    # a fixed hash seed makes set iteration order, and any tie-breaking that
    # follows it, the same in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"{mode} worker for {args.workload} exited {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


def end_to_end(args) -> tuple[dict, dict]:
    """Times are host-speed corrected (see worker.py); the raw ones go into
    the result for the table."""
    runs = [run_worker(args, "setup") for _ in range(SETUPS - 1)]
    runs.append(run_worker(args, "measure"))
    result = runs[-1][1]
    setups = [(s, r["setup_speed"]) for s, r in runs]
    raw = dict(result["raw"], setup_s=statistics.median(s for s, _ in setups))
    values = dict(
        result["corrected"],
        setup_s=statistics.median(s * speed for s, speed in setups),
        peak_rss_mib=result["peak_rss_mib"],
    )
    result["raw_metrics"] = raw
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, result


def per_layer(args) -> tuple[dict, dict]:
    _, plain = run_worker(args, "plain")
    _, traced = run_worker(args, "traced")
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    # the traced run's counts must equal what the plain run's outputs report
    for key, expected in plain["summary"].items():
        if layers.get(key) != expected:
            traced["problems"].append(f"traced {key} = {layers.get(key)}, outputs say {expected}")
            traced["failed"] = max(traced["failed"], 1)
    traced["failed"] = max(traced["failed"], plain["failed"])
    traced["problems"] += plain["problems"]
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
    return metrics, traced


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "reswitch", "__init__.py")):
        print(f"error: no reswitch sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        metrics, result = (per_layer if args.trace else end_to_end)(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} requests {result['attempted']}"
          f" failed_frac {result['failed'] / result['attempted']:.6g}"
          f" tail=p{result['tail_pct']}")
    raw = result.get("raw_metrics", {})
    for name, m in metrics.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{note}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
