"""zhangliu benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload census-prime|census-ext|cli-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
Every timed call runs in a fresh worker process (worker.py) that drives
``zhangliu.cli.main(argv)`` in-process and checks every output.

Set-up and cli-mix times are reported in reference-speed seconds (see
``pace``), because on a shared machine the processor's speed drifts by
tens of percent over minutes.  The paces and the unscaled times are in the
run record.

``--trace 0`` prints the end-to-end metrics: five set-up-only processes
give set-up samples, then census workloads run one census per process
until ``--seconds`` of census time is spent, and cli-mix runs its request
stream in one process for ``--seconds`` of request time.

``--trace 1`` prints the per-layer metrics: one untraced and one traced
process run the same fixed unit (one census, or one block of cli-mix
requests); their ratio is the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
run: git sha, digest of ``src``, Python version, nproc and sample counts.
It is also appended to ``.perfbench/runs.jsonl``; traced runs write their
spans to ``.perfbench/<workload>-seed<N>.spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTS, SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
TRACE_BLOCKS = 1
DEADLINE_S = 170.0
REF_NOMINAL_S = 0.007  # about the reference loop's time on an unloaded 2-vCPU x86-64 VM, Python 3.11

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "requests_per_s": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{label}.{m}": unit for label in SPANS for m, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{label}.calls": "count" for label in COUNTS},
    "orders.bruteforce.steps": "count",
    "orders.bruteforce.exceeded": "count",
    "census.order_distinct_x2": "count",
    "census.order_useful_ratio": "ratio",
    "cli.field_spec_repeats": "count",
    "error_rate": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    spec = dict(spec, spawned_at=time.monotonic())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"worker timed out after {e.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pace(results: list[dict]) -> float:
    """REF_NOMINAL_S over the median reference time in the results' processes.

    A time multiplied by it is in reference-speed seconds: what it would
    have been had the machine run the reference loop in REF_NOMINAL_S.
    Census processes time no reference loop, and their times are not
    scaled: a census call runs for seconds with nothing to interleave, and
    loop times taken before and after it scattered more than the call.
    """
    refs = [t for r in results for t in r.get("refs", [])]
    return REF_NOMINAL_S / statistics.median(refs) if refs else 1.0


def run_untraced(w: dict, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict], dict]:
    base = {"workload": w, "seed": seed}
    setups = [spawn(dict(base, setup_only=True), deadline) for _ in range(SETUP_PROBES)]
    if w["kind"] == "census":
        results, busy = [], 0.0
        while not results or busy < seconds:
            # one more census must fit well inside the deadline
            if results and time.monotonic() + 2 * results[-1]["latencies"][0] > deadline:
                break
            results.append(spawn(base, deadline))
            busy += results[-1]["latencies"][0]
    else:
        results = [spawn(dict(base, seconds=seconds), deadline)]
    # Reference times taken right after a process starts run faster than
    # those taken under the sustained load of the timed requests, so set-up
    # and the timed requests each get the pace of their own reference times.
    k, k_setup = pace(results), pace(setups)
    raw = [t for r in results for t in r["latencies"]]
    latencies = [t * k for t in raw]
    ok = sum(r["attempted"] - r["failed"] for r in results)
    metrics = {
        "setup_s": k_setup * statistics.median(r["setup_s"] for r in setups + results),
        "rows_per_s": statistics.median(r["rows"] / r["row_time"] if r["row_time"] else 0.0 for r in results) / k,
        "requests_per_s": ok / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    info = {
        "latency_samples": len(latencies),
        "setup_samples": len(setups) + len(results),
        "processes": len(results),
        "pace": k,
        "setup_pace": k_setup,
        "raw": {
            "setup_s": metrics["setup_s"] / k_setup,
            "latency_p50_ms": metrics["latency_p50_ms"] / k,
            "latency_p90_ms": metrics["latency_p90_ms"] / k,
        },
    }
    return metrics, results, info


def run_traced(w: dict, seed: int, workload: str, deadline: float) -> tuple[dict, list[dict], dict]:
    base = {"workload": w, "seed": seed, "blocks": TRACE_BLOCKS}
    untraced = spawn(base, deadline)
    spans_path = OUT / f"{workload}-seed{seed}.spans.tsv.gz"
    traced = spawn(dict(base, trace=True, spans_path=str(spans_path)), deadline)
    results = [untraced, traced]
    attempted = sum(r["attempted"] for r in results)
    metrics = dict(traced["layers"])
    metrics["cli.field_spec_repeats"] = traced.get("field_spec_repeats", 0)
    metrics["error_rate"] = sum(r["failed"] for r in results) / attempted
    metrics["trace.wall_s"] = sum(traced["latencies"])
    metrics["trace.overhead_ratio"] = (sum(traced["latencies"]) * pace([traced])) / (
        sum(untraced["latencies"]) * pace([untraced])
    )
    info = {"latency_samples": len(traced["latencies"]), "spans": str(spans_path)}
    return metrics, results, info


def run_record() -> dict:
    """What identifies a run: code version, interpreter and machine."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zhangliu" / "__init__.py").is_file():
        print(f"error: no zhangliu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    w = workloads[args.workload]
    try:
        if args.trace:
            metrics, results, info = run_traced(w, args.seed, args.workload, deadline)
            units = PER_LAYER
        else:
            metrics, results, info = run_untraced(w, args.seed, args.seconds, deadline)
            units = END_TO_END
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for message in r["failures"]:
            print(f"failed: {message}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **run_record(), **info}
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as f:
        f.write(json.dumps({**record, **report}) + "\n")
    print("run: " + json.dumps(record))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
