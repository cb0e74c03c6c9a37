"""One fresh benchmark process: set up, run one unit of a workload, report.

Run by run.py as ``python3 perfbench/worker.py <spec-json>`` from the root
of a checkout, with ``src`` on PYTHONPATH.  The last line of its standard
output is one JSON object.  Set-up is timed from ``spec["spawned_at"]``,
the parent's monotonic clock just before it started this process (the
clock is system-wide on Linux), to the first timed call.

After set-up, and every REF_EVERY_S between cli-mix requests, the worker
times a fixed pure-Python loop while the program is idle and reports those
reference times; run.py uses them to correct for the speed of the
machine, which drifts over minutes when the machine is shared.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback

from workloads import HashSink, census_rows_emitted, check_request, field_spec_repeats, request_blocks

clock = time.perf_counter

REF_LOOPS = 100_000
REF_EVERY_S = 2.0


def reference_time() -> float:
    """Shortest of ten runs of a fixed pure-Python loop.

    The shortest run ignores the brief stalls that hit single runs, and
    still rises when the whole machine is slower.
    """
    times = []
    for _ in range(10):
        t0, acc = clock(), 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        times.append(clock() - t0)
    return min(times)


def call(cli, argv: list[str], out, err) -> tuple[int | None, float, float]:
    """``cli.main(argv)`` with its output redirected: (exit code, start, end)."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed operation, not the end of the run
            code = None
            traceback.print_exc()
        return code, t0, clock()


def run_census(cli, w: dict) -> dict:
    """One census call, its stdout hashed by a sink that keeps no copy."""
    sink, err = HashSink(w["marker"], clock), io.StringIO()
    code, t0, t1 = call(cli, w["argv"], sink, err)
    rows = census_rows_emitted(w, sink)
    ok = code == 0 and rows == w["rows"] and sink.hexdigest() == w["sha256"]
    failures = [] if ok else [f"exit={code} rows={rows} sha256={sink.hexdigest()} {err.getvalue()[-500:]}"]
    return {
        "attempted": 1,
        "failed": int(not ok),
        "failures": failures,
        "latencies": [t1 - t0],
        "rows": rows,
        "row_time": (sink.last_write or t1) - t0,
    }


def run_cli_mix(cli, blocks, seconds: float | None, max_blocks: int | None) -> dict:
    """Requests one after another, each reply checked before the next request.

    Stops after ``max_blocks`` blocks, or at the end of the first block that
    ends after ``seconds`` of request time.  The reference loop runs between
    requests about once every REF_EVERY_S.
    """
    done, latencies, failures = [], [], []
    rows, row_time = 0, 0.0
    refs, last_ref = [reference_time()], clock()
    for block in itertools.islice(blocks, max_blocks):
        for req in block:
            if clock() - last_ref >= REF_EVERY_S:
                refs.append(reference_time())
                last_ref = clock()
            out, err = io.StringIO(), io.StringIO()
            code, t0, t1 = call(cli, req["argv"], out, err)
            done.append(req)
            latencies.append(t1 - t0)
            try:
                ok = check_request(req, code, out.getvalue())
            except Exception:  # a reply too malformed to check is a failed request
                ok = False
            if not ok:
                failures.append(f"{' '.join(req['argv'])}: exit={code} {err.getvalue()[-300:]}")
            elif req["kind"] == "census":
                rows += out.getvalue().count("\n") - 1
                row_time += t1 - t0
        if seconds is not None and sum(latencies) >= seconds:
            break
    refs.append(reference_time())
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "latencies": latencies,
        "refs": refs,
        "rows": rows,
        "row_time": row_time,
        "field_spec_repeats": field_spec_repeats(done),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import zhangliu.cli as cli

    src = os.path.join(os.getcwd(), "src", "")
    if not cli.__file__.startswith(src):
        print(f"zhangliu was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = spec["workload"]
    blocks = None
    if w["kind"] == "cli-mix":
        stream = request_blocks(w, spec["seed"])
        blocks = itertools.chain([next(stream)], stream)
    setup_s = time.monotonic() - spec["spawned_at"]
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "refs": [reference_time()]}))
        return 0
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer  # imported late: set-up time is the program's alone

        tracer = Tracer()
        tracer.install()
    if blocks is None:
        result = run_census(cli, w)
    else:
        result = run_cli_mix(cli, blocks, spec.get("seconds"), spec.get("blocks"))
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        os.makedirs(os.path.dirname(spec["spans_path"]), exist_ok=True)
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
