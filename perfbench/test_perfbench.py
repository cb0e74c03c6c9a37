"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import zhangliu.cli as cli  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY_CENSUS_ARGV = ["census", "--field", "gf:5", "--n", "2", "--format", "csv", "--jobs", "2"]
TINY_MIX = {
    "fields": {"gf:5": 1, "gf:2^2": 1, "qq": 1},
    "oracle_fields": ["gf:5", "qq"],
    "census_fields": ["gf:3"],
    "ns": {"matrix": [2, 3], "factorize": [2, 3], "order": [2, 3], "oracle": [2, 3], "census": [2]},
    "qq_cap": 8,
}


def tiny_census() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(TINY_CENSUS_ARGV)) == 0
    text = out.getvalue()
    return {
        "kind": "census",
        "argv": TINY_CENSUS_ARGV,
        "marker": "\n",
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "rows": text.count("\n") - 1,
    }


@pytest.fixture
def scratch(request):
    """An empty directory under the checkout's ignored .perfbench/."""
    path = ROOT / ".perfbench" / "test" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def tiny_workloads():
    return {"census-prime": tiny_census(), "cli-mix": {"kind": "cli-mix", **TINY_MIX}}


def benchmark_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["census-prime", "cli-mix"])
def test_every_metric_is_printed_by_name_with_its_unit(
    tiny_workloads, scratch, monkeypatch, capsys, workload, trace, section
):
    monkeypatch.setattr(run, "OUT", scratch)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, workloads=tiny_workloads) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_definition()[section]}
    assert {name: m["unit"] for name, m in report["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_benchmark_definition_matches_the_workloads():
    definition = benchmark_definition()
    assert [w["name"] for w in definition["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in definition["end_to_end"]} == set(run.END_TO_END)


def test_corrupted_census_output_is_a_failure(tiny_workloads):
    good = tiny_workloads["census-prime"]
    assert worker.run_census(cli, good)["failed"] == 0
    bad = dict(good, sha256=hashlib.sha256(b"something else").hexdigest())
    result = worker.run_census(cli, bad)
    assert result["attempted"] == 1 and result["failed"] == 1


class _CorruptingCli:
    """Forwards to the real CLI, then damages its output."""

    def __init__(self, damage):
        self.damage = damage

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text, code = self.damage(out.getvalue(), code)
        sys.stdout.write(text)
        return code


@pytest.mark.parametrize(
    "damage",
    [
        lambda text, code: (text, 1 - code if code in (0, 1) else 0),
        lambda text, code: (text.replace("true", "false"), code),
        lambda text, code: (text[: len(text) // 2], code),
        lambda text, code: (text.replace("1", "2"), code),
    ],
    ids=["exit-code", "verified-agree-false", "truncated", "digit-changed"],
)
def test_corrupted_cli_mix_output_is_a_failure(damage):
    blocks = list(itertools.islice(workloads.request_blocks(TINY_MIX, seed=5), 2))
    assert worker.run_cli_mix(cli, iter(blocks), None, None)["failed"] == 0
    result = worker.run_cli_mix(_CorruptingCli(damage), iter(blocks), None, None)
    assert result["failed"] > 0 and result["attempted"] == sum(len(b) for b in blocks)


def test_factorize_with_x_squared_one_must_exit_4():
    req = {"kind": "factorize", "field": "gf:5", "n": 2, "y": "1", "x": "4"}
    assert workloads.check_request(req, 4, "")
    assert not workloads.check_request(req, 0, "")


def test_requests_depend_only_on_the_seed_and_build_no_field():
    code = (
        "import itertools, json, sys, workloads\n"
        "blocks = list(itertools.islice(workloads.request_blocks(workloads.CLI_MIX, 7), 3))\n"
        "assert not any(m.startswith('zhangliu') for m in sys.modules)\n"
        "print(json.dumps(blocks))\n"
    )
    outputs = [
        subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    blocks = json.loads(outputs[0])
    requests = [r for b in blocks for r in b]
    # every block, whatever the seed, sends the same (kind, field, n) cells
    mix = sorted((r["kind"], r["field"], r["n"]) for r in blocks[0])
    other_seed = next(workloads.request_blocks(workloads.CLI_MIX, 8))
    assert all(sorted((r["kind"], r["field"], r["n"]) for r in b) == mix for b in blocks + [other_seed])
    # elements travel as --y=... and --params=... so that "-2/3" is not read as a flag
    assert any("=-" in a for r in requests for a in r["argv"])
    for r in requests:
        assert not any(a.startswith("-") and not a.startswith("--") for a in r["argv"])
    assert workloads.field_spec_repeats(requests) == len(requests) - len({r["field"] for r in requests})


def test_tracer_self_times_sum_to_no_more_than_wall_time(tiny_workloads):
    tracer = Tracer()
    original = cli.main
    tracer.install()
    try:
        t0 = worker.clock()
        census = worker.run_census(cli, tiny_workloads["census-prime"])
        mix = worker.run_cli_mix(cli, workloads.request_blocks(TINY_MIX, seed=2), None, 2)
        wall = worker.clock() - t0
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert census["failed"] == 0 and mix["failed"] == 0
    m = tracer.metrics()
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert 0 < self_total <= wall
    assert self_total <= sum(census["latencies"]) + sum(mix["latencies"])
    # census gf:5, n=2: 5 * 4 rows, q_order reached through the census module's own binding
    assert m["cli.main.calls"] == 1 + mix["attempted"]
    assert m["census.rows.calls"] >= 1 and m["orders.formula.calls"] >= 20
    assert m["fields.order.calls"] >= 5 * 2  # x in {2, 3}: x^2 != 1 on every y
    assert m["orders.bruteforce.steps"] > 0 and m["spectral.oracle.calls"] > 0


def test_worker_thread_spans_are_children_of_the_census_call():
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["census", "--field", "gf:7", "--n", "2", "--format", "csv", "--jobs", "2"])
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    rows = [s for s in spans if s.label == "census.rows"]
    formula = [s for s in spans if s.label == "orders.formula"]
    assert len(rows) == 1 and len(formula) == 7 * 6
    assert all(s.parent is rows[0] for s in formula)


def test_fails_without_printing_a_result_when_sources_are_missing(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    definition = benchmark_definition()
    argv = definition["command"] + ["--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
