"""Tier-1 smoke test of the e2e benchmark (seconds, tiny sizes).

It runs the real command lines, so a change to a public function the
harness calls breaks here — not silently in the next benchmark run.
The ``bench`` marker comes from ``benchmarks/conftest.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = list(SPEC["workloads"])


def run(*arguments, check=True):
    done = subprocess.run([*RUN, *arguments], capture_output=True,
                          text=True, timeout=120)
    if check:
        assert done.returncode == 0, done.stdout + done.stderr
    return done


def printed(stdout):
    """``(workload, metric) -> (value, unit)`` of the metric lines."""
    table = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            table[parts[0], parts[1]] = (parts[2], parts[3])
    return table


def test_benchmark_json_matches_the_spec():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["run_seconds"] == SPEC["run_seconds"]
    assert SPEC["claim"] is None
    # the driver gates every workload the spec does not mark otherwise,
    # and an ungated one says why
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: entry["why"] for name, entry in SPEC["workloads"].items()
        if entry.get("gated", True)}
    for entry in SPEC["workloads"].values():
        assert entry.get("gated", True) or entry["not_gated_because"]
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in BENCHMARK[section]}
        assert list(declared) == list(SPEC[section])
        for name, metric in declared.items():
            frozen = SPEC[section][name]
            assert metric["unit"] == frozen["unit"]
            assert metric["better"] == frozen["better"]
            assert metric.get("bound") == frozen.get("bound")
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    # every predicted move names a real metric on a real workload
    for name, metric in SPEC["per_layer"].items():
        for moved, workload in metric["moves"]:
            assert moved in e2e and workload in WORKLOADS, name


def test_smoke_set_prints_every_end_to_end_metric():
    done = run("--smoke")
    table = printed(done.stdout)
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            value, unit = table[workload, metric["name"]]
            assert unit == metric["unit"]
            assert float(value) > 0
        assert float(table[workload, "failed_share"][0]) == 0
    report = json.loads((ROOT / "bench_results" / "e2e.json").read_text())
    assert report["claim"] is None
    assert set(report["workloads"]) == set(WORKLOADS)


def test_op_plans_follow_the_seed():
    sys.path[:0] = [str(HERE)]
    try:
        from e2e_workloads import WORKLOADS as classes, params
    finally:
        sys.path.remove(str(HERE))

    def digest(name, seed):
        return classes[name](seed, params(name, smoke=True)).plan_digest()

    for name in WORKLOADS:
        assert digest(name, 42) == digest(name, 42)
        assert digest(name, 42) != digest(name, 43)


def test_corrupted_oracle_fails_the_run():
    done = run("--workload", "scan_warm", "--seconds", "0", "--smoke",
               "--corrupt-oracle", check=False)
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    done = run("--workload", workload, "--seconds", "0", "--smoke",
               "--trace", "1")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    trace = json.loads(
        (ROOT / "bench_results" / f"e2e_trace_{workload}.json").read_text())
    assert {"id", "parent", "request", "name", "start", "end"} == set(
        trace["spans"][0])
    assert "self time per layer" in done.stdout
