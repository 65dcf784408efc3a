"""Tests of the benchmark itself: the counters it pins at the default seeds
and the result line it promises. Run from the repository root:

    python3 -m pytest perfbench -q

The cohort_1e6 test runs two traced passes at n=1e6 and takes about 40 s.
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads
import yardstick

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(name, work):
    cli = workloads.load_package(run.ROOT)
    generate = cli.generate
    plan = workloads.prepare(name, workloads.DEFAULT_SEEDS[name], work)
    tracer = spans.Tracer()
    _, problems = run.one_pass(cli, plan, tracer)
    assert problems == []
    assert workloads.check_pass(plan) == []
    assert cli.generate is generate, "wrappers must be removed after a traced pass"
    spans.probe_cox(tracer)
    return spans.layer_metrics(tracer)


@pytest.mark.parametrize(
    "name, drawn, distinct, variates",
    [("experiment_backdoor", 48, 10, 20_300_000), ("experiment_frontdoor", 4, 4, 13_000_000)],
)
def test_experiment_counters(tmp_path, name, drawn, distinct, variates):
    m = traced_pass(name, tmp_path)
    assert m["oracle.arms_drawn"] == drawn
    assert m["oracle.arms_distinct"] == distinct
    assert m["oracle.arm_useful_ratio"] == distinct / drawn
    assert m["stats.variates_drawn"] == variates
    assert m["simulate.loads"] == 0
    assert m["cox.iterations"] > 0


def test_cohort_counters_repeat(tmp_path):
    first = traced_pass("cohort_1e6", tmp_path / "a")
    second = traced_pass("cohort_1e6", tmp_path / "b")
    assert first["simulate.loads"] == 2
    assert first["oracle.arms_drawn"] == 0
    assert first["simulate.csv_bytes"] > 0
    for key in ("cox.iterations", "simulate.csv_bytes", "simulate.loads", "stats.variates_drawn"):
        assert first[key] == second[key], key


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.DEFAULT_SEEDS)


def test_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment_backdoor", "--seed", "3", "--seconds", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_PASSES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_yardstick_samples_and_restores_the_handler():
    ruler = yardstick.Yardstick()
    before = signal.getsignal(signal.SIGALRM)
    with ruler.sampling():
        end = time.perf_counter() + 3.5 * yardstick.PERIOD
        while time.perf_counter() < end:
            pass
    assert len(ruler.samples) >= 2
    assert ruler.spent == pytest.approx(sum(ruler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment_backdoor", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
