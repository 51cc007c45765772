"""The benchmark's own tests.  Run from the root of a checkout with

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import OUTCOME, WORKLOADS, CacheCycle, CliResult, ScalarMix, Tables  # noqa: E402

sys.path.insert(0, str(bench.SRC))


def cheap_scalar_mix(seed, workdir):
    workload = ScalarMix(seed, workdir)
    workload.calls = [c for c in workload.calls if workload.p_point(*c)[0] < 1500]
    return workload


def cheap_tables(seed, workdir):
    workload = Tables(seed, workdir)
    workload.calls = [["p_row", 90], ["cli_p_row", 70], ["q_row", 600],
                      ["p_column", 300, 10], ["p_column", 300, 120], ["q_column", 400, 12]]
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_calls(name, tmp_path):
    calls = WORKLOADS[name](7, tmp_path).calls
    assert calls == WORKLOADS[name](7, tmp_path).calls
    assert calls != WORKLOADS[name](8, tmp_path).calls
    json.dumps(calls)  # plain data, nothing that depends on partita


@pytest.mark.parametrize("make", [cheap_scalar_mix, cheap_tables, CacheCycle])
def test_traced_run_returns_untraced_values(make, tmp_path):
    workload = make(3, tmp_path)
    pkg, _ = bench.set_up(workload)
    plain = bench.measure(workload, pkg, 0)
    tracer = Tracer(pkg)
    tracer.install()
    try:
        traced = bench.measure(workload, pkg, 0, tracer)
    finally:
        tracer.uninstall()
    assert traced.first == plain.first
    assert {span[0] for span in tracer.spans} > {f"op.{call[0]}" for call in workload.calls}
    metrics = layer_metrics(pkg, tracer.spans, traced.rounds, ([], []), 0.0, 0)
    assert all(m["value"] >= 0 for m in metrics.values())


def test_planted_wrong_value_counts_in_error_rate(tmp_path):
    workload = cheap_scalar_mix(5, tmp_path)
    planted = workload.calls[0]
    honest = workload.run
    workload.run = lambda pkg, call: honest(pkg, call) + (call is planted)
    record = bench.run(workload, 0, trace=0)
    assert record["attempted"] == bench.MIN_ROUNDS * len(workload.calls)
    assert record["failed"] == bench.MIN_ROUNDS
    assert record["error_rate"] == bench.MIN_ROUNDS / record["attempted"]
    assert not record["correct"]


def test_missed_exit_code_fails_without_a_wrong_value():
    assert CacheCycle.check_malformed("digit", 9, CliResult(3, "", "error: line 9: bad")) is None
    reason = CacheCycle.check_malformed("long", 9, CliResult(2, "", "error: too long"))
    assert reason.startswith(OUTCOME)


def test_refuses_to_run_without_partita_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
