"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the root.

They show that a corrupted output counts as a failure, that the traced
counters repeat exactly between runs, that every metric prints by name with
its unit, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

prunelab = run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from prunelab import harness, importance  # noqa: E402

ROOT = Path(run.__file__).resolve().parent.parent


def _bench(*args):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _one_cycle(workload, tmp_path):
    session = run.Session(workload, workload.setup(0, str(tmp_path)))
    session.settle(session.run_operations())
    return session


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        m for m in run.END_TO_END_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m for m in tracing.PER_LAYER_METRICS]


def test_perturbed_score_table_is_a_failure(tmp_path, monkeypatch):
    real = importance.estimate

    def perturbed(model, dataset, d, estimator, source, **kwargs):
        table = real(model, dataset, d, estimator, source, **kwargs)
        if estimator == "molchanov_group":
            site, node, channel, score = table.entries[0]
            table.entries[0] = (site, node, channel, score * 1.001)
        return table

    monkeypatch.setattr(importance, "estimate", perturbed)
    session = _one_cycle(workloads.WORKLOADS["estimate_molchanov"], tmp_path)
    assert session.failed == 2 and session.attempted == 4
    assert all("taylorfo_sq" in problem for problem in session.problems)


def test_dropped_sweep_row_is_a_failure(tmp_path, monkeypatch):
    real = harness.prune_sweep
    monkeypatch.setattr(harness, "prune_sweep",
                        lambda *args: harness.SweepResult(real(*args).rows[1:]))
    session = _one_cycle(workloads.WORKLOADS["sweep_grid"], tmp_path)
    assert session.failed == 1 and session.paced_rates == []
    assert "159 sweep rows" in session.problems[0]


def test_traced_counters_repeat_and_every_metric_prints():
    first = _bench("--workload", "sweep_grid", "--seed", "3", "--seconds", "0", "--trace", "1")
    second = _last_json(_bench("--workload", "sweep_grid", "--seed", "3", "--seconds", "0",
                               "--trace", "1"))
    result = _last_json(first)
    assert result["correct"] and result["failed"] == 0
    for name in tracing.EXACT_COUNTERS:
        assert result["metrics"][name] == second["metrics"][name], name
    counts = {k: v["value"] for k, v in result["metrics"].items()}
    assert counts["harness.prune_sweep.estimate_calls"] == 16
    assert counts["harness.prune_sweep.seed_repeat_calls"] == 4
    assert counts["harness.evaluate.calls"] == 145
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == {
        (name, unit) for name, unit, _ in tracing.PER_LAYER_METRICS}
    for name, unit, _ in tracing.PER_LAYER_METRICS:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in first.splitlines()), name


@pytest.mark.parametrize("workload", ["cli_pipeline"])
def test_end_to_end_metrics_print_by_name_with_unit(workload):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0")
    result = _last_json(out)
    assert result["correct"] and result["attempted"] == 12
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == {
        (name, unit) for name, unit, _ in run.END_TO_END_METRICS}
    for name, unit, _ in run.END_TO_END_METRICS:
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and unit in line.split() for line in out.splitlines())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_cnn",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert "{" not in done.stdout
