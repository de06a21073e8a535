"""Smoke test of the benchmark itself, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Tiny versions of the three workloads run in process, untraced and
traced, and must report exactly the metrics BENCHMARK.json names with
their units.  One real workload runs end to end through run.py.  A
corrupted output byte must be counted as a failed operation, and a
directory without the segopt sources must make run.py fail.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, Part  # noqa: E402

TINY_2D = Part("readme", "8x8", "common:3,rare:1")
TINY = {
    "train-2d-presets": dataclasses.replace(
        WORKLOADS["train-2d-presets"], parts=(TINY_2D,), epochs=1),
    "train-3d-mlp": dataclasses.replace(
        WORKLOADS["train-3d-mlp"],
        parts=(Part("vol", "8x8x8", "common:2"), Part("slice", "8x8", "common:1")),
        epochs=1),
    "eval-3d-ensemble": dataclasses.replace(
        WORKLOADS["eval-3d-ensemble"], data=Part("vol", "8x8x8", "common:3,rare:1", 0.25),
        members=TINY_2D, member_epochs=1, gradcheck_trials=1, dice_floor=0.0),
}


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    workload = TINY[name]
    work = str(tmp_path)
    setups, measures = [], []
    for _ in range(2):
        setups.append(worker.cmd_setup(workload, 3, work, 0.0))
        measures.append(worker.cmd_measure(workload, 3, work, 0.01, False, 0.0))
    metrics = run.end_to_end(setups, measures)
    assert units(metrics) == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    for part in setups + measures:
        assert part["ledger"]["failures"] == []
    assert setups[0]["digest"] == setups[1]["digest"]
    assert measures[0]["job_digest"] == measures[1]["job_digest"]


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_and_accounts_for_its_wall(name, tmp_path):
    measure = worker.cmd_measure(TINY[name], 3, str(tmp_path), 0.01, True, 0.0)
    assert measure["ledger"]["failures"] == []
    assert measure["patch_targets_missing"] == []
    metrics = run.per_layer(measure)
    assert units(metrics) == declared("per_layer")
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in (*LAYERS, "other"))
    assert layers == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    assert metrics["cli.main.calls"][0] >= 1
    assert os.path.getsize(os.path.join(tmp_path, "spans.csv")) > 0


def test_corrupted_output_byte_is_a_failed_operation(tmp_path):
    workload = TINY["train-2d-presets"]
    ledger = worker.Ledger()
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    worker.prepare(workload, 3, data, ledger)
    results = [worker.run_cli(argv, ledger) for argv in workload.calls(3, data, out)]
    assert all(ok for ok, _, _ in results)
    stdout = "".join(text for _, text, _ in results)
    reference = {}
    worker.check_outputs(workload, out, stdout, ledger, reference)
    worker.check_outputs(workload, out, stdout, ledger, reference)
    assert ledger.failures == []

    with open(os.path.join(out, "baseline", "model.params.bin"), "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0x01]))
    attempted = ledger.attempted
    worker.check_outputs(workload, out, stdout, ledger, reference)
    assert ledger.failures == ["same bytes as the first job"]
    assert ledger.attempted > attempted


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", "train-3d-mlp",
         "--seed", "5", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-2d-presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
