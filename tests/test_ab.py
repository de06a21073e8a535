"""tools/ab.py: paired benchmark runs against a parent commit, recorded by appending."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOOL = os.path.join(ROOT, "tools", "ab.py")
SPEC = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

ENTRY_KEYS = {"commit", "parent", "machine", "order", "command", "runs"}


def end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def check_run(run):
    assert set(run) == {"seed", "side", "result"} and run["side"] in ("parent", "change")
    result = run["result"]
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert {m["name"]: m["unit"] for m in end_to_end()} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def fake_runs(values):
    """Runs whose every metric reads ``values[(seed, side)]``."""
    return [{"seed": seed, "side": side,
             "result": {"metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                                    for m in end_to_end()}}}
            for (seed, side), v in values.items()]


@pytest.mark.skipif(shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")),
                    reason="needs git and a git checkout")
def test_one_pair_against_head_prints_and_records_every_metric(tmp_path):
    record = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, TOOL, "HEAD", "train-2d-presets", "--seeds", "2-2",
         "--seconds", "0.5", "--record", str(record)],
        capture_output=True, text=True, timeout=600, env={**os.environ, "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # Seed 2 is even: the parent runs first.
    assert lines[0].startswith("seed 2 parent: ") and lines[1].startswith("seed 2 change: ")
    for metric in end_to_end():
        assert sum(line.startswith(f"{metric['name']} (") for line in lines) == 1
    doc = json.loads(record.read_text())
    assert doc["workload"] == "train-2d-presets" and len(doc["entries"]) == 1
    entry = doc["entries"][0]
    assert set(entry) == ENTRY_KEYS
    assert entry["parent"] == subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                             capture_output=True, text=True).stdout.strip()
    assert entry["commit"].startswith(entry["parent"])
    assert [(r["seed"], r["side"]) for r in entry["runs"]] == [(2, "parent"), (2, "change")]
    for run in entry["runs"]:
        check_run(run)
    # The export lived in a temporary directory that is gone.
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("segopt-ab-")]


def test_appending_keeps_the_earlier_entries(tmp_path):
    path = str(tmp_path / "BENCH_w.json")
    ab.append_entry(path, "w", {"commit": "a"})
    ab.append_entry(path, "w", {"commit": "b"})
    with open(path) as fh:
        assert json.load(fh) == {"workload": "w", "entries": [{"commit": "a"}, {"commit": "b"}]}


def test_summary_counts_wins_by_the_metrics_direction():
    # The change reads higher in 2 of 3 pairs.
    values = {(1, "parent"): 10.0, (1, "change"): 12.0, (2, "parent"): 11.0,
              (2, "change"): 10.0, (3, "parent"): 12.0, (3, "change"): 15.0}
    rows = {row["metric"]: row for row in ab.summarize(fake_runs(values), end_to_end())}
    for metric in end_to_end():
        row = rows[metric["name"]]
        assert row["parent"] == [10.5, 11.0, 11.5] and row["change"] == [11.0, 12.0, 13.5]
        assert row["ratio"] == 12.0 / 11.0 and row["pairs"] == 3
        higher = metric["better"] == "higher"
        assert row["wins"] == (2 if higher else 1)
        # A median gain of 1.0 against a parent quartile distance of 1.0 does not clear it.
        assert row["clears_parent_iqr"] is False


@pytest.mark.parametrize("text", ["3-1", "a-b", "-1-2"])
def test_malformed_seed_ranges_are_refused(text):
    with pytest.raises(Exception, match="seeds must be A-B"):
        ab.parse_seeds(text)


@pytest.mark.parametrize("name", ["eval-3d-ensemble", "train-2d-presets"])
def test_committed_records_hold_entries_of_paired_runs(name):
    with open(os.path.join(ROOT, f"BENCH_{name}.json")) as fh:
        doc = json.load(fh)
    assert doc["workload"] == name and doc["entries"]
    for entry in doc["entries"]:
        assert set(entry) == ENTRY_KEYS
        seeds = {run["seed"] for run in entry["runs"]}
        assert sorted((run["seed"], run["side"]) for run in entry["runs"]) == sorted(
            (seed, side) for seed in seeds for side in ("change", "parent"))
        for run in entry["runs"]:
            check_run(run)
