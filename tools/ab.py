"""Compare the checkout's benchmark against a parent commit's, in alternating pairs.

    python tools/ab.py PARENT WORKLOAD --seeds A-B [--seconds S]

PARENT is any git revision.  Its tree is exported with ``git archive``
into a temporary directory, and ``perfbench/run.py --workload WORKLOAD
--seed SEED --seconds S --trace 0`` runs there and in this checkout (its
working tree), one pair of runs per seed of A..B: the change first on odd seeds,
the parent first on even ones.  Both sides run the checkout's Python.

For each end-to-end metric that BENCHMARK.json names it prints both
sides' medians and quartiles (linear interpolation, numpy's default), the change/parent
ratio of the medians, the pairs the change won (by the metric's
direction), and whether the median gain is larger than the parent's
quartile distance.  It reports and gates nothing: the gates are
BENCHMARK.json's.

Every run's result line is appended, as one entry (commit, parent,
machine, order, command, runs), to ``BENCH_<WORKLOAD>.json`` at the
checkout's root, or to ``--record FILE``; earlier entries are kept.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("perfbench", "run.py")
RUN_TIMEOUT_S = 1800


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True, timeout=60).stdout.strip()


def export(revision: str, into: str) -> str:
    """Write the tree of ``revision`` into the directory ``into``; returns its commit."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    data = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                          capture_output=True, check=True, timeout=120).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return commit


def checkout_commit() -> str:
    """HEAD, marked ``-dirty`` when what the benchmark runs, ``src/`` or
    ``perfbench/``, differs from it in the working tree."""
    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()}-core {platform.machine()} ({cpu}), "
            f"Python {platform.python_version()}, numpy {version('numpy')}, "
            f"scipy {version('scipy')}, one BLAS thread")


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; returns its last line, the result object."""
    argv = [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def summarize(runs: list, metrics: list) -> list:
    """One row per end-to-end metric: both sides' quartiles, the ratio,
    the change's wins and whether its median gain clears the parent's spread."""
    rows = []
    seeds = sorted({run["seed"] for run in runs})
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        value = {(run["seed"], run["side"]): run["result"]["metrics"][name]["value"]
                 for run in runs}
        side = {s: [value[(seed, s)] for seed in seeds] for s in ("parent", "change")}
        q = {s: np.percentile(v, [25, 50, 75]).tolist() for s, v in side.items()}
        gain = sign * (q["change"][1] - q["parent"][1])
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "parent": q["parent"], "change": q["change"],
            "ratio": q["change"][1] / q["parent"][1],
            "wins": sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"])),
            "pairs": len(seeds),
            "clears_parent_iqr": gain > q["parent"][2] - q["parent"][0],
        })
    return rows


def append_entry(path: str, workload: str, entry: dict) -> None:
    doc = {"workload": workload, "entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["entries"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_seeds(text: str) -> range:
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last if sep else first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B, got {text!r}") from None
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"seeds must be A-B with 0 <= A <= B, got {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("workload", help="a workload BENCHMARK.json names")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="A-B, one pair of runs per seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="each run's timed phase (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--record", default=None,
                        help="file to append the entry to (default: BENCH_<WORKLOAD>.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    record = args.record or os.path.join(ROOT, f"BENCH_{args.workload}.json")

    commit = checkout_commit()
    runs = []
    with tempfile.TemporaryDirectory(prefix="segopt-ab-") as scratch:
        parent = export(args.parent, scratch)
        for seed in args.seeds:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            for side in order:
                tree = ROOT if side == "change" else scratch
                result = run_bench(tree, args.workload, seed, seconds)
                runs.append({"seed": seed, "side": side, "result": result})
                print(f"seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in sorted(result["metrics"].items()))
                      + f" failed={result['failed']}/{result['attempted']}", flush=True)
    rows = summarize(runs, bench["end_to_end"])
    print(f"{args.workload}: change {commit} against parent {parent}, {len(args.seeds)} pairs")
    for row in rows:
        (p25, p50, p75), (c25, c50, c75) = row["parent"], row["change"]
        print(f"{row['metric']} ({row['unit']}, {row['better']} is better): "
              f"parent {p50:.6g} [{p25:.6g}, {p75:.6g}] -> change {c50:.6g} "
              f"[{c25:.6g}, {c75:.6g}], ratio {row['ratio']:.4f}, "
              f"better in {row['wins']}/{row['pairs']}, median gain "
              f"{'clears' if row['clears_parent_iqr'] else 'does not clear'} the parent's IQR")
    failed = {side: sum(r["result"]["failed"] for r in runs if r["side"] == side)
              for side in ("parent", "change")}
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    append_entry(record, args.workload, {
        "commit": commit, "parent": parent, "machine": machine(),
        "order": (f"alternating pairs, seeds {args.seeds.start}-{args.seeds.stop - 1}; "
                  "the change runs first on odd seeds, the parent on even seeds"),
        "command": f"python3 {RUNNER} --workload {args.workload} --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "runs": runs,
    })
    print(f"appended to {record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
