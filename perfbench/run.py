"""segopt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-2d-presets --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Child processes run one at a time, each with one BLAS thread:
  --trace 0: ROUNDS rounds of a fresh-interpreter set-up (import plus
             data) followed by a child that repeats the workload's job
             for --seconds / ROUNDS;
  --trace 1: one child that runs set-up and jobs untraced, then traced.
Scratch files and results go under ``.perfbench/`` in the checkout.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench")
ROUNDS = 5
CHILD_TIMEOUT_S = 60  # beyond twice the child's timed phase
sys.path.insert(0, PERFBENCH)

from workloads import WORKLOADS  # noqa: E402  (needs the path above)
from worker import tree_digest  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode: str, args, seconds: float, work: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(PERFBENCH, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--work", work,
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds * 2 + CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {mode} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def source_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def end_to_end(setups: list, measures: list) -> dict:
    """The end-to-end metrics, name -> (value, unit).

    A job's wall is the sum, over its CLI calls, of each call's fastest
    repeat: on a shared machine whose speed drifts in streaks of seconds
    to minutes, the minimum is the steadiest estimate of what the program
    itself costs (see README.md).
    """
    jobs = [job for m in measures for job in m["walls"]]
    wall = sum(min(call) for call in zip(*jobs))
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (measures[0]["work_units"] / wall, "1/s"),
        "peak_rss_mb": (max(m["peak_rss_mb"] for m in measures), "MB"),
    }


def per_layer(measure: dict) -> dict:
    """The per-layer metrics of a traced run, name -> (value, unit)."""
    metrics = {k: tuple(v) for k, v in measure["per_layer"].items()}
    metrics["cli.import_s"] = (measure["import_s"], "s")
    return metrics


def measure_workload(args, work: str) -> tuple[dict, list, dict]:
    """Run the children; returns (metrics, failures, details for the record).

    Untraced, ROUNDS rounds each run one set-up child and then one child
    that repeats the job for a share of --seconds, so set-ups and jobs
    sample the whole run.  Traced, one child does everything.
    """
    setups, measures = [], []
    if args.trace:
        measures.append(run_child("measure", args, args.seconds, work))
    else:
        for _ in range(ROUNDS):
            setups.append(run_child("setup", args, 0.0, work))
            measures.append(run_child("measure", args, args.seconds / ROUNDS, work))
    parts = setups + measures
    attempted = sum(p["ledger"]["attempted"] for p in parts)
    failures = [f for p in parts for f in p["ledger"]["failures"]]
    for key, group, what in (("digest", setups, "set-up"), ("job_digest", measures, "job")):
        for later in group[1:]:
            attempted += 1
            if later[key] != group[0][key]:
                failures.append(f"every round's {what} writes the same bytes")
    metrics = per_layer(measures[0]) if args.trace else end_to_end(setups, measures)
    details = {"setups": setups, "measures": measures, "attempted": attempted}
    return metrics, failures, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one segopt benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "segopt", "__init__.py")):
        print(f"error: no segopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work = os.path.join(OUTPUT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    metrics, failures, details = measure_workload(args, work)
    attempted = details["attempted"]
    printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source_commit": source_commit(),
        "source_sha256": tree_digest(SRC),
        **details["measures"][0]["provenance"],
        "metrics": printed,
        "failures": failures, "details": details,
    }
    os.makedirs(os.path.join(OUTPUT, "results"), exist_ok=True)
    path = os.path.join(OUTPUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    prov = {k: v for k, v in record.items() if k not in ("metrics", "failures", "details")}
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    summary = details["measures"][0].get("summary")
    if summary:
        print("outputs: " + json.dumps(summary, sort_keys=True))
    print(f"operations: {attempted} attempted, {len(failures)} failed"
          + (f" ({'; '.join(sorted(set(failures)))})" if failures else ""))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
