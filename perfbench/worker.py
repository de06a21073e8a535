"""Child process of the benchmark: one set-up, or the timed phase of a workload.

    python3 perfbench/worker.py setup   --workload W --seed N --work DIR
    python3 perfbench/worker.py measure --workload W --seed N --work DIR \
        --seconds S --trace 0|1

Each mode starts in a fresh interpreter, times ``import segopt.cli``
first, and prints one JSON object as the last line of standard output.
``run.py`` starts these one at a time; run that instead.

Every CLI call goes through ``segopt.cli.main`` in process, and every
call and output check is one counted operation.  A job's outputs (all
files it wrote plus its standard output) must hash to the same digest as
the first job's: same seed, same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

PERFBENCH = os.path.dirname(os.path.abspath(__file__))


class Ledger:
    """Counts operations (CLI calls and output checks) and names each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures}


def run_cli(argv: list, ledger: Ledger) -> tuple[bool, str, float]:
    """Call ``segopt.cli.main(argv)``; returns (exit 0?, stdout, seconds)."""
    import segopt.cli

    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = segopt.cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code
    seconds = time.perf_counter() - start
    ledger.record(f"segopt {argv[0]} exits 0", code == 0)
    return code == 0, buf.getvalue(), seconds


def tree_digest(root: str, extra: str = "") -> str:
    """SHA-256 over every file's relative path and bytes, plus ``extra``."""
    h = hashlib.sha256(extra.encode())
    for dirpath, dirnames, names in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


def prepare(workload, seed: int, data: str, ledger: Ledger) -> float:
    """Build the workload's inputs into a fresh ``data``; returns seconds."""
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    start = time.perf_counter()
    workload.prepare(lambda argv: run_cli(argv, ledger), seed, data)
    return time.perf_counter() - start


def check_outputs(workload, out: str, stdout: str, ledger: Ledger, reference: dict) -> None:
    """Workload checks, then same-bytes-as-the-first-job (the first sets it)."""
    try:
        checks = workload.check(out, stdout)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as e:
        checks = {f"outputs readable ({type(e).__name__}: {e})": False}
    for name, ok in checks.items():
        ledger.record(name, ok)
    digest = tree_digest(out, stdout) if os.path.isdir(out) else stdout
    if "digest" not in reference:
        reference["digest"] = digest
        reference["summary"] = workload.summary(out, stdout)
    else:
        ledger.record("same bytes as the first job", digest == reference["digest"])


def run_jobs(workload, seed: int, data: str, work: str, seconds: float,
             ledger: Ledger, reference: dict, tracer=None) -> list:
    """Repeat the workload's job for about ``seconds``.

    Returns, per job, the wall time of each of its CLI calls.  At least
    one job runs, and another starts if a job as long as the last one
    would end less than half a job past the deadline, so the phase lasts
    ``seconds`` give or take half a job.  Each job writes to a fresh
    output directory at the same path, so its bytes can be compared with
    the first job's.
    """
    out = os.path.join(work, "out")
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + sum(walls[-1]) / 2 <= deadline:
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.run_id = len(walls) + 1
        results = [run_cli(argv, ledger) for argv in workload.calls(seed, data, out)]
        walls.append([seconds_taken for _, _, seconds_taken in results])
        if all(ok for ok, _, _ in results):
            check_outputs(workload, out, "".join(stdout for _, stdout, _ in results),
                          ledger, reference)
    return walls


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cmd_setup(workload, seed: int, work: str, import_s: float) -> dict:
    """One set-up: the fresh import plus building the workload's inputs."""
    ledger = Ledger()
    data = os.path.join(work, "data")
    setup_s = import_s + prepare(workload, seed, data, ledger)
    return {"import_s": import_s, "setup_s": setup_s, "digest": tree_digest(data),
            "ledger": ledger.to_dict()}


def cmd_measure(workload, seed: int, work: str, seconds: float, trace: bool,
                import_s: float) -> dict:
    """The timed phase on data a set-up left in ``work``, or the traced run."""
    ledger = Ledger()
    data = os.path.join(work, "data")
    result = {"import_s": import_s, "provenance": provenance(),
              "work_units": workload.work_units()}
    if not trace:
        if not os.path.isdir(data):
            raise SystemExit(f"no prepared data under {data}; run the setup mode first")
        reference: dict = {}
        result["walls"] = run_jobs(workload, seed, data, work, seconds, ledger, reference)
        result["summary"] = reference.get("summary")
        result["job_digest"] = reference.get("digest")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result.update(traced(workload, seed, work, seconds, ledger))
    result["ledger"] = ledger.to_dict()
    return result


def traced(workload, seed: int, work: str, seconds: float, ledger: Ledger) -> dict:
    """Untraced set-up and jobs, then the same traced; per-layer totals.

    Per-layer values are for one set-up plus one job: the traced set-up's
    totals plus the traced jobs' totals divided by the number of jobs.
    Jobs are identical, so call counts per job are exact.
    """
    from tracer import COUNTERS, LAYERS, SPANS, Tracer

    data = os.path.join(work, "data")
    reference: dict = {}
    plain_setup = prepare(workload, seed, data, ledger)
    setup_digest = tree_digest(data)
    plain = run_jobs(workload, seed, data, work, seconds / 2, ledger, reference)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = 0
        traced_setup = prepare(workload, seed, data, ledger)
        ledger.record("traced set-up writes the same bytes", tree_digest(data) == setup_digest)
        walls = run_jobs(workload, seed, data, work, seconds / 2, ledger, reference, tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(work, "spans.csv"))

    jobs = len(walls)
    setup_totals = tracer.totals([0])
    job_totals = tracer.totals(range(1, jobs + 1))

    def per_setup_and_job(kind: str, key: str) -> float:
        return setup_totals[kind].get(key, 0) + job_totals[kind].get(key, 0) / jobs

    traced_wall = traced_setup + statistics.fmean(map(sum, walls))
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in SPANS:
        self_s = per_setup_and_job("self_s", name)
        metrics[f"{name}.calls"] = (per_setup_and_job("calls", name), "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        layer_self[name.split(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    metrics["other.self_s"] = (traced_wall - sum(layer_self.values()), "s")
    for key in COUNTERS:
        unit = "bytes" if key.endswith(".bytes") else "count"
        metrics[key] = (per_setup_and_job("counters", key), unit)
    visited = per_setup_and_job("counters", "dro.visited")
    cases = per_setup_and_job("counters", "dro.cases")
    metrics["dro.visited_share"] = (visited / cases if cases else 0.0, "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (
        traced_wall / (plain_setup + statistics.fmean(map(sum, plain))), "ratio")
    return {"per_layer": metrics, "traced_jobs": jobs, "untraced_jobs": len(plain),
            "patch_targets_missing": tracer.missing}


def main(argv=None) -> int:
    start = time.perf_counter()
    import segopt.cli
    import_s = time.perf_counter() - start

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    if os.path.commonpath([os.path.abspath(segopt.cli.__file__), src]) != src:
        raise SystemExit(f"segopt was imported from {segopt.cli.__file__}, not from {src}")

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = cmd_setup(workload, args.seed, args.work, import_s)
    else:
        result = cmd_measure(workload, args.seed, args.work, args.seconds, bool(args.trace),
                             import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
