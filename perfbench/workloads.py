"""The benchmark's workloads: inputs each one builds, its job, and its checks.

Every dataset is made through the public ``segopt synth`` command from
the workload seed, so the program only ever sees generated files.  Jobs
use only CLI flags that the planned deletions keep (no ``evaluate
--tta``, ``--jobs`` or ``--seed``).

A workload exposes:
  prepare(cli, seed, data)  set-up: make and load the data (and, for the
                            ensemble evaluation, gradcheck the losses and
                            train its members);
  calls(seed, data, out)    argv of each timed CLI call of one job;
  work_units()              units of work one job does;
  check(out, stdout)        workload-specific output checks, name -> ok;
  summary(out, stdout)      figures worth printing from the first job.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

# Written out rather than imported, so run.py can list workloads without segopt.
ARMS = ("baseline", "ranger", "gwdl", "dro")  # what `train --preset ensemble` trains
REGIONS = ("ET", "WT", "TC")
MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Part:
    """One `synth` call: its grid, subgroup counts and no-ET fraction."""

    name: str
    grid: str
    subgroups: str
    no_et_frac: float = 0.0

    @property
    def cases(self) -> int:
        return sum(int(chunk.split(":")[1]) for chunk in self.subgroups.split(","))

    def synth(self, cli, out: str, seed: int) -> None:
        cli(["synth", "--out", out, "--grid", self.grid, "--subgroups", self.subgroups,
             "--sigma", "0.3", "--no-et-frac", repr(self.no_et_frac), "--seed", str(seed)])


def make_dataset(cli, parts, data: str, seed: int) -> None:
    """Synthesize each part; several parts are merged into one manifest.

    The merged manifest keeps the first part's header and lists every
    case with its own grid, renamed ``<part>_<id>`` so ids stay unique.
    """
    if len(parts) == 1:
        parts[0].synth(cli, data, seed)
        return
    merged = None
    for i, part in enumerate(parts):
        sub = os.path.join(data, part.name)
        part.synth(cli, sub, seed + i)
        with open(os.path.join(sub, MANIFEST)) as fh:
            doc = json.load(fh)
        for case in doc["cases"]:
            case["id"] = f"{part.name}_{case['id']}"
            case["features"] = f"{part.name}/{case['features']}"
            case["labels"] = f"{part.name}/{case['labels']}"
        if merged is None:
            merged = doc
        else:
            merged["cases"].extend(doc["cases"])
    with open(os.path.join(data, MANIFEST), "w") as fh:
        json.dump(merged, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_cases(data: str) -> int:
    """Load the dataset through the public loader; returns its case count."""
    import segopt.synthdata  # the parent process lists workloads without segopt

    return len(segopt.synthdata.load(os.path.join(data, MANIFEST)))


def _final_losses(out: str) -> dict:
    losses = {}
    for arm in ARMS:
        path = os.path.join(out, arm, "training_log.csv")
        if os.path.exists(path):
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            losses[arm] = float(rows[-1]["loss"]) if rows else math.nan
    return losses


def dice_mean(out: str) -> float:
    """Mean over ET/WT/TC of the per-case mean Dice in metrics.csv."""
    per_region = {r: [] for r in REGIONS}
    with open(os.path.join(out, "metrics.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            per_region[row["region"]].append(float(row["dice"]))
    return sum(sum(v) / len(v) for v in per_region.values()) / len(REGIONS)


@dataclass(frozen=True)
class TrainWorkload:
    """The four presets `train --preset ensemble` trains, one call each.

    Separate calls train the same arms as the ensemble preset, and each
    call is short enough to be timed at its fastest.
    """

    name: str
    parts: tuple
    model: str
    epochs: int

    def prepare(self, cli, seed: int, data: str) -> None:
        make_dataset(cli, self.parts, data, seed)
        load_cases(data)

    def calls(self, seed: int, data: str, out: str) -> list:
        return [["train", "--dataset", data, "--out", os.path.join(out, arm),
                 "--model", self.model, "--preset", arm, "--epochs", str(self.epochs),
                 "--seed", str(seed)] for arm in ARMS]

    def work_units(self) -> int:
        """Case-steps: one case's forward, loss and backward."""
        return len(ARMS) * self.epochs * sum(p.cases for p in self.parts)

    def check(self, out: str, stdout: str) -> dict:
        losses = _final_losses(out)
        return {
            "every arm wrote a training log": sorted(losses) == sorted(ARMS),
            "final losses are finite": all(math.isfinite(v) for v in losses.values()),
        }

    def summary(self, out: str, stdout: str) -> dict:
        return {f"final_loss_{arm}": loss for arm, loss in _final_losses(out).items()}


@dataclass(frozen=True)
class EvalWorkload:
    """`evaluate` of the four trained presets as one mean-softmax ensemble."""

    name: str
    data: Part
    members: Part
    member_epochs: int
    gradcheck_trials: int
    dice_floor: float

    def _members_dir(self, data: str) -> str:
        return os.path.join(data, "members")

    def prepare(self, cli, seed: int, data: str) -> None:
        make_dataset(cli, (self.data,), data, seed)
        load_cases(data)
        # The recipe checks the loss gradients before training; this is also
        # the benchmark's one use of the gradcheck layer (it exits 3 on FAIL).
        cli(["gradcheck", "--trials", str(self.gradcheck_trials), "--seed", str(seed)])
        # Per-voxel models apply to any grid, so the members are trained on a
        # small 2-D dataset and scored on the 3-D one.
        train_data = os.path.join(data, "train2d")
        make_dataset(cli, (self.members,), train_data, seed + 1)
        cli(["train", "--dataset", train_data, "--out", self._members_dir(data),
             "--preset", "ensemble", "--epochs", str(self.member_epochs),
             "--seed", str(seed)])

    def calls(self, seed: int, data: str, out: str) -> list:
        models = [os.path.join(self._members_dir(data), f"model_{arm}.json") for arm in ARMS]
        return [["evaluate", *models, "--dataset", data, "--out", out]]

    def work_units(self) -> int:
        """Cases ensembled, post-processed and scored."""
        return self.data.cases

    def check(self, out: str, stdout: str) -> dict:
        with open(os.path.join(out, "metrics.csv"), newline="") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
        return {
            "metrics.csv covers every case and region": rows == self.data.cases * len(REGIONS),
            f"ensemble dice_mean >= {self.dice_floor}": dice_mean(out) >= self.dice_floor,
        }

    def summary(self, out: str, stdout: str) -> dict:
        return {"dice_mean": dice_mean(out)}


README_DATA = Part("readme", "24x24", "common:40,rare:4")

WORKLOADS = {w.name: w for w in (
    # Tiny cases (576 voxels): per-call numpy overhead and repeated
    # validation dominate; the batched, validate-once core must win here.
    TrainWorkload("train-2d-presets", (README_DATA,), "linear", epochs=5),
    # Mixed 3-D/2-D grids with the MLP: matmuls dominate and a batched core
    # must group cases by grid; a per-call overhead cut barely moves it.
    TrainWorkload("train-3d-mlp", (Part("vol", "32x32x16", "common:6,rare:2"),
                                   Part("slice", "24x24", "common:3,rare:1")),
                  "mlp", epochs=1),
    # The only heavy user of metrics (EDT, hd95) and of ensembling; the
    # training loop is bypassed.
    EvalWorkload("eval-3d-ensemble", Part("vol", "32x32x32", "common:20,rare:4", 0.1),
                 README_DATA, member_epochs=10, gradcheck_trials=2, dice_floor=0.6),
)}
