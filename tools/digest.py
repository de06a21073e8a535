"""Digest one fixed set of segopt commands, to show which output bytes a change moves.

    python tools/digest.py OUT

The set: ``synth`` of the README dataset (24x24, common:40,rare:4), the
same with ``--no-et-frac 0.3`` and an 8x8x6 dataset; ``train --preset``
baseline, ranger, gwdl, dro and ensemble at 7 epochs; ``--optimizer adam``
and ``--optimizer radam`` runs with ``--population dro --loss gwdl_ce``, so
every optimizer kind trains; a 3-D ``--model mlp --loss gwdl --population
dro --optimizer ranger --batch-size 3`` run; a ``--loss dice --batch-size 3``
run, whose last README batch holds 2 cases, and a 3-D ``--model mlp --loss
ce`` run, so every loss kind trains; a ``--model mlp`` run on a manifest that
lists the README and the 8x8x6 cases together, so one run mixes two grids
and its batches hold a lone case of one grid beside cases of the other;
``evaluate`` of the four ensemble members on both 2-D datasets, of the
paper's three-network ensemble (the ranger, gwdl and dro members) on the
README dataset, and of the MLP on the 3-D one;
``gradcheck --trials 20`` for seeds 0-9; a ``--preset gwdl`` run given
the builtin matrix as a ``--distance-matrix`` file; a 32x32x32 dataset,
whose cases are large enough for ``evaluate`` to score them on several
threads, and ``evaluate`` of the four ensemble members on it, once as made
(1 mm spacing) and once through a copy of its manifest that records the
anisotropic spacing 0.7 x 1.3 x 2.5 mm; a 31x23x23 dataset, whose cases of
16,399 voxels fill one ensemble block of model.ENSEMBLE_BLOCK_VOXELS (16,384)
and leave a short last block of 15, and ``evaluate`` of the four ensemble
members on it; and three commands the CLI refuses,
one an ensemble given a 3x3 matrix file.  Both matrix files are written into
OUT before the commands run, the mixed-grid manifest into OUT right after the
command that makes the 8x8x6 dataset, and the anisotropic manifest into vol32
right after the command that makes it.  ``run(out,
tiny=True)`` shrinks the 2-D datasets, the epochs and the gradcheck
trials and seeds, so the whole set runs in a few seconds.

Each command runs in its own process of the segopt beside this script,
inside OUT with relative paths, so no file records where OUT is, and with
OPENBLAS_NUM_THREADS=1.  OUT/digests.json records where it was made (the
Python, numpy and scipy versions, the machine type and the pinned
OPENBLAS_NUM_THREADS), maps each file under OUT to its sha256 and lists
every command's argv, exit code, stdout and stderr, one entry per line, so
``diff A/digests.json B/digests.json`` shows what moved.

Compare digests made on the same machine only: the bytes depend on the
BLAS kernel OpenBLAS picks for the CPU, so no golden digests are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DIGESTS = "digests.json"
ARMS = ("baseline", "ranger", "gwdl", "dro")
# The members of the paper's ensemble: a three-way mean is not a power-of-two
# mean, so its ties and roundings differ from the four members'.
PAPER_ARMS = ("ranger", "gwdl", "dro")
OPENBLAS_NUM_THREADS = "1"
# Writes the builtin distance matrix and its upper-left 3x3 block, itself
# a valid matrix, as matrix files in the working directory.
MATRICES = """
from segopt.losses import brats_distance_matrix
from segopt.numerics import write_json
m = brats_distance_matrix().m
write_json("matrix.json", {"background_index": 0, "matrix": m.tolist()})
write_json("matrix_3x3.json", {"background_index": 0, "matrix": m[:3, :3].tolist()})
"""
# Writes mixed.json, a manifest that lists the readme and the vol cases, each
# id and file name prefixed with its directory, under readme's header.
MIXED = """
from segopt.numerics import read_json, write_json
docs = [read_json(f"{name}/manifest.json", "manifest", ["cases"]) for name in ("readme", "vol")]
for name, doc in zip(("readme", "vol"), docs):
    for case in doc["cases"]:
        case["id"] = f"{name}_{case['id']}"
        case["features"] = f"{name}/{case['features']}"
        case["labels"] = f"{name}/{case['labels']}"
docs[0]["cases"] += docs[1]["cases"]
write_json("mixed.json", docs[0])
"""
# Writes a copy of vol32's manifest that records anisotropic spacing, beside
# it, so that its case file names still resolve.
ANISOTROPIC = """
from segopt.numerics import read_json, write_json
doc = read_json("vol32/manifest.json", "manifest", ["spacing_mm"])
doc["spacing_mm"] = [0.7, 1.3, 2.5]
write_json("vol32/manifest_anisotropic.json", doc)
"""
# The script run right after the synth command that makes each directory.
AFTER_SYNTH = {"vol": MIXED, "vol32": ANISOTROPIC}


def commands(tiny: bool = False) -> list:
    """The argv of every command in the set, in run order."""
    grid, subgroups = ("8x8", "common:4,rare:2") if tiny else ("24x24", "common:40,rare:4")
    epochs = "2" if tiny else "7"
    trials, seeds = ("2", range(2)) if tiny else ("20", range(10))
    synth = ["synth", "--grid", grid, "--subgroups", subgroups, "--seed", "0"]
    out = [
        [*synth, "--out", "readme"],
        [*synth, "--out", "no_et", "--no-et-frac", "0.3"],
        ["synth", "--out", "vol", "--grid", "8x8x6",
         "--subgroups", "common:3,rare:2", "--seed", "1"],
    ]
    for preset in (*ARMS, "ensemble"):
        out.append(["train", "--dataset", "readme", "--out", f"train_{preset}",
                    "--preset", preset, "--epochs", epochs])
    for optimizer in ("adam", "radam"):
        out.append(["train", "--dataset", "readme", "--out", f"train_{optimizer}",
                    "--optimizer", optimizer, "--population", "dro", "--loss", "gwdl_ce",
                    "--epochs", epochs])
    out.append(["train", "--dataset", "vol", "--out", "train_mlp", "--model", "mlp",
                "--loss", "gwdl", "--population", "dro", "--optimizer", "ranger",
                "--batch-size", "3", "--epochs", epochs])
    out.append(["train", "--dataset", "readme", "--out", "train_dice", "--loss", "dice",
                "--batch-size", "3", "--epochs", epochs])
    out.append(["train", "--dataset", "vol", "--out", "train_ce", "--model", "mlp",
                "--loss", "ce", "--epochs", epochs])
    out.append(["train", "--dataset", "mixed.json", "--out", "train_mixed", "--model", "mlp",
                "--epochs", epochs])
    members = [f"train_ensemble/model_{arm}.json" for arm in ARMS]
    for data in ("readme", "no_et"):
        out.append(["evaluate", *members, "--dataset", data, "--out", f"eval_{data}"])
    out.append(["evaluate", *(f"train_ensemble/model_{arm}.json" for arm in PAPER_ARMS),
                "--dataset", "readme", "--out", "eval_readme_paper"])
    out.append(["evaluate", "train_mlp/model.json", "--dataset", "vol", "--out", "eval_vol"])
    out += [["gradcheck", "--trials", trials, "--seed", str(seed)] for seed in seeds]
    out.append(["train", "--dataset", "readme", "--out", "train_matrix", "--preset", "gwdl",
                "--distance-matrix", "matrix.json", "--epochs", epochs])
    out.append(["synth", "--out", "vol32", "--grid", "32x32x32",
                "--subgroups", "common:2,rare:1", "--no-et-frac", "0.5", "--seed", "2"])
    out.append(["evaluate", *members, "--dataset", "vol32", "--out", "eval_vol32"])
    out.append(["evaluate", *members, "--dataset", "vol32/manifest_anisotropic.json",
                "--out", "eval_vol32_anisotropic"])
    out.append(["synth", "--out", "vol_odd", "--grid", "31x23x23",
                "--subgroups", "common:2,rare:1", "--no-et-frac", "0.5", "--seed", "3"])
    out.append(["evaluate", *members, "--dataset", "vol_odd", "--out", "eval_vol_odd"])
    out += [
        ["train", "--dataset", "readme", "--out", "refused_beta", "--preset", "baseline",
         "--beta", "5"],
        ["evaluate", "missing.json", "--dataset", "readme", "--out", "refused_model"],
        ["train", "--dataset", "readme", "--out", "refused_matrix", "--preset", "ensemble",
         "--distance-matrix", "matrix_3x3.json", "--epochs", epochs],
    ]
    return out


def environment() -> dict:
    """What the bytes depend on besides the source: versions, machine, BLAS threads."""
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "machine": platform.machine(),
            "OPENBLAS_NUM_THREADS": OPENBLAS_NUM_THREADS}


def run(out: str, tiny: bool = False) -> dict:
    """Run the set inside the new directory ``out``; write and return its digests."""
    os.makedirs(out)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": OPENBLAS_NUM_THREADS,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", MATRICES], cwd=out, env=env, check=True)
    ran = []
    for argv in commands(tiny):
        proc = subprocess.run([sys.executable, "-m", "segopt.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        ran.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
                    "stderr": proc.stderr})
        if argv[:2] == ["synth", "--out"] and argv[2] in AFTER_SYNTH:
            subprocess.run([sys.executable, "-c", AFTER_SYNTH[argv[2]]], cwd=out, env=env,
                           check=True)
    files = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    doc = {"environment": environment(), "files": dict(sorted(files.items())),
           "commands": ran}
    with open(os.path.join(out, DIGESTS), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="new directory to run the command set in")
    args = parser.parse_args(argv)
    doc = run(args.out)
    failed = sum(c["exit"] != 0 for c in doc["commands"])
    print(f"{len(doc['files'])} files, {len(doc['commands'])} commands "
          f"({failed} nonzero exits) digested in {os.path.join(args.out, DIGESTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
