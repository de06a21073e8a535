"""tools/digest.py: the fixed command set reruns to the same digests."""

import importlib.util
import math
import os
import platform

import numpy
import pytest
import scipy

from segopt.cli import PARALLEL_MIN_VOXELS, parse_grid
from segopt.model import ENSEMBLE_BLOCK_VOXELS
from segopt.numerics import read_json

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "digest", os.path.join(os.path.dirname(HERE), "tools", "digest.py"))
digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(digest)


@pytest.fixture(scope="module")
def digest_root(tmp_path_factory):
    return tmp_path_factory.mktemp("digest")


@pytest.fixture(scope="module")
def two_runs(digest_root):
    return [digest.run(str(digest_root / name), tiny=True) for name in ("a", "b")]


def test_rerun_in_another_directory_gives_equal_digests(two_runs):
    a, b = two_runs
    assert a == b


def test_every_command_runs_and_only_the_refused_ones_fail(two_runs):
    doc = two_runs[0]
    assert [c["argv"] for c in doc["commands"]] == digest.commands(tiny=True)
    failed = [(c["argv"], c["exit"]) for c in doc["commands"] if c["exit"] != 0]
    assert failed == [(argv, 2) for argv in digest.commands(tiny=True)[-3:]]
    assert doc["commands"][-1]["stderr"] == "error: distance matrix is 3x3, model has 4 classes\n"
    for preset in (*digest.ARMS, "ensemble", "adam", "radam", "mlp", "dice", "ce", "mixed",
                   "matrix"):
        assert f"train_{preset}/run_config.json" in doc["files"]
    for name in ("matrix.json", "matrix_3x3.json"):
        assert name in doc["files"]
    for name in ("model.json", "model.params.bin", "training_log.csv"):
        # the builtin matrix, given as a file, trains the builtin's bytes
        assert doc["files"][f"train_matrix/{name}"] == doc["files"][f"train_gwdl/{name}"]
    for data in ("readme", "no_et", "readme_paper", "vol", "vol32", "vol32_anisotropic",
                 "vol_odd"):
        assert f"eval_{data}/metrics.csv" in doc["files"]


def test_one_evaluate_scores_the_vol32_cases_at_anisotropic_spacing(two_runs):
    doc = two_runs[0]
    command = next(c for c in doc["commands"] if c["argv"][-1] == "eval_vol32_anisotropic")
    assert command["argv"][-3] == "vol32/manifest_anisotropic.json"
    assert "vol32/manifest_anisotropic.json" in doc["files"]
    # The spacing reaches hd95, so the report differs from the 1 mm one.
    assert (doc["files"]["eval_vol32_anisotropic/metrics.csv"]
            != doc["files"]["eval_vol32/metrics.csv"])


def test_one_mlp_train_mixes_two_grids(two_runs, digest_root):
    command = next(c for c in two_runs[0]["commands"] if c["argv"][2] == "mixed.json")
    assert command["argv"][:2] == ["train", "--dataset"] and "mlp" in command["argv"]
    assert "train_mixed/model.params.bin" in two_runs[0]["files"]
    doc = read_json(str(digest_root / "a" / "mixed.json"), "manifest", ["cases"])
    ids = [case["id"] for case in doc["cases"]]
    assert len(set(ids)) == len(ids)
    grids = {tuple(case["grid"]) for case in doc["cases"]}
    assert grids == {(8, 8), (8, 8, 6)}


def test_digests_record_where_they_were_made(two_runs):
    assert two_runs[0]["environment"] == {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": "1"}


def test_one_evaluate_scores_cases_large_enough_for_threads():
    # The vol32 dataset holds one grid only, so its mean case size is that grid's.
    for tiny in (False, True):
        synth = next(argv for argv in digest.commands(tiny)
                     if argv[:3] == ["synth", "--out", "vol32"])
        grid = parse_grid(synth[synth.index("--grid") + 1])
        assert math.prod(grid) >= PARALLEL_MIN_VOXELS
        assert any(argv[0] == "evaluate" and argv[-3:] == ["vol32", "--out", "eval_vol32"]
                   for argv in digest.commands(tiny))


def test_one_evaluate_ends_its_cases_in_a_short_ensemble_block():
    # Each vol_odd case fills one ensemble block and spills into a second,
    # shorter one, which BLAS may compute through another kernel.
    members = [f"train_ensemble/model_{arm}.json" for arm in digest.ARMS]
    for tiny in (False, True):
        synth = next(argv for argv in digest.commands(tiny)
                     if argv[:3] == ["synth", "--out", "vol_odd"])
        voxels = math.prod(parse_grid(synth[synth.index("--grid") + 1]))
        assert ENSEMBLE_BLOCK_VOXELS < voxels < 2 * ENSEMBLE_BLOCK_VOXELS
        assert ["evaluate", *members, "--dataset", "vol_odd", "--out",
                "eval_vol_odd"] in digest.commands(tiny)
