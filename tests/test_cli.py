"""End-to-end command line tests.

Every test drives ``main(argv)`` in process and asserts on the exit
code and the files the command leaves behind.  A noiseless dataset and
one trained run are shared module-wide to keep the suite fast.
"""

import csv
import json
import os

import numpy as np
import pytest

from segopt import gradcheck
from segopt.cli import build_parser, main
from segopt.dro import DEFAULT_BETA
from segopt.model import Model, ModelSpec, TrainConfig, TrainedModel, save_model
from segopt.synthdata import SynthConfig


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree_bytes(root, skip=("run_config.json",)):
    """Map of relative path -> bytes for every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name in skip:
                continue
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = file_bytes(full)
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small noiseless dataset: argmax decoding is exact, so a converged
    model scores perfect Dice.  The grid is large enough that every
    enhancing-tumor blob survives the small-component relabeling."""
    out = str(tmp_path_factory.mktemp("data") / "clean")
    code = main(["synth", "--out", out, "--grid", "32x32",
                 "--subgroups", "common:4,rare:2", "--sigma", "0.0",
                 "--seed", "4"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_run(dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run") / "baseline")
    code = main(["train", "--dataset", dataset, "--out", out,
                 "--epochs", "150", "--lr", "0.1", "--seed", "1"])
    assert code == 0
    return out


class TestSynth:
    def test_writes_dataset_and_run_config(self, dataset, capsys):
        assert os.path.exists(os.path.join(dataset, "manifest.json"))
        cfg = read_json(os.path.join(dataset, "run_config.json"))
        assert cfg["command"] == "synth"
        assert cfg["grid"] == "32x32"
        assert cfg["subgroups"] == "common:4,rare:2"
        assert cfg["sigma"] == 0.0

    def test_prints_case_count(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert main(["synth", "--out", out, "--grid", "6x6",
                     "--subgroups", "common:2"]) == 0
        assert f"wrote 2 cases to {out}" in capsys.readouterr().out

    def test_malformed_grid_is_config_error(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "d"), "--grid", "16x"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_subgroups_is_config_error(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "d"),
                     "--subgroups", "common"])
        assert code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["--grid", "8x8", "--subgroups", "common:3", "--sigma", "0.2",
                "--seed", "7"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--out", a] + args) == 0
        assert main(["synth", "--out", b] + args) == 0
        # run_config records the output path, everything else must match
        assert tree_bytes(a) == tree_bytes(b)

    def test_flag_defaults_are_synth_config_defaults(self):
        args = build_parser().parse_args(["synth", "--out", "o"])
        defaults = SynthConfig(grid=(2, 2), subgroup_cases={"common": 1})
        for flag, field in (("sigma", "sigma"), ("no_et_frac", "no_et_fraction"),
                            ("seed", "seed")):
            assert getattr(args, flag) == getattr(defaults, field), flag


class TestTrain:
    def test_writes_model_log_and_config(self, trained_run):
        for name in ("model.json", "model.params.bin", "training_log.csv",
                     "run_config.json"):
            assert os.path.exists(os.path.join(trained_run, name)), name
        cfg = read_json(os.path.join(trained_run, "run_config.json"))
        assert cfg["command"] == "train"
        assert cfg["loss"] == "dice_ce"
        assert cfg["population"] == "erm"
        assert cfg["optimizer"] == "sgd"
        assert cfg["lr"] == 0.1
        assert cfg["model_file"] == "model.json"

    def test_progress_line(self, dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out,
                     "--epochs", "1"]) == 0
        line = capsys.readouterr().out
        assert "trained model: 1 epochs, final mean loss" in line

    def test_gwdl_preset_resolves_builtin_matrix(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out,
                     "--preset", "gwdl", "--epochs", "2"]) == 0
        cfg = read_json(os.path.join(out, "run_config.json"))
        assert cfg["loss"] == "gwdl_ce"
        assert cfg["optimizer"] == "sgd"
        assert cfg["distance_matrix"] == "builtin"

    def test_ranger_preset_uses_default_lr(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out,
                     "--preset", "ranger", "--epochs", "2"]) == 0
        cfg = read_json(os.path.join(out, "run_config.json"))
        assert cfg["optimizer"] == "ranger"
        assert cfg["lr"] == 3e-3
        assert cfg["loss"] == "dice_ce"

    def test_dro_preset_sets_population_and_beta(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out,
                     "--preset", "dro", "--epochs", "2"]) == 0
        cfg = read_json(os.path.join(out, "run_config.json"))
        assert cfg["population"] == "dro"
        assert cfg["beta"] == 100.0

    def test_explicit_flag_overrides_preset(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out,
                     "--preset", "gwdl", "--loss", "dice_ce",
                     "--epochs", "2"]) == 0
        cfg = read_json(os.path.join(out, "run_config.json"))
        assert cfg["loss"] == "dice_ce"
        assert cfg["distance_matrix"] is None

    def test_ensemble_preset_trains_four_arms(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out,
                     "--preset", "ensemble", "--epochs", "2"]) == 0
        cfg = read_json(os.path.join(out, "run_config.json"))
        assert set(cfg["arms"]) == {"baseline", "ranger", "gwdl", "dro"}
        for tag, arm in cfg["arms"].items():
            assert arm["model_file"] == f"model_{tag}.json"
            assert os.path.exists(os.path.join(out, f"model_{tag}.json"))
            assert os.path.exists(os.path.join(out, f"model_{tag}.params.bin"))
            assert os.path.exists(os.path.join(out, f"training_log_{tag}.csv"))

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_divergence_is_numeric_error(self, dataset, tmp_path, capsys):
        code = main(["train", "--dataset", dataset, "--out",
                     str(tmp_path / "run"), "--lr", "1e12",
                     "--epochs", "50"])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--preset", "ensemble", "--lookahead-alpha", "0"],
        ["--lookahead-k", "-3", "--lookahead-alpha", "7"],
        ["--preset", "ensemble", "--distance-matrix", "MATRIX"],
        ["--preset", "baseline", "--distance-matrix", "VALID_MATRIX"],
        ["--preset", "ensemble", "--distance-matrix", "MATRIX_3X3"],
        ["--hidden", "64"],
        ["--preset", "baseline", "--beta", "5"],
        ["--preset", "gwdl", "--distance-matrix", "BACKGROUND_2_MATRIX"],
    ], ids=["ensemble-alpha-zero", "sgd-bad-lookahead", "ensemble-matrix-no-background",
            "baseline-unused-matrix", "ensemble-3x3-matrix", "linear-hidden",
            "baseline-unused-beta", "gwdl-background-two"])
    def test_bad_arm_fails_before_any_arm_trains(self, dataset, tmp_path, capsys, extra):
        files = {}
        for name, background, size in (("MATRIX", None, 4), ("VALID_MATRIX", 0, 4),
                                       ("MATRIX_3X3", 0, 3), ("BACKGROUND_2_MATRIX", 2, 4)):
            doc = {"matrix": (1.0 - np.eye(size)).tolist()}
            if background is not None:
                doc["background_index"] = background
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(doc))
        out = tmp_path / "run"
        argv = ["train", "--dataset", dataset, "--out", str(out), "--epochs", "1"]
        assert main(argv + [str(files.get(a, a)) for a in extra]) == 2
        assert "error:" in capsys.readouterr().err
        left = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert not [name for name in left if name.startswith(
            ("model", "training_log", "run_config.json"))], left

    def test_flag_defaults_are_train_config_defaults(self):
        args = build_parser().parse_args(["train", "--dataset", "d", "--out", "o"])
        defaults = TrainConfig()
        for name in ("lookahead_k", "lookahead_alpha", "epochs", "batch_size", "seed"):
            assert getattr(args, name) == getattr(defaults, name), name
        assert args.beta is None
        assert defaults.beta == DEFAULT_BETA

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        args = ["train", "--dataset", dataset, "--epochs", "5",
                "--seed", "9"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        for name in ("model.json", "model.params.bin", "training_log.csv"):
            assert file_bytes(os.path.join(a, name)) == \
                file_bytes(os.path.join(b, name)), name


class TestEvaluate:
    def run(self, models, dataset, out, extra=()):
        return main(["evaluate", *models, "--dataset", dataset,
                     "--out", out, *extra])

    def aggregate_rows(self, out):
        with open(os.path.join(out, "aggregate.csv")) as fh:
            return list(csv.DictReader(fh))

    def test_converged_model_scores_perfect_dice(self, trained_run, dataset,
                                                 tmp_path, capsys):
        out = str(tmp_path / "eval")
        model = os.path.join(trained_run, "model.json")
        assert self.run([model], dataset, out) == 0
        for name in ("metrics.csv", "aggregate.csv", "aggregate.txt",
                     "run_config.json"):
            assert os.path.exists(os.path.join(out, name)), name
        dice = {r["region"]: float(r["mean"]) for r in self.aggregate_rows(out)
                if r["metric"] == "dice"}
        assert set(dice) == {"ET", "WT", "TC"}
        for region, value in dice.items():
            assert value == 1.0, region
        # the summary table is echoed to stdout
        assert "ET" in capsys.readouterr().out

    def test_identical_ensemble_matches_single_model(self, trained_run,
                                                     dataset, tmp_path):
        model = os.path.join(trained_run, "model.json")
        solo, trio = str(tmp_path / "solo"), str(tmp_path / "trio")
        assert self.run([model], dataset, solo) == 0
        assert self.run([model, model, model], dataset, trio) == 0
        assert file_bytes(os.path.join(solo, "metrics.csv")) == \
            file_bytes(os.path.join(trio, "metrics.csv"))

    def test_run_config_records_inputs_only(self, trained_run, dataset, tmp_path):
        out = str(tmp_path / "eval")
        assert self.run([os.path.join(trained_run, "model.json")], dataset, out) == 0
        doc = read_json(os.path.join(out, "run_config.json"))
        assert set(doc) == {"command", "models", "dataset", "out"}

    @pytest.mark.parametrize("flag", ["--tta", "--jobs=2", "--seed=0"])
    def test_removed_flags_are_usage_errors(self, dataset, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            self.run([str(tmp_path / "model.json")], dataset, str(tmp_path / "eval"),
                     extra=[flag])
        assert exc.value.code == 2

    def test_feature_width_mismatch_is_config_error(self, dataset, tmp_path,
                                                    capsys):
        spec = ModelSpec(kind="linear", input_features=3, num_classes=4,
                         seed=0)
        odd = TrainedModel(spec=spec, params=Model.init(spec).params)
        path = str(tmp_path / "odd.json")
        save_model(odd, path)
        code = self.run([path], dataset, str(tmp_path / "eval"))
        assert code == 2
        assert "expects 3 features" in capsys.readouterr().err

    def test_missing_model_is_config_error(self, dataset, tmp_path):
        code = self.run([str(tmp_path / "ghost.json")], dataset,
                        str(tmp_path / "eval"))
        assert code == 2


class TestGradcheck:
    def test_clean_pass(self, capsys):
        assert main(["gradcheck", "--trials", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith("PASS") for line in lines)

    def test_single_loss(self, capsys):
        assert main(["gradcheck", "--loss", "gwdl", "--trials", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("gwdl")

    def test_wrong_gradient_is_numeric_error(self, monkeypatch, capsys):
        exact = gradcheck.composite_loss

        def corrupted(*args, **kwargs):
            out = exact(*args, **kwargs)
            if out.gradient is not None:
                out.gradient[0, 0] += 1e-3
            return out

        monkeypatch.setattr(gradcheck, "composite_loss", corrupted)
        assert main(["gradcheck", "--trials", "3"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_removed_inject_bug_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--trials", "3", "--inject-bug"])
        assert exc.value.code == 2


def test_unknown_command_raises_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
