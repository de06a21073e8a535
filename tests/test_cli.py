"""End-to-end command line tests.

Every test drives ``main(argv)`` in process and asserts on the exit
code and the files the command leaves behind.  A noiseless dataset and
one trained run are shared module-wide to keep the suite fast.
"""

import argparse
import csv
import json
import os
import shutil
import threading
import weakref

import numpy as np
import pytest

from segopt import gradcheck, optim, synthdata
from segopt.cli import PARALLEL_MIN_VOXELS, build_parser, case_workers, main
from segopt.dro import DEFAULT_BETA
from segopt.losses import LabelMap
from segopt.metrics import (aggregate, evaluate_case, format_aggregate_table, postprocess_et,
                            write_aggregate_csv)
from segopt.model import Ensemble, Model, ModelSpec, TrainConfig, load_model, save_model, train
from segopt.optim import Lookahead
from segopt.synthdata import FEATURE_WIDTH, SynthConfig, generate, load, read_manifest


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


def parsed_flags(argv):
    """Each destination of argv's subcommand, and "command", at its parsed value."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[argv[0]]._actions if a.default != argparse.SUPPRESS}
    args = parser.parse_args(argv)
    return {dest: getattr(args, dest) for dest in dests | {"command"}}


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

    def test_run_config_records_every_flag(self, tmp_path):
        argv = ["synth", "--out", str(tmp_path / "d"), "--grid", "6x6",
                "--subgroups", "common:2", "--sigma", "0.1", "--no-et-frac", "0.5"]
        assert main(argv) == 0
        assert read_json(str(tmp_path / "d" / "run_config.json")) == parsed_flags(argv)

    @pytest.mark.parametrize("sigma", ["inf", "1e39"])
    def test_unstorable_noise_is_config_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--grid", "6x6",
                     "--subgroups", "common:2", "--sigma", sigma]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["--grid", "8x8", "--subgroups", "common:3", "--sigma", "0.2",
                "--seed", "7"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--out", a] + args) == 0
        assert main(["synth", "--out", b] + args) == 0
        # run_config records the output path, everything else must match
        assert tree_bytes(a) == tree_bytes(b)

    def test_refused_rerun_keeps_the_existing_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        argv = ["synth", "--out", out, "--grid", "10x10", "--subgroups", "common:3,rare:2",
                "--seed", "0"]
        assert main(argv) == 0
        before = tree_bytes(out, skip=())
        # At sigma 1e38 and seed 0 the first cases fit float32 and rare_001 does not.
        assert main(argv + ["--sigma", "1e38"]) == 2
        assert "rare_001" in capsys.readouterr().err
        assert tree_bytes(out, skip=()) == before
        assert len(load(os.path.join(out, "manifest.json"))) == 5

    def test_flag_defaults_are_synth_config_defaults(self):
        args = build_parser().parse_args(["synth", "--out", "o"])
        defaults = SynthConfig(grid=(2, 2), subgroup_cases={"common": 1})
        for flag, field in (("sigma", "sigma"), ("no_et_frac", "no_et_fraction"),
                            ("seed", "seed")):
            assert getattr(args, flag) == getattr(defaults, field), flag

    def test_subgroup_listed_twice_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--grid", "6x6",
                     "--subgroups", "a:3,a:4"]) == 2
        assert "subgroup 'a' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_subgroup_names_are_stripped(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--grid", "6x6",
                     "--subgroups", "a:1, b:1"]) == 0
        assert sorted(os.listdir(out)) == ["a_000_features.f32", "a_000_labels.u8",
                                           "b_000_features.f32", "b_000_labels.u8",
                                           "manifest.json", "run_config.json"]
        manifest = read_json(str(out / "manifest.json"))
        assert [case["subgroup"] for case in manifest["cases"]] == ["a", "b"]

    @pytest.mark.parametrize("text,message", [
        ("a:1, :2", "subgroups must be name:count"),
        ("a:1, a:2", "subgroup 'a' is listed twice"),
    ])
    def test_subgroup_name_is_checked_after_stripping(self, tmp_path, capsys, text, message):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--grid", "6x6", "--subgroups", text]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../evil", "a/b", "evil/"])
    def test_subgroup_name_with_a_path_separator_is_config_error(self, tmp_path, capsys, name):
        outer = tmp_path / "outer"
        outer.mkdir()
        assert main(["synth", "--out", str(outer / "d2"), "--grid", "6x6",
                     "--subgroups", f"common:1,{name}:1"]) == 2
        assert f"subgroup name {name!r} contains a path separator" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [outer]

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_at_or_under_a_file_is_refused_before_generating(
            self, tmp_path, monkeypatch, capsys, below):
        from segopt import cli

        calls = []
        monkeypatch.setattr(cli, "generate", lambda *args: calls.append(args))
        existing = tmp_path / "data.txt"
        existing.write_bytes(b"keep")
        out = os.path.join(existing, below) if below else str(existing)
        assert main(["synth", "--out", out, "--grid", "6x6", "--subgroups", "common:2"]) == 2
        assert calls == []
        assert (capsys.readouterr().err
                == f"error: --out {out}: {existing} exists and is not a directory\n")
        assert existing.read_bytes() == b"keep"
        assert os.listdir(tmp_path) == ["data.txt"]


class TestTrain:
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_at_or_under_a_file_is_refused_before_the_dataset_is_read(
            self, dataset, tmp_path, monkeypatch, capsys, below):
        from segopt import cli

        reads = []

        def counted(*args, **kwargs):
            reads.append(args)
            return read_manifest(*args, **kwargs)

        monkeypatch.setattr(cli, "read_manifest", counted)
        existing = tmp_path / "run.txt"
        existing.write_bytes(b"keep")
        out = os.path.join(existing, below) if below else str(existing)
        assert main(["train", "--dataset", dataset, "--out", out, "--epochs", "1"]) == 2
        assert reads == []
        assert (capsys.readouterr().err
                == f"error: --out {out}: {existing} exists and is not a directory\n")
        assert existing.read_bytes() == b"keep"
        assert os.listdir(tmp_path) == ["run.txt"]

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

    @pytest.mark.parametrize("preset", ["baseline", "ranger"])
    def test_train_steps_through_the_public_step(self, dataset, tmp_path, monkeypatch, preset):
        # The attributes the benchmark's tracer wraps; a Lookahead step's
        # inner step is part of it, so only the outermost call counts.
        calls = {"outer": 0, "depth": 0}

        def counting(step):
            def wrapper(*args, **kwargs):
                calls["outer"] += calls["depth"] == 0
                calls["depth"] += 1
                try:
                    return step(*args, **kwargs)
                finally:
                    calls["depth"] -= 1
            return wrapper

        for cls in (optim._OptimizerBase, optim.Lookahead):
            monkeypatch.setattr(cls, "step", counting(cls.step))
        assert main(["train", "--dataset", dataset, "--out", str(tmp_path / "run"),
                     "--preset", preset, "--epochs", "2"]) == 0
        # 6 cases at batch size 2 are 3 steps an epoch.
        assert calls["outer"] == 6

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
        ["--preset", "ensemble", "--distance-matrix", "MATRIX"],
        ["--preset", "baseline", "--distance-matrix", "VALID_MATRIX"],
        ["--preset", "ensemble", "--distance-matrix", "MATRIX_3X3"],
        ["--hidden", "64"],
        ["--preset", "baseline", "--beta", "5"],
        ["--preset", "gwdl", "--distance-matrix", "BACKGROUND_2_MATRIX"],
        ["--preset", "gwdl", "--distance-matrix", "BACKGROUND_FLOAT_MATRIX"],
        ["--preset", "gwdl", "--distance-matrix", "BACKGROUND_STRING_MATRIX"],
        ["--preset", "ensemble", "--beta", "inf"],
        ["--preset", "ensemble", "--lr", "inf"],
        ["--preset", "ensemble", "--beta", "1e308"],
    ], ids=["ensemble-matrix-no-background", "baseline-unused-matrix", "ensemble-3x3-matrix",
            "linear-hidden", "baseline-unused-beta", "gwdl-background-two",
            "gwdl-background-float", "gwdl-background-string", "ensemble-beta-inf",
            "ensemble-lr-inf", "ensemble-beta-1e308"])
    def test_bad_arm_fails_before_any_arm_trains(self, dataset, tmp_path, capsys, extra):
        files = {}
        for name, background, size in (("MATRIX", None, 4), ("VALID_MATRIX", 0, 4),
                                       ("MATRIX_3X3", 0, 3), ("BACKGROUND_2_MATRIX", 2, 4),
                                       ("BACKGROUND_FLOAT_MATRIX", 0.7, 4),
                                       ("BACKGROUND_STRING_MATRIX", "0", 4)):
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

    @pytest.mark.parametrize("seed, what", [
        ("-1", "seed"),
        ("18446744073709551615", "seed + 1 (the dro sampler's seed)"),
        ("18446744073709551614", "model seed"),
    ], ids=["negative", "sampler-seed-overflows", "model-seed-overflows"])
    def test_seed_outside_64_bits_fails_before_out_is_made(self, dataset, tmp_path, capsys,
                                                            seed, what):
        out = tmp_path / "run"
        assert main(["train", "--dataset", dataset, "--out", str(out), "--epochs", "1",
                     "--seed", seed]) == 2
        assert f"error: {what} must be a 64-bit unsigned integer" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_defaults_are_train_config_defaults(self):
        args = build_parser().parse_args(["train", "--dataset", "d", "--out", "o"])
        defaults = TrainConfig()
        for name in ("epochs", "batch_size", "seed"):
            assert getattr(args, name) == getattr(defaults, name), name
        # --beta, which only the dro arms use, defaults to None; TrainConfig resolves it.
        assert args.beta is None
        assert defaults.beta == DEFAULT_BETA
        assert (Lookahead.k, Lookahead.alpha) == (6, 0.5)

    @pytest.mark.parametrize("flag", [["--lookahead-k", "3"], ["--lookahead-alpha", "0.9"]],
                             ids=["k", "alpha"])
    def test_removed_lookahead_flags_are_usage_errors(self, dataset, tmp_path, flag):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", dataset, "--out", str(out), "--preset", "ranger",
                  "--epochs", "1", *flag])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("extra, want", [
        ([], {"lookahead_k": 6, "lookahead_alpha": 0.5}),
    ], ids=["defaults"])
    def test_ranger_run_records_resolved_lookahead(self, dataset, tmp_path, extra, want):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out, "--preset", "ensemble",
                     "--epochs", "1", *extra]) == 0
        arms = read_json(os.path.join(out, "run_config.json"))["arms"]
        for tag, arm in arms.items():
            assert {key: arm[key] for key in want} == want, tag
        assert isinstance(arms["ranger"]["lookahead_k"], int)

    @pytest.mark.parametrize("extra, given", [
        ([], {}),
        (["--lr", "0.02", "--beta", "30"], {"lr": 0.02, "beta": 30.0}),
    ], ids=["defaults", "flags"])
    def test_every_arm_records_its_resolved_shared_settings(self, dataset, tmp_path,
                                                             extra, given):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", dataset, "--out", out, "--preset", "ensemble",
                     "--epochs", "1", "--batch-size", "3", "--seed", "5", *extra]) == 0
        arms = read_json(os.path.join(out, "run_config.json"))["arms"]
        for tag, arm in arms.items():
            config = TrainConfig(optimizer=arm["optimizer"], epochs=1, batch_size=3, seed=5,
                                 **given)
            want = {key: getattr(config, key) for key in (
                "beta", "lr", "epochs", "batch_size", "seed")}
            want.update(lookahead_k=Lookahead.k, lookahead_alpha=Lookahead.alpha)
            assert {key: arm[key] for key in want} == want, tag
            assert arm["model_kind"] == "linear", tag

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        args = ["train", "--dataset", dataset, "--epochs", "5",
                "--seed", "9"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        for name in ("model.json", "model.params.bin", "training_log.csv"):
            assert file_bytes(os.path.join(a, name)) == \
                file_bytes(os.path.join(b, name)), name


def count_manifest_reads(monkeypatch):
    """Count read_manifest calls, wherever the program looks it up."""
    from segopt import cli, synthdata

    calls = []
    original = synthdata.read_manifest

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, synthdata):
        monkeypatch.setattr(module, "read_manifest", counted)
    return calls


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_manifest_is_read_once(command, dataset, trained_run, tmp_path, monkeypatch):
    calls = count_manifest_reads(monkeypatch)
    out = str(tmp_path / command)
    if command == "train":
        argv = ["train", "--dataset", dataset, "--out", out, "--epochs", "1"]
    else:
        argv = ["evaluate", os.path.join(trained_run, "model.json"), "--dataset", dataset,
                "--out", out]
    assert main(argv) == 0
    assert len(calls) == 1


def test_evaluate_scans_no_case_again(trained_run, tmp_path, monkeypatch):
    """A loaded Case is checked once, in load: the finiteness checks made in
    segopt.numerics and segopt.model, bar the one of each case's ensemble
    mean, do not grow with the case count."""
    from segopt import model, numerics

    calls = []
    original = numerics.require_finite

    def counted(arr, name="array"):
        if name != "ensemble probabilities":
            calls.append(name)
        return original(arr, name)

    monkeypatch.setattr(numerics, "require_finite", counted)
    monkeypatch.setattr(model, "require_finite", counted)
    counts = []
    for cases in (1, 7):
        data = str(tmp_path / f"data{cases}")
        assert main(["synth", "--out", data, "--grid", "8x8", "--subgroups",
                     f"common:{cases}"]) == 0
        del calls[:]
        assert main(["evaluate", os.path.join(trained_run, "model.json"), "--dataset", data,
                     "--out", str(tmp_path / f"eval{cases}")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


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

    def test_run_config_records_every_flag(self, trained_run, dataset, tmp_path):
        model = os.path.join(trained_run, "model.json")
        argv = ["evaluate", model, model, "--dataset", dataset, "--out", str(tmp_path / "eval")]
        assert main(argv) == 0
        assert read_json(str(tmp_path / "eval" / "run_config.json")) == parsed_flags(argv)

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
        odd = Model.init(spec)
        path = str(tmp_path / "odd.json")
        save_model(odd, path)
        code = self.run([path], dataset, str(tmp_path / "eval"))
        assert code == 2
        assert "expects 3 features" in capsys.readouterr().err

    def test_missing_model_is_config_error(self, dataset, tmp_path):
        code = self.run([str(tmp_path / "ghost.json")], dataset,
                        str(tmp_path / "eval"))
        assert code == 2

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_at_or_under_a_file_is_refused_before_any_case_is_read(
            self, trained_run, dataset, tmp_path, monkeypatch, capsys, below):
        from segopt import cli

        reads = []

        def counted(*args, **kwargs):
            reads.append(args)
            return synthdata.load_case(*args, **kwargs)

        monkeypatch.setattr(cli, "load_case", counted)
        existing = tmp_path / "report.txt"
        existing.write_bytes(b"keep")
        out = os.path.join(existing, below) if below else str(existing)
        code = self.run([os.path.join(trained_run, "model.json")], dataset, out)
        assert code == 2
        assert reads == []
        assert (capsys.readouterr().err
                == f"error: --out {out}: {existing} exists and is not a directory\n")
        assert existing.read_bytes() == b"keep"
        assert os.listdir(tmp_path) == ["report.txt"]


@pytest.fixture(scope="module")
def volume_dataset(tmp_path_factory):
    """Five noisy 32x32x8 cases: 8,192 voxels each, the smallest mean case
    size that evaluate scores on several threads."""
    out = str(tmp_path_factory.mktemp("data") / "volume")
    assert main(["synth", "--out", out, "--grid", "32x32x8", "--subgroups", "common:4,rare:1",
                 "--sigma", "0.3", "--no-et-frac", "0.2", "--seed", "6"]) == 0
    return out


class TestEvaluateWorkers:
    """evaluate scores cases on one thread per usable CPU; its output bytes
    do not depend on how many there are."""

    def use_cpus(self, monkeypatch, count):
        """Give the process ``count`` CPUs; returns the list of pool sizes built."""
        import concurrent.futures

        pools = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        return pools

    def members(self, trained_run, tmp_path):
        """The trained model between two differently seeded random ones."""
        paths = []
        for seed in (3, 4):
            spec = ModelSpec(kind="linear", input_features=FEATURE_WIDTH, num_classes=4,
                             seed=seed)
            model = Model.init(spec)
            paths.append(str(tmp_path / f"random{seed}.json"))
            save_model(Model(spec, 20.0 * model.params), paths[-1])
        return [paths[0], os.path.join(trained_run, "model.json"), paths[1]]

    def evaluate(self, monkeypatch, capsys, cpus, models, dataset, out):
        pools = self.use_cpus(monkeypatch, cpus)
        code = main(["evaluate", *models, "--dataset", dataset, "--out", out])
        return code, capsys.readouterr(), pools

    def test_output_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, capsys,
                                                          trained_run, volume_dataset,
                                                          tmp_path):
        models = self.members(trained_run, tmp_path)
        outputs = {}
        for cpus, want_pools in ((1, []), (8, [5])):
            out = str(tmp_path / f"cpus{cpus}")
            code, captured, pools = self.evaluate(monkeypatch, capsys, cpus, models,
                                                  volume_dataset, out)
            assert code == 0
            assert pools == want_pools
            outputs[cpus] = (tree_bytes(out), captured.out)
        assert outputs[1] == outputs[8]
        assert set(outputs[1][0]) == {"metrics.csv", "aggregate.csv", "aggregate.txt",
                                      "aggregate_by_subgroup.csv"}

    # The overflow warnings come from worker threads, outside any errstate.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cpus", [1, 8])
    def test_overflowing_model_is_config_error(self, monkeypatch, capsys, trained_run,
                                               volume_dataset, tmp_path, cpus):
        spec = ModelSpec(kind="linear", input_features=FEATURE_WIDTH, num_classes=4, seed=0)
        # Class 0's logit overflows to inf, so its softmax column is NaN.
        params = np.zeros(spec.param_count())
        params[:FEATURE_WIDTH] = 1e308
        params[4 * FEATURE_WIDTH] = 1e308
        huge = str(tmp_path / "huge.json")
        save_model(Model(spec, params), huge)
        models = [os.path.join(trained_run, "model.json"), huge]
        code, captured, pools = self.evaluate(monkeypatch, capsys, cpus, models,
                                              volume_dataset, str(tmp_path / "eval"))
        assert pools == ([] if cpus == 1 else [5])
        assert code == 2
        assert "non-finite" in captured.err
        assert not os.path.exists(tmp_path / "eval")

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_resident_cases_are_bounded_by_the_worker_count(self, monkeypatch, capsys,
                                                            trained_run, volume_dataset,
                                                            tmp_path, cpus):
        counts = {"live": 0, "peak": 0}
        lock = threading.RLock()

        def release():
            with lock:
                counts["live"] -= 1

        class CountedCase(synthdata.Case):
            def __post_init__(self):
                super().__post_init__()
                with lock:
                    counts["live"] += 1
                    counts["peak"] = max(counts["peak"], counts["live"])
                weakref.finalize(self, release)

        monkeypatch.setattr(synthdata, "Case", CountedCase)
        models = [os.path.join(trained_run, "model.json")]
        code, _, pools = self.evaluate(monkeypatch, capsys, cpus, models, volume_dataset,
                                       str(tmp_path / "eval"))
        assert code == 0
        workers = min(cpus, 5)
        assert 1 <= counts["peak"] <= workers
        assert counts["live"] == 0
        assert pools == ([] if cpus == 1 else [workers])
        assert case_workers(read_manifest(os.path.join(volume_dataset, "manifest.json")).cases) \
            == workers

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_first_bad_case_file_is_refused_before_any_output(self, monkeypatch, capsys,
                                                              trained_run, volume_dataset,
                                                              tmp_path, cpus):
        data = str(tmp_path / "data")
        shutil.copytree(volume_dataset, data)
        # Case 1 has a label byte 9, case 3 a NaN feature: case 1 is named.
        for case, (name, edit, _) in (("common_001", BAD_CASE_FILES["label-byte-9"]),
                                      ("common_003", BAD_CASE_FILES["nan-feature"])):
            victim = os.path.join(data, f"{case}_{name}")
            edited = edit(file_bytes(victim))
            with open(victim, "wb") as fh:
                fh.write(edited)
        out = str(tmp_path / "eval")
        code, captured, pools = self.evaluate(monkeypatch, capsys, cpus,
                                              [os.path.join(trained_run, "model.json")],
                                              data, out)
        assert pools == ([] if cpus == 1 else [5])
        assert code == 2
        label_file = os.path.join(data, "common_001_labels.u8")
        assert captured.err == (f"error: malformed case file {label_file}: "
                                "labels must lie in [0, 4), found range [0, 9]\n")
        assert not os.path.exists(out)

    def test_small_cases_score_on_one_worker(self, monkeypatch, tmp_path):
        data = str(tmp_path / "small")
        assert main(["synth", "--out", data, "--grid", "24x24", "--subgroups", "common:3"]) == 0
        manifest = read_manifest(os.path.join(data, "manifest.json"))
        cases = load(manifest)
        assert {case.num_voxels for case in cases} == {576}
        self.use_cpus(monkeypatch, 8)
        assert case_workers(cases) == case_workers(manifest.cases) == 1

    def test_worker_count_is_capped_by_cases_and_cpus(self, monkeypatch, volume_dataset):
        manifest = read_manifest(os.path.join(volume_dataset, "manifest.json"))
        cases = load(manifest)
        assert min(case.num_voxels for case in cases) == PARALLEL_MIN_VOXELS == 8192
        for cpus, want in ((1, 1), (2, 2), (8, len(cases))):
            self.use_cpus(monkeypatch, cpus)
            assert case_workers(cases) == case_workers(manifest.cases) == want, cpus


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

    @pytest.mark.parametrize("seed", [1523, 1939])
    def test_features_near_the_relu_kink_pass(self, seed, capsys):
        # An MLP trial of these seeds draws a hidden pre-activation within
        # one parameter step of 0.
        assert main(["gradcheck", "--trials", "2", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith("PASS") for line in lines)

    def test_last_trial_seed_is_checked_before_the_first_trial(self, capsys):
        # Trial t seeds its model with seed + t, so trial 1 would overflow.
        assert main(["gradcheck", "--trials", "2", "--seed", str(2**64 - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the last trial's model seed (seed + trials - 1) must be a 64-bit unsigned " \
               f"integer, got {2**64}" in captured.err

    def test_removed_inject_bug_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--trials", "3", "--inject-bug"])
        assert exc.value.code == 2


def test_unknown_command_raises_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# A JSON input that is malformed: which file, and how it is edited.  An
# edit that returns a string replaces the file's text with it.
MALFORMED = {
    "model-not-an-object": ("model", lambda doc: 5),
    "model-invalid-json": ("model", lambda doc: "{not json"),
    "model-param-count-null": ("model", lambda doc: {**doc, "param_count": None}),
    "model-param-count-text": ("model", lambda doc: {**doc, "param_count": "abc"}),
    "model-param-file-number": ("model", lambda doc: {**doc, "param_file": 5}),
    "model-spec-classes-text": ("model", lambda doc: {**doc, "spec": {**doc["spec"],
                                                                      "num_classes": "x"}}),
    # int() would truncate each of these to the right value.
    "model-spec-features-float": ("model", lambda doc: {**doc, "spec": {
        **doc["spec"], "input_features": doc["spec"]["input_features"] + 0.9}}),
    "model-spec-seed-float": ("model", lambda doc: {**doc, "spec": {**doc["spec"],
                                                                    "seed": 0.5}}),
    "model-param-count-float": ("model", lambda doc: {**doc,
                                                      "param_count": float(doc["param_count"])}),
    "manifest-version-float": ("manifest", lambda doc: {**doc, "version": 1.0}),
    "manifest-version-bool": ("manifest", lambda doc: {**doc, "version": True}),
    "manifest-classes-float": ("manifest", lambda doc: {**doc,
                                                        "num_classes": doc["num_classes"] + 0.2}),
    "manifest-width-float": ("manifest", lambda doc: {**doc,
                                                      "feature_width": doc["feature_width"] + 0.0}),
    "manifest-grid-float": ("manifest", lambda doc: {**doc, "cases": [
        {**doc["cases"][0], "grid": [doc["cases"][0]["grid"][0] + 0.9,
                                     *doc["cases"][0]["grid"][1:]]}, *doc["cases"][1:]]}),
    "manifest-spacing-bool": ("manifest", lambda doc: {**doc, "spacing_mm": [1, True]}),
    "manifest-case-number": ("manifest", lambda doc: {**doc, "cases": [5]}),
    "manifest-spacing-number": ("manifest", lambda doc: {**doc, "spacing_mm": 5}),
    "manifest-classes-text": ("manifest", lambda doc: {**doc, "num_classes": "four"}),
    "manifest-grid-text": ("manifest", lambda doc: {**doc, "cases": [
        {**doc["cases"][0], "grid": ["a", 24]}, *doc["cases"][1:]]}),
    "matrix-object": ("matrix", lambda doc: {**doc, "matrix": {}}),
    "matrix-invalid-json": ("matrix", lambda doc: "{not json"),
    "matrix-ragged": ("matrix", lambda doc: {**doc, "matrix": [[0, 1], [1]]}),
}

# How each kind of file is named in the error message.
FILE_KINDS = {"model": "model file", "manifest": "manifest", "matrix": "distance-matrix file"}


@pytest.mark.parametrize("kind, edit", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_file_is_config_error(dataset, tmp_path, capsys, kind, edit):
    spec = ModelSpec(kind="linear", input_features=FEATURE_WIDTH, num_classes=4)
    paths = {name: tmp_path / f"{name}.json" for name in ("model", "manifest", "matrix")}
    save_model(Model.init(spec), paths["model"])
    paths["manifest"].write_bytes(file_bytes(os.path.join(dataset, "manifest.json")))
    paths["matrix"].write_text(json.dumps({"background_index": 0,
                                           "matrix": (1.0 - np.eye(4)).tolist()}))
    edited = edit(read_json(paths[kind]))
    paths[kind].write_text(edited if isinstance(edited, str) else json.dumps(edited))
    out = str(tmp_path / "out")
    if kind == "matrix":
        argv = ["train", "--dataset", dataset, "--out", out, "--epochs", "1",
                "--preset", "gwdl", "--distance-matrix", str(paths["matrix"])]
    else:
        manifest = paths["manifest"] if kind == "manifest" else dataset
        argv = ["evaluate", str(paths["model"]), "--dataset", str(manifest), "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {FILE_KINDS[kind]} {paths[kind]}: ")
    assert "Traceback" not in err


# A manifest that parses but describes no dataset that can be scored.
BAD_MANIFESTS = {
    "negative-grid": lambda doc: {**doc, "cases": [{**case, "grid": [-g for g in case["grid"]]}
                                                   for case in doc["cases"]]},
    "nan-spacing": lambda doc: {**doc, "spacing_mm": [float("nan"), 1.0]},
    "no-cases": lambda doc: {**doc, "cases": []},
    "duplicate-id": lambda doc: {**doc, "cases": [*doc["cases"], doc["cases"][0]]},
}


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("edit", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS)
def test_bad_manifest_is_refused_before_any_output(dataset, trained_run, tmp_path, capsys,
                                                   edit, command):
    data = str(tmp_path / "data")
    shutil.copytree(dataset, data)
    manifest = os.path.join(data, "manifest.json")
    doc = edit(read_json(manifest))
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "--dataset", data, "--out", out, "--epochs", "1"]
    else:
        argv = ["evaluate", os.path.join(trained_run, "model.json"), "--dataset", data,
                "--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed manifest {manifest}: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("loss, code, message", [
    ("dice", 2, "dice loss needs at least one foreground class"),
    ("dice_ce", 2, "dice loss needs at least one foreground class"),
    ("gwdl", 2, "distance matrix is 4x4, model has 1 classes"),
    ("ce", 0, ""),
], ids=["dice", "dice_ce", "gwdl", "ce"])
def test_one_class_dataset_refuses_a_dice_loss_before_any_output(tmp_path, capsys, loss, code,
                                                                  message):
    # One all-background case of 2x3 voxels with one feature channel.
    data = tmp_path / "data"
    data.mkdir()
    np.ones(6, "<f4").tofile(data / "c_features.f32")
    np.zeros(6, np.uint8).tofile(data / "c_labels.u8")
    (data / "manifest.json").write_text(json.dumps({
        "version": 1, "num_classes": 1, "feature_width": 1, "spacing_mm": [1.0, 1.0],
        "cases": [{"id": "c", "subgroup": "s", "features": "c_features.f32",
                   "labels": "c_labels.u8", "grid": [2, 3]}]}))
    out = tmp_path / "out"
    argv = ["train", "--dataset", str(data), "--out", str(out), "--loss", loss, "--epochs", "1"]
    assert main(argv) == code
    if code:
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    else:
        assert (out / "model.json").exists()


def test_two_class_dataset_evaluates(tmp_path, capsys):
    # ET against the rest: no label 3 for the small-ET cleanup to write.
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--grid", "8x8", "--subgroups", "common:6",
                 "--seed", "0"]) == 0
    doc = read_json(str(data / "manifest.json"))
    doc["num_classes"] = 2
    (data / "manifest.json").write_text(json.dumps(doc))
    for case in doc["cases"]:
        path = data / case["labels"]
        (np.fromfile(path, np.uint8) == 1).astype(np.uint8).tofile(path)
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(data), "--out", str(run), "--epochs", "30"]) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", str(run / "model.json"), "--dataset", str(data),
                 "--out", str(out)]) == 0, capsys.readouterr().err
    assert (out / "metrics.csv").exists()


# A case file whose size is right but whose content is not: which file of
# case common_001, its new bytes, and how the error goes on.
BAD_CASE_FILES = {
    "label-byte-9": ("labels.u8", lambda data: data[:5] + bytes([9]) + data[6:],
                     "labels must lie in [0, 4), found range [0, 9]"),
    "nan-feature": ("features.f32",
                    lambda data: data[:8] + np.array([np.nan], "<f4").tobytes() + data[12:],
                    "non-finite values in features of case 'common_001'"),
}


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("name, edit, message", BAD_CASE_FILES.values(), ids=BAD_CASE_FILES)
def test_bad_case_file_content_names_the_file(dataset, trained_run, tmp_path, capsys, command,
                                               name, edit, message):
    data = str(tmp_path / "data")
    shutil.copytree(dataset, data)
    victim = os.path.join(data, f"common_001_{name}")
    edited = edit(file_bytes(victim))
    with open(victim, "wb") as fh:
        fh.write(edited)
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "--dataset", data, "--out", out, "--epochs", "1"]
    else:
        argv = ["evaluate", os.path.join(trained_run, "model.json"), "--dataset", data,
                "--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: malformed case file {victim}: {message}\n"
    assert not os.path.exists(out)


def test_spacing_rank_is_checked_by_evaluate_only(dataset, trained_run, tmp_path, capsys):
    # A manifest that mixes a 3-D case with the 2-D ones: train uses no
    # spacing, evaluate refuses it before it makes --out.
    data = str(tmp_path / "data")
    shutil.copytree(dataset, data)
    assert main(["synth", "--out", str(tmp_path / "vol"), "--grid", "8x8x6",
                 "--subgroups", "vol:1"]) == 0
    volume = read_json(str(tmp_path / "vol" / "manifest.json"))
    for case in volume["cases"]:
        for key in ("features", "labels"):
            shutil.copy(tmp_path / "vol" / case[key], data)
    manifest = os.path.join(data, "manifest.json")
    doc = read_json(manifest)
    first_2d = doc["cases"][0]["id"]
    doc.update(spacing_mm=volume["spacing_mm"], cases=volume["cases"] + doc["cases"])
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    assert main(["train", "--dataset", data, "--out", str(tmp_path / "run"),
                 "--epochs", "1"]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out")
    assert main(["evaluate", os.path.join(trained_run, "model.json"), "--dataset", data,
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed manifest {manifest}: ")
    assert f"case {first_2d!r}" in err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def exact_model_run(tmp_path_factory):
    """A noiseless 24x24 dataset of the first subgroup only, whose features
    are exactly the class templates e_l, and a linear model w = 10 I, b = 0
    that labels every voxel of it exactly; returns their paths."""
    root = tmp_path_factory.mktemp("exact")
    data = str(root / "data")
    assert main(["synth", "--out", data, "--grid", "24x24", "--subgroups", "common:8",
                 "--sigma", "0", "--seed", "0"]) == 0
    spec = ModelSpec(kind="linear", input_features=FEATURE_WIDTH, num_classes=4, seed=0)
    params = np.concatenate([10.0 * np.eye(4, FEATURE_WIDTH).reshape(-1), np.zeros(4)])
    model = str(root / "exact.json")
    save_model(Model(spec, params), model)
    return data, model


def evaluated_dice_means(data, model, out):
    """Mean Dice per region from a default evaluate of ``model`` on ``data``."""
    assert main(["evaluate", model, "--dataset", data, "--out", out]) == 0
    with open(os.path.join(out, "aggregate.csv"), newline="") as fh:
        return {row["region"]: float(row["mean"]) for row in csv.DictReader(fh)
                if row["metric"] == "dice"}


def test_exact_model_scores_whole_and_core_tumor_dice_1(exact_model_run, tmp_path, capsys):
    # The cleanup rewrites ET to label 3, inside TC and WT, so only ET moves.
    dice = evaluated_dice_means(*exact_model_run, str(tmp_path / "eval"))
    capsys.readouterr()
    assert dice["WT"] == dice["TC"] == 1.0


# 7 of the 8 cases have 17-38 ET voxels, which the cleanup rewrites: ET Dice 0.125.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: postprocess_et's 50-voxel default "
                                       "relabels the ET of most 24x24 cases")
def test_default_evaluate_keeps_the_et_of_an_exact_model(exact_model_run, tmp_path, capsys):
    dice = evaluated_dice_means(*exact_model_run, str(tmp_path / "eval"))
    capsys.readouterr()
    assert dice["ET"] == 1.0


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def two_subgroup_run(tmp_path_factory):
    """An 8x8 dataset of two subgroups, common:4 and rare:2, and the path of
    one model trained on it for a few epochs."""
    root = tmp_path_factory.mktemp("subgroups")
    data, run = str(root / "data"), str(root / "run")
    assert main(["synth", "--out", data, "--grid", "8x8",
                 "--subgroups", "common:4,rare:2"]) == 0
    assert main(["train", "--dataset", data, "--out", run, "--epochs", "5"]) == 0
    return data, os.path.join(run, "model.json")


def test_evaluate_reports_each_subgroup_as_the_library_scores_it(two_subgroup_run, tmp_path,
                                                                 capsys):
    data, model = two_subgroup_run
    out = str(tmp_path / "eval")
    capsys.readouterr()
    assert main(["evaluate", model, "--dataset", data, "--out", out]) == 0
    stdout = capsys.readouterr().out
    manifest = read_manifest(os.path.join(data, "manifest.json"))
    ensemble = Ensemble([load_model(model)])
    scored = {}
    for case in load(manifest):
        labels = postprocess_et(ensemble.labels(case))
        scored.setdefault(case.subgroup, []).append(
            evaluate_case(labels, case.labels, manifest.spacing_mm, case_id=case.case_id))
    assert [(name, len(results)) for name, results in scored.items()] == [("common", 4),
                                                                          ("rare", 2)]
    want, tables = [], ""
    for name, results in scored.items():
        stats, path = aggregate(results), str(tmp_path / f"{name}.csv")
        write_aggregate_csv(stats, path)
        want += [{"subgroup": name, **row} for row in csv_rows(path)]
        tables += f"\nsubgroup {name} ({len(results)} cases)\n{format_aggregate_table(stats)}"
    got = csv_rows(os.path.join(out, "aggregate_by_subgroup.csv"))
    pooled = csv_rows(os.path.join(out, "aggregate.csv"))
    assert list(got[0]) == ["subgroup", *pooled[0]]
    assert got == want
    pooled_wt, *subgroup_wt = [row["mean"] for row in (*pooled, *got)
                               if (row["region"], row["metric"]) == ("WT", "dice")]
    assert any(mean != pooled_wt for mean in subgroup_wt)
    # aggregate.txt keeps the pooled table alone; stdout adds one table per subgroup.
    with open(os.path.join(out, "aggregate.txt")) as fh:
        assert stdout == fh.read() + tables


def test_one_subgroup_report_repeats_the_pooled_rows(two_subgroup_run, tmp_path, capsys):
    data, out = str(tmp_path / "data"), str(tmp_path / "eval")
    assert main(["synth", "--out", data, "--grid", "8x8", "--subgroups", "common:3",
                 "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["evaluate", two_subgroup_run[1], "--dataset", data, "--out", out]) == 0
    rows = csv_rows(os.path.join(out, "aggregate_by_subgroup.csv"))
    assert [row.pop("subgroup") for row in rows] == ["common"] * len(rows)
    assert rows == csv_rows(os.path.join(out, "aggregate.csv"))
    # One subgroup adds nothing to stdout: it is the pooled table, as written.
    with open(os.path.join(out, "aggregate.txt")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_rare_wt_dice_of_the_acceptance_erm_arm_reads_from_the_subgroup_report(tmp_path,
                                                                                capsys):
    """The rare whole-tumor Dice that
    test_acceptance.py::test_hardness_weighted_sampling_improves_rare_subgroup_dice
    computes through the library, for its uniform arm at seed 0, is the rare
    WT Dice mean that evaluate writes.  postprocess_et leaves WT alone."""
    data = tmp_path / "data"
    generate(SynthConfig(grid=(24, 24), subgroup_cases={"common": 40, "rare": 4},
                         sigma=0.3, seed=0), data)
    cases = load(data / "manifest.json")
    spec = ModelSpec(kind="linear", input_features=4, num_classes=4, seed=2)
    config = TrainConfig(loss="dice_ce", population="erm", beta=100.0, optimizer="sgd",
                         lr=0.05, epochs=150, batch_size=2, seed=0)
    trained = train(Model.init(spec), cases, config)
    vals = []
    for case in cases:
        if case.subgroup != "rare":
            continue
        probs = trained.model.forward(case.features)
        pred = LabelMap(np.argmax(probs, axis=1), 4, case.labels.spatial_shape)
        vals.append(evaluate_case(pred, case.labels).dice["WT"])
    rare_wt = float(np.mean(vals))

    model, out = str(tmp_path / "erm.json"), str(tmp_path / "eval")
    save_model(trained.model, model)
    capsys.readouterr()
    assert main(["evaluate", model, "--dataset", str(data), "--out", out]) == 0
    rows = csv_rows(os.path.join(out, "aggregate_by_subgroup.csv"))
    means = [float(row["mean"]) for row in rows
             if (row["subgroup"], row["region"], row["metric"]) == ("rare", "WT", "dice")]
    assert means == [rare_wt]
