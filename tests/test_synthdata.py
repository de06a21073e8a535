import json
import re

import numpy as np
import pytest

import segopt.synthdata as synthdata
from segopt.metrics import REGIONS, dice_score, region_mask
from segopt.synthdata import (
    FEATURE_WIDTH,
    MANIFEST_NAME,
    NUM_CLASSES,
    SynthConfig,
    generate,
    load,
    load_case,
    read_manifest,
    templates_for,
)


def small_config(**overrides):
    base = dict(grid=(10, 10), subgroup_cases={"common": 3, "rare": 2},
                sigma=0.2, seed=5)
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_grid_rank_checked(self):
        with pytest.raises(ValueError, match="2-D or 3-D"):
            small_config(grid=(10,))
        with pytest.raises(ValueError, match="2-D or 3-D"):
            small_config(grid=(4, 4, 4, 4))

    def test_grid_extent_capped(self):
        with pytest.raises(ValueError, match=r"\[1, 32\]"):
            small_config(grid=(33, 10))

    def test_subgroups_required(self):
        with pytest.raises(ValueError, match="subgroup"):
            small_config(subgroup_cases={})

    def test_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            small_config(subgroup_cases={"a": -1, "b": 2})

    def test_total_count_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            small_config(subgroup_cases={"a": 0})

    def test_sigma_nonnegative(self):
        with pytest.raises(ValueError, match="noise level"):
            small_config(sigma=-0.1)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_sigma_finite(self, sigma):
        with pytest.raises(ValueError, match="noise level"):
            small_config(sigma=sigma)

    def test_fraction_range(self):
        with pytest.raises(ValueError, match="no-ET fraction"):
            small_config(no_et_fraction=1.5)

    def test_default_contrasts(self):
        c = small_config().contrasts()
        assert c["common"] == 1.0
        assert c["rare"] == 0.6


class TestTemplates:
    def test_full_contrast_is_one_channel_per_class(self):
        assert (templates_for(1.0) == np.eye(NUM_CLASSES, FEATURE_WIDTH)).all()

    def test_reduced_contrast_bleeds_into_next_channel(self):
        t = templates_for(0.7)
        assert t.shape == (NUM_CLASSES, FEATURE_WIDTH)
        assert (np.diag(t) == 0.7).all()
        for l in range(NUM_CLASSES):
            assert t[l, (l + 1) % FEATURE_WIDTH] == pytest.approx(0.3)
        assert (t.sum(axis=1) == 1.0).all()

    def test_reduced_contrast_shrinks_template_separation(self):
        full = templates_for(1.0)
        dim = templates_for(0.6)
        for a in range(NUM_CLASSES):
            for b in range(a + 1, NUM_CLASSES):
                assert (np.linalg.norm(dim[a] - dim[b])
                        < np.linalg.norm(full[a] - full[b]))


def fail_fourth_move(monkeypatch):
    """Make generate()'s fourth os.replace raise, as a full disk would."""
    original = synthdata.os.replace
    moves = []

    def replace(src, dst):
        if len(moves) == 3:
            raise OSError("disk gone")
        moves.append(dst)
        original(src, dst)

    monkeypatch.setattr(synthdata.os, "replace", replace)


class TestGenerate:
    def test_noiseless_cases_decode_perfectly(self, tmp_path):
        generate(small_config(sigma=0.0), tmp_path)
        for case in load(tmp_path / MANIFEST_NAME):
            decoded = np.argmax(case.features, axis=1)
            assert (decoded == case.labels.labels).all()
            for region in REGIONS:
                a = region_mask(decoded, region)
                b = region_mask(case.labels, region)
                assert dice_score(a, b) == 1.0

    def test_regions_are_nested(self, tmp_path):
        generate(small_config(seed=9), tmp_path)
        for case in load(tmp_path / MANIFEST_NAME):
            et = region_mask(case.labels, "ET")
            tc = region_mask(case.labels, "TC")
            wt = region_mask(case.labels, "WT")
            assert (et <= tc).all()
            assert (tc <= wt).all()
            assert wt.any()  # tumor always present

    def test_noise_past_float32_range_writes_no_manifest(self, tmp_path):
        # 1e39 is finite in float64 but overflows the float32 features file.
        with pytest.raises(ValueError, match="common_000"):
            generate(small_config(sigma=1e39), tmp_path)
        assert not (tmp_path / MANIFEST_NAME).exists()

    def test_failure_after_written_cases_removes_them(self, tmp_path):
        # At sigma 1e38 and seed 0 the first case fits float32 and rare_001 does not.
        with pytest.raises(ValueError, match="rare_001"):
            generate(small_config(sigma=1e38, seed=0), tmp_path / "a" / "d")
        assert not (tmp_path / "a").exists()

    def test_failure_keeps_what_the_directory_held(self, tmp_path):
        (tmp_path / "notes.txt").write_text("kept")
        with pytest.raises(ValueError, match="rare_001"):
            generate(small_config(sigma=1e38, seed=0), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_move_cut_short_leaves_no_manifest(self, tmp_path, monkeypatch):
        generate(small_config(), tmp_path)
        fail_fourth_move(monkeypatch)
        with pytest.raises(OSError, match="disk gone"):
            generate(small_config(seed=6), tmp_path)
        # Three new case files sit beside old ones, under no manifest.
        assert not (tmp_path / MANIFEST_NAME).exists()
        assert not list(tmp_path.glob(".synth-*"))
        with pytest.raises(FileNotFoundError, match="manifest not found"):
            load(tmp_path / MANIFEST_NAME)

    def test_move_cut_short_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        fail_fourth_move(monkeypatch)
        with pytest.raises(OSError, match="disk gone"):
            generate(small_config(), tmp_path / "a" / "d")
        assert not (tmp_path / "a").exists()

    def test_no_et_fraction_one_removes_every_et(self, tmp_path):
        generate(small_config(no_et_fraction=1.0), tmp_path)
        for case in load(tmp_path / MANIFEST_NAME):
            assert (case.labels.labels != 1).all()

    def test_no_et_fraction_zero_keeps_every_et(self, tmp_path):
        generate(small_config(no_et_fraction=0.0), tmp_path)
        for case in load(tmp_path / MANIFEST_NAME):
            assert (case.labels.labels == 1).any()

    def test_no_et_fraction_rounds_per_subgroup(self, tmp_path):
        generate(small_config(subgroup_cases={"g": 4}, no_et_fraction=0.5),
                 tmp_path)
        cases = load(tmp_path / MANIFEST_NAME)
        without = sum(1 for c in cases if not (c.labels.labels == 1).any())
        assert without == 2

    def test_same_seed_is_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        generate(small_config(), a_dir)
        generate(small_config(), b_dir)
        names = sorted(p.name for p in a_dir.iterdir())
        assert names == sorted(p.name for p in b_dir.iterdir())
        for name in names:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        generate(small_config(seed=1), tmp_path / "a")
        generate(small_config(seed=2), tmp_path / "b")
        feats = sorted(p.name for p in (tmp_path / "a").iterdir()
                       if p.name.endswith(".f32"))
        same = all((tmp_path / "a" / n).read_bytes()
                   == (tmp_path / "b" / n).read_bytes() for n in feats)
        assert not same

    def test_manifest_counts_match_config(self, tmp_path):
        manifest = generate(small_config(), tmp_path)
        by_group = {}
        for entry in manifest.cases:
            by_group[entry.subgroup] = by_group.get(entry.subgroup, 0) + 1
        assert by_group == {"common": 3, "rare": 2}

    def test_manifest_schema(self, tmp_path):
        generate(small_config(), tmp_path)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert set(doc) == {"version", "num_classes", "feature_width",
                            "spacing_mm", "cases"}
        assert doc["version"] == 1
        assert doc["num_classes"] == 4
        assert doc["feature_width"] == 4
        entry = doc["cases"][0]
        assert set(entry) == {"id", "subgroup", "features", "labels", "grid"}

    def test_tiny_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="too small"):
            generate(small_config(grid=(2, 2)), tmp_path)

    def test_3d_generation(self, tmp_path):
        manifest = generate(small_config(grid=(8, 9, 10)), tmp_path)
        cases = load(tmp_path / MANIFEST_NAME)
        assert cases[0].labels.spatial_shape == (8, 9, 10)
        assert manifest.spacing_mm == (1.0, 1.0, 1.0)


class TestLoad:
    def test_round_trip(self, tmp_path):
        generate(small_config(), tmp_path)
        cases = load(tmp_path / MANIFEST_NAME)
        assert len(cases) == 5
        case = cases[0]
        raw_feats = np.fromfile(tmp_path / f"{case.case_id}_features.f32",
                                dtype="<f4")
        assert (case.features.reshape(-1) == raw_feats.astype(np.float64)).all()
        raw_labels = np.fromfile(tmp_path / f"{case.case_id}_labels.u8",
                                 dtype=np.uint8)
        assert (case.labels.labels == raw_labels).all()

    def test_truncated_feature_file(self, tmp_path):
        generate(small_config(), tmp_path)
        victim = next(tmp_path.glob("*_features.f32"))
        victim.write_bytes(victim.read_bytes()[:-4])
        with pytest.raises(ValueError, match=f"size mismatch in {re.escape(str(victim))}: "
                                             "1596 bytes, expected 1600$"):
            load(tmp_path / MANIFEST_NAME)

    def test_long_label_file_names_path(self, tmp_path):
        generate(small_config(), tmp_path)
        victim = next(tmp_path.glob("*_labels.u8"))
        victim.write_bytes(victim.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=f"size mismatch in {re.escape(str(victim))}: "
                                             "101 bytes, expected 100$"):
            load(tmp_path / MANIFEST_NAME)

    def test_missing_file_names_path(self, tmp_path):
        generate(small_config(), tmp_path)
        victim = next(tmp_path.glob("*_labels.u8"))
        victim.unlink()
        with pytest.raises(FileNotFoundError,
                           match=f"case file not found: {re.escape(str(victim))}$"):
            load(tmp_path / MANIFEST_NAME)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest not found"):
            load(tmp_path / "nope.json")

    def test_bad_version(self, tmp_path):
        generate(small_config(), tmp_path)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        doc["version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported manifest version"):
            load(tmp_path / MANIFEST_NAME)

    def test_invalid_json(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_manifest(tmp_path / MANIFEST_NAME)

    def test_missing_fields(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"version": 1}')
        with pytest.raises(ValueError, match="missing required fields"):
            read_manifest(tmp_path / MANIFEST_NAME)

    def test_truncated_feature_file_reported_before_missing_label_file(self, tmp_path):
        generate(small_config(), tmp_path)
        victim = tmp_path / "common_000_features.f32"
        victim.write_bytes(victim.read_bytes()[:-4])
        (tmp_path / "common_000_labels.u8").unlink()
        with pytest.raises(ValueError, match=f"size mismatch in {re.escape(str(victim))}"):
            load(tmp_path / MANIFEST_NAME)

    def test_load_case_reads_only_its_own_entry(self, tmp_path):
        generate(small_config(), tmp_path)
        manifest = read_manifest(tmp_path / MANIFEST_NAME)
        loaded = load(manifest)
        for name in ("common_000_features.f32", "rare_001_labels.u8"):
            (tmp_path / name).unlink()
        entry = manifest.cases[2]
        case = load_case(manifest, entry)
        assert entry.num_voxels == case.num_voxels == 100
        assert case.case_id == loaded[2].case_id == "common_002"
        assert (case.features == loaded[2].features).all()
        assert (case.labels.labels == loaded[2].labels.labels).all()

    def test_spacing_rank_is_not_checked_against_the_grid(self, tmp_path):
        generate(small_config(), tmp_path)
        path = tmp_path / MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["spacing_mm"] = [1.0, 1.0, 2.0]
        path.write_text(json.dumps(doc))
        assert read_manifest(path).spacing_mm == (1.0, 1.0, 2.0)
        assert len(load(path)) == 5


# A manifest edit that read_manifest refuses, and the words it refuses with.
BAD_MANIFESTS = {
    "zero-extent": (lambda doc: doc["cases"][1].update(grid=[10, 0]), "extents must be >= 1"),
    "negative-grid": (lambda doc: doc["cases"][0].update(grid=[-10, -10]),
                      "extents must be >= 1"),
    "empty-grid": (lambda doc: doc["cases"][0].update(grid=[]), "extents must be >= 1"),
    "nan-spacing": (lambda doc: doc.update(spacing_mm=[float("nan"), 1.0]), "finite and positive"),
    "inf-spacing": (lambda doc: doc.update(spacing_mm=[1.0, float("inf")]), "finite and positive"),
    "zero-spacing": (lambda doc: doc.update(spacing_mm=[0.0, 1.0]), "finite and positive"),
    "no-cases": (lambda doc: doc.update(cases=[]), "no cases"),
    "zero-classes": (lambda doc: doc.update(num_classes=0), "num_classes and feature_width"),
    "zero-width": (lambda doc: doc.update(feature_width=0), "num_classes and feature_width"),
    "bad-version": (lambda doc: doc.update(version=99), "unsupported manifest version 99"),
    "missing-case-field": (lambda doc: doc["cases"][2].pop("labels"), "missing field 'labels'"),
}


@pytest.mark.parametrize("edit, message", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS)
def test_read_manifest_refuses_and_names_the_file(tmp_path, edit, message):
    generate(small_config(), tmp_path)
    path = tmp_path / MANIFEST_NAME
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^malformed manifest {re.escape(str(path))}: "
                                         rf".*{re.escape(message)}"):
        read_manifest(path)
