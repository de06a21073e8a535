"""Synthetic nested-region dataset generator and on-disk format.

Each case is a 2-D or 3-D grid holding three concentric ellipsoids
painted over background 0: the outer shell is label 2 (edema), the middle
label 3 (non-enhancing core) and the innermost label 1 (enhancing tumor),
so the evaluation regions nest as ET ⊆ TC ⊆ WT by construction.  A
configurable fraction of cases omits the innermost region entirely,
mimicking datasets where some cases have no enhancing tumor.

Per-voxel features are a per-class intensity template plus Gaussian noise.
Subgroups differ by template contrast; giving a rare subgroup a smaller
contrast makes it systematically harder, which is the lever the
distributionally robust training demo exploits.  With zero noise the
labels are exactly recoverable by nearest-template classification.

On disk a dataset is a JSON manifest plus two raw flat files per case:
features as little-endian float32, labels as uint8, all read and written
through numerics' file layer, so a bad file is reported with its path.
generate() records 1 mm spacing on every axis; a manifest made elsewhere
may carry any finite positive spacing.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .losses import LabelMap
from .numerics import (Rng, json_int, parsing, read_array, read_json, require_finite,
                       write_array, write_json)

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_NAME",
    "NUM_CLASSES",
    "FEATURE_WIDTH",
    "SynthConfig",
    "Case",
    "CaseEntry",
    "DatasetManifest",
    "templates_for",
    "generate",
    "read_manifest",
    "load_case",
    "load",
]

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
NUM_CLASSES = 4
FEATURE_WIDTH = 4  # one channel per class template

# Template contrast of every subgroup after the first; small enough to be
# measurably harder under noise, large enough to stay learnable.
MINOR_CONTRAST = 0.6


@dataclass(frozen=True)
class Case:
    """One training/evaluation case: per-voxel features plus its label map.

    The one checked case type: 2-D, finite, one feature row per label,
    checked once, here.  The features are the case's own read-only,
    C-contiguous copy, at the width they were read with: float32 features,
    as every case file holds, stay float32, and any other input is stored
    as float64.  Training and ensembling widen them to float64 where they
    compute (model._stack, model.Ensemble), an exact conversion.  The case
    and its LabelMap are frozen, so train() need not check it again, and
    Ensemble.labels() returns its prediction as a LabelMap on the same grid.

    evaluate reports each subgroup's scores apart, in aggregate_by_subgroup.csv;
    nothing in training may condition on the subgroup tag.
    """

    case_id: str
    features: np.ndarray  # [V, F] float32 or float64, read-only
    labels: LabelMap
    subgroup: str = ""

    def __post_init__(self):
        f = np.asarray(self.features)
        f = np.array(f, dtype=np.float32 if f.dtype == np.float32 else np.float64, order="C")
        if f.ndim != 2:
            raise ValueError(f"features must be [V, F], got shape {f.shape}")
        require_finite(f, f"features of case {self.case_id!r}")
        if f.shape[0] != self.labels.num_voxels:
            raise ValueError(
                f"case {self.case_id!r}: {f.shape[0]} feature rows vs "
                f"{self.labels.num_voxels} labels"
            )
        f.flags.writeable = False
        object.__setattr__(self, "features", f)

    @property
    def num_voxels(self) -> int:
        return self.labels.num_voxels


@dataclass
class SynthConfig:
    grid: tuple[int, ...]
    subgroup_cases: dict  # subgroup name -> case count
    sigma: float = 0.3
    no_et_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.grid = tuple(int(g) for g in self.grid)
        if len(self.grid) not in (2, 3):
            raise ValueError(f"grid must be 2-D or 3-D, got {len(self.grid)} axes")
        if any(not 1 <= g <= 32 for g in self.grid):
            raise ValueError(f"grid extents must lie in [1, 32], got {self.grid}")
        if not self.subgroup_cases:
            raise ValueError("at least one subgroup is required")
        for name, count in self.subgroup_cases.items():
            if not name:
                raise ValueError("subgroup names must be nonempty")
            # A name is the prefix of its cases' file names, so it must not leave out_dir.
            if any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
                raise ValueError(f"subgroup name {name!r} contains a path separator")
            if count < 0:
                raise ValueError(f"subgroup {name!r} has negative case count {count}")
        if sum(self.subgroup_cases.values()) < 1:
            raise ValueError("total case count must be >= 1")
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"noise level must be finite and >= 0, got {self.sigma}")
        if not 0.0 <= self.no_et_fraction <= 1.0:
            raise ValueError(f"no-ET fraction must lie in [0, 1], got {self.no_et_fraction}")

    def contrasts(self) -> dict:
        """Per-subgroup template contrast: 1.0 for the first subgroup,
        MINOR_CONTRAST for the later ones."""
        return {name: 1.0 if i == 0 else MINOR_CONTRAST
                for i, name in enumerate(self.subgroup_cases)}


@dataclass
class CaseEntry:
    case_id: str
    subgroup: str
    feature_file: str
    label_file: str
    grid: tuple[int, ...]

    @property
    def num_voxels(self) -> int:
        return math.prod(self.grid)


@dataclass
class DatasetManifest:
    version: int
    num_classes: int
    feature_width: int
    spacing_mm: tuple[float, ...]
    cases: list = field(default_factory=list)
    root: str = ""  # directory the file names are relative to

    def to_doc(self) -> dict:
        """The manifest file's JSON document."""
        return {
            "version": self.version,
            "num_classes": self.num_classes,
            "feature_width": self.feature_width,
            "spacing_mm": list(self.spacing_mm),
            "cases": [
                {
                    "id": c.case_id,
                    "subgroup": c.subgroup,
                    "features": c.feature_file,
                    "labels": c.label_file,
                    "grid": list(c.grid),
                }
                for c in self.cases
            ],
        }


def templates_for(contrast: float) -> np.ndarray:
    """Per-class intensity templates, one feature channel per class.

    At full contrast row l is exactly e_l.  Reduced contrast shrinks the
    separation between templates and bleeds the lost signal into the next
    channel, the way a weaker acquisition both dims and smears.  The bled
    mass is what makes a low-contrast subgroup systematically harder
    rather than merely noisier: a model fit to full-contrast cases reads
    the bled channel as evidence for the wrong class, a mistake that
    reweighting the fit can actually repair.
    """
    eye = np.eye(NUM_CLASSES, FEATURE_WIDTH)
    return contrast * eye + (1.0 - contrast) * np.roll(eye, 1, axis=1)


def _paint_ellipsoid(labels_grid: np.ndarray, center, semi_axes, value: int) -> None:
    coords = np.ogrid[tuple(slice(0, s) for s in labels_grid.shape)]
    q = sum(((c - mu) / r) ** 2 for c, mu, r in zip(coords, center, semi_axes))
    labels_grid[q <= 1.0] = value


def _case_labels(grid: tuple, rng: Rng, with_et: bool) -> np.ndarray:
    ndim = len(grid)
    # Same center for all shells guarantees geometric nesting; per-axis
    # radius ratios keep the boundaries non-spherical.
    center = [g / 2.0 + (rng.uniform(1)[0] - 0.5) * g / 3.0 for g in grid]
    wt = [(0.55 + 0.30 * rng.uniform(1)[0]) * g / 2.0 for g in grid]
    tc = [(0.55 + 0.20 * rng.uniform(1)[0]) * r for r in wt]
    et = [(0.50 + 0.20 * rng.uniform(1)[0]) * r for r in tc]
    if min(et) < 0.5:
        raise ValueError(
            f"grid {grid} is too small to hold three nested regions"
        )
    labels_grid = np.zeros(grid, dtype=np.int64)
    _paint_ellipsoid(labels_grid, center, wt, 2)
    _paint_ellipsoid(labels_grid, center, tc, 3)
    if with_et:
        _paint_ellipsoid(labels_grid, center, et, 1)
    return labels_grid.reshape(-1)


def generate(config: SynthConfig, out_dir) -> DatasetManifest:
    """Write a dataset under out_dir and return its manifest.

    Deterministic: the same config (seed included) produces byte-identical
    files.  The no-ET fraction is applied per subgroup by rounding, with
    the affected cases chosen by the seeded RNG.

    The files are written into a temporary directory inside out_dir and
    moved into place only once the last case is written, so a run refused
    while writing leaves a dataset already there whole.  The old manifest
    is removed before the first case file is moved and the new one is
    moved last, so a move cut short leaves no manifest and load() refuses
    the directory instead of reading a mix of old and new cases.  On
    failure the temporary directory is removed, and so are the directories
    this call made, with everything in them; a process killed outright
    leaves its ``.synth-*`` directory behind.
    """
    created = []  # innermost first
    path = os.path.abspath(out_dir)
    while not os.path.isdir(path):
        created.append(path)
        path = os.path.dirname(path)
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".synth-", dir=out_dir)
    try:
        manifest = _write_dataset(config, staging)
        names = [name for entry in manifest.cases
                 for name in (entry.feature_file, entry.label_file)]
        manifest_path = os.path.join(out_dir, MANIFEST_NAME)
        if os.path.lexists(manifest_path):
            os.remove(manifest_path)
        for name in (*names, MANIFEST_NAME):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
        os.rmdir(staging)
    except BaseException:
        # created[0], when there, is out_dir itself: all of it is this call's.
        shutil.rmtree(created[0] if created else staging)
        for path in created[1:]:
            os.rmdir(path)
        raise
    manifest.root = str(out_dir)
    return manifest


def _write_dataset(config: SynthConfig, out_dir) -> DatasetManifest:
    """generate()'s work: every file of the dataset, written into out_dir."""
    rng = Rng(config.seed)
    contrasts = config.contrasts()
    manifest = DatasetManifest(
        version=MANIFEST_VERSION,
        num_classes=NUM_CLASSES,
        feature_width=FEATURE_WIDTH,
        spacing_mm=(1.0,) * len(config.grid),
    )
    for name, count in config.subgroup_cases.items():
        templates = templates_for(contrasts[name])
        n_no_et = int(round(config.no_et_fraction * count))
        no_et = np.zeros(count, dtype=bool)
        no_et[rng.permutation(count)[:n_no_et]] = True
        for idx in range(count):
            case_id = f"{name}_{idx:03d}"
            labels = _case_labels(config.grid, rng, with_et=not no_et[idx])
            noise = rng.normal((labels.size, FEATURE_WIDTH), scale=config.sigma)
            # Noise finite in float64 can still overflow the float32 file.
            with np.errstate(over="ignore"):
                features = (templates[labels] + noise).astype("<f4")
            require_finite(features, f"float32 features of case {case_id!r}")
            feat_name = f"{case_id}_features.f32"
            lab_name = f"{case_id}_labels.u8"
            write_array(os.path.join(out_dir, feat_name), features, "<f4")
            write_array(os.path.join(out_dir, lab_name), labels, np.uint8)
            manifest.cases.append(CaseEntry(case_id, name, feat_name, lab_name, config.grid))
    write_json(os.path.join(out_dir, MANIFEST_NAME), manifest.to_doc())
    return manifest


def read_manifest(manifest_path, check_spacing: bool = False) -> DatasetManifest:
    """Parse and validate a manifest file without touching the case files:
    at least one case, each id once, integer fields JSON integers, class
    count, feature width and grid extents >= 1, spacing finite positive
    numbers and, with ``check_spacing`` (evaluate's; train uses none), one
    spacing entry per axis of every case's grid."""
    manifest_path = str(manifest_path)
    doc = read_json(manifest_path, "manifest",
                    ("version", "num_classes", "feature_width", "spacing_mm", "cases"))
    with parsing("manifest", manifest_path):
        if json_int(doc["version"], "version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {doc['version']!r}, expected {MANIFEST_VERSION}"
            )
        spacing = doc["spacing_mm"]
        if any(type(s) not in (int, float) or not 0 < s < math.inf for s in spacing):
            raise ValueError(f"spacing must be finite and positive numbers, got {spacing!r}")
        manifest = DatasetManifest(
            version=MANIFEST_VERSION,
            num_classes=json_int(doc["num_classes"], "num_classes"),
            feature_width=json_int(doc["feature_width"], "feature_width"),
            spacing_mm=tuple(float(s) for s in spacing),
            cases=[CaseEntry(str(e["id"]), str(e["subgroup"]), str(e["features"]),
                             str(e["labels"]),
                             tuple(json_int(g, "grid extent") for g in e["grid"]))
                   for e in doc["cases"]],
            root=os.path.dirname(manifest_path),
        )
        if not manifest.cases:
            raise ValueError("no cases")
        if min(manifest.num_classes, manifest.feature_width) < 1:
            raise ValueError("num_classes and feature_width must be >= 1")
        ids = set()
        for entry in manifest.cases:
            if entry.case_id in ids:
                raise ValueError(f"case id {entry.case_id!r} is listed twice")
            ids.add(entry.case_id)
            if min(entry.grid, default=0) < 1:
                raise ValueError(f"case {entry.case_id!r} has grid {entry.grid}, "
                                 "extents must be >= 1")
            if check_spacing and len(entry.grid) != len(manifest.spacing_mm):
                raise ValueError(f"spacing {manifest.spacing_mm} does not match the grid "
                                 f"{entry.grid} of case {entry.case_id!r}")
    return manifest


def load_case(manifest: DatasetManifest, entry: CaseEntry) -> Case:
    """Read one manifest entry's two files back as a checked case.

    Each file is read with one read_array call, the feature file before
    the label file is opened; a fault in either file's content names that
    file.
    """
    n_vox, width = entry.num_voxels, manifest.feature_width
    feature_path = os.path.join(manifest.root, entry.feature_file)
    label_path = os.path.join(manifest.root, entry.label_file)
    features = read_array(feature_path, "<f4", n_vox * width, "case file")
    labels = read_array(label_path, np.uint8, n_vox, "case file")
    with parsing("case file", label_path):
        labels = LabelMap(labels, manifest.num_classes, entry.grid)
    with parsing("case file", feature_path):
        return Case(entry.case_id, features.reshape(n_vox, width), labels, entry.subgroup)


def load(manifest_path) -> list:
    """Read a dataset back as a list of checked cases, in manifest order,
    through load_case.

    ``manifest_path`` is a manifest file, or the DatasetManifest that
    read_manifest returned for it, so a caller that needs the manifest
    too parses it once.
    """
    if isinstance(manifest_path, DatasetManifest):
        manifest = manifest_path
    else:
        manifest = read_manifest(manifest_path)
    return [load_case(manifest, entry) for entry in manifest.cases]
