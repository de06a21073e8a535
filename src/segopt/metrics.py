"""Segmentation evaluation: regions, Dice, HD95, aggregation, ensembling.

Labels follow the class convention 0=background, 1=enhancing tumor,
2=edema, 3=non-enhancing tumor/necrotic core.  Evaluation happens on the
three nested regions: enhancing tumor (ET, label 1), tumor core (TC,
labels 1 and 3) and whole tumor (WT, labels 1-3), so ET ⊆ TC ⊆ WT.

HD95 is the max of the two directed 95th-percentile surface distances.
The surface of a mask is its set of boundary voxels: mask voxels with at
least one face neighbor (4-connectivity in 2-D, 6 in 3-D) outside the
mask, where out-of-grid counts as outside.  Percentiles use linear
interpolation.  Both masks empty gives 0; exactly one empty is undefined
(None) and excluded from aggregation, with the exclusion count reported.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .losses import LabelMap, ProbMap
from .synthdata import NUM_CLASSES

__all__ = [
    "RegionSpec",
    "REGIONS",
    "CaseMetrics",
    "MetricStats",
    "AggregateStats",
    "region_mask",
    "dice_score",
    "boundary_mask",
    "hd95",
    "evaluate_case",
    "aggregate",
    "ensemble_mean_softmax",
    "postprocess_et",
    "write_case_csv",
    "write_aggregate_csv",
    "format_aggregate_table",
]


@dataclass(frozen=True)
class RegionSpec:
    name: str
    label_set: frozenset

    def __post_init__(self):
        if not self.label_set:
            raise ValueError(f"region {self.name!r} has an empty label set")
        bad = [l for l in self.label_set if not 0 < l < NUM_CLASSES]
        if bad:
            raise ValueError(f"region {self.name!r} contains invalid labels {sorted(bad)}")


# Evaluation order matches the report tables: ET, WT, TC.
REGIONS = (
    RegionSpec("ET", frozenset({1})),
    RegionSpec("WT", frozenset({1, 2, 3})),
    RegionSpec("TC", frozenset({1, 3})),
)

REGION_NAMES = tuple(r.name for r in REGIONS)


@dataclass
class CaseMetrics:
    """Per-case scores keyed by region name; hd95 is None when undefined."""

    case_id: str
    dice: dict
    hd95: dict


@dataclass(frozen=True)
class MetricStats:
    """Summary of one region/metric column.  All fields None when no value
    was defined (every hd95 in the group undefined)."""

    mean: float | None
    std: float | None
    median: float | None
    iqr: float | None
    n_used: int
    n_excluded: int


@dataclass
class AggregateStats:
    stats: dict = field(default_factory=dict)  # (region, metric) -> MetricStats

    def get(self, region: str, metric: str) -> MetricStats:
        return self.stats[(region, metric)]


def _flat_mask(mask, name: str) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.dtype != bool:
        if not np.isin(mask, (0, 1)).all():
            raise ValueError(f"{name} must be binary")
        mask = mask.astype(bool)
    return mask.reshape(-1)


def region_mask(labels, region: RegionSpec) -> np.ndarray:
    """Binary mask of voxels whose label belongs to the region's label set."""
    flat = labels.labels if isinstance(labels, LabelMap) else np.asarray(labels).reshape(-1)
    return np.isin(flat, sorted(region.label_set))


def dice_score(a, b) -> float:
    """Overlap 2|a∩b| / (|a|+|b|); two empty masks score 1."""
    a = _flat_mask(a, "a")
    b = _flat_mask(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"mask lengths differ: {a.size} vs {b.size}")
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def boundary_mask(grid: np.ndarray) -> np.ndarray:
    """Mask voxels with a face neighbor outside the mask (grid edge counts)."""
    grid = np.asarray(grid, dtype=bool)
    interior = grid.copy()
    for axis in range(grid.ndim):
        shifted_fwd = np.zeros_like(grid)
        shifted_bwd = np.zeros_like(grid)
        src = [slice(None)] * grid.ndim
        dst = [slice(None)] * grid.ndim
        src[axis] = slice(1, None)
        dst[axis] = slice(None, -1)
        shifted_fwd[tuple(dst)] = grid[tuple(src)]
        shifted_bwd[tuple(src)] = grid[tuple(dst)]
        interior &= shifted_fwd & shifted_bwd
    return grid & ~interior


def hd95(a, b, spatial_shape, spacing=None) -> float | None:
    """95th-percentile symmetric surface distance in mm.

    Returns 0.0 when both masks are empty and None (undefined) when
    exactly one is empty.
    """
    spatial_shape = tuple(int(s) for s in spatial_shape)
    a = _flat_mask(a, "a")
    b = _flat_mask(b, "b")
    n = int(np.prod(spatial_shape))
    if a.size != n or b.size != n:
        raise ValueError(
            f"mask sizes {a.size}/{b.size} do not match grid {spatial_shape}"
        )
    if spacing is None:
        spacing = (1.0,) * len(spatial_shape)
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != len(spatial_shape):
        raise ValueError(f"spacing {spacing} does not match grid rank {len(spatial_shape)}")
    if any(s <= 0 for s in spacing):
        raise ValueError(f"spacing must be positive, got {spacing}")

    ga = a.reshape(spatial_shape)
    gb = b.reshape(spatial_shape)
    empty_a, empty_b = not ga.any(), not gb.any()
    if empty_a and empty_b:
        return 0.0
    if empty_a or empty_b:
        return None

    surf_a = boundary_mask(ga)
    surf_b = boundary_mask(gb)
    d_ab = float(np.percentile(_surface_distances(surf_a, surf_b, spacing), 95))
    d_ba = float(np.percentile(_surface_distances(surf_b, surf_a, spacing), 95))
    return max(d_ab, d_ba)


def _surface_distances(src: np.ndarray, dst: np.ndarray, spacing: tuple) -> np.ndarray:
    """Distance in mm from each ``src`` voxel, in C order, to the nearest
    ``dst`` voxel: ``distance_transform_edt(~dst, sampling=spacing)[src]``.

    Only the feature transform (each voxel's nearest zero of ``~dst``) runs
    on the whole grid.  The distances are then taken at the source voxels
    alone, with the transform's own arithmetic (float64 offsets scaled per
    axis, squared, summed over the axes, square-rooted), so they are
    bit-identical to the full transform's without its grid-sized
    temporaries.
    """
    # Imported here, not at module level: importing scipy.ndimage takes
    # 0.3-0.4 s and 27 MB of RSS, which every command would pay at start-up
    # although only evaluation needs it.
    from scipy import ndimage

    nearest = ndimage.distance_transform_edt(~dst, sampling=spacing, return_distances=False,
                                             return_indices=True)
    offsets = (nearest[:, src] - np.nonzero(src)).astype(np.float64)
    offsets *= np.asarray(spacing)[:, None]
    np.multiply(offsets, offsets, out=offsets)
    return np.sqrt(np.add.reduce(offsets, axis=0))


def evaluate_case(pred_labels: LabelMap, gt_labels: LabelMap, spacing=None,
                  case_id: str = "") -> CaseMetrics:
    """Dice and HD95 for each of ET/WT/TC on one case."""
    if pred_labels.spatial_shape != gt_labels.spatial_shape:
        raise ValueError(
            f"prediction grid {pred_labels.spatial_shape} does not match "
            f"ground truth {gt_labels.spatial_shape}"
        )
    dice = {}
    hausdorff = {}
    for region in REGIONS:
        pm = region_mask(pred_labels, region)
        gm = region_mask(gt_labels, region)
        dice[region.name] = dice_score(pm, gm)
        hausdorff[region.name] = hd95(pm, gm, pred_labels.spatial_shape, spacing)
    return CaseMetrics(case_id=case_id, dice=dice, hd95=hausdorff)


def _column_stats(values, n_excluded: int) -> MetricStats:
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return MetricStats(None, None, None, None, 0, n_excluded)
    q75, q25 = np.percentile(vals, [75, 25])
    return MetricStats(
        mean=float(vals.mean()),
        std=float(vals.std()),  # population std
        median=float(np.median(vals)),
        iqr=float(q75 - q25),
        n_used=int(vals.size),
        n_excluded=n_excluded,
    )


def aggregate(metrics) -> AggregateStats:
    """Mean/std/median/IQR per region and metric across cases.

    Undefined hd95 entries are excluded from the hd95 statistics; the
    exclusion count is kept in the stats row.
    """
    metrics = list(metrics)
    if not metrics:
        raise ValueError("cannot aggregate an empty metric sequence")
    out = AggregateStats()
    for region in REGION_NAMES:
        dice_vals = [m.dice[region] for m in metrics]
        out.stats[(region, "dice")] = _column_stats(dice_vals, 0)
        hd_vals = [m.hd95[region] for m in metrics if m.hd95[region] is not None]
        n_excluded = len(metrics) - len(hd_vals)
        out.stats[(region, "hd95")] = _column_stats(hd_vals, n_excluded)
    return out


def ensemble_mean_softmax(preds) -> ProbMap:
    """Elementwise mean of probability maps; rows stay on the simplex."""
    preds = list(preds)
    if not preds:
        raise ValueError("ensemble needs at least one probability map")
    arrays = [p.voxels if isinstance(p, ProbMap) else np.asarray(p, dtype=np.float64)
              for p in preds]
    shape = arrays[0].shape
    for i, arr in enumerate(arrays[1:], start=1):
        if arr.shape != shape:
            raise ValueError(f"probability map {i} has shape {arr.shape}, expected {shape}")
    mean = np.mean(np.stack(arrays, axis=0), axis=0)
    return ProbMap(mean)


def postprocess_et(labels: LabelMap, min_et_voxels: int = 50) -> LabelMap:
    """Relabel enhancing tumor to non-enhancing when its volume is tiny.

    Predictions with fewer than min_et_voxels label-1 voxels have all of
    them rewritten to label 3; otherwise the map is returned unchanged.
    Tiny predicted ET components are usually false positives, and a wrong
    ET guess on an ET-free case costs a whole Dice point.
    """
    flat = labels.labels
    count = int((flat == 1).sum())
    if 0 < count < min_et_voxels:
        new = flat.copy()
        new[new == 1] = 3
        return LabelMap(new, labels.num_classes, labels.spatial_shape)
    return labels


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_case_csv(metrics, path) -> None:
    """Per-case rows: case_id, region, dice, hd95, hd95_defined."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "region", "dice", "hd95", "hd95_defined"])
        for m in metrics:
            for region in REGION_NAMES:
                hd = m.hd95[region]
                writer.writerow([
                    m.case_id,
                    region,
                    _fmt(m.dice[region]),
                    _fmt(hd),
                    "true" if hd is not None else "false",
                ])


def write_aggregate_csv(agg: AggregateStats, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "metric", "mean", "std", "median", "iqr",
                         "n_used", "n_excluded"])
        for region in REGION_NAMES:
            for metric in ("dice", "hd95"):
                s = agg.get(region, metric)
                writer.writerow([region, metric, _fmt(s.mean), _fmt(s.std),
                                 _fmt(s.median), _fmt(s.iqr), s.n_used, s.n_excluded])


def format_aggregate_table(agg: AggregateStats) -> str:
    """Aligned text table with Mean, Std, Median, IQR columns per metric."""
    headers = ["region", "metric", "Mean", "Std", "Median", "IQR", "n", "excluded"]
    rows = []
    for region in REGION_NAMES:
        for metric in ("dice", "hd95"):
            s = agg.get(region, metric)
            cells = [region, metric]
            for v in (s.mean, s.std, s.median, s.iqr):
                cells.append("-" if v is None else f"{v:.4f}")
            cells.append(str(s.n_used))
            cells.append(str(s.n_excluded))
            rows.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"
