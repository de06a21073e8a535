"""Segmentation evaluation: regions, Dice, HD95, aggregation, ensembling.

Labels follow the class convention 0=background, 1=enhancing tumor,
2=edema, 3=non-enhancing tumor/necrotic core.  Evaluation happens on the
three nested regions: enhancing tumor (ET, label 1), tumor core (TC,
labels 1 and 3) and whole tumor (WT, labels 1-3), so ET ⊆ TC ⊆ WT.

HD95 is the max of the two directed 95th-percentile surface distances.
The surface of a mask is its set of boundary voxels: mask voxels with at
least one face neighbor (4-connectivity in 2-D, 6 in 3-D) outside the
mask, where out-of-grid counts as outside.  Percentiles use linear
interpolation.  Each directed 95th percentile is computed by one
``np.partition`` at the two order statistics it reads, interpolated with
``np.percentile``'s own linear-method arithmetic, so it has the bytes of
``np.percentile(x, 95)``.  ``hd95(a, b)`` transforms a->b first, and b->a
only when an upper bound on it, each ``b`` surface voxel's distance to the
nearest ``a`` surface voxel in its own last-axis row, cannot prove it no
larger; the result is the same float either way.  Callers pass the
prediction as ``a``: its spurious voxels usually make a->b the larger
direction.  Both masks empty gives 0; exactly one empty is
undefined (None) and excluded from aggregation, with the exclusion count
reported.  ``evaluate_case`` cuts both label maps once to the case's
tumour box, the bounding box of the voxels either map labels WT, and
scores every region on that cut: since ET ⊆ TC ⊆ WT, every voxel outside
it is background in each region mask, so the scores are the whole grid's
and each distance transform covers the box only.  The aggregate's median
and quartiles come from one sort of each column, with the same arithmetic
and the bytes of ``np.median`` and ``np.percentile``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import LabelMap
from .numerics import write_csv

__all__ = [
    "REGIONS",
    "CaseMetrics",
    "MetricStats",
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
    "write_subgroup_csv",
    "format_aggregate_table",
]


# Each region's labels, in the report tables' order: ET, WT, TC.
REGIONS = {"ET": (1,), "WT": (1, 2, 3), "TC": (1, 3)}


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


def _flat_mask(mask, name: str) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.dtype != bool:
        if not np.isin(mask, (0, 1)).all():
            raise ValueError(f"{name} must be binary")
        mask = mask.astype(bool)
    return mask.reshape(-1)


def region_mask(labels, name: str) -> np.ndarray:
    """Binary mask of voxels whose label belongs to region ``name`` of REGIONS."""
    flat = labels.labels if isinstance(labels, LabelMap) else np.asarray(labels).reshape(-1)
    # One comparison per label: on a 576-voxel case np.isin took 35 us, 4x as long.
    first, *rest = REGIONS[name]
    mask = flat == first
    for label in rest:
        mask |= flat == label
    return mask


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
    flat_interior, flat = interior.reshape(-1), grid.reshape(-1)
    for axis in range(grid.ndim):
        # Voxel i's neighbors along the axis are i - step and i + step in C
        # order, except on the axis's two edge slabs, where one of them is
        # off the grid (the flat shift wraps to another row) and which are
        # cleared after.  Flat shifts keep every AND contiguous: the same
        # shifts on the grid's own axes took 3x as long on a 32^3 grid.
        step = math.prod(grid.shape[axis + 1:])
        flat_interior[:-step] &= flat[step:]
        flat_interior[step:] &= flat[:-step]
        interior[(slice(None),) * axis + (slice(None, 1),)] = False
        interior[(slice(None),) * axis + (slice(-1, None),)] = False
    # interior lies inside grid, so this is grid & ~interior.
    return np.not_equal(grid, interior, out=interior)


def hd95(a, b, spatial_shape, spacing=None) -> float | None:
    """95th-percentile symmetric surface distance in mm.

    Returns 0.0 when both masks are empty and None (undefined) when
    exactly one is empty.  The a->b distances are transformed first; b->a
    is transformed only when the 95th percentile of its row distances
    (``_row_distances``) does not lie below a->b's.  Pass the prediction
    as ``a``: its spurious voxels usually make a->b the larger direction,
    and then one transform decides the value.
    """
    spatial_shape = tuple(int(s) for s in spatial_shape)
    a = _flat_mask(a, "a")
    b = _flat_mask(b, "b")
    n = math.prod(spatial_shape)
    if a.size != n or b.size != n:
        raise ValueError(
            f"mask sizes {a.size}/{b.size} do not match grid {spatial_shape}"
        )
    if spacing is None:
        spacing = (1.0,) * len(spatial_shape)
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != len(spatial_shape):
        raise ValueError(f"spacing {spacing} does not match grid rank {len(spatial_shape)}")
    if any(not 0 < s < math.inf for s in spacing):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")

    ga = a.reshape(spatial_shape)
    gb = b.reshape(spatial_shape)
    empty_a, empty_b = not ga.any(), not gb.any()
    if empty_a and empty_b:
        return 0.0
    if empty_a or empty_b:
        return None

    surf_a = boundary_mask(ga)
    surf_b = boundary_mask(gb)
    d_ab = _percentile95(_surface_distances(surf_a, surf_b, spacing))
    # Each row distance is at least the exact b->a distance, and the 95th
    # percentile is monotone, so a row-bound percentile below d_ab proves
    # d_ba <= d_ab.  The margin covers the few ulps by which the
    # transform's sum of squares may differ from the row product; an inf or
    # NaN percentile never skips.
    if _percentile95(_row_distances(surf_b, surf_a, spacing)) < d_ab * (1 - 1e-9):
        return d_ab
    d_ba = _percentile95(_surface_distances(surf_b, surf_a, spacing))
    return max(d_ab, d_ba)


def _row_distances(src: np.ndarray, dst: np.ndarray, spacing: tuple) -> np.ndarray:
    """Distance in mm from each ``src`` voxel, in C order, to the nearest
    ``dst`` voxel in its own last-axis row, inf where the row holds none:
    an upper bound on ``_surface_distances(src, dst, spacing)``, taken
    from one ``np.searchsorted`` of the flat indices instead of a
    transform."""
    row = src.shape[-1]
    at = np.flatnonzero(src)
    # Sentinels one row beyond either end keep every lookup in range and
    # out of every row.
    targets = np.concatenate(([-row], np.flatnonzero(dst), [src.size + row]))
    right = np.searchsorted(targets, at)
    column = at % row
    to_left = at - targets[right - 1]
    to_right = targets[right] - at
    # A gap of ``row``, longer than any within a row, marks a side whose
    # nearest target lies in another row.
    gap = np.minimum(np.where(to_left <= column, to_left, row),
                     np.where(to_right < row - column, to_right, row))
    distances = gap * spacing[-1]
    distances[gap == row] = np.inf
    return distances


def _percentile95(x: np.ndarray) -> float:
    """``float(np.percentile(x, 95))`` of a non-empty 1-D float64 array, to
    the bit, from one ``np.partition`` at the two order statistics the
    percentile reads."""
    index = (x.size - 1) * 0.95
    lo = math.floor(index)
    return _linear_quantile(x if lo + 1 == x.size else np.partition(x, (lo, lo + 1)), index)


def _linear_quantile(part: np.ndarray, index: float) -> float:
    """numpy's linear-method quantile at the virtual index ``index`` of
    ``part``, a 1-D float64 array sorted at least at ``floor(index)`` and
    the position after it (``np.sort``, or ``np.partition`` at both).

    The arithmetic is numpy's: the virtual index is ``(n - 1) * q``, its
    floor ``lo`` and fraction ``t``, and the interpolation of numpy's
    ``_lerp``, which takes ``a + (b - a) * t`` below ``t = 0.5`` and
    ``b - (b - a) * (1 - t)`` from there; at the last position the value
    itself.  Python floats are IEEE doubles, so each step rounds as
    numpy's does.
    """
    lo = math.floor(index)
    a = float(part[lo])
    if lo + 1 == part.size:
        return a
    b = float(part[lo + 1])
    t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _surface_distances(src: np.ndarray, dst: np.ndarray, spacing: tuple) -> np.ndarray:
    """Distance in mm from each ``src`` voxel, in C order, to the nearest
    ``dst`` voxel: ``distance_transform_edt(~dst, sampling=spacing)[src]``.

    Only the feature transform (each voxel's nearest zero of ``~dst``) runs,
    on the whole array given.  The distances are then taken at the source
    voxels alone, with the transform's own arithmetic (float64 offsets
    scaled per axis, squared, summed over the axes, square-rooted), so they
    are bit-identical to the full transform's.  ``evaluate_case`` passes
    surfaces cut to the case's tumour box, which holds every target voxel.
    """
    # Imported here, not at module level: importing scipy.ndimage takes
    # 0.3-0.4 s and 27 MB of RSS, which every command would pay at start-up
    # although only evaluation needs it.
    from scipy import ndimage

    nearest = ndimage.distance_transform_edt(~dst, sampling=spacing,
                                             return_distances=False, return_indices=True)
    # One flat scan and an unravel: np.nonzero on a 3-D grid took 6x as long.
    at = np.flatnonzero(src)
    offsets = nearest.reshape(src.ndim, -1)[:, at] - np.array(np.unravel_index(at, src.shape))
    offsets = offsets.astype(np.float64)
    offsets *= np.asarray(spacing, dtype=np.float64)[:, None]
    np.multiply(offsets, offsets, out=offsets)
    return np.sqrt(np.add.reduce(offsets, axis=0))


def evaluate_case(pred_labels: LabelMap, gt_labels: LabelMap, spacing=None,
                  case_id: str = "") -> CaseMetrics:
    """Dice and HD95 for each of ET/WT/TC on one case.

    Both maps are cut once to the tumour box, the bounding box of every
    voxel that either map labels WT, and every region is scored on the
    cut.  Every region lies inside WT, so each voxel outside the box is
    background in all six region masks: the cut has the same surfaces
    (out-of-grid counts as outside, as background does), the same target
    voxels for each distance transform, and so the same scores as the
    whole grid.  A case with no tumour voxel cuts to a box of size zero.
    """
    if pred_labels.spatial_shape != gt_labels.spatial_shape:
        raise ValueError(
            f"prediction grid {pred_labels.spatial_shape} does not match "
            f"ground truth {gt_labels.spatial_shape}"
        )
    shape = pred_labels.spatial_shape
    tumour = np.flatnonzero(region_mask(pred_labels, "WT") | region_mask(gt_labels, "WT"))
    box = tuple(slice(int(c.min()), int(c.max()) + 1) if tumour.size else slice(0, 0)
                for c in np.unravel_index(tumour, shape))
    cut = tuple(side.stop - side.start for side in box)
    pred = pred_labels.labels.reshape(shape)[box].ravel()
    gt = gt_labels.labels.reshape(shape)[box].ravel()
    dice = {}
    hausdorff = {}
    for region in REGIONS:
        pm = region_mask(pred, region)
        gm = region_mask(gt, region)
        dice[region] = dice_score(pm, gm)
        hausdorff[region] = hd95(pm, gm, cut, spacing)
    return CaseMetrics(case_id=case_id, dice=dice, hd95=hausdorff)


def _column_stats(values, n_excluded: int) -> MetricStats:
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return MetricStats(None, None, None, None, 0, n_excluded)
    # One sort gives the three order statistics, with the bytes of
    # np.median (the mean of the two middle values when n is even) and of
    # np.percentile(vals, [75, 25]).  On 44 values: 2.2 us against 50 us.
    ordered = np.sort(vals)
    n, half = ordered.size, ordered.size // 2
    median = (float(ordered[half]) if n % 2
              else (float(ordered[half - 1]) + float(ordered[half])) / 2)
    return MetricStats(
        mean=float(vals.mean()),
        std=float(vals.std()),  # population std
        median=median,
        iqr=_linear_quantile(ordered, (n - 1) * 0.75) - _linear_quantile(ordered, (n - 1) * 0.25),
        n_used=n,
        n_excluded=n_excluded,
    )


def aggregate(metrics) -> dict:
    """Mean/std/median/IQR per region and metric across cases, as
    ``{(region, metric): MetricStats}`` in report order: each region of
    REGIONS, dice before hd95.

    Undefined hd95 entries are excluded from the hd95 statistics; the
    exclusion count is kept in the stats row.
    """
    metrics = list(metrics)
    if not metrics:
        raise ValueError("cannot aggregate an empty metric sequence")
    out = {}
    for region in REGIONS:
        dice_vals = [m.dice[region] for m in metrics]
        out[(region, "dice")] = _column_stats(dice_vals, 0)
        hd_vals = [m.hd95[region] for m in metrics if m.hd95[region] is not None]
        n_excluded = len(metrics) - len(hd_vals)
        out[(region, "hd95")] = _column_stats(hd_vals, n_excluded)
    return out


def ensemble_mean_softmax(preds) -> np.ndarray:
    """Mean of [V, L] probability maps, a new float64 C-contiguous [V, L] array.  Cases
    are labelled through model.Ensemble; this stays because perfbench/tracer.py patches
    cli's import of it and the ensemble tests take it as their reference."""
    preds = list(preds)
    if not preds:
        raise ValueError("ensemble needs at least one probability map")
    arrays = [np.asarray(p, dtype=np.float64) for p in preds]
    shape = arrays[0].shape
    for i, arr in enumerate(arrays[1:], start=1):
        if arr.shape != shape:
            raise ValueError(f"probability map {i} has shape {arr.shape}, expected {shape}")
    return np.mean(np.stack(arrays, axis=0), axis=0)


def postprocess_et(labels: LabelMap, min_et_voxels: int = 50) -> LabelMap:
    """Relabel enhancing tumor to non-enhancing when its volume is tiny.

    Predictions with fewer than min_et_voxels label-1 voxels have all of
    them rewritten to label 3; otherwise the map is returned unchanged.
    Tiny predicted ET components are usually false positives, and a wrong
    ET guess on an ET-free case costs a whole Dice point.  A map with fewer
    than 4 classes has no label 3 to rewrite to and is returned unchanged.
    """
    if labels.num_classes < 4:
        return labels
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
    write_csv(path, ["case_id", "region", "dice", "hd95", "hd95_defined"],
              ([m.case_id, region, _fmt(m.dice[region]), _fmt(m.hd95[region]),
                "true" if m.hd95[region] is not None else "false"]
               for m in metrics for region in REGIONS))


AGGREGATE_COLUMNS = ["region", "metric", "mean", "std", "median", "iqr", "n_used", "n_excluded"]


def _aggregate_rows(agg: dict):
    return ([region, metric, _fmt(s.mean), _fmt(s.std), _fmt(s.median), _fmt(s.iqr),
             s.n_used, s.n_excluded] for (region, metric), s in agg.items())


def write_aggregate_csv(agg: dict, path) -> None:
    """One row per entry of aggregate()'s dict, in its order."""
    write_csv(path, AGGREGATE_COLUMNS, _aggregate_rows(agg))


def write_subgroup_csv(by_subgroup: dict, path) -> None:
    """write_aggregate_csv's rows for each ``{subgroup: aggregate()}`` entry,
    in the dict's order, each led by a subgroup column."""
    write_csv(path, ["subgroup", *AGGREGATE_COLUMNS],
              ([name, *row] for name, agg in by_subgroup.items() for row in _aggregate_rows(agg)))


def format_aggregate_table(agg: dict) -> str:
    """Aligned text table with Mean, Std, Median, IQR columns per metric."""
    headers = ["region", "metric", "Mean", "Std", "Median", "IQR", "n", "excluded"]
    rows = []
    for (region, metric), s in agg.items():
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
