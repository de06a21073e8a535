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
``np.percentile(x, 95)``.  Each directed distance set comes from
``_surface_distances``: the float minimum over the target surface, found
by separable passes (Felzenszwalb & Huttenlocher) over the target's
bounding box, one axis at a time, and along the last axis at the source
voxels only.  ``hd95(a, b)`` finds a->b first, and b->a only when an upper
bound on it, each ``b`` surface voxel's distance to the nearest ``a``
surface voxel in its own last-axis row, cannot prove it no larger; the
result is the same float either way.  Callers pass the
prediction as ``a``: its spurious voxels usually make a->b the larger
direction.  Both masks empty gives 0; exactly one empty is
undefined (None) and excluded from aggregation, with the exclusion count
reported.  ``evaluate_case`` cuts both label maps once to the case's
tumour box, the bounding box of the voxels either map labels WT, and
scores every region on that cut: since ET ⊆ TC ⊆ WT, every voxel outside
it is background in each region mask, so the scores are the whole grid's
and each surface distance pass covers the box only.  The aggregate's median
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

# Whether each label lies in WT.  Its last entry is outside WT, so a lookup
# with mode="clip" maps every larger label there too.
_IN_WT = np.isin(np.arange(max(REGIONS["WT"]) + 2), REGIONS["WT"])


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
    # count_nonzero takes a quarter of a bool sum's time on a 576-voxel mask.
    total = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if total == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / total


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
    exactly one is empty.  The a->b distances are found first; b->a only
    when the 95th percentile of its row distances (``_row_distances``)
    does not lie below a->b's.  Pass the prediction as ``a``: its spurious
    voxels usually make a->b the larger direction, and then one search
    decides the value.
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
    at_a, at_b = np.flatnonzero(surf_a), np.flatnonzero(surf_b)
    d_ab = _percentile95(_surface_distances(surf_a, surf_b, spacing, at_a, at_b))
    # Each row distance is at least the exact b->a distance, and the 95th
    # percentile is monotone, so a row-bound percentile below d_ab proves
    # d_ba <= d_ab.  The margin covers the few ulps by which a distance's
    # sum of squares may differ from the row product; an inf or NaN
    # percentile never skips.
    if _percentile95(_row_distances(surf_b, surf_a, spacing, at_b, at_a)) < d_ab * (1 - 1e-9):
        return d_ab
    d_ba = _percentile95(_surface_distances(surf_b, surf_a, spacing, at_b, at_a))
    return max(d_ab, d_ba)


def _row_distances(src: np.ndarray, dst: np.ndarray, spacing: tuple,
                   at: np.ndarray | None = None,
                   targets: np.ndarray | None = None) -> np.ndarray:
    """Distance in mm from each ``src`` voxel, in C order, to the nearest
    ``dst`` voxel in its own last-axis row, inf where the row holds none:
    an upper bound on ``_surface_distances(src, dst, spacing)``, taken
    from one ``np.searchsorted`` of the flat indices ``at`` and
    ``targets`` (``np.flatnonzero`` of ``src`` and ``dst`` when not given)."""
    row = src.shape[-1]
    if at is None:
        at = np.flatnonzero(src)
    if targets is None:
        targets = np.flatnonzero(dst)
    # Sentinels one row beyond either end keep every lookup in range and
    # out of every row.
    targets = np.concatenate(([-row], targets, [src.size + row]))
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


def _surface_distances(src: np.ndarray, dst: np.ndarray, spacing: tuple,
                       at: np.ndarray | None = None,
                       targets: np.ndarray | None = None) -> np.ndarray:
    """Distance in mm from each ``src`` voxel ``p``, in C order, to the
    nearest ``dst`` voxel ``q``: the float minimum over ``dst`` of
    ``sqrt(((o0*s0)**2 + (o1*s1)**2) + ...)``, where ``o_k = float(q_k - p_k)``
    and ``s_k = spacing[k]``, summed over the axes in order.

    ``at`` and ``targets`` are ``np.flatnonzero(src)`` and
    ``np.flatnonzero(dst)``, taken here when not given.  The minimum is
    separable (Felzenszwalb & Huttenlocher, Theory of Computing 8, 2012):
    float addition, multiplication and the square root are monotone, so
    minimising over one axis of the targets at a time, in the order the sum
    adds them, gives the same float as the minimum over all targets.  The
    passes run over the bounding box of ``dst``:

    - axis 0: each voxel's nearest target in its own pillar (the targets
      sharing its other coordinates), from a running max and min of the
      target rows;
    - each middle axis: a min-plus of ``(offset*spacing)**2`` from the
      box's rows onto the whole axis, one shift at a time;
    - the last axis: taken at the ``src`` voxels only, over the box's
      columns, then square-rooted.

    A rank-1 grid has the last pass only.  The result is
    ``scipy.ndimage.distance_transform_edt(~dst, sampling=spacing)[src]``
    except where that transform's nearest target is not the float minimum:
    at near-ties at a non-integer spacing (5 of 23,864 random 2-D and 3-D
    checks at isotropic spacings of 0.3 to 1.3 mm) this value is 1 ulp
    smaller.  At 1 mm spacing every value is exact.
    """
    if at is None:
        at = np.flatnonzero(src)
    if targets is None:
        targets = np.flatnonzero(dst)
    # The box of dst: along axis 0 from its first and last flat index, which
    # are sorted, along the other axes from the targets' coordinates.
    shape = dst.shape
    stride = math.prod(shape[1:])
    starts, stops = [int(targets[0]) // stride], [int(targets[-1]) // stride + 1]
    for coords in np.unravel_index(targets, shape)[1:]:
        starts.append(int(coords.min()))
        stops.append(int(coords.max()) + 1)
    if dst.ndim == 1:
        squares = np.where(dst[starts[0]:stops[0]], 0.0, np.inf)
    else:
        squares = _pillar_squares(dst[(slice(None), *map(slice, starts[1:], stops[1:]))],
                                  spacing[0])
        for axis in range(1, dst.ndim - 1):
            squares = _min_plus(squares, axis, starts[axis], stops[axis], shape[axis],
                                spacing[axis])
    # The last pass, at the sources only: a [columns, sources] block of the
    # sums so far plus each column's square, reduced over the columns.
    rows, columns = np.divmod(at, shape[-1])
    block = np.take(squares.reshape(-1, squares.shape[-1]).T, rows, axis=1)
    offsets = np.subtract(columns.astype(np.float64),
                          np.arange(starts[-1], stops[-1], dtype=np.float64)[:, None])
    offsets *= spacing[-1]
    np.multiply(offsets, offsets, out=offsets)
    block += offsets
    return np.sqrt(np.minimum.reduce(block, axis=0))


def _pillar_squares(cut: np.ndarray, step: float) -> np.ndarray:
    """``(o*step)**2`` for each voxel's offset ``o`` along axis 0 to the
    nearest ``cut`` voxel in its pillar, inf in a pillar with none."""
    rows = np.arange(cut.shape[0], dtype=np.float64).reshape((-1,) + (1,) * (cut.ndim - 1))
    before = np.maximum.accumulate(np.where(cut, rows, -np.inf), axis=0)
    after = np.minimum.accumulate(np.where(cut[::-1], rows[::-1], np.inf), axis=0)[::-1]
    np.subtract(rows, before, out=before)
    np.subtract(after, rows, out=after)
    squares = np.minimum(before, after, out=before)
    squares *= step
    return np.multiply(squares, squares, out=squares)


def _min_plus(squares: np.ndarray, axis: int, start: int, stop: int, length: int,
              step: float) -> np.ndarray:
    """The minimum over ``axis`` of ``squares + (offset*step)**2``, for every
    row of that axis of ``length`` rows; ``squares`` holds its rows
    ``start:stop``.  The axis is moved to the front, so that each shift
    adds and compares contiguous slabs."""
    rows = np.ascontiguousarray(np.moveaxis(squares, axis, 0))
    out = np.full((length, *rows.shape[1:]), np.inf)
    scratch = np.empty_like(rows)
    for shift in range(1 - stop, length - start):
        first, last = max(start, -shift), min(stop, length - shift)
        offset = shift * step
        moved = np.add(rows[first - start:last - start], offset * offset,
                       out=scratch[:last - first])
        dest = out[first + shift:last + shift]
        np.minimum(dest, moved, out=dest)
    return np.moveaxis(out, 0, axis)


def evaluate_case(pred_labels: LabelMap, gt_labels: LabelMap, spacing=None,
                  case_id: str = "") -> CaseMetrics:
    """Dice and HD95 for each of ET/WT/TC on one case.

    Both maps are cut once to the tumour box, the bounding box of every
    voxel that either map labels WT, and every region is scored on the
    cut.  Every region lies inside WT, so each voxel outside the box is
    background in all six region masks: the cut has the same surfaces
    (out-of-grid counts as outside, as background does), the same target
    voxels for each surface distance, and so the same scores as the
    whole grid.  A case with no tumour voxel cuts to a box of size zero.
    """
    if pred_labels.spatial_shape != gt_labels.spatial_shape:
        raise ValueError(
            f"prediction grid {pred_labels.spatial_shape} does not match "
            f"ground truth {gt_labels.spatial_shape}"
        )
    shape = pred_labels.spatial_shape
    # One table lookup per map: region_mask's three comparisons and two ors
    # per map took 8.4 us against 5.7 us for a 576-voxel case's two masks.
    tumour = np.flatnonzero(np.take(_IN_WT, pred_labels.labels, mode="clip")
                            | np.take(_IN_WT, gt_labels.labels, mode="clip"))
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
