import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from segopt.metrics import (
    REGIONS,
    CaseMetrics,
    aggregate,
    boundary_mask,
    dice_score,
    ensemble_mean_softmax,
    evaluate_case,
    format_aggregate_table,
    hd95,
    postprocess_et,
    region_mask,
    write_aggregate_csv,
    write_case_csv,
)
from segopt import metrics
from segopt.metrics import (
    _column_stats,
    _percentile95,
    _row_distances,
    _surface_distances,
)

from conftest import bounded_probs, dyadic_probs, label_map, oracle_boundary, oracle_hd95

ET, WT, TC = REGIONS


class TestRegions:
    def test_report_order_and_composition(self):
        assert list(REGIONS) == ["ET", "WT", "TC"]
        assert REGIONS[ET] == (1,)
        assert REGIONS[WT] == (1, 2, 3)
        assert REGIONS[TC] == (1, 3)

    def test_masks_on_one_voxel_per_class(self):
        labels = label_map([0, 1, 2, 3])
        assert region_mask(labels, WT).tolist() == [False, True, True, True]
        assert region_mask(labels, TC).tolist() == [False, True, False, True]
        assert region_mask(labels, ET).tolist() == [False, True, False, False]

    def test_masks_of_raw_labels_match_isin(self):
        labels = np.random.default_rng(0).integers(-1, 6, size=(5, 7))
        for region, members in REGIONS.items():
            mask = region_mask(labels, region)
            assert mask.dtype == bool
            assert mask.tolist() == np.isin(labels.reshape(-1), members).tolist()

    def test_all_background_gives_empty_masks(self):
        labels = label_map([0, 0, 0])
        for region in REGIONS:
            assert not region_mask(labels, region).any()

    def test_nesting_holds_for_random_maps(self, rng):
        for _ in range(50):
            labels = label_map(rng.integers(0, 4, size=60))
            et = region_mask(labels, ET)
            tc = region_mask(labels, TC)
            wt = region_mask(labels, WT)
            assert (et <= tc).all()
            assert (tc <= wt).all()


class TestDice:
    def test_identical_nonempty(self):
        m = np.array([0, 1, 1, 0], dtype=bool)
        assert dice_score(m, m) == 1.0

    def test_disjoint(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([0, 0, 1, 1], dtype=bool)
        assert dice_score(a, b) == 0.0

    def test_half_overlap(self):
        a = np.array([1, 1, 0], dtype=bool)
        b = np.array([0, 1, 1], dtype=bool)
        assert dice_score(a, b) == 0.5

    def test_both_empty_scores_one(self):
        z = np.zeros(5, dtype=bool)
        assert dice_score(z, z) == 1.0

    def test_symmetry(self, rng):
        for _ in range(30):
            a = rng.uniform(size=40) < 0.4
            b = rng.uniform(size=40) < 0.4
            assert dice_score(a, b) == dice_score(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            dice_score(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            dice_score(np.array([0, 2]), np.array([0, 1]))


class TestBoundary:
    def test_solid_block_keeps_shell_only(self):
        grid = np.zeros((5, 5), dtype=bool)
        grid[1:4, 1:4] = True
        surf = boundary_mask(grid)
        assert surf[1, 1] and surf[1, 2]
        assert not surf[2, 2]  # interior voxel has all four neighbors inside

    def test_grid_edge_counts_as_outside(self):
        grid = np.ones((3, 3), dtype=bool)
        surf = boundary_mask(grid)
        assert surf.sum() == 8 and not surf[1, 1]

    def test_single_voxel_is_its_own_boundary(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[2, 1] = True
        assert (boundary_mask(grid) == grid).all()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 9), (9, 2), (6, 11), (1, 4, 5),
                                       (3, 2, 4), (5, 4, 1), (2, 2, 2), (7, 6, 5)])
    def test_equals_the_voxel_by_voxel_oracle(self, rng, shape):
        for fill in (0.0, 0.3, 0.7, 0.95, 1.0):
            grid = rng.random(shape) < fill
            got = boundary_mask(grid)
            assert got.dtype == bool and got.shape == shape
            assert (got == oracle_boundary(grid)).all()


class TestHd95:
    def test_identical_masks(self, rng):
        m = (rng.uniform(size=27) < 0.3)
        if not m.any():
            m[0] = True
        assert hd95(m, m, (3, 3, 3)) == 0.0

    def test_two_voxels_three_apart(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[1] = True
        b[4] = True
        assert hd95(a, b, (8,)) == 3.0

    def test_both_empty(self):
        z = np.zeros(9, dtype=bool)
        assert hd95(z, z, (3, 3)) == 0.0

    def test_one_empty_is_undefined(self):
        a = np.zeros(9, dtype=bool)
        b = a.copy()
        b[4] = True
        assert hd95(a, b, (3, 3)) is None
        assert hd95(b, a, (3, 3)) is None

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.uniform(size=64) < 0.3
            b = rng.uniform(size=64) < 0.3
            if not a.any() or not b.any():
                continue
            assert hd95(a, b, (8, 8)) == hd95(b, a, (8, 8))

    def test_matches_brute_force_oracle(self, rng):
        """Randomized agreement with an oracle that enumerates boundary
        voxels explicitly and sorts all pairwise distances."""
        for trial in range(150):
            shape = (8, 8, 8) if trial % 2 == 0 else (8, 8)
            density = rng.uniform(0.05, 0.6)
            a = rng.uniform(size=shape) < density
            b = rng.uniform(size=shape) < density
            got = hd95(a, b, shape)
            want = oracle_hd95(a, b, shape)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_anisotropic_spacing_matches_oracle(self, rng):
        shape = (6, 6)
        spacing = (1.0, 2.5)
        for _ in range(40):
            a = rng.uniform(size=shape) < 0.4
            b = rng.uniform(size=shape) < 0.4
            got = hd95(a, b, shape, spacing)
            want = oracle_hd95(a, b, shape, spacing)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_spacing_scales_distances(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[0] = True
        b[2] = True
        assert hd95(a, b, (8,), (2.0,)) == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="do not match grid"):
            hd95(np.zeros(8, dtype=bool), np.zeros(8, dtype=bool), (3, 3))

    def test_bad_spacing_rank(self):
        m = np.ones(9, dtype=bool)
        with pytest.raises(ValueError, match="rank"):
            hd95(m, m, (3, 3), (1.0,))

    def test_nonpositive_spacing(self):
        m = np.ones(9, dtype=bool)
        with pytest.raises(ValueError, match="positive"):
            hd95(m, m, (3, 3), (1.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spacing(self, bad):
        m = np.zeros(9, dtype=bool)
        m[4] = True
        with pytest.raises(ValueError, match="finite and positive"):
            hd95(m, ~m, (3, 3), (1.0, bad))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_surface_distances_equal_the_full_transform_bit_for_bit(self, rng, ndim):
        from scipy import ndimage

        for _ in range(100):
            shape = tuple(int(s) for s in rng.integers(3, 13, size=ndim))
            src = rng.uniform(size=shape) < rng.uniform(0.05, 0.6)
            dst = rng.uniform(size=shape) < rng.uniform(0.02, 0.6)
            dst.flat[int(rng.integers(dst.size))] = True
            spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=ndim))
            want = ndimage.distance_transform_edt(~dst, sampling=spacing)[src]
            got = _surface_distances(src, dst, spacing)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestPercentile95:
    """_percentile95 is np.percentile(x, 95) to the bit."""

    def check(self, x):
        want = np.percentile(x, 95)
        got = _percentile95(x.copy())
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), x.size

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 40, 41])
    def test_small_sizes(self, rng, n):
        for _ in range(50):
            self.check(rng.random(n))
            self.check(rng.integers(0, 3, n).astype(np.float64))

    @pytest.mark.parametrize("spacing", [1.0, 0.49, 1.69])
    def test_square_roots_of_integer_sums(self, rng, spacing):
        # Distances as _surface_distances makes them: sqrt of summed squared
        # offsets scaled by the spacing, with many repeated values.
        for n in [*range(1, 60), *rng.integers(60, 3000, 60).tolist()]:
            offsets = rng.integers(0, 9, (3, n)).astype(np.float64) * spacing
            self.check(np.sqrt(np.add.reduce(offsets * offsets, axis=0)))

    def test_repeated_values(self, rng):
        for n in rng.integers(2, 3000, 40).tolist():
            self.check(np.full(n, 1.5))
            self.check(np.repeat(rng.random(3), n))

    def test_leaves_its_argument_unchanged(self, rng):
        x = rng.random(100)
        before = x.copy()
        _percentile95(x)
        assert (x == before).all()


class TestColumnStats:
    """The aggregate's median and IQR are np.median and the difference of
    np.percentile(vals, [75, 25]), to the byte."""

    def check(self, vals):
        stats = _column_stats(list(vals), 0)
        q75, q25 = np.percentile(vals, [75, 25])
        for got, want in ((stats.median, float(np.median(vals))), (stats.iqr, float(q75 - q25))):
            assert type(got) is float
            assert got.hex() == want.hex(), vals.size

    @pytest.mark.parametrize("n", range(1, 61))
    def test_columns_of_1_to_60_values(self, rng, n):
        for _ in range(10):
            self.check(rng.random(n))
            # Ties: few distinct values, as Dice fractions and hd95 distances have.
            self.check(rng.integers(0, 4, n) / 3.0)
            self.check(np.sqrt(rng.integers(0, 6, n).astype(np.float64)))

    @pytest.mark.parametrize("n", [1, 2, 3, 44, 60])
    def test_all_equal_column(self, n):
        for value in (0.0, 1.0, 0.1, 373.13):
            self.check(np.full(n, value))
            assert _column_stats([value] * n, 0).iqr == 0.0


def transformed_sizes(monkeypatch):
    """Record the voxel count of every distance transform the metrics run."""
    from scipy import ndimage

    sizes = []
    original = ndimage.distance_transform_edt

    def spy(input, *args, **kwargs):
        sizes.append(input.size)
        return original(input, *args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", spy)
    return sizes


def full_transform(src, dst, spacing):
    from scipy import ndimage

    return ndimage.distance_transform_edt(~dst, sampling=spacing)[src]


def oracle_row_distances(src, dst, spacing):
    """Nearest ``dst`` voxel in each ``src`` voxel's own last-axis row, in
    mm, by scanning the row; inf when the row holds none."""
    out = []
    for index in np.argwhere(src):
        row = np.flatnonzero(dst[tuple(index[:-1])])
        out.append(np.abs(row - index[-1]).min() * spacing[-1] if row.size else np.inf)
    return np.array(out, dtype=np.float64)


class TestHd95RowBound:
    """hd95 transforms b->a only when the b->a row distances cannot prove
    that direction no larger than a->b."""

    SPACINGS = ["unit", "0.7", "anisotropic"]

    def spacing(self, kind, ndim, rng):
        if kind == "unit":
            return (1.0,) * ndim
        if kind == "0.7":
            return (0.7,) * ndim
        return tuple(float(s) for s in rng.uniform(0.3, 3.0, size=ndim))

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_row_distances_match_the_row_scan_oracle(self, rng, ndim):
        for _ in range(60):
            shape = tuple(int(s) for s in rng.integers(1, 12, size=ndim))
            src = rng.uniform(size=shape) < rng.uniform(0.05, 0.8)
            dst = rng.uniform(size=shape) < rng.uniform(0.0, 0.5)
            spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=ndim))
            got = _row_distances(src, dst, spacing)
            want = oracle_row_distances(src, dst, spacing)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", SPACINGS)
    def test_3d_speckled_prediction_is_symmetric_bit_for_bit(self, rng, monkeypatch, kind):
        calls = []
        original = metrics._surface_distances

        def spy(src, dst, spacing):
            calls.append(src)
            return original(src, dst, spacing)

        monkeypatch.setattr(metrics, "_surface_distances", spy)
        z, y, x = np.ogrid[:16, :16, :14]
        truth = (z - 7) ** 2 + (y - 8) ** 2 + (x - 6) ** 2 <= 20
        for _ in range(5):
            pred = truth | (rng.uniform(size=truth.shape) < 0.03)
            spacing = self.spacing(kind, 3, rng)
            surf_p, surf_t = boundary_mask(pred), boundary_mask(truth)
            want = max(_percentile95(full_transform(surf_p, surf_t, spacing)),
                       _percentile95(full_transform(surf_t, surf_p, spacing)))
            del calls[:]
            assert hd95(pred, truth, truth.shape, spacing) == want
            assert len(calls) == 1
            del calls[:]
            assert hd95(truth, pred, truth.shape, spacing) == want
            assert len(calls) == 2

    def test_speckled_prediction_takes_one_transform(self, monkeypatch):
        sizes = transformed_sizes(monkeypatch)
        truth = np.zeros((12, 12), dtype=bool)
        truth[3:8, 3:8] = True
        pred = truth.copy()
        pred[0, 11] = pred[11, 0] = pred[11, 11] = True
        assert hd95(pred, truth, truth.shape) == oracle_hd95(pred, truth, truth.shape)
        assert sizes == [truth.size]

    def test_missed_far_lobe_takes_both_transforms(self, monkeypatch):
        truth = np.zeros((12, 12), dtype=bool)
        truth[1:4, 1:4] = truth[8:11, 7:11] = True
        pred = np.zeros_like(truth)
        pred[1:4, 1:5] = True
        # pred->truth is not zero, but truth->pred is larger.
        d_pt = _percentile95(full_transform(boundary_mask(pred), boundary_mask(truth), (1.0, 1.0)))
        sizes = transformed_sizes(monkeypatch)
        assert 0 < d_pt < hd95(pred, truth, truth.shape) == oracle_hd95(pred, truth, truth.shape)
        assert sizes == [truth.size, truth.size]

    def test_tie_between_bound_and_a_to_b_takes_both_transforms(self, monkeypatch):
        sizes = transformed_sizes(monkeypatch)
        a = np.zeros((3, 8), dtype=bool)
        b = np.zeros_like(a)
        a[1, 1] = b[1, 4] = True
        assert _percentile95(_row_distances(b, a, (1.0, 1.0))) == 3.0
        assert hd95(a, b, a.shape) == 3.0
        assert sizes == [a.size, a.size]


def whole_grid_scores(pred, gt, spacing):
    """Each region's (dice, hd95) on the uncropped grid: hd95 itself, and
    the larger directed percentile of the two full transforms."""
    shape = pred.spatial_shape
    out = {}
    for region in REGIONS:
        pm, gm = region_mask(pred, region), region_mask(gt, region)
        got = hd95(pm, gm, shape, spacing)
        if pm.any() and gm.any():
            surf_p = boundary_mask(pm.reshape(shape))
            surf_g = boundary_mask(gm.reshape(shape))
            want = max(_percentile95(full_transform(surf_p, surf_g, spacing)),
                       _percentile95(full_transform(surf_g, surf_p, spacing)))
            assert got.hex() == want.hex()
        out[region] = (dice_score(pm, gm), got)
    return out


def assert_case_matches_the_whole_grid(pred, gt, spacing):
    got = evaluate_case(pred, gt, spacing)
    for region, (dice, distance) in whole_grid_scores(pred, gt, spacing).items():
        assert got.dice[region].hex() == dice.hex()
        if distance is None:
            assert got.hd95[region] is None
        else:
            assert got.hd95[region].hex() == distance.hex()


class TestTumourBox:
    """evaluate_case scores each case on the bounding box of both maps'
    whole tumour, with the bytes of the whole grid."""

    SPACINGS = TestHd95RowBound.SPACINGS
    spacing = TestHd95RowBound.spacing

    def random_map(self, rng, shape, faces=False):
        """A block of random labels 0-3 somewhere in the grid, plus a few
        stray tumour voxels; with ``faces`` the block spans from one face
        of the grid to the opposite one on a random axis."""
        grid = np.zeros(shape, dtype=np.int64)
        start = [int(rng.integers(0, n)) for n in shape]
        stop = [int(rng.integers(a + 1, n + 1)) for a, n in zip(start, shape)]
        if faces:
            axis = int(rng.integers(len(shape)))
            start[axis], stop[axis] = 0, shape[axis]
        block = tuple(slice(a, b) for a, b in zip(start, stop))
        grid[block] = rng.integers(0, 4, size=grid[block].shape)
        for _ in range(int(rng.integers(0, 3))):
            grid[tuple(int(rng.integers(n)) for n in shape)] = int(rng.integers(1, 4))
        return label_map(grid, shape=shape)

    @pytest.mark.parametrize("kind", SPACINGS)
    @pytest.mark.parametrize("grids", ["2d-small", "2d-large", "3d"])
    def test_random_cases_equal_the_whole_grid_bit_for_bit(self, rng, grids, kind):
        low, high, ndim = {"2d-small": (6, 31, 2), "2d-large": (34, 48, 2),
                           "3d": (6, 15, 3)}[grids]
        cropped = 0
        for trial in range(30):
            shape = tuple(int(s) for s in rng.integers(low, high, size=ndim))
            if ndim == 2:
                assert (math.prod(shape) < 1024) == (grids == "2d-small")
            pred = self.random_map(rng, shape, faces=trial % 3 == 0)
            gt = self.random_map(rng, shape, faces=trial % 3 == 1)
            assert_case_matches_the_whole_grid(pred, gt, self.spacing(kind, ndim, rng))
            corners = np.argwhere(((pred.labels > 0) | (gt.labels > 0)).reshape(shape))
            cropped += (corners.max(axis=0) - corners.min(axis=0) + 1 < shape).any()
        assert cropped > 10

    @pytest.mark.parametrize("kind", SPACINGS)
    def test_tumour_filling_the_grid_corner_to_corner(self, rng, kind):
        gt = np.zeros((10, 12), dtype=np.int64)
        gt[0, 0] = gt[9, 11] = 1
        gt[3:7, 4:9] = 3
        pred = np.zeros_like(gt)
        pred[0, :] = 2
        pred[1:9, 5] = 1
        assert_case_matches_the_whole_grid(label_map(pred, shape=gt.shape),
                                           label_map(gt, shape=gt.shape),
                                           self.spacing(kind, 2, rng))

    @pytest.mark.parametrize("kind", SPACINGS)
    def test_nearer_target_outside_the_source_box(self, rng, kind):
        gt = np.zeros((12, 12, 12), dtype=np.int64)
        gt[2:9, 6, 6] = 2
        pred = np.zeros_like(gt)
        # A box around gt's line grown by one voxel holds only the target 7
        # voxels from its far end; the one 3 voxels away lies outside it.
        pred[1, 6, 6] = pred[8, 6, 9] = 1
        assert_case_matches_the_whole_grid(label_map(pred, shape=gt.shape),
                                           label_map(gt, shape=gt.shape),
                                           self.spacing(kind, 3, rng))

    @pytest.mark.parametrize("kind", SPACINGS)
    def test_source_box_holding_no_target(self, rng, kind):
        gt = np.zeros((40, 40), dtype=np.int64)
        gt[2:6, 3:8] = 3
        pred = np.zeros_like(gt)
        pred[30, 35] = pred[38, 2] = 3
        assert_case_matches_the_whole_grid(label_map(pred, shape=gt.shape),
                                           label_map(gt, shape=gt.shape),
                                           self.spacing(kind, 2, rng))

    @pytest.mark.parametrize("shape", [(4,), (9, 7), (5, 6, 4)])
    def test_no_tumour_in_either_map(self, shape):
        empty = label_map(np.zeros(math.prod(shape), dtype=np.int64), shape=shape)
        out = evaluate_case(empty, empty, (0.7,) * len(shape))
        assert out.dice == {region: 1.0 for region in REGIONS}
        assert out.hd95 == {region: 0.0 for region in REGIONS}

    def test_tumour_in_only_one_map(self):
        tumour = np.zeros((8, 8, 8), dtype=np.int64)
        tumour[2:5, 3:6, 1:4] = 1
        tumour[3, 4, 2] = 3
        empty = label_map(np.zeros_like(tumour), shape=tumour.shape)
        tumour = label_map(tumour, shape=tumour.shape)
        for pred, gt in ((tumour, empty), (empty, tumour)):
            out = evaluate_case(pred, gt)
            assert out.dice == {region: 0.0 for region in REGIONS}
            assert out.hd95 == {region: None for region in REGIONS}

    def test_all_background_case_refuses_a_wrong_rank_spacing(self):
        empty = label_map(np.zeros(27, dtype=np.int64), shape=(3, 3, 3))
        with pytest.raises(ValueError, match="does not match grid rank"):
            evaluate_case(empty, empty, (1.0, 1.0))

    def test_every_transform_of_a_32_cube_covers_the_tumour_box(self, monkeypatch):
        z, y, x = np.ogrid[:32, :32, :32]
        gt = np.where((z - 12) ** 2 + (y - 14) ** 2 + (x - 16) ** 2 <= 36, 2, 0)
        gt[(z - 12) ** 2 + (y - 14) ** 2 + (x - 16) ** 2 <= 9] = 1
        pred = np.where((z - 13) ** 2 + (y - 14) ** 2 + (x - 17) ** 2 <= 30, 3, 0)
        pred[(z - 13) ** 2 + (y - 14) ** 2 + (x - 18) ** 2 <= 6] = 1
        corners = np.argwhere((gt > 0) | (pred > 0))
        box = math.prod(corners.max(axis=0) - corners.min(axis=0) + 1)
        pred, gt = label_map(pred, shape=gt.shape), label_map(gt, shape=gt.shape)
        want = whole_grid_scores(pred, gt, None)
        sizes = transformed_sizes(monkeypatch)
        out = evaluate_case(pred, gt)
        assert sizes and set(sizes) == {box} and box < 32 ** 3
        for region, (dice, distance) in want.items():
            assert out.dice[region] == dice and out.hd95[region] == distance


class TestEvaluateCase:
    def test_perfect_prediction(self, rng):
        labels = rng.integers(0, 4, size=64)
        lm = label_map(labels, shape=(8, 8))
        out = evaluate_case(lm, lm, case_id="c0")
        for region in ("ET", "WT", "TC"):
            assert out.dice[region] == 1.0
            assert out.hd95[region] == 0.0

    def test_background_prediction_on_tumor_case(self):
        gt = label_map([0, 1, 2, 3], shape=(4,))
        pred = label_map([0, 0, 0, 0], shape=(4,))
        out = evaluate_case(pred, gt)
        assert out.dice["ET"] == 0.0
        assert out.hd95["ET"] is None

    def test_absent_region_in_both_scores_one(self):
        # neither map contains label 1, so ET is empty on both sides
        gt = label_map([0, 2, 3, 0], shape=(4,))
        pred = label_map([0, 2, 0, 3], shape=(4,))
        out = evaluate_case(pred, gt)
        assert out.dice["ET"] == 1.0
        assert out.hd95["ET"] == 0.0

    def test_grid_mismatch(self):
        a = label_map([0, 1, 2, 3], shape=(4,))
        b = label_map([0, 1, 2, 3], shape=(2, 2))
        with pytest.raises(ValueError, match="does not match"):
            evaluate_case(a, b)


def case(case_id, dice_vals, hd_vals):
    names = ("ET", "WT", "TC")
    return CaseMetrics(case_id, dict(zip(names, dice_vals)), dict(zip(names, hd_vals)))


class TestAggregate:
    def test_single_case(self):
        agg = aggregate([case("a", (0.7, 0.8, 0.9), (1.0, 2.0, 3.0))])
        s = agg["WT", "dice"]
        assert s.mean == s.median == 0.8
        assert s.std == 0.0
        assert s.iqr == 0.0
        assert s.n_used == 1 and s.n_excluded == 0

    def test_two_case_mean_and_median(self):
        agg = aggregate([
            case("a", (0.8, 0.8, 0.8), (1.0, 1.0, 1.0)),
            case("b", (0.9, 0.9, 0.9), (2.0, 2.0, 2.0)),
        ])
        s = agg["ET", "dice"]
        assert_allclose(s.mean, 0.85, atol=1e-15)
        assert_allclose(s.median, 0.85, atol=1e-15)

    def test_iqr_linear_interpolation(self):
        cases = [case(str(i), (0.5,) * 3, (float(v),) * 3)
                 for i, v in enumerate([1, 2, 3, 4])]
        s = aggregate(cases)["WT", "hd95"]
        assert_allclose(s.iqr, 1.5, atol=1e-12)

    def test_undefined_hd95_excluded_with_count(self):
        agg = aggregate([
            case("a", (0.8,) * 3, (4.0, None, 1.0)),
            case("b", (0.6,) * 3, (2.0, None, 3.0)),
            case("c", (0.7,) * 3, (None, None, 5.0)),
        ])
        s_et = agg["ET", "hd95"]
        assert s_et.n_used == 2 and s_et.n_excluded == 1
        assert_allclose(s_et.mean, 3.0, atol=1e-15)
        s_wt = agg["WT", "hd95"]
        assert s_wt.n_used == 0 and s_wt.n_excluded == 3
        assert s_wt.mean is None and s_wt.median is None
        # dice columns never exclude
        assert agg["WT", "dice"].n_used == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])


class TestEnsemble:
    def test_identical_maps_mean_is_input(self, rng):
        # with 2 or 4 addends the pairwise sum is p*M exactly, so the
        # mean reproduces the input bit for bit
        p = bounded_probs(rng, 30, 4)
        for m_count in (1, 2, 4):
            out = ensemble_mean_softmax([p] * m_count)
            assert (out == p).all()

    def test_three_identical_maps_within_ulp(self, rng):
        p = bounded_probs(rng, 30, 4)
        out = ensemble_mean_softmax([p, p, p])
        assert np.abs(out - p).max() < 1e-15

    def test_midpoint(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        out = ensemble_mean_softmax([a, b])
        assert (out == np.array([[0.5, 0.5]])).all()

    def test_pair_order_invariance(self, rng):
        a = bounded_probs(rng, 12, 4)
        b = bounded_probs(rng, 12, 4)
        assert (ensemble_mean_softmax([a, b]) == ensemble_mean_softmax([b, a])).all()

    def test_order_invariance_three_maps(self, rng):
        maps = [bounded_probs(rng, 12, 4) for _ in range(3)]
        base = ensemble_mean_softmax(maps)
        shuffled = ensemble_mean_softmax(maps[::-1])
        assert np.abs(base - shuffled).max() < 1e-15

    def test_rows_stay_normalized(self, rng):
        maps = [bounded_probs(rng, 25, 4) for _ in range(5)]
        out = ensemble_mean_softmax(maps)  # nothing rescales the mean's rows
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9

    def test_mean_is_a_new_plain_contiguous_float64_array(self, rng):
        # Members of any dtype and layout, e.g. the float32 transpose of a [L, V] block.
        a = bounded_probs(rng, 7, 4)
        b = np.ascontiguousarray(bounded_probs(rng, 7, 4).T, dtype=np.float32).T
        out = ensemble_mean_softmax([a, b])
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == (7, 4) and out.flags.c_contiguous
        assert not np.shares_memory(out, a)

    def test_shape_mismatch(self, rng):
        a = bounded_probs(rng, 5, 4)
        b = bounded_probs(rng, 6, 4)
        with pytest.raises(ValueError, match="shape"):
            ensemble_mean_softmax([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ensemble_mean_softmax([])


class TestPostprocess:
    def make_labels(self, n_et, filler=0, total=200):
        labels = np.full(total, filler, dtype=np.int64)
        labels[:n_et] = 1
        return label_map(labels)

    def test_forty_nine_voxels_relabeled(self):
        out = postprocess_et(self.make_labels(49))
        assert (out.labels == 1).sum() == 0
        assert (out.labels == 3).sum() == 49

    def test_fifty_voxels_untouched(self):
        before = self.make_labels(50)
        out = postprocess_et(before)
        assert (out.labels == before.labels).all()

    def test_zero_voxels_untouched(self):
        before = self.make_labels(0, filler=2)
        out = postprocess_et(before)
        assert (out.labels == before.labels).all()

    def test_wt_and_tc_membership_preserved(self, rng):
        labels = label_map(rng.integers(0, 4, size=40))  # few 1s, will relabel
        out = postprocess_et(labels)
        for region in (WT, TC):
            assert (region_mask(out, region) == region_mask(labels, region)).all()

    def test_threshold_parameter(self):
        before = self.make_labels(10)
        assert (postprocess_et(before, min_et_voxels=10).labels == before.labels).all()
        assert (postprocess_et(before, min_et_voxels=11).labels == 3).sum() == 10

    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("n_et", [1, 25, 49])
    def test_maps_without_class_three_come_back_unchanged(self, num_classes, n_et):
        labels = np.zeros(200, dtype=np.int64)
        labels[:n_et] = 1
        if num_classes == 3:
            labels[-10:] = 2
        before = label_map(labels, num_classes=num_classes)
        assert postprocess_et(before) is before


class TestReports:
    def make_agg(self):
        return aggregate([
            case("a", (0.8, 0.9, 0.7), (1.0, 2.0, None)),
            case("b", (0.6, 0.8, 0.5), (3.0, 4.0, 2.0)),
        ])

    def test_case_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_case_csv([case("x", (0.5, 1.0, 0.25), (1.5, None, 0.0))], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "case_id,region,dice,hd95,hd95_defined"
        assert lines[1] == "x,ET,0.5,1.5,true"
        assert lines[2] == "x,WT,1.0,,false"
        assert lines[3] == "x,TC,0.25,0.0,true"

    def test_aggregate_csv(self, tmp_path):
        path = tmp_path / "agg.csv"
        write_aggregate_csv(self.make_agg(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "region,metric,mean,std,median,iqr,n_used,n_excluded"
        assert len(lines) == 7  # 3 regions x 2 metrics
        tc_hd = [l for l in lines if l.startswith("TC,hd95")][0]
        assert tc_hd.endswith(",1,1")  # one defined, one excluded

    def test_table_layout(self):
        text = format_aggregate_table(self.make_agg())
        lines = text.splitlines()
        assert lines[0].split() == [
            "region", "metric", "Mean", "Std", "Median", "IQR", "n", "excluded"]
        assert len(lines) == 7
        assert lines[1].startswith("ET")

    def test_table_marks_undefined_with_dash(self):
        agg = aggregate([case("a", (0.5,) * 3, (None, None, None))])
        text = format_aggregate_table(agg)
        et_hd_line = [l for l in text.splitlines() if l.startswith("ET")
                      and "hd95" in l][0]
        assert "-" in et_hd_line
