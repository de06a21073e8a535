import numpy as np
import pytest
from numpy.testing import assert_allclose

from segopt.losses import ProbMap
from segopt.metrics import (
    REGIONS,
    CaseMetrics,
    RegionSpec,
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
from segopt.metrics import _surface_distances

from conftest import bounded_probs, dyadic_probs, label_map, oracle_hd95

ET, WT, TC = REGIONS


class TestRegions:
    def test_report_order_and_composition(self):
        assert [r.name for r in REGIONS] == ["ET", "WT", "TC"]
        assert ET.label_set == {1}
        assert WT.label_set == {1, 2, 3}
        assert TC.label_set == {1, 3}

    def test_masks_on_one_voxel_per_class(self):
        labels = label_map([0, 1, 2, 3])
        assert region_mask(labels, WT).tolist() == [False, True, True, True]
        assert region_mask(labels, TC).tolist() == [False, True, False, True]
        assert region_mask(labels, ET).tolist() == [False, True, False, False]

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

    def test_background_not_allowed_in_region(self):
        with pytest.raises(ValueError, match="invalid labels"):
            RegionSpec("BAD", frozenset({0, 1}))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="empty label set"):
            RegionSpec("BAD", frozenset())


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
        s = agg.get("WT", "dice")
        assert s.mean == s.median == 0.8
        assert s.std == 0.0
        assert s.iqr == 0.0
        assert s.n_used == 1 and s.n_excluded == 0

    def test_two_case_mean_and_median(self):
        agg = aggregate([
            case("a", (0.8, 0.8, 0.8), (1.0, 1.0, 1.0)),
            case("b", (0.9, 0.9, 0.9), (2.0, 2.0, 2.0)),
        ])
        s = agg.get("ET", "dice")
        assert_allclose(s.mean, 0.85, atol=1e-15)
        assert_allclose(s.median, 0.85, atol=1e-15)

    def test_iqr_linear_interpolation(self):
        cases = [case(str(i), (0.5,) * 3, (float(v),) * 3)
                 for i, v in enumerate([1, 2, 3, 4])]
        s = aggregate(cases).get("WT", "hd95")
        assert_allclose(s.iqr, 1.5, atol=1e-12)

    def test_undefined_hd95_excluded_with_count(self):
        agg = aggregate([
            case("a", (0.8,) * 3, (4.0, None, 1.0)),
            case("b", (0.6,) * 3, (2.0, None, 3.0)),
            case("c", (0.7,) * 3, (None, None, 5.0)),
        ])
        s_et = agg.get("ET", "hd95")
        assert s_et.n_used == 2 and s_et.n_excluded == 1
        assert_allclose(s_et.mean, 3.0, atol=1e-15)
        s_wt = agg.get("WT", "hd95")
        assert s_wt.n_used == 0 and s_wt.n_excluded == 3
        assert s_wt.mean is None and s_wt.median is None
        # dice columns never exclude
        assert agg.get("WT", "dice").n_used == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])


class TestEnsemble:
    def test_identical_maps_mean_is_input(self, rng):
        # with 2 or 4 addends the pairwise sum is p*M exactly, so the
        # mean reproduces the input bit for bit
        p = ProbMap(bounded_probs(rng, 30, 4))
        for m_count in (1, 2, 4):
            out = ensemble_mean_softmax([p] * m_count)
            assert (out.voxels == p.voxels).all()

    def test_three_identical_maps_within_ulp(self, rng):
        p = ProbMap(bounded_probs(rng, 30, 4))
        out = ensemble_mean_softmax([p, p, p])
        assert np.abs(out.voxels - p.voxels).max() < 1e-15

    def test_midpoint(self):
        a = ProbMap(np.array([[1.0, 0.0]]))
        b = ProbMap(np.array([[0.0, 1.0]]))
        out = ensemble_mean_softmax([a, b])
        assert (out.voxels == np.array([[0.5, 0.5]])).all()

    def test_pair_order_invariance(self, rng):
        a = ProbMap(bounded_probs(rng, 12, 4))
        b = ProbMap(bounded_probs(rng, 12, 4))
        assert (ensemble_mean_softmax([a, b]).voxels
                == ensemble_mean_softmax([b, a]).voxels).all()

    def test_order_invariance_three_maps(self, rng):
        maps = [ProbMap(bounded_probs(rng, 12, 4)) for _ in range(3)]
        base = ensemble_mean_softmax(maps).voxels
        shuffled = ensemble_mean_softmax(maps[::-1]).voxels
        assert np.abs(base - shuffled).max() < 1e-15

    def test_rows_stay_normalized(self, rng):
        maps = [ProbMap(bounded_probs(rng, 25, 4)) for _ in range(5)]
        out = ensemble_mean_softmax(maps)  # ProbMap enforces 1e-9 on rows
        assert np.abs(out.voxels.sum(axis=1) - 1.0).max() < 1e-9

    def test_shape_mismatch(self, rng):
        a = ProbMap(bounded_probs(rng, 5, 4))
        b = ProbMap(bounded_probs(rng, 6, 4))
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
