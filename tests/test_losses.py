import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from segopt.losses import (
    DistanceMatrix,
    LabelMap,
    brats_distance_matrix,
    composite_loss,
    load_distance_matrix,
    wasserstein_per_voxel,
    wasserstein_voxel,
)

from conftest import (
    bounded_probs,
    dyadic_probs,
    fd_loss_gradient,
    label_map,
    rel_err_excluding,
    stratified_labels,
)


def identity_complement(num_classes=4):
    return DistanceMatrix(m=1.0 - np.eye(num_classes))


class TestDistanceMatrix:
    def test_tumor_class_distances(self):
        m = brats_distance_matrix().m
        assert m.shape == (4, 4)
        assert m[1, 2] == 0.6
        assert m[1, 3] == 0.5
        assert m[2, 3] == 0.7
        assert (m[0, 1:] == 1.0).all()

    def test_identity_complement_valid(self):
        dm = identity_complement()
        assert dm.num_classes == 4

    def test_asymmetric_names_pair(self):
        m = 1.0 - np.eye(4)
        m[1, 2] = 0.6
        m[2, 1] = 0.7
        with pytest.raises(ValueError, match=r"asymmetric at \(1,2\)"):
            DistanceMatrix(m=m)

    def test_nonzero_diagonal(self):
        m = 1.0 - np.eye(3)
        m[2, 2] = 0.1
        with pytest.raises(ValueError, match=r"diagonal at \(2,2\)"):
            DistanceMatrix(m=m)

    def test_entry_out_of_range(self):
        m = 1.0 - np.eye(3)
        m[1, 2] = m[2, 1] = 1.5
        with pytest.raises(ValueError, match="outside"):
            DistanceMatrix(m=m)

    def test_background_row_must_be_one(self):
        for j in (1, 2):
            m = 1.0 - np.eye(3)
            m[0, j] = m[j, 0] = 0.5
            with pytest.raises(ValueError, match=rf"background row/column must be 1 "
                                                 rf"off-diagonal, entry \(0,{j}\)=0\.5$"):
                DistanceMatrix(m=m)

    @pytest.mark.parametrize("entry, match", [
        ((1, 2, 1.5), r"entry \(1,2\)=1\.5 outside"),
        ((2, 2, 0.25), r"diagonal at \(2,2\)=0\.25$"),
        ((1, 2, 0.75), r"asymmetric at \(1,2\): 0\.75 != 1\.0$"),
    ], ids=["range", "diagonal", "asymmetric"])
    def test_messages_print_plain_floats(self, entry, match):
        i, j, value = entry
        m = 1.0 - np.eye(3)
        m[i, j] = value
        with pytest.raises(ValueError, match=match):
            DistanceMatrix(m=m)

    def test_matrix_is_its_own_read_only_copy(self):
        raw = 1.0 - np.eye(4)
        m = DistanceMatrix(raw)
        raw[1, 2] = 7.0  # after the checks: must not reach the checked matrix
        assert m.m[1, 2] == 1.0
        assert raw.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.m[1, 2] = 7.0
        with pytest.raises(AttributeError):
            m.m = raw

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix(m=np.zeros((2, 3)))

    def test_empty(self):
        with pytest.raises(ValueError, match="no classes"):
            DistanceMatrix(m=np.zeros((0, 0)))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        ref = brats_distance_matrix()
        path.write_text(json.dumps({"background_index": 0, "matrix": ref.m.tolist()}))
        loaded = load_distance_matrix(path)
        assert (loaded.m == ref.m).all()

    @pytest.mark.parametrize("background", [0.0, 0.7, "0", False, None])
    def test_json_background_index_must_be_the_integer_zero(self, tmp_path, background):
        path = tmp_path / "m.json"
        doc = {"background_index": background, "matrix": brats_distance_matrix().m.tolist()}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="must be the integer 0"):
            load_distance_matrix(path)

    def test_json_missing_key(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[0.0]]}))
        with pytest.raises(ValueError, match="malformed"):
            load_distance_matrix(path)

    @pytest.mark.parametrize("text, message", [
        ("{not json", "not valid JSON"),
        ('{"background_index": 0, "matrix": [[0, 1], [1]]}', "inhomogeneous"),
        ('{"background_index": 0, "matrix": [[0, 1], [0.5, 0]]}', "asymmetric"),
    ], ids=["invalid-json", "ragged", "asymmetric"])
    def test_json_defects_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^malformed distance-matrix file "
                                             rf"{re.escape(str(path))}: .*{message}"):
            load_distance_matrix(path)


class TestWasserstein:
    def test_perfect_prediction_is_zero(self):
        m = brats_distance_matrix()
        for c in range(4):
            assert wasserstein_voxel(np.eye(4)[c], c, m) == 0.0

    def test_uniform_prediction(self):
        m = brats_distance_matrix()
        got = wasserstein_voxel(np.full(4, 0.25), 2, m)
        assert_allclose(got, 0.575, atol=1e-15)

    def test_mixed_prediction(self):
        m = brats_distance_matrix()
        got = wasserstein_voxel(np.array([0.1, 0.6, 0.2, 0.1]), 1, m)
        assert_allclose(got, 0.27, atol=1e-15)

    def test_identity_complement_reduces_to_one_minus_p(self, rng):
        # rows with entries in multiples of 1/256 make both sides exact,
        # so equality is bitwise rather than approximate
        m = identity_complement()
        probs = dyadic_probs(rng, 200, 4)
        for p in probs:
            gt = int(rng.integers(0, 4))
            assert wasserstein_voxel(p, gt, m) == 1.0 - p[gt]

    def test_gt_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            wasserstein_voxel(np.full(4, 0.25), 4, brats_distance_matrix())

    def test_per_voxel_matches_scalar(self, rng):
        m = brats_distance_matrix()
        p = bounded_probs(rng, 10, 4)
        gt = label_map(rng.integers(0, 4, size=10))
        per = wasserstein_per_voxel(p, gt, m)
        for i in range(10):
            assert per[i] == wasserstein_voxel(p[i], int(gt.labels[i]), m)


class TestGwdl:
    def test_perfect_prediction(self, rng):
        m = brats_distance_matrix()
        labels = stratified_labels(rng, 12, 4)
        pred = np.eye(4)[labels]
        assert composite_loss("gwdl", pred, label_map(labels), m).value <= 1e-4

    def test_two_voxel_hand_instance(self):
        # both gt=2; predictions one-hot on classes 2 and 3 give
        # per-voxel distances (0, 0.7) and loss 1 - 2.6/3.3
        m = brats_distance_matrix()
        pred = np.eye(4)[[2, 3]]
        got = composite_loss("gwdl", pred, label_map([2, 2]), m).value
        assert_allclose(got, 1.0 - 2.6 / 3.3, atol=1e-4)

    def test_all_background_gt_no_foreground_pred(self):
        m = brats_distance_matrix()
        pred = np.eye(4)[[0, 0]]
        out = composite_loss("gwdl", pred, label_map([0, 0]), m)
        assert np.isfinite(out.value)
        assert 0.0 <= out.value <= 1.0 + 1e-3

    def test_value_range_randomized(self, rng):
        m = brats_distance_matrix()
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            pred = bounded_probs(rng, n, 4)
            gt = label_map(rng.integers(0, 4, size=n))
            v = composite_loss("gwdl", pred, gt, m).value
            assert 0.0 <= v <= 1.0 + 1e-3

    def test_moving_mass_off_gt_class_never_helps(self, rng):
        m = brats_distance_matrix()
        for _ in range(200):
            n = int(rng.integers(2, 17))
            pred = bounded_probs(rng, n, 4)
            gt_labels = rng.integers(0, 4, size=n)
            gt = label_map(gt_labels)
            base = composite_loss("gwdl", pred, gt, m).value
            i = int(rng.integers(0, n))
            c = int(gt_labels[i])
            others = [l for l in range(4) if l != c]
            j = int(rng.choice(others))
            shift = 0.5 * pred[i, c]
            worse = pred.copy()
            worse[i, c] -= shift
            worse[i, j] += shift
            assert composite_loss("gwdl", worse, gt, m).value >= base - 1e-12

    def test_voxel_permutation_invariance(self, rng):
        m = brats_distance_matrix()
        pred = bounded_probs(rng, 20, 4)
        gt_labels = rng.integers(0, 4, size=20)
        perm = rng.permutation(20)
        a = composite_loss("gwdl", pred, label_map(gt_labels), m, want_gradient=True)
        b = composite_loss("gwdl", pred[perm], label_map(gt_labels[perm]), m,
                           want_gradient=True)
        assert a.value == b.value
        assert (a.gradient[perm] == b.gradient).all()

    def test_gradient_none_when_not_requested(self, rng):
        m = brats_distance_matrix()
        pred = bounded_probs(rng, 4, 4)
        out = composite_loss("gwdl", pred, label_map(rng.integers(0, 4, size=4)), m)
        assert out.gradient is None


class TestDice:
    def test_perfect_prediction(self, rng):
        labels = stratified_labels(rng, 10, 4)
        assert composite_loss("dice", np.eye(4)[labels], label_map(labels)).value <= 1e-4

    def test_all_background_prediction_on_foreground_gt(self, rng):
        labels = stratified_labels(rng, 12, 4)
        pred = np.tile(np.eye(4)[0], (12, 1))
        assert_allclose(composite_loss("dice", pred, label_map(labels)).value, 1.0, atol=1e-3)

    def test_value_in_unit_range(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 33))
            pred = bounded_probs(rng, n, 4)
            gt = label_map(rng.integers(0, 4, size=n))
            v = composite_loss("dice", pred, gt).value
            assert 0.0 <= v <= 1.0 + 1e-3


class TestCrossEntropy:
    def test_uniform_prediction(self, rng):
        pred = np.full((6, 4), 0.25)
        gt = label_map(rng.integers(0, 4, size=6))
        assert_allclose(composite_loss("ce", pred, gt).value, np.log(4.0), atol=1e-12)

    def test_perfect_prediction_clamped_zero(self, rng):
        labels = stratified_labels(rng, 8, 4)
        assert composite_loss("ce", np.eye(4)[labels], label_map(labels)).value == 0.0

    def test_totally_wrong_prediction_stays_finite(self):
        pred = np.tile(np.eye(4)[1], (3, 1))
        out = composite_loss("ce", pred, label_map([0, 2, 3]))
        assert np.isfinite(out.value)
        assert_allclose(out.value, -np.log(1e-12), rtol=1e-12)


class TestComposite:
    def test_dice_ce_is_exact_sum(self, rng):
        pred = bounded_probs(rng, 15, 4)
        gt = label_map(rng.integers(0, 4, size=15))
        combined = composite_loss("dice_ce", pred, gt)
        assert combined.value == (composite_loss("dice", pred, gt).value
                                  + composite_loss("ce", pred, gt).value)

    def test_gwdl_ce_gradient_is_exact_sum(self, rng):
        m = brats_distance_matrix()
        pred = bounded_probs(rng, 15, 4)
        gt = label_map(rng.integers(0, 4, size=15))
        combined = composite_loss("gwdl_ce", pred, gt, m, want_gradient=True)
        expected = (composite_loss("gwdl", pred, gt, m, want_gradient=True).gradient
                    + composite_loss("ce", pred, gt, want_gradient=True).gradient)
        assert (combined.gradient == expected).all()

    def test_gwdl_ce_perfect_prediction(self, rng):
        m = brats_distance_matrix()
        labels = stratified_labels(rng, 10, 4)
        out = composite_loss("gwdl_ce", np.eye(4)[labels], label_map(labels), m)
        assert out.value <= 1e-4

    def test_missing_matrix_rejected(self, rng):
        pred = bounded_probs(rng, 4, 4)
        gt = label_map(rng.integers(0, 4, size=4))
        with pytest.raises(ValueError, match="requires a distance matrix"):
            composite_loss("gwdl", pred, gt)

    def test_unknown_kind_rejected(self, rng):
        pred = bounded_probs(rng, 4, 4)
        gt = label_map(rng.integers(0, 4, size=4))
        with pytest.raises(ValueError, match="unknown loss kind"):
            composite_loss("hinge", pred, gt)

    def test_dimension_mismatch_rejected(self, rng):
        pred = bounded_probs(rng, 4, 4)
        with pytest.raises(ValueError):
            composite_loss("ce", pred, label_map(rng.integers(0, 4, size=5)))

    @pytest.mark.parametrize("shape", [(16,), (4, 4, 1)])
    def test_prediction_that_is_not_two_dimensional_is_refused(self, rng, shape):
        pred = bounded_probs(rng, 4, 4).reshape(shape)
        with pytest.raises(ValueError) as info:
            composite_loss("ce", pred, label_map(rng.integers(0, 4, size=4)))
        assert str(info.value) == f"prediction must be [V, L], got shape {shape}"


@pytest.mark.parametrize("kind", ["ce", "dice", "gwdl", "dice_ce", "gwdl_ce"])
def test_gradient_matches_finite_differences(kind, rng):
    """Analytic gradients against central differences at step 1e-6.

    Instances keep every class present in the ground truth and every
    probability entry above ~1e-2, so all gradient entries that are not
    exact zeros sit well above the differencing noise floor.  Exact zeros
    (|analytic| < 1e-8) are excluded from the relative comparison.
    """
    m = brats_distance_matrix() if "gwdl" in kind else None
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 25))
        pred = bounded_probs(rng, n, 4)
        gt = label_map(stratified_labels(rng, n, 4))
        analytic = composite_loss(kind, pred, gt, m, want_gradient=True).gradient
        differenced = fd_loss_gradient(kind, pred, gt, m)
        worst = max(worst, rel_err_excluding(analytic, differenced))
    assert worst <= 1e-5


class TestLabelMap:
    def test_shape_product_must_match(self):
        with pytest.raises(ValueError):
            LabelMap(np.zeros(5, dtype=np.int64), 4, (2, 3))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([0, 4]), 4, (2,))

    @pytest.mark.parametrize("labels, first", [([0, 0.5, 1.7, 2.2], "entry 1 is 0.5"),
                                               ([1, 3, -0.5], "entry 2 is -0.5"),
                                               ([2, np.nan], "entry 1 is nan")])
    def test_non_integer_labels_are_refused_naming_the_first(self, labels, first):
        with pytest.raises(ValueError, match=f"labels must be integers, {first}$"):
            LabelMap(np.array(labels), 4, (len(labels),))

    def test_integral_floats_are_accepted(self):
        assert LabelMap(np.array([0.0, 3.0, 1.0]), 4, (3,)).labels.tolist() == [0, 3, 1]

    @pytest.mark.parametrize("num_classes, dtype", [(1, np.uint8), (4, np.uint8),
                                                    (256, np.uint8), (257, np.uint16)])
    def test_labels_are_stored_in_the_narrowest_type_of_the_classes(self, num_classes, dtype):
        raw = np.array([0, num_classes - 1], dtype=np.int64)
        gt = LabelMap(raw, num_classes, (2,))
        assert gt.labels.dtype == dtype and gt.labels.tolist() == raw.tolist()

    def test_labels_are_its_own_read_only_copy(self):
        raw = np.array([0, 1, 2, 3], dtype=np.int64)
        gt = LabelMap(raw, 4, (4,))
        with pytest.raises(ValueError, match="read-only"):
            gt.labels[0] = 9
        raw[1] = 9  # the caller's array stays writable and is not the map's
        assert raw.flags.writeable
        assert gt.labels.tolist() == [0, 1, 2, 3]
