"""Acceptance suite: the headline properties the toolkit guarantees.

Each test verifies one end-to-end property at its stated tolerance and
prints a one-line verdict (visible with ``pytest -s``; under plain
``pytest -v`` the test's own PASSED/FAILED line is the verdict).
Oracles are independent of the library code under test: finite
differences and the brute-force distance scan live in conftest, hand
values are written out literally.
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from segopt.cli import main
from segopt.dro import HardnessWeightedSampler
from segopt.losses import (
    DistanceMatrix,
    LabelMap,
    LOSS_KINDS,
    brats_distance_matrix,
    composite_loss,
    wasserstein_per_voxel,
    wasserstein_voxel,
)
from segopt.metrics import (
    dice_score,
    ensemble_mean_softmax,
    evaluate_case,
    hd95,
    postprocess_et,
)
from segopt.model import Model, ModelSpec, TrainConfig, train
from segopt.optim import Lookahead, PolySchedule, RAdam
from segopt.synthdata import SynthConfig, generate, load

from conftest import (
    bounded_probs,
    dyadic_probs,
    fd_loss_gradient,
    fd_model_gradient,
    label_map,
    oracle_hd95,
    rel_err,
    rel_err_excluding,
    stratified_labels,
)


def test_analytic_gradients_match_finite_differences_for_all_loss_kinds(rng):
    """100 random instances per loss kind, checked in probability space
    (rel err <= 1e-5) and in parameter space through softmax models
    (rel err <= 1e-4), inside a 30 s budget."""
    t0 = time.monotonic()
    matrix = brats_distance_matrix()
    worst_prob, worst_param = 0.0, 0.0
    for kind in LOSS_KINDS:
        m = matrix if "gwdl" in kind else None
        for trial in range(100):
            n_vox = 4 + int(rng.integers(0, 29))  # 4..32 voxels
            probs = bounded_probs(rng, n_vox, 4)
            gt = label_map(stratified_labels(rng, n_vox, 4))
            analytic = composite_loss(kind, probs, gt, m, want_gradient=True)
            err = rel_err_excluding(analytic.gradient,
                                    fd_loss_gradient(kind, probs, gt, m))
            worst_prob = max(worst_prob, err)

            spec = (ModelSpec(kind="linear", input_features=3, num_classes=4,
                              seed=trial)
                    if trial % 2 == 0 else
                    ModelSpec(kind="mlp", input_features=3, num_classes=4,
                              hidden_width=4, seed=trial))
            model = Model.init(spec)
            model = Model(spec, model.params + 0.3 * rng.normal(size=model.params.shape))
            features = rng.normal(size=(n_vox, 3))
            _, grad = model.backward(features, gt, kind, m)
            err = rel_err(grad, fd_model_gradient(model, features, gt, kind, m))
            worst_param = max(worst_param, err)
    elapsed = time.monotonic() - t0
    assert worst_prob <= 1e-5
    assert worst_param <= 1e-4
    assert elapsed < 30.0
    print(f"[PASS] gradients vs finite differences: 100 instances x "
          f"{len(LOSS_KINDS)} kinds, worst prob-space {worst_prob:.2e}, "
          f"worst param-space {worst_param:.2e}, {elapsed:.1f}s")


def test_wasserstein_dice_hand_example_and_perfect_score():
    """Two-voxel hand-computed instance: one voxel right, one wrong with
    ground-truth distance 0.7 gives 1 - 2.6/3.3; perfect predictions
    score essentially zero."""
    m = brats_distance_matrix()
    probs = np.zeros((2, 4))
    probs[0, 2] = 1.0  # correct: gt class
    probs[1, 3] = 1.0  # wrong: distance m[2,3] = 0.7
    gt = label_map([2, 2])
    value = composite_loss("gwdl", probs, gt, m).value
    assert abs(value - (1.0 - 2.6 / 3.3)) <= 1e-4

    labels = [0, 1, 2, 3, 2, 1]
    perfect = np.zeros((6, 4))
    perfect[np.arange(6), labels] = 1.0
    assert composite_loss("gwdl", perfect, label_map(labels), m).value <= 1e-4
    print(f"[PASS] weighted-dice hand example: loss {value:.6f} vs "
          f"{1.0 - 2.6 / 3.3:.6f}, perfect score <= 1e-4")


def test_identity_complement_matrix_reduces_to_one_minus_gt_probability(rng):
    """With distance 1 between every distinct pair, the per-voxel
    transport cost is exactly 1 - p[gt] on 1000 voxels whose
    probabilities are exact binary fractions."""
    m = DistanceMatrix(np.ones((4, 4)) - np.eye(4))
    probs = dyadic_probs(rng, 1000)
    gt = stratified_labels(rng, 1000, 4)
    per_voxel = wasserstein_per_voxel(probs, label_map(gt), m)
    for v in range(1000):
        want = 1.0 - probs[v, gt[v]]
        assert wasserstein_voxel(probs[v], int(gt[v]), m) == want
        assert per_voxel[v] == want
    print("[PASS] identity-complement reduction: exact equality on 1000 voxels")


def test_hardness_weighted_sampling_follows_gibbs_law():
    """Empirical draw frequencies match exp(beta * loss) weights within
    +/-0.01 over 1e5 draws; near-zero beta is uniform; a constant shift
    of all losses leaves the distribution unchanged to 1e-12."""
    s = HardnessWeightedSampler(2, beta=100.0, seed=11)
    s.update_loss(0, 0.01)
    s.update_loss(1, 0.02)
    draws = s.sample_batch(100_000)
    freq = np.bincount(draws, minlength=2) / 100_000.0
    assert abs(freq[0] - 0.2689) <= 0.01
    assert abs(freq[1] - 0.7311) <= 0.01

    u = HardnessWeightedSampler(8, beta=1e-9, seed=3)
    for i in range(8):
        u.update_loss(i, float(i))
    ufreq = np.bincount(u.sample_batch(100_000), minlength=8) / 100_000.0
    assert np.abs(ufreq - 1.0 / 8.0).max() <= 0.01

    a = HardnessWeightedSampler(4, beta=7.0, seed=0)
    b = HardnessWeightedSampler(4, beta=7.0, seed=0)
    for i, loss in enumerate([0.2, 0.9, 0.4, 0.6]):
        a.update_loss(i, loss)
        b.update_loss(i, loss + 123.456)
    assert np.abs(a.probabilities() - b.probabilities()).max() <= 1e-12
    print(f"[PASS] sampler law: freq {freq.round(4).tolist()} vs "
          f"[0.2689, 0.7311], uniform and shift checks hold")


def test_lookahead_identity_and_variance_rectification_branch():
    """Lookahead with k=1, alpha=1 is bitwise the inner optimizer for 100
    steps; the rectified optimizer takes plain momentum steps while its
    sample-size proxy is <= 4 (the first four steps at beta2=0.999) and
    its rectification factor settles within 1e-3 of 1 by t=1e4."""
    wrapped = Lookahead(RAdam())
    wrapped.k, wrapped.alpha = 1, 1.0
    bare = RAdam()
    x_w = x_b = np.array([1.3, -0.7, 0.4])
    for _ in range(100):
        x_w = wrapped.step(x_w, 2.0 * x_w, 0.02)
        x_b = bare.step(x_b, 2.0 * x_b, 0.02)
        assert (x_w == x_b).all()

    r = RAdam()
    assert abs(r.rho_t(1) - 1.0) <= 1e-12
    assert all(r.rho_t(t) <= 4.0 for t in (1, 2, 3, 4))
    assert r.rho_t(5) > 4.0

    # the first four steps must be exactly params - lr * bias-corrected momentum
    stepper = RAdam()
    params = np.array([0.5, -0.2])
    m = np.zeros(2)
    g_rng = np.random.default_rng(5)
    for t in range(1, 7):
        g = g_rng.normal(size=2)
        m = 0.9 * m + 0.1 * g
        unadapted = params - 0.01 * (m / (1.0 - 0.9 ** t))
        params = stepper.step(params, g, 0.01)
        if t <= 4:
            assert_allclose(params, unadapted, rtol=0.0, atol=1e-15)
        else:
            assert not np.allclose(params, unadapted, rtol=0.0, atol=1e-12)

    for t in (10_000, 100_000):
        assert abs(r.rectification(t) - 1.0) <= 1e-3
    print(f"[PASS] optimizer identities: lookahead k=1 alpha=1 bitwise for "
          f"100 steps, plain branch through t=4, r(1e4) = "
          f"{r.rectification(10_000):.6f}")


def test_poly_schedule_endpoints_and_midpoint():
    """lr(0) is the base rate, lr(t_max) is zero, and the midpoint of a
    1000-step decay from 0.01 is 0.01 * 0.5^0.9, all within 1e-12."""
    s = PolySchedule(initial_lr=0.01, t_max=1000)
    assert abs(s.at(0) - 0.01) <= 1e-12
    assert abs(s.at(1000) - 0.0) <= 1e-12
    midpoint = 0.01 * 0.5 ** 0.9
    assert abs(s.at(500) - midpoint) <= 1e-12
    print(f"[PASS] poly schedule: endpoints exact, midpoint "
          f"{s.at(500):.6e} vs {midpoint:.6e}")


def test_hd95_matches_bruteforce_oracle_and_dice_hand_values(rng):
    """The distance-transform hd95 agrees with an explicit pairwise
    boundary-distance scan within 1e-9 on 500 random 8x8x8 mask pairs;
    dice reproduces the hand values 1, 0, and 0.5."""
    shape = (8, 8, 8)
    n = int(np.prod(shape))
    checked = 0
    for trial in range(500):
        da, db = rng.uniform(0.05, 0.6, size=2)
        a = rng.random(n) < da
        b = rng.random(n) < db
        got = hd95(a, b, shape)
        want = oracle_hd95(a, b, shape)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-9
        checked += 1
    assert checked >= 500

    full = np.ones(8, dtype=bool)
    empty = np.zeros(8, dtype=bool)
    half = np.array([0, 1, 1, 0, 0, 0, 0, 0], dtype=bool)
    other = np.array([0, 0, 1, 1, 0, 0, 0, 0], dtype=bool)
    assert dice_score(full, full) == 1.0
    assert dice_score(half, ~half) == 0.0
    assert dice_score(half, other) == 0.5
    assert dice_score(full, empty) == 0.0
    print(f"[PASS] hd95 vs brute-force oracle: {checked} mask pairs within "
          f"1e-9; dice hand values 1/0/0.5 exact")


def test_small_enhancing_tumor_components_are_relabeled():
    """A 49-voxel enhancing-tumor prediction is folded into the tumor
    core; at 50 voxels it is left alone."""
    labels = np.zeros(100, dtype=np.int64)
    labels[:49] = 1  # contiguous along the first five rows of a 10x10 grid
    out = postprocess_et(label_map(labels, shape=(10, 10)))
    assert (out.labels != 1).all()
    assert (out.labels[:49] == 3).all()

    fifty = np.zeros(100, dtype=np.int64)
    fifty[:50] = 1
    untouched = postprocess_et(label_map(fifty, shape=(10, 10)))
    assert (untouched.labels == fifty).all()
    print("[PASS] enhancing-tumor cleanup: 49 voxels relabeled to core, "
          "50 untouched")


def test_mean_softmax_ensembling_identity_permutation_and_normalization(rng):
    """Averaging identical probability maps returns the input exactly
    for 2 and 4 members (power-of-two sums round nowhere), member order
    never matters, and output rows stay normalized within 1e-9."""
    base = bounded_probs(rng, 50, 4)
    for m_count in (2, 4):
        out = ensemble_mean_softmax([base] * m_count)
        assert (out == base).all()

    a = bounded_probs(rng, 50, 4)
    b = bounded_probs(rng, 50, 4)
    c = bounded_probs(rng, 50, 4)
    assert (ensemble_mean_softmax([a, b]) == ensemble_mean_softmax([b, a])).all()
    # three-member sums associate differently per order, so only to 1e-15
    assert np.abs(ensemble_mean_softmax([a, b, c])
                  - ensemble_mean_softmax([c, a, b])).max() <= 1e-15

    members = [bounded_probs(rng, 50, 4) for _ in range(5)]
    sums = ensemble_mean_softmax(members).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9
    print("[PASS] ensembling: identical-member identity exact for 2 and 4, "
          "order-invariant, rows normalized")


def test_hardness_weighted_sampling_improves_rare_subgroup_dice(tmp_path):
    """On a 40:4 imbalanced dataset whose rare subgroup is systematically
    harder, hardness-weighted sampling beats uniform shuffling on rare
    whole-tumor Dice in at least 4 of 5 seeds, with the uniform baseline
    landing between 0.5 and 0.9.  Budget: 10 minutes."""
    t0 = time.monotonic()
    generate(SynthConfig(grid=(24, 24), subgroup_cases={"common": 40, "rare": 4},
                         sigma=0.3, seed=0), tmp_path)
    cases = load(tmp_path / "manifest.json")

    def rare_wt(trained):
        vals = []
        for case in cases:
            if case.subgroup != "rare":
                continue
            probs = trained.model.forward(case.features)
            pred = LabelMap(np.argmax(probs, axis=1), 4, case.labels.spatial_shape)
            vals.append(evaluate_case(pred, case.labels).dice["WT"])
        return float(np.mean(vals))

    def fit(mode, seed):
        spec = ModelSpec(kind="linear", input_features=4, num_classes=4,
                         seed=seed + 2)
        config = TrainConfig(loss="dice_ce", population=mode, beta=100.0,
                             optimizer="sgd", lr=0.05, epochs=150,
                             batch_size=2, seed=seed)
        return train(Model.init(spec), cases, config)

    wins = 0
    baselines, robusts = [], []
    for seed in range(5):
        erm = rare_wt(fit("erm", seed))
        dro = rare_wt(fit("dro", seed))
        baselines.append(erm)
        robusts.append(dro)
        assert 0.5 <= erm <= 0.9
        wins += dro >= erm
    elapsed = time.monotonic() - t0
    assert wins >= 4
    assert elapsed < 600.0
    print(f"[PASS] robust-sampling trend: {wins}/5 seeds improve rare Dice, "
          f"baseline {np.mean(baselines):.3f} -> robust "
          f"{np.mean(robusts):.3f}, {elapsed:.0f}s")


def test_training_reruns_are_byte_identical(tmp_path):
    """Rerunning the train command with the same dataset, config, and
    seed reproduces the model file, parameter blob, and training log
    byte for byte, for both the uniform and the hardness-weighted arm."""
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--grid", "10x10",
                 "--subgroups", "common:3,rare:2", "--sigma", "0.3",
                 "--seed", "0"]) == 0
    for preset in ("baseline", "dro"):
        first = str(tmp_path / f"{preset}_a")
        second = str(tmp_path / f"{preset}_b")
        args = ["train", "--dataset", data, "--preset", preset,
                "--epochs", "12", "--seed", "5"]
        assert main(args + ["--out", first]) == 0
        assert main(args + ["--out", second]) == 0
        for name in ("model.json", "model.params.bin", "training_log.csv"):
            with open(f"{first}/{name}", "rb") as fh:
                one = fh.read()
            with open(f"{second}/{name}", "rb") as fh:
                two = fh.read()
            assert one == two, f"{preset}/{name}"
    print("[PASS] determinism: train reruns byte-identical for uniform "
          "and hardness-weighted arms")
