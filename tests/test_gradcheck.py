import re

import numpy as np
import pytest

from segopt import gradcheck
from segopt.gradcheck import (PARAM_TOL, PROB_TOL, fd_param_gradient, fd_prob_gradient,
                              run_gradcheck)
from segopt.losses import LOSS_KINDS, DistanceMatrix, brats_distance_matrix, composite_loss
from segopt.model import MODEL_KINDS, Model, ModelSpec, TrainConfig, train
from segopt.synthdata import Case

from conftest import fd_model_gradient, label_map


def test_all_kinds_pass_at_default_tolerances():
    results = run_gradcheck(trials=25, seed=0)
    assert [r.kind for r in results] == list(LOSS_KINDS)
    for r in results:
        assert r.passed
        assert r.worst_prob_err <= PROB_TOL
        assert r.worst_param_err <= PARAM_TOL
        assert r.trials == 25


def test_single_kind_selection():
    results = run_gradcheck(["gwdl"], trials=10, seed=1)
    assert len(results) == 1
    assert results[0].kind == "gwdl"


def test_deterministic_given_seed():
    a = run_gradcheck(["dice"], trials=8, seed=7)[0]
    b = run_gradcheck(["dice"], trials=8, seed=7)[0]
    assert a.worst_prob_err == b.worst_prob_err
    assert a.worst_param_err == b.worst_param_err


def test_wrong_prob_gradient_is_caught(monkeypatch):
    exact = gradcheck.composite_loss

    def corrupted(*args, **kwargs):
        out = exact(*args, **kwargs)
        if out.gradient is not None:
            out.gradient[0, 0] += 1e-3
        return out

    monkeypatch.setattr(gradcheck, "composite_loss", corrupted)
    for r in run_gradcheck(trials=5, seed=0):
        assert r.worst_prob_err > PROB_TOL, r.kind


def test_wrong_param_gradient_is_caught(monkeypatch):
    exact = Model.backward

    def corrupted(self, *args, **kwargs):
        value, grad = exact(self, *args, **kwargs)
        grad[0] += 1e-3
        return value, grad

    monkeypatch.setattr(Model, "backward", corrupted)
    for r in run_gradcheck(trials=5, seed=0):
        assert r.worst_param_err > PARAM_TOL, r.kind


@pytest.mark.parametrize("seed", [1523, 1939])
def test_features_near_the_relu_kink_are_redrawn(seed):
    # Trial 1 (an MLP) of these seeds draws features that put a hidden
    # pre-activation within one FD_STEP parameter step of the ReLU kink;
    # differenced across it, every kind failed PARAM_TOL.
    for r in run_gradcheck(trials=2, seed=seed):
        assert r.passed, (r.kind, r.worst_param_err)


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_batched_param_differences_equal_the_per_parameter_loop(model_kind, kind, rng):
    # One loss call over all 2P stepped forward passes must give the bytes
    # of 2P separate forward and composite_loss calls.
    m = brats_distance_matrix() if "gwdl" in kind else None
    for trial in range(5):
        n_vox = int(rng.integers(2, 33))
        gt = label_map(rng.integers(0, 4, size=n_vox))
        features = rng.normal(size=(n_vox, 3))
        spec = ModelSpec(model_kind, 3, 4, hidden_width=5 if model_kind == "mlp" else None,
                         seed=trial)
        params = Model.init(spec).params
        model = Model(spec, params + 0.3 * rng.normal(size=params.shape))
        batched = fd_param_gradient(model, features, gt, kind, m)
        assert batched.tobytes() == fd_model_gradient(model, features, gt, kind, m).tobytes()


# A loss that no entry point scores: its kind, matrix and class count, and
# the message every entry point refuses it with.
BAD_LOSSES = {
    "3x3-matrix-on-4-classes": ("gwdl", DistanceMatrix(1.0 - np.eye(3)), 4,
                                "distance matrix is 3x3, model has 4 classes"),
    "dice-on-1-class": ("dice", None, 1, "dice loss needs at least one foreground class"),
    "dice_ce-on-1-class": ("dice_ce", None, 1, "dice loss needs at least one foreground class"),
    "gwdl-without-matrix": ("gwdl_ce", None, 4, "loss kind 'gwdl_ce' requires a distance matrix"),
    "unknown-kind": ("hinge", None, 4, "unknown loss kind 'hinge'"),
}

# Each entry point scoring one case: fn(kind, m, model, features, probs, gt).
ENTRY_POINTS = {
    "composite_loss": lambda kind, m, model, x, probs, gt: composite_loss(
        kind, probs, gt, m, want_gradient=True),
    "Model.backward": lambda kind, m, model, x, probs, gt: model.backward(x, gt, kind, m),
    "fd_prob_gradient": lambda kind, m, model, x, probs, gt: fd_prob_gradient(kind, probs, gt, m),
    "fd_param_gradient": lambda kind, m, model, x, probs, gt: fd_param_gradient(
        model, x, gt, kind, m),
    "train": lambda kind, m, model, x, probs, gt: train(
        model, [Case("c0", x, gt, "t")], TrainConfig(loss=kind, distance_matrix=m, epochs=1)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind, m, classes, message", BAD_LOSSES.values(), ids=BAD_LOSSES)
def test_every_loss_entry_point_refuses_a_bad_loss_alike(entry, kind, m, classes, message):
    x = np.random.default_rng(0).normal(size=(6, 3))
    probs = np.full((6, classes), 1.0 / classes)
    gt = label_map(np.arange(6) % classes, num_classes=classes)
    model = Model.init(ModelSpec("linear", 3, classes))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ENTRY_POINTS[entry](kind, m, model, x, probs, gt)
