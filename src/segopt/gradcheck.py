"""Finite-difference verification of the analytic gradients.

Two levels are checked for every loss kind: the probability-space
gradient reported by the loss itself, and the parameter-space gradient
produced by backpropagation through the model.  Both are compared
with central differences at step 1e-6 on random instances, which step
each coordinate up and down in a case of its own and run all the cases
through the loss core in one batch.

Instances keep probabilities bounded away from 0 and the MLP's hidden
pre-activations out of one step's reach of 0, so no step crosses the
cross-entropy clamp or the ReLU kink, where the loss is non-smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (DistanceMatrix, LabelMap, LOSS_KINDS, _batch_terms, _check_kind,
                     _check_shapes, _Loss, brats_distance_matrix, composite_loss)
from .model import Model, ModelSpec, _forward, _unpack
from .numerics import Rng, check_seed

__all__ = [
    "FD_STEP",
    "PROB_TOL",
    "PARAM_TOL",
    "GradCheckResult",
    "fd_prob_gradient",
    "fd_param_gradient",
    "max_rel_error",
    "run_gradcheck",
]

FD_STEP = 1e-6
PROB_TOL = 1e-5
PARAM_TOL = 1e-4

# Central differences at step h = FD_STEP carry ~eps*|f|/(2h) = 1e-10 of absolute
# roundoff noise, so ratios against entries smaller than this floor measure
# noise, not gradient error.  Flooring the denominator compares such
# entries absolutely (to tol * floor) instead.
DENOM_FLOOR = 1e-4


@dataclass(frozen=True)
class GradCheckResult:
    kind: str
    trials: int
    worst_prob_err: float
    worst_param_err: float

    @property
    def passed(self) -> bool:
        return self.worst_prob_err <= PROB_TOL and self.worst_param_err <= PARAM_TOL


def max_rel_error(analytic: np.ndarray, differenced: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    d = np.asarray(differenced, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(d)), DENOM_FLOOR)
    rel = np.abs(a - d) / denom
    return float(rel.max()) if rel.size else 0.0


def _pair_differences(loss: _Loss, stack: np.ndarray, gt: LabelMap) -> np.ndarray:
    """Central differences from one loss call on an [L, 2K, V] block labeled
    ``gt``: case 2k steps coordinate k up by FD_STEP and case 2k+1 down."""
    values, _ = _batch_terms(loss, stack, np.broadcast_to(gt.labels, stack.shape[1:]),
                             want_gradient=False)
    return (values[0::2] - values[1::2]) / (2.0 * FD_STEP)


def fd_prob_gradient(kind: str, probs: np.ndarray, gt: LabelMap,
                     m: DistanceMatrix | None) -> np.ndarray:
    """Central differences over every probability entry k = (v, l), in one batch."""
    probs = np.asarray(probs, dtype=np.float64)
    V, L = probs.shape
    loss = _Loss(kind, m, L)
    _check_shapes(probs.shape, gt)
    k = np.arange(V * L)
    v, l = np.divmod(k, L)
    stack = np.repeat(probs.T[:, None, :], 2 * V * L, axis=1)
    stack[l, 2 * k, v] += FD_STEP
    stack[l, 2 * k + 1, v] -= FD_STEP
    return _pair_differences(loss, stack, gt).reshape(V, L)


def fd_param_gradient(model: Model, features: np.ndarray, gt: LabelMap, kind: str,
                      m: DistanceMatrix | None) -> np.ndarray:
    """Central differences over every parameter, in one batch of the
    forward passes of the stepped parameter vectors."""
    loss = _Loss(kind, m, model.spec.num_classes)
    x = model._features(features)
    _check_shapes((x.shape[0], model.spec.num_classes), gt)
    P = model.params.size
    i = np.arange(P)
    stepped = np.repeat(model.params[None, :], 2 * P, axis=0)
    stepped[2 * i, i] += FD_STEP
    stepped[2 * i + 1, i] -= FD_STEP
    stack = np.stack([_forward(model.spec, params, x.T)[0] for params in stepped], axis=1)
    return _pair_differences(loss, stack, gt)


def _near_kink(model: Model, features: np.ndarray) -> bool:
    """Whether one parameter step can move an MLP hidden pre-activation
    across 0: a weight step moves it by FD_STEP * |x| at most, a bias step by FD_STEP."""
    if model.spec.kind != "mlp":
        return False
    w1, b1, _, _ = _unpack(model.spec, model.params)
    reach = FD_STEP * max(1.0, float(np.abs(features).max()))
    return bool(np.any(np.abs(w1 @ features.T + b1[:, None]) <= reach))


def _random_instance(rng: Rng, num_classes: int = 4):
    n_vox = int(rng.integers(2, 33))
    labels = rng.integers(0, num_classes, n_vox).astype(np.int64)
    gt = LabelMap(labels, num_classes, (n_vox,))
    raw = rng.uniform((n_vox, num_classes)) + 0.05
    probs = raw / raw.sum(axis=1, keepdims=True)
    features = rng.normal((n_vox, 3))
    return gt, probs, features


def run_gradcheck(kinds=None, *, trials: int, seed: int) -> list:
    """Check every requested loss kind on ``trials`` random instances."""
    if kinds is None:
        kinds = LOSS_KINDS
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # Trial t seeds its model with seed + t; refuse the range before any trial runs.
    check_seed(seed + trials - 1, "the last trial's model seed (seed + trials - 1)")
    matrix = brats_distance_matrix()
    results = []
    for kind in kinds:
        m = _check_kind(kind, matrix)
        worst_prob = 0.0
        worst_param = 0.0
        rng = Rng(seed)
        for trial in range(trials):
            gt, probs, features = _random_instance(rng)
            analytic = composite_loss(kind, probs, gt, m, want_gradient=True).gradient
            fd = fd_prob_gradient(kind, probs, gt, m)
            worst_prob = max(worst_prob, max_rel_error(analytic, fd))

            spec = (ModelSpec("linear", 3, 4, seed=seed + trial)
                    if trial % 2 == 0
                    else ModelSpec("mlp", 3, 4, hidden_width=5, seed=seed + trial))
            model = Model.init(spec)
            # Differences across the kink would fail a correct gradient.
            # Redrawing from the same stream keeps every other instance's draws.
            while _near_kink(model, features):
                features = rng.normal(features.shape)
            _, param_grad = model.backward(features, gt, kind, m)
            fd_p = fd_param_gradient(model, features, gt, kind, m)
            worst_param = max(worst_param, max_rel_error(param_grad, fd_p))
        results.append(GradCheckResult(kind, trials, worst_prob, worst_param))
    return results
