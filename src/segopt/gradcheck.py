"""Finite-difference verification of the analytic gradients.

Two levels are checked for every loss kind: the probability-space
gradient reported by the loss itself, and the parameter-space gradient
produced by backpropagation through the model.  Both use central
differences with step 1e-6 on random instances.  The analytic side of
both is the batched kernel that training runs, called on one case.

Instances keep probabilities bounded away from 0 so the differencing
step never crosses the cross-entropy clamp, where the loss is
deliberately non-smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (DistanceMatrix, LabelMap, LOSS_KINDS, _batch_terms, _check_kind,
                     _check_shapes, brats_distance_matrix, composite_loss)
from .model import Model, ModelSpec
from .numerics import Rng

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


def fd_prob_gradient(kind: str, probs: np.ndarray, gt: LabelMap,
                     m: DistanceMatrix | None) -> np.ndarray:
    """Central differences over every probability entry, in one batch.

    Case 2k of the batch steps entry k = (v, l) up by FD_STEP and case 2k+1
    steps it down; the loss kernel evaluates all 2*V*L maps in one call.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m = _check_kind(kind, m)
    _check_shapes(probs.shape, gt, m)
    V, L = probs.shape
    k = np.arange(V * L)
    v, l = np.divmod(k, L)
    stack = np.repeat(probs.T[:, None, :], 2 * V * L, axis=1)
    stack[l, 2 * k, v] += FD_STEP
    stack[l, 2 * k + 1, v] -= FD_STEP
    values, _ = _batch_terms(kind, stack, np.broadcast_to(gt.labels, (2 * V * L, V)), m,
                             want_gradient=False)
    return ((values[0::2] - values[1::2]) / (2.0 * FD_STEP)).reshape(V, L)


def fd_param_gradient(model: Model, features: np.ndarray, gt: LabelMap, kind: str,
                      m: DistanceMatrix | None) -> np.ndarray:
    out = np.zeros_like(model.params)
    for i in range(model.params.size):
        plus = model.params.copy()
        minus = model.params.copy()
        plus[i] += FD_STEP
        minus[i] -= FD_STEP
        f_plus = composite_loss(
            kind, Model(model.spec, plus).forward(features), gt, m).value
        f_minus = composite_loss(
            kind, Model(model.spec, minus).forward(features), gt, m).value
        out[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return out


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
            _, param_grad = model.backward(features, gt, kind, m)
            fd_p = fd_param_gradient(model, features, gt, kind, m)
            worst_param = max(worst_param, max_rel_error(param_grad, fd_p))
        results.append(GradCheckResult(kind, trials, worst_prob, worst_param))
    return results
