"""Per-voxel differentiable models, hand-derived backprop, training loop.

Two architectures, both classifying each voxel independently from its
feature vector: a linear softmax classifier and a one-hidden-layer ReLU
network.  Parameters live in a single flat float64 vector so optimizers
and serialization stay trivial.

Inside, everything is class-major.  The features of the N voxels being
processed arrive as rows of an [N, F] array and enter the first layer
transposed, so logits, hidden activations and probabilities are [L, N]
and [H, N] blocks with one row per class or unit; softmax runs down
axis 0, and the losses reduce each case's V contiguous columns (the
[L, N] block viewed as [L, B, V]).  The short class axis is the outer
loop, so every numpy operation streams over voxels.

The kernel chains the loss gradient (taken in probability space from the
losses module) through the softmax Jacobian and the affine layers by
hand; no autodiff anywhere.  For a probability column p and upstream
gradient g the logit gradient is p * (g - (g . p)), which follows from
dp_j/dz_k = p_j (delta_jk - p_k).

train() validates the dataset and parameters once, then runs one kernel
call per optimizer step: the batch's cases are grouped by voxel count,
each group is concatenated into one class-major block, and a single
forward, loss and backward pass gives every case's loss value and the
batch's mean parameter gradient.  Model.forward() and Model.backward()
are the same kernel on one case.  The loop wires in a loss kind, an
epoch-level learning rate schedule, an optimizer, and either plain
shuffling (ERM) or the hardness-weighted sampler (DRO).  Reweighting in
DRO mode lives entirely in the sampling distribution; batch gradients
stay unweighted means.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .dro import DEFAULT_BETA, HardnessWeightedSampler
from .losses import DistanceMatrix, LabelMap, ProbMap, _batch_terms, _check_kind, _check_shapes
from .numerics import Rng, as_f64, require_finite, softmax_inplace
# Not called in this module, but kept as its attributes: the benchmark's
# tracer (perfbench/tracer.py) patches segopt.model.composite_loss and
# segopt.model.softmax.
from .losses import composite_loss  # noqa: F401
from .numerics import softmax  # noqa: F401
from .optim import (DEFAULT_LR, LOOKAHEAD_ALPHA, LOOKAHEAD_K, OPTIMIZER_KINDS, PolySchedule,
                    _check_lookahead, make_optimizer)
from .synthdata import Case

__all__ = [
    "MODEL_KINDS",
    "SAMPLER_MODES",
    "DIVERGENCE_LIMIT",
    "PARAM_LIMIT",
    "ModelSpec",
    "Model",
    "TrainConfig",
    "EpochRecord",
    "TrainedModel",
    "TrainingDiverged",
    "batch_gradient",
    "ensemble_labels",
    "train",
    "save_model",
    "load_model",
    "write_training_log",
]

MODEL_KINDS = ("linear", "mlp")
SAMPLER_MODES = ("erm_shuffle", "dro")
DIVERGENCE_LIMIT = 1e6
# Runaway steps show up as exploding weights long before any loss here can
# overflow (they are all bounded), so the loop also polices magnitude.
PARAM_LIMIT = 1e8


class TrainingDiverged(RuntimeError):
    """Raised when a per-case loss goes non-finite or past the guard limit."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_features: int
    num_classes: int
    hidden_width: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.input_features < 1:
            raise ValueError(f"input_features must be >= 1, got {self.input_features}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.kind == "mlp":
            if self.hidden_width is None or self.hidden_width < 1:
                raise ValueError("mlp needs hidden_width >= 1")
        elif self.hidden_width is not None:
            raise ValueError("hidden_width only applies to the mlp kind")

    def param_count(self) -> int:
        f, l = self.input_features, self.num_classes
        if self.kind == "linear":
            return l * f + l
        h = self.hidden_width
        return h * f + h + l * h + l


@dataclass
class Model:
    spec: ModelSpec
    params: np.ndarray

    def __post_init__(self):
        p = as_f64(self.params, "params").reshape(-1)
        if p.size != self.spec.param_count():
            raise ValueError(
                f"parameter vector has {p.size} entries, spec needs {self.spec.param_count()}"
            )
        self.params = p

    @classmethod
    def init(cls, spec: ModelSpec) -> "Model":
        """Weights uniform in [-0.1, 0.1] from the spec seed, biases zero.

        The small scale keeps the initial softmax close to uniform so no
        loss starts saturated.
        """
        rng = Rng(spec.seed)
        f, l = spec.input_features, spec.num_classes
        if spec.kind == "linear":
            w = 0.2 * rng.uniform(l * f) - 0.1
            parts = [w, np.zeros(l)]
        else:
            h = spec.hidden_width
            w1 = 0.2 * rng.uniform(h * f) - 0.1
            w2 = 0.2 * rng.uniform(l * h) - 0.1
            parts = [w1, np.zeros(h), w2, np.zeros(l)]
        return cls(spec, np.concatenate(parts))

    def _features(self, features) -> np.ndarray:
        x = as_f64(features, "features")
        if x.ndim != 2 or x.shape[1] != self.spec.input_features:
            raise ValueError(
                f"features must be [V, {self.spec.input_features}], got shape {x.shape}"
            )
        return x

    def forward(self, features) -> ProbMap:
        probs, _ = _forward(self.spec, self.params, self._features(features))
        return ProbMap(probs.T)

    def backward(self, features, gt: LabelMap, loss_kind: str,
                 m: DistanceMatrix | None = None):
        """The loss value on the forward pass, as a float, and its gradient
        over the flat params."""
        x = self._features(features)
        m = _check_kind(loss_kind, m)
        _check_shapes((x.shape[0], self.spec.num_classes), gt, m)
        values, grad = _kernel(self.spec, self.params, x, gt.labels[None, :], loss_kind, m)
        return float(values[0]), grad


def _unpack(spec: ModelSpec, params: np.ndarray):
    f, l = spec.input_features, spec.num_classes
    if spec.kind == "linear":
        return params[: l * f].reshape(l, f), params[l * f:]
    h = spec.hidden_width
    o1, o2, o3 = h * f, h * f + h, h * f + h + l * h
    return (params[:o1].reshape(h, f), params[o1:o2], params[o2:o3].reshape(l, h),
            params[o3:])


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Class-major probabilities [L, N] for the feature rows x [N, F].

    Also returns the MLP's ReLU activations [H, N], which backward needs
    (None for the linear model).  Inputs are trusted: finite parameters
    and features give finite logits.
    """
    if spec.kind == "linear":
        w, b = _unpack(spec, params)
        hidden = None
        z = w @ x.T
    else:
        w1, b1, w2, b = _unpack(spec, params)
        hidden = w1 @ x.T
        hidden += b1[:, None]
        np.maximum(hidden, 0.0, out=hidden)
        z = w2 @ hidden
    z += b[:, None]
    return softmax_inplace(z, axis=0), hidden


def ensemble_labels(models, features) -> np.ndarray:
    """Per-voxel argmax [V] of the members' mean softmax on one case.

    Class-major from end to end: each member's [L, V] probabilities are
    summed in place, in member order, and divided once by the member
    count, the arithmetic ``metrics.ensemble_mean_softmax`` does, so the
    labels equal the argmax of its rows.  The features are checked once
    and the mean once; a member whose logits overflow makes the mean
    non-finite, which raises ValueError.
    """
    models = list(models)
    if not models:
        raise ValueError("ensemble needs at least one model")
    first = models[0].spec
    x = models[0]._features(features)
    total, _ = _forward(first, models[0].params, x)
    for i, model in enumerate(models[1:], start=1):
        spec = model.spec
        if (spec.input_features, spec.num_classes) != (first.input_features, first.num_classes):
            raise ValueError(f"ensemble member {i} differs from member 0 in its feature "
                             f"width or class count")
        total += _forward(spec, model.params, x)[0]
    total /= len(models)
    require_finite(total, "ensemble probabilities")
    return np.argmax(total, axis=0)


def _kernel(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray,
            loss_kind: str, m: DistanceMatrix | None):
    """Forward, loss and backward over B same-size cases in one pass.

    x holds the cases' feature rows back to back, [B*V, F], and labels
    their [B, V] label maps.  Returns the per-case loss values [B] and the
    parameter gradient of the summed loss.  The loss arguments are trusted:
    the callers check them.
    """
    num_cases, num_voxels = labels.shape
    probs, hidden = _forward(spec, params, x)
    values, prob_grad = _batch_terms(
        loss_kind, probs.reshape(-1, num_cases, num_voxels), labels, m, want_gradient=True)
    # Softmax Jacobian, column by column: dz = p * (g - coldot(g, p)).
    g = prob_grad.reshape(probs.shape)
    dz = g - np.einsum("ln,ln->n", g, probs)
    dz *= probs
    if spec.kind == "linear":
        grad = np.concatenate([(dz @ x).reshape(-1), dz.sum(axis=1)])
    else:
        _, _, w2, _ = _unpack(spec, params)
        dw2 = dz @ hidden.T
        db2 = dz.sum(axis=1)
        relu_mask = hidden > 0.0  # the activation is positive iff its input was
        dh = np.matmul(w2.T, dz, out=hidden)  # the activations are spent: reuse them
        dh *= relu_mask
        grad = np.concatenate([(dh @ x).reshape(-1), dh.sum(axis=1), dw2.reshape(-1), db2])
    return values, grad


def batch_gradient(spec: ModelSpec, params: np.ndarray, cases, batch,
                   loss_kind: str, m: DistanceMatrix | None = None):
    """Per-case loss values and mean parameter gradient of one optimizer step.

    ``batch`` indexes ``cases`` and may repeat an index (DRO draws with
    replacement).  Cases are grouped by voxel count and each group goes
    through the kernel as one block, so mixed 2-D/3-D datasets work.
    Values come back in batch order.  Nothing is validated here: train()
    checks the dataset, parameters and loss arguments once, on entry.
    """
    groups: dict[int, list[int]] = {}
    for pos, idx in enumerate(batch):
        groups.setdefault(cases[int(idx)].num_voxels, []).append(pos)
    values = np.empty(len(batch))
    grad = None
    for positions in groups.values():
        # The group's stacked inputs live only for the duration of the call.
        group_values, group_grad = _kernel(
            spec, params, *_stack([cases[int(batch[pos])] for pos in positions]),
            loss_kind, m)
        values[positions] = group_values
        grad = group_grad if grad is None else grad + group_grad
    grad /= len(batch)
    return values, grad


def _stack(members):
    """Feature rows [B*V, F] and labels [B, V] of same-size cases, back to back."""
    if len(members) == 1:
        return members[0].features, members[0].labels.labels[None, :]
    return (np.concatenate([case.features for case in members]),
            np.stack([case.labels.labels for case in members]))


@dataclass
class TrainConfig:
    """Every training setting, with its default.  ``distance_matrix`` is
    None unless ``loss`` is a gwdl kind; other kinds drop a given matrix."""

    loss: str = "dice_ce"
    distance_matrix: DistanceMatrix | None = None
    sampler_mode: str = "erm_shuffle"
    beta: float | None = None
    optimizer: str = "sgd"
    lr: float | None = None
    lookahead_k: int | None = None
    lookahead_alpha: float | None = None
    epochs: int = 1000
    batch_size: int = 2
    seed: int = 0

    def __post_init__(self):
        self.distance_matrix = _check_kind(self.loss, self.distance_matrix)
        if self.sampler_mode not in SAMPLER_MODES:
            raise ValueError(
                f"unknown sampler mode {self.sampler_mode!r}, expected one of {SAMPLER_MODES}"
            )
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZER_KINDS}"
            )
        if self.lr is None:
            self.lr = DEFAULT_LR[self.optimizer]
        if self.lookahead_k is None:
            self.lookahead_k = LOOKAHEAD_K
        if self.lookahead_alpha is None:
            self.lookahead_alpha = LOOKAHEAD_ALPHA
        # Checked whatever the optimizer, so a bad value fails before training.
        _check_lookahead(self.lookahead_k, self.lookahead_alpha)
        if self.beta is None:
            self.beta = DEFAULT_BETA
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    lr: float
    sampler_entropy: float


@dataclass
class TrainedModel:
    spec: ModelSpec
    params: np.ndarray
    training_log: list = field(default_factory=list)
    # Final sampler state from a DRO run; None for ERM. Not serialized.
    sampler: HardnessWeightedSampler | None = None

    def model(self) -> Model:
        return Model(self.spec, self.params)


def _check_matrix(spec: ModelSpec, m: DistanceMatrix | None) -> None:
    """A training config's distance matrix, if any, has the model's classes."""
    if m is not None and m.num_classes != spec.num_classes:
        raise ValueError(
            f"distance matrix is {m.num_classes}x{m.num_classes}, "
            f"model has {spec.num_classes} classes"
        )


def _check_inputs(model: Model, dataset, config: TrainConfig) -> None:
    """Everything the training kernel trusts, checked once on entry."""
    spec = model.spec
    if not dataset:
        raise ValueError("training dataset is empty")
    require_finite(model.params, "params")
    _check_matrix(spec, config.distance_matrix)
    for case in dataset:
        shape = np.shape(case.features)
        if len(shape) != 2 or shape[1] != spec.input_features:
            raise ValueError(
                f"case {case.case_id!r} has features of shape {shape}, "
                f"model expects [V, {spec.input_features}]"
            )
        if shape[0] != case.labels.num_voxels:
            raise ValueError(
                f"case {case.case_id!r}: {shape[0]} feature rows vs "
                f"{case.labels.num_voxels} labels"
            )
        if case.labels.num_classes != spec.num_classes:
            raise ValueError(
                f"case {case.case_id!r} declares {case.labels.num_classes} classes, "
                f"model expects {spec.num_classes}"
            )
        require_finite(case.features, f"features of case {case.case_id!r}")


def train(model: Model, dataset, config: TrainConfig) -> TrainedModel:
    """Run the training loop; deterministic given the config seed.

    Each epoch draws len(dataset) cases: a fresh permutation in
    erm_shuffle mode, hardness-weighted draws with replacement in dro
    mode.  Draws are consumed in batches; the optimizer steps once per
    batch on the mean of the per-case gradients, at the epoch's scheduled
    learning rate.  Each batch's per-case losses reach the divergence
    guard and the sampler in batch order.
    """
    dataset = list(dataset)
    _check_inputs(model, dataset, config)
    n = len(dataset)

    optimizer = make_optimizer(config.optimizer, config.lr,
                               config.lookahead_k, config.lookahead_alpha)
    params = model.params.copy()
    log = []
    sampler = None
    shuffle_rng = None
    if config.sampler_mode == "dro":
        sampler = HardnessWeightedSampler(n, beta=config.beta, seed=config.seed + 1)
    else:
        shuffle_rng = Rng(config.seed)

    if config.epochs == 0:
        return TrainedModel(model.spec, params, log, sampler)

    schedule = PolySchedule(initial_lr=config.lr, t_max=config.epochs)
    for epoch in range(config.epochs):
        lr = schedule.at(epoch)
        if sampler is not None:
            order = sampler.sample_batch(n)
        else:
            order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            values, grad = batch_gradient(model.spec, params, dataset, batch,
                                          config.loss, config.distance_matrix)
            for idx, value in zip(batch, values.tolist()):
                if not math.isfinite(value) or abs(value) > DIVERGENCE_LIMIT:
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch}: "
                        f"loss {value!r} on case {dataset[int(idx)].case_id!r}"
                    )
                epoch_losses.append(value)
                if sampler is not None:
                    sampler.update_loss(int(idx), value)
            params = optimizer.step(params, grad, lr=lr)
            peak = float(np.abs(params).max())
            if not np.isfinite(params).all() or peak > PARAM_LIMIT:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: "
                    f"parameter magnitude {peak:.3e}"
                )
        entropy = sampler.entropy() if sampler is not None else math.log(n)
        log.append(EpochRecord(epoch=epoch, loss=float(np.mean(epoch_losses)),
                               lr=lr, sampler_entropy=entropy))
    return TrainedModel(model.spec, params, log, sampler)


def _spec_from_dict(doc: dict) -> ModelSpec:
    keys = ("kind", "input_features", "num_classes", "hidden_width", "seed")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"model spec is missing fields {missing}")
    hidden = doc["hidden_width"]
    return ModelSpec(
        kind=str(doc["kind"]),
        input_features=int(doc["input_features"]),
        num_classes=int(doc["num_classes"]),
        hidden_width=None if hidden is None else int(hidden),
        seed=int(doc["seed"]),
    )


def save_model(trained: TrainedModel, path) -> None:
    """JSON descriptor plus a raw little-endian float64 parameter sidecar."""
    path = str(path)
    stem = path[:-5] if path.endswith(".json") else path
    param_file = os.path.basename(stem) + ".params.bin"
    doc = {
        "spec": asdict(trained.spec),
        "param_file": param_file,
        "param_count": int(trained.params.size),
    }
    trained.params.astype("<f8").tofile(os.path.join(os.path.dirname(path) or ".", param_file))
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    path = str(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"model file not found: {path}")
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("spec", "param_file", "param_count"):
        if key not in doc:
            raise ValueError(f"model file {path} is missing field {key!r}")
    spec = _spec_from_dict(doc["spec"])
    param_path = os.path.join(os.path.dirname(path) or ".", doc["param_file"])
    if not os.path.exists(param_path):
        raise FileNotFoundError(f"parameter file not found: {param_path}")
    count = int(doc["param_count"])
    expected_bytes = count * 8
    actual = os.path.getsize(param_path)
    if actual != expected_bytes:
        raise ValueError(
            f"size mismatch in {param_path}: {actual} bytes, expected {expected_bytes}"
        )
    params = np.fromfile(param_path, dtype="<f8")
    if count != spec.param_count():
        raise ValueError(
            f"param_count {count} does not match spec ({spec.param_count()})"
        )
    require_finite(params, "params")
    return TrainedModel(spec=spec, params=params)


def write_training_log(trained: TrainedModel, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "lr", "sampler_entropy"])
        for rec in trained.training_log:
            writer.writerow([rec.epoch, repr(rec.loss), repr(rec.lr),
                             repr(rec.sampler_entropy)])
