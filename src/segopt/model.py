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

train() checks the parameters, the model fit and the loss once, then runs
one kernel call per optimizer step: the batch's cases are grouped by voxel
count, each group is concatenated into one class-major block, and a single
forward, loss and backward pass gives every case's loss value and the
batch's mean parameter gradient.  The run's one losses._Loss carries what
does not change during a run: the loss's index offsets and gradient
constants.  The optimizer's public step() checks only shapes and the
rate, since train() checks the parameters for finiteness after every
step.  Each synthdata.Case was checked when made and cannot change.
A Case keeps its features and labels at the width they were read with
(float32 and uint8 from a case file); they are widened to float64 and
np.intp only where the kernel computes: _stack builds each step's
block in those dtypes, and Model.forward() and Model.backward() widen
theirs through as_f64.  Model.backward() is the same kernel on one case;
Model.forward() runs only its forward half, _forward(), with no loss.
_forward() is the one forward pass: training and Model.forward() let it
allocate its outputs, the ensemble hands it buffers.

Ensemble is the one way to label a case: Ensemble(models).labels(case)
returns its LabelMap.  The members are checked against each other once,
when the Ensemble is made.  It owns one set of buffers, sized for a block
of ENSEMBLE_BLOCK_VOXELS voxels; labels() runs the members over a case
block by block, and every step of the forward pass, the mean and the
argmax writes into those buffers.  evaluate gives each worker thread its
own Ensemble, so a case allocates only its labels.
The loop wires in a loss kind, an epoch-level learning rate schedule,
an optimizer, and a population: plain shuffling ("erm") or the
hardness-weighted sampler ("dro").
Reweighting for dro lives entirely in the sampling distribution; batch
gradients stay unweighted means.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .dro import DEFAULT_BETA, HardnessWeightedSampler, _check_beta
from .losses import DistanceMatrix, LabelMap, _batch_terms, _check_kind, _check_shapes, _Loss
from .numerics import (Rng, as_f64, check_seed, json_int, parsing, read_array, read_json,
                       require_finite, softmax_inplace, write_array, write_csv, write_json)
# Not called in this module, but kept as its attributes: the benchmark's
# tracer (perfbench/tracer.py) patches segopt.model.composite_loss and
# segopt.model.softmax.
from .losses import composite_loss  # noqa: F401
from .numerics import softmax  # noqa: F401
from .optim import DEFAULT_LR, OPTIMIZER_KINDS, PolySchedule, _check_lr, make_optimizer
from .synthdata import Case

__all__ = [
    "MODEL_KINDS",
    "POPULATIONS",
    "PARAM_LIMIT",
    "ModelSpec",
    "Model",
    "TrainConfig",
    "EpochRecord",
    "TrainedModel",
    "TrainingDiverged",
    "ENSEMBLE_BLOCK_VOXELS",
    "Ensemble",
    "train",
    "save_model",
    "load_model",
    "write_training_log",
]

MODEL_KINDS = ("linear", "mlp")
POPULATIONS = ("erm", "dro")
# Every loss here is bounded for finite probabilities, so runaway steps
# show up as exploding weights, and the loop polices their magnitude.
PARAM_LIMIT = 1e8
# Ensemble.labels runs the members over blocks of this many voxels, in
# buffers that one worker makes once and reuses for every block and case.
# evaluate of four linear members on 24 cases of 32x32x32, in process, by
# block size (median over 6 fresh processes of the fastest of 12 calls;
# peak RSS and minor page faults per call; 2-core VM, one BLAS thread):
#   block    one thread               two threads
#   8,192    306 ms  60.0 MB  9,550   208 ms  64.1 MB  5,119
#   16,384   289 ms  60.9 MB  1,990   209 ms  65.7 MB  1,627
#   32,768   298 ms  62.6 MB  1,267   194 ms  69.0 MB  2,391
# Whole-case buffers (32,768 here) are a little faster on two threads but
# raise the peak RSS above the unblocked ensemble's (66.3-66.9 MB on two
# threads); 8,192-voxel blocks are no faster and fault more.
ENSEMBLE_BLOCK_VOXELS = 16384


class TrainingDiverged(RuntimeError):
    """Raised when a per-case loss goes non-finite or the parameters pass PARAM_LIMIT."""


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
        check_seed(self.seed, "model seed")

    def check_fit(self, features: int, classes: int, model: str, data: str) -> None:
        """Raise unless ``data``, named in the message after ``model``, has
        this spec's feature width and class count."""
        if (features, classes) != (self.input_features, self.num_classes):
            raise ValueError(f"{model} expects {self.input_features} features and "
                             f"{self.num_classes} classes, {data} has {features} and {classes}")

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

    def forward(self, features) -> np.ndarray:
        """Softmax probabilities [V, L] on feature rows [V, F], a new float64
        C-contiguous array.  Cases are labelled through Ensemble; this stays because
        perfbench/tracer.py patches it and the ensemble tests take it as their reference."""
        probs, _ = _forward(self.spec, self.params, self._features(features).T)
        return np.ascontiguousarray(probs.T)

    def backward(self, features, gt: LabelMap, loss_kind: str,
                 m: DistanceMatrix | None = None):
        """The loss value on the forward pass, as a float, and its gradient
        over the flat params."""
        x = self._features(features)
        loss = _Loss(loss_kind, m, self.spec.num_classes)
        _check_shapes((x.shape[0], self.spec.num_classes), gt)
        values, grad = _kernel(self.spec, self.params, x, gt.labels[None, :], loss)
        return float(values[0]), grad


def _unpack(spec: ModelSpec, params: np.ndarray):
    f, l = spec.input_features, spec.num_classes
    if spec.kind == "linear":
        return params[: l * f].reshape(l, f), params[l * f:]
    h = spec.hidden_width
    o1, o2, o3 = h * f, h * f + h, h * f + h + l * h
    return (params[:o1].reshape(h, f), params[o1:o2], params[o2:o3].reshape(l, h),
            params[o3:])


def _forward(spec: ModelSpec, params: np.ndarray, xt: np.ndarray, probs=None, hidden=None,
             col=None):
    """Class-major probabilities [L, N] for the features xt [F, N], and the
    MLP's ReLU activations [H, N], which backward needs (None for the
    linear model).

    Each goes into the buffer given for it, as numpy's ``out=``, or into a
    new array when that is None: probs [L, N], hidden [H, N], and col
    [1, N], each column's max and then its sum.  The softmax runs down
    axis 0, in numerics.softmax_inplace.  Inputs are trusted: finite
    parameters and features give finite logits.
    """
    if spec.kind == "linear":
        w, b = _unpack(spec, params)
        probs = np.matmul(w, xt, out=probs)
    else:
        w1, b1, w2, b = _unpack(spec, params)
        hidden = np.matmul(w1, xt, out=hidden)
        hidden += b1[:, None]
        np.maximum(hidden, 0.0, out=hidden)
        probs = np.matmul(w2, hidden, out=probs)
    probs += b[:, None]
    return softmax_inplace(probs, 0, col), hidden


class Ensemble:
    """A mean-softmax ensemble of members with one worker's buffers.

    Members are checked once, here: each must have member 0's feature width
    and class count, or ValueError names it; hidden widths may differ.

    labels() runs the members over blocks of ENSEMBLE_BLOCK_VOXELS voxels,
    in buffers made here once and reused for every block of every case:
    the block's features, widened once into a C-contiguous [F, n] float64
    block; each member's [L, n] probabilities; their running [L, n] sum;
    the [1, n] column max and sum; the MLP's [H, n] activations; and the
    argmax's [n] comparison.  Every step writes into them, so a case
    allocates only its labels.  An Ensemble is not thread-safe: each
    thread that labels cases makes its own.
    """

    def __init__(self, models):
        self.models = list(models)
        if not self.models:
            raise ValueError("ensemble needs at least one model")
        self.spec = self.models[0].spec
        for i, model in enumerate(self.models[1:], start=1):
            self.spec.check_fit(model.spec.input_features, model.spec.num_classes,
                                "ensemble member 0", f"ensemble member {i}")
        n = ENSEMBLE_BLOCK_VOXELS
        self._x = np.empty(self.spec.input_features * n)
        self._total = np.empty(self.spec.num_classes * n)
        self._probs = np.empty(self._total.size)
        self._col = np.empty((1, n))
        self._hidden = np.empty(max(m.spec.hidden_width or 0 for m in self.models) * n)
        self._greater = np.empty(n, dtype=bool)

    def labels(self, case: Case) -> LabelMap:
        """The per-voxel argmax of the members' mean softmax on one checked
        case, as a LabelMap on the case's grid.

        The case's fit to the members is checked first, once.  Per block,
        the members' [L, n] probabilities are summed in place, in member
        order, and divided once by the member count, the arithmetic
        ``metrics.ensemble_mean_softmax`` does, so the labels equal the
        argmax of its rows.  BLAS may compute a short last block through
        another kernel than the same columns of a whole-case matmul, so
        those voxels' means can differ from it in the last bits.  The mean
        is checked: a member whose logits overflow makes it non-finite,
        which raises ValueError.

        The argmax runs over the L class rows, each a contiguous [n] row: a
        voxel's label becomes k where row k beats the best of rows 0..k-1,
        which then takes row k's larger values.  The comparison is strict,
        so a tie goes to the lowest class, as with ``np.argmax``.
        """
        gt = case.labels
        self.spec.check_fit(case.features.shape[1], gt.num_classes, "the ensemble",
                            f"case {case.case_id!r}")
        rows = case.features
        labels = np.zeros(rows.shape[0], dtype=gt.labels.dtype)
        for start in range(0, rows.shape[0], ENSEMBLE_BLOCK_VOXELS):
            stop = start + ENSEMBLE_BLOCK_VOXELS
            self._block(rows[start:stop], labels[start:stop])
        return LabelMap(labels, gt.num_classes, gt.spatial_shape)

    def _block(self, rows: np.ndarray, labels: np.ndarray) -> None:
        """Write the labels of the feature rows [n, F] into labels [n]."""
        total = self._mean(rows)
        # np.argmax(total, axis=0) walks the [L, n] block across its rows and
        # took twice as long.
        greater = self._greater[:rows.shape[0]]
        best = total[0]
        for k in range(1, total.shape[0]):
            row = total[k]
            np.greater(row, best, out=greater)
            labels[greater] = k
            np.maximum(best, row, out=best)

    def _mean(self, rows: np.ndarray) -> np.ndarray:
        """The members' checked mean probabilities [L, n] on the feature rows
        [n, F], a view of this Ensemble's buffer."""
        n, f = rows.shape
        num_classes = self.spec.num_classes
        # Flat buffers cut to n columns keep every block contiguous.
        xt = self._x[:f * n].reshape(f, n)
        np.copyto(xt, rows.T)
        total = self._total[:num_classes * n].reshape(num_classes, n)
        probs = self._probs[:num_classes * n].reshape(num_classes, n)
        col = self._col[:, :n]
        first, *rest = self.models
        _forward(first.spec, first.params, xt, total, self._hidden_for(first, n), col)
        for model in rest:
            total += _forward(model.spec, model.params, xt, probs, self._hidden_for(model, n),
                              col)[0]
        total /= len(self.models)
        require_finite(total, "ensemble probabilities")
        return total

    def _hidden_for(self, model: Model, n: int) -> np.ndarray | None:
        h = model.spec.hidden_width
        return None if h is None else self._hidden[:h * n].reshape(h, n)


def _kernel(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray, loss: _Loss):
    """Forward, loss and backward over B same-size cases in one pass.

    x holds the cases' feature rows back to back, [B*V, F], and labels
    their [B, V] label maps.  Returns the per-case loss values [B] and the
    parameter gradient of the summed loss.  ``loss`` was checked for the
    spec's class count when made; the shapes are the callers' contract.
    """
    num_cases, num_voxels = labels.shape
    probs, hidden = _forward(spec, params, x.T)
    values, prob_grad = _batch_terms(loss, probs.reshape(-1, num_cases, num_voxels), labels,
                                     want_gradient=True)
    # Softmax Jacobian, column by column: dz = p * (g - coldot(g, p)),
    # in the loss gradient's own buffer.
    dz = prob_grad.reshape(probs.shape)
    dz -= np.einsum("ln,ln->n", dz, probs)
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


def _gradient(spec: ModelSpec, params: np.ndarray, cases, batch, loss: _Loss):
    """Per-case loss values, in batch order, and mean parameter gradient
    of one step on ``batch``, indexes into ``cases`` that may repeat (DRO
    draws with replacement).  Cases go through the kernel grouped by voxel
    count, so mixed 2-D/3-D datasets work.  Unchecked: train() checks its
    inputs on entry and passes every step the run's one ``loss``, whose
    tables are built once and read by every later step."""
    groups: dict[int, list[int]] = {}
    for pos, idx in enumerate(batch):
        groups.setdefault(cases[int(idx)].num_voxels, []).append(pos)
    values = np.empty(len(batch))
    grad = None
    for positions in groups.values():
        members = [int(batch[pos]) for pos in positions]
        # The group's stacked inputs live only for the duration of the call.
        group_values, group_grad = _kernel(
            spec, params, *_stack([cases[idx] for idx in members]), loss)
        values[positions] = group_values
        grad = group_grad if grad is None else grad + group_grad
    grad /= len(batch)
    return values, grad


def _stack(members):
    """Feature rows [B*V, F] float64 and labels [B, V] np.intp of same-size
    cases, back to back: the cases' narrow copies, widened here."""
    return (np.concatenate([case.features for case in members], dtype=np.float64),
            np.concatenate([case.labels.labels for case in members],
                           dtype=np.intp).reshape(len(members), -1))


@dataclass
class TrainConfig:
    """Every training setting, with its default.  ``distance_matrix`` is
    None unless ``loss`` is a gwdl kind; other kinds drop a given matrix.
    ``lr`` None resolves to the optimizer kind's DEFAULT_LR, here alone."""

    loss: str = "dice_ce"
    distance_matrix: DistanceMatrix | None = None
    population: str = "erm"
    beta: float = DEFAULT_BETA
    optimizer: str = "sgd"
    lr: float | None = None
    epochs: int = 1000
    batch_size: int = 2
    seed: int = 0

    def __post_init__(self):
        self.distance_matrix = _check_kind(self.loss, self.distance_matrix)
        if self.population not in POPULATIONS:
            raise ValueError(
                f"unknown population {self.population!r}, expected one of {POPULATIONS}"
            )
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZER_KINDS}"
            )
        if self.lr is None:
            self.lr = DEFAULT_LR[self.optimizer]
        _check_lr(self.lr)
        _check_beta(self.beta)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # train() seeds the shuffle with seed and the dro sampler with seed + 1.
        check_seed(self.seed)
        check_seed(self.seed + 1, "seed + 1 (the dro sampler's seed)")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    lr: float
    sampler_entropy: float


@dataclass
class TrainedModel:
    """train()'s fitted Model, one EpochRecord per epoch, and a dro run's
    final sampler (None for erm); save_model writes the model alone."""

    model: Model
    training_log: list = field(default_factory=list)
    sampler: HardnessWeightedSampler | None = None


def _check_inputs(model: Model, dataset, config: TrainConfig) -> _Loss:
    """What the training kernel trusts and a Case cannot know, checked once
    on entry: a non-empty dataset, finite parameters, the loss for the
    model's class count (returned: the run's _Loss) and each case's fit."""
    spec = model.spec
    if not dataset:
        raise ValueError("training dataset is empty")
    require_finite(model.params, "params")
    loss = _Loss(config.loss, config.distance_matrix, spec.num_classes)
    for case in dataset:
        spec.check_fit(case.features.shape[1], case.labels.num_classes, "model",
                       f"case {case.case_id!r}")
    return loss


def train(model: Model, dataset, config: TrainConfig) -> TrainedModel:
    """Run the training loop; deterministic given the config seed.

    Each epoch draws len(dataset) cases: a fresh permutation for the
    erm population, hardness-weighted draws with replacement for dro.
    Draws are consumed in batches; the optimizer steps once per batch on
    the mean of the per-case gradients, at the epoch's scheduled
    learning rate.  Each batch's per-case losses reach the divergence
    guard and the sampler in batch order.

    The inputs are checked once, on entry, and the loss tables that are
    constant for the dataset are built once per run (see _gradient); each step
    then calls the optimizer's step(), which leaves finiteness to this
    loop: the parameters are checked for finiteness and magnitude after
    every step.
    """
    dataset = list(dataset)
    loss = _check_inputs(model, dataset, config)
    n = len(dataset)

    optimizer = make_optimizer(config.optimizer)
    params = model.params.copy()
    log = []
    sampler = None
    shuffle_rng = None
    if config.population == "dro":
        sampler = HardnessWeightedSampler(n, beta=config.beta, seed=config.seed + 1)
    else:
        shuffle_rng = Rng(config.seed)

    if config.epochs == 0:
        return TrainedModel(Model(model.spec, params), log, sampler)

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
            values, grad = _gradient(model.spec, params, dataset, batch, loss)
            for idx, value in zip(batch, values.tolist()):
                if not math.isfinite(value):
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch}: "
                        f"loss {value!r} on case {dataset[int(idx)].case_id!r}"
                    )
                epoch_losses.append(value)
                if sampler is not None:
                    sampler.update_loss(int(idx), value)
            params = optimizer.step(params, grad, lr)
            peak = float(np.abs(params).max())
            if not peak <= PARAM_LIMIT:  # also true for NaN and inf
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: "
                    f"parameter magnitude {peak:.3e}"
                )
        entropy = sampler.entropy() if sampler is not None else math.log(n)
        log.append(EpochRecord(epoch=epoch, loss=float(np.mean(epoch_losses)),
                               lr=lr, sampler_entropy=entropy))
    return TrainedModel(Model(model.spec, params), log, sampler)


def save_model(model: Model, path) -> None:
    """Write a JSON descriptor plus a raw little-endian float64 parameter
    sidecar, ``<stem>.params.bin`` beside it; load_model reads them back.
    A Model's params stay writable, so they are checked again here, before
    any file is made: every file written here loads."""
    model = Model(model.spec, model.params)
    path = str(path)
    stem = path[:-5] if path.endswith(".json") else path
    param_file = os.path.basename(stem) + ".params.bin"
    doc = {
        "spec": asdict(model.spec),
        "param_file": param_file,
        "param_count": int(model.params.size),
    }
    write_array(os.path.join(os.path.dirname(path) or ".", param_file), model.params, "<f8")
    write_json(path, doc)


def load_model(path) -> Model:
    """Read a model that save_model wrote, naming the file in every error.
    The descriptor is checked whole before the sidecar is read; the
    parameters come back as a writable float64 array."""
    path = str(path)
    doc = read_json(path, "model file", ("spec", "param_file", "param_count"))
    with parsing("model file", path):
        fields = doc["spec"]
        hidden = fields["hidden_width"]
        spec = ModelSpec(
            kind=str(fields["kind"]),
            input_features=json_int(fields["input_features"], "input_features"),
            num_classes=json_int(fields["num_classes"], "num_classes"),
            hidden_width=None if hidden is None else json_int(hidden, "hidden_width"),
            seed=json_int(fields["seed"], "seed"),
        )
        param_path = os.path.join(os.path.dirname(path) or ".", doc["param_file"])
        count = json_int(doc["param_count"], "param_count")
        if count != spec.param_count():
            raise ValueError(f"param_count {count} does not match spec ({spec.param_count()})")
    params = read_array(param_path, "<f8", count, "parameter file").copy()  # writable
    require_finite(params, param_path)
    return Model(spec, params)


def write_training_log(trained: TrainedModel, path) -> None:
    write_csv(path, ["epoch", "loss", "lr", "sampler_entropy"],
              ([rec.epoch, repr(rec.loss), repr(rec.lr), repr(rec.sampler_entropy)]
               for rec in trained.training_log))
