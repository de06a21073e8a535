"""Per-sample segmentation losses with analytic gradients.

composite_loss(kind, ...) is the one per-case entry point, for every kind
in LOSS_KINDS.  It takes a soft prediction, a plain [V, L] array (V voxels,
L classes, each row a probability vector), against an integer label map,
and returns the scalar value and, on request, the gradient with respect
to the predicted probabilities.  Gradients are taken in probability space;
composing with the softmax Jacobian is the model's job, which keeps the
loss math independent of the classifier head.

_batch_terms() is the one batched core behind it: B same-size cases in
class-major layout [L, B, V], values reduced per case along V.  It reads
a _Loss, checked when made and carrying the tables the core builds on
first use: training makes one per run, every other caller one per call.

The centerpiece is the generalized Wasserstein Dice loss: a Dice-style
overlap loss whose per-voxel error is the earth-mover distance between the
predicted class distribution and the one-hot ground truth under an
inter-class ground-distance matrix.  Semantically close mistakes (e.g.
confusing two tumor subregions) cost less than mistakes across the
background boundary, which is what makes the loss fit hierarchical label
sets like the BraTS tumor regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import json_int, parsing, read_json, require_finite

__all__ = [
    "SMOOTH_EPS",
    "CE_CLAMP",
    "MAX_LOSS",
    "LOSS_KINDS",
    "LabelMap",
    "DistanceMatrix",
    "LossValue",
    "brats_distance_matrix",
    "load_distance_matrix",
    "wasserstein_voxel",
    "wasserstein_per_voxel",
    "composite_loss",
]

# Smoothing added to numerator and denominator of the Dice-style quotients;
# keeps the all-background / zero-foreground-mass case at 0/0 well defined.
SMOOTH_EPS = 1e-5

# Probability floor inside the cross-entropy log.
CE_CLAMP = 1e-12

# No loss kind exceeds this for finite probabilities: the Dice and GWDL parts
# are at most 1, and the clamped cross-entropy is at most -ln CE_CLAMP.
MAX_LOSS = 1.0 - math.log(CE_CLAMP)

LOSS_KINDS = ("ce", "dice", "gwdl", "dice_ce", "gwdl_ce")

# The background class of every label map, prediction and distance matrix.
BACKGROUND = 0


@dataclass(frozen=True)
class LabelMap:
    """Integer-labeled segmentation, flattened row-major from its grid.  Frozen,
    with its own read-only copy of the labels, so they stay the ones a Case
    was checked against.

    The copy is of the narrowest type that holds every class,
    ``np.min_scalar_type(num_classes - 1)``: uint8 up to 256 classes, as
    the uint8 label files hold.  Arithmetic on it wraps or overflows, so
    it is widened to np.intp where labels become indices: _batch_terms
    casts on entry and model._stack concatenates into np.intp.  A value
    that is not an integer is refused, not truncated."""

    labels: np.ndarray
    num_classes: int
    spatial_shape: tuple[int, ...]

    def __post_init__(self):
        given = np.asarray(self.labels)
        if given.ndim != 1:
            raise ValueError("labels must be a flat sequence")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if given.dtype.kind not in "biu":
            given = np.asarray(given, dtype=np.float64)
            fractional = given != np.trunc(given)  # NaN too
            if np.any(fractional):
                i = int(np.argmax(fractional))
                raise ValueError(f"labels must be integers, entry {i} is {float(given[i])!r}")
        if given.size and (given.min() < 0 or given.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"found range [{given.min()}, {given.max()}]"
            )
        shape = tuple(int(s) for s in self.spatial_shape)
        if math.prod(shape) != given.size:
            raise ValueError(f"spatial shape {shape} does not cover {given.size} voxels")
        lab = given.astype(np.min_scalar_type(self.num_classes - 1))
        lab.flags.writeable = False
        object.__setattr__(self, "spatial_shape", shape)
        object.__setattr__(self, "labels", lab)

    @property
    def num_voxels(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric zero-diagonal ground-distance matrix between classes.

    Entries live in [0, 1]; the row/column of the background class
    BACKGROUND (class 0) sits at the maximal distance 1 from every other
    class, so background mistakes always pay full price while distances
    between foreground classes encode how much they have in common.
    Frozen, with its own read-only copy of ``m``, as checked.
    """

    m: np.ndarray

    def __post_init__(self):
        """Check every structural invariant, naming the first offending entry."""
        m = np.array(self.m, dtype=np.float64, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {m.shape}")
        L, b = m.shape[0], BACKGROUND
        if L == 0:
            raise ValueError("distance matrix has no classes")
        require_finite(m, "distance matrix")
        if np.any(m < 0.0) or np.any(m > 1.0):
            i, j = np.unravel_index(int(np.argmax((m < 0) | (m > 1))), m.shape)
            raise ValueError(f"entry ({i},{j})={m[i, j]} outside [0, 1]")
        diag = np.diagonal(m)
        if np.any(diag != 0.0):
            i = int(np.argmax(diag != 0.0))
            raise ValueError(f"nonzero diagonal at ({i},{i})={m[i, i]}")
        asym = m != m.T
        if np.any(asym):
            i, j = np.unravel_index(int(np.argmax(asym)), m.shape)
            raise ValueError(f"asymmetric at ({i},{j}): {m[i, j]} != {m[j, i]}")
        wrong = m[b] != 1.0  # m is symmetric, so its background row stands for the column
        wrong[b] = False
        if np.any(wrong):
            j = int(np.argmax(wrong))
            raise ValueError(
                f"background row/column must be 1 off-diagonal, entry ({b},{j})={m[b, j]}")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @property
    def num_classes(self) -> int:
        return self.m.shape[0]


def brats_distance_matrix() -> DistanceMatrix:
    """Default 4x4 matrix for the BraTS 2020 label set.

    Class indices: 0 background, 1 enhancing tumor, 2 edema,
    3 non-enhancing tumor.  Tumor-to-tumor distances are below 1 because
    the tumor classes share more with each other than with background.
    """
    return DistanceMatrix(
        m=np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 0.6, 0.5],
                [1.0, 0.6, 0.0, 0.7],
                [1.0, 0.5, 0.7, 0.0],
            ]
        ),
    )


def load_distance_matrix(path) -> DistanceMatrix:
    """Load a matrix from JSON: {"background_index": 0, "matrix": [[...]]}.
    Background is class 0, so the required "background_index" must be the
    JSON integer 0 (not a bool, float or string).  Every defect, the
    matrix's own checks included, is reported with the file's path."""
    doc = read_json(path, "distance-matrix file", ("matrix", "background_index"))
    with parsing("distance-matrix file", path):
        json_int(doc["background_index"], "background_index", only=BACKGROUND)
        return DistanceMatrix(m=doc["matrix"])


@dataclass
class LossValue:
    """Scalar loss plus, when requested, d(loss)/d(predicted probabilities)."""

    value: float
    gradient: np.ndarray | None = field(default=None)


def _pred_array(pred) -> np.ndarray:
    """The one check on a prediction from outside: its shape, not its values."""
    arr = np.asarray(pred, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"prediction must be [V, L], got shape {arr.shape}")
    return arr


def _check_shapes(shape, gt: LabelMap) -> None:
    """Check a [V, L] prediction shape against the labels."""
    num_voxels, num_classes = shape
    if num_voxels != gt.num_voxels:
        raise ValueError(
            f"prediction has {num_voxels} voxels but labels have {gt.num_voxels}"
        )
    if num_classes != gt.num_classes:
        raise ValueError(
            f"prediction has {num_classes} classes but labels declare {gt.num_classes}"
        )


def wasserstein_voxel(pred_row, gt_class: int, m: DistanceMatrix) -> float:
    """Earth-mover error of one voxel against a one-hot ground truth.

    With the ground truth concentrated on ``gt_class`` the transport plan is
    forced, so the distance collapses to the inner product of the matrix row
    for ``gt_class`` with the predicted distribution.  Kept here, with
    wasserstein_per_voxel, as the acceptance suite tests both directly.
    """
    row = np.asarray(pred_row, dtype=np.float64)
    if row.shape != (m.num_classes,):
        raise ValueError(
            f"prediction row has shape {row.shape}, expected ({m.num_classes},)"
        )
    if not 0 <= gt_class < m.num_classes:
        raise ValueError(f"class {gt_class} out of range")
    # same contraction kernel as wasserstein_per_voxel so the two entry
    # points agree bitwise
    return float(np.einsum("l,l->", m.m[gt_class], row))


def wasserstein_per_voxel(pred, gt: LabelMap, m: DistanceMatrix) -> np.ndarray:
    """Vectorized one-hot earth-mover error for every voxel, shape [V]."""
    p = _pred_array(pred)
    _Loss("gwdl", m, p.shape[1])
    _check_shapes(p.shape, gt)
    return np.einsum("vl,vl->v", m.m[gt.labels], p)


def _check_kind(kind: str, m: DistanceMatrix | None) -> DistanceMatrix | None:
    """Check a loss kind and return the distance matrix it uses: ``m`` for
    "gwdl" and "gwdl_ce", which require one, and None for every other kind."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")
    if "gwdl" not in kind:
        return None
    if m is None:
        raise ValueError(f"loss kind {kind!r} requires a distance matrix")
    return m


class _Loss:
    """One loss kind, checked with its distance matrix and class count when
    made, and the arrays _batch_terms reads that depend only on these and
    the batch shape, each built on first use."""

    def __init__(self, kind: str, m: DistanceMatrix | None, num_classes: int):
        self.m = _check_kind(kind, m)
        if self.m is not None and self.m.num_classes != num_classes:
            raise ValueError(f"distance matrix is {self.m.num_classes}x{self.m.num_classes}, "
                             f"model has {num_classes} classes")
        if kind in ("dice", "dice_ce") and num_classes < 2:
            raise ValueError("dice loss needs at least one foreground class")
        self.kind = kind
        self.num_classes = num_classes
        self._offsets = {}

    def offsets(self, B, V):
        """The flat index of each voxel of a [B, V] batch, and L times each case's index."""
        out = self._offsets.get((B, V))
        if out is None:
            out = self._offsets[B, V] = (np.arange(B * V).reshape(B, V),
                                         self.num_classes * np.arange(B)[:, None])
        return out

    @cached_property
    def own_class(self):
        """[L, 1, L] mask selecting, per class, the Dice gradient of its own voxels."""
        return np.eye(self.num_classes, dtype=bool)[:, None, :]

    @cached_property
    def gwdl_gradient(self):
        """GWDL's dA and dB tables, [l, 1, k] like m[k, l].

        dW/dp_l = m[gt, l], so the gradient depends on the case and the
        voxel's class only: dN picks up -dW on foreground voxels, dS picks
        up +dW everywhere; A = 2N + eps and B = 2N + S + eps.
        """
        dw = self.m.m.T[:, None, :]
        dn = np.where(np.arange(self.num_classes) != BACKGROUND, -dw, 0.0)
        return 2.0 * dn, 2.0 * dn + dw


def _batch_terms(loss, p, labels, want_gradient):
    """Per-case values of one loss kind over B cases of V voxels each.

    The layout is class-major: ``p[l, b, v]`` is the predicted
    probability of class l at voxel v of case b, a C-contiguous [L, B, V]
    block, and ``labels`` is the matching [B, V] integer array with
    entries in [0, L).  Every reduction runs along V, so case b's value
    depends on case b alone.  Returns the values, shape [B], and when
    requested the gradient of each case's value with respect to its own
    probabilities, shape [L, B, V].  Rows need not sum to 1 (finite
    differencing steps off the simplex).  Nothing is checked: ``loss``, a
    _Loss made for L classes, was checked when made, and the shapes and
    label range are the caller's contract.  ``labels`` may be a LabelMap's
    narrow copy: they are cast to np.intp on entry, since this is where
    they take part in index arithmetic, which in uint8 would wrap (a
    uint8 times 200) or raise OverflowError (a uint8 times 1152).

    Two index arrays replace one-hot masks: ``true_idx`` points at each
    voxel's ground-truth entry in the flattened block (gather the true
    class's probability, scatter the cross-entropy gradient), and
    ``case_class`` numbers each (case, class) pair, to sum per case and
    class with bincount and to spread per-(case, class) gradient tables
    back over the voxels.
    """
    L, B, V = p.shape
    labels = np.asarray(labels, dtype=np.intp)
    voxel_offsets, class_offsets = loss.offsets(B, V)
    true_idx = labels * (B * V)
    true_idx += voxel_offsets
    flat = p.reshape(L, B * V)
    true_p = flat.take(true_idx)
    base = None
    # case_class is built where it is passed, not kept, so it is freed
    # before the cross-entropy terms, where a step's memory peaks.
    if loss.kind in ("dice", "dice_ce"):
        base = _dice_terms(flat, true_p, labels + class_offsets, want_gradient, loss)
    elif loss.kind in ("gwdl", "gwdl_ce"):
        base = _gwdl_terms(flat, labels, true_idx, labels + class_offsets, want_gradient, loss)
    if loss.kind not in ("ce", "dice_ce", "gwdl_ce"):
        return base
    values, true_grad = _ce_terms(true_p, want_gradient)
    grad = None
    if want_gradient:
        grad = np.zeros(p.shape) if base is None else base[1]
        grad.reshape(-1)[true_idx] += true_grad
    if base is not None:
        values = base[0] + values
    return values, grad


def _spread(table, case_class):
    """grad[l, b, v] = table[l, b, k] for the class k of voxel v of case b."""
    L, B, K = table.shape
    return table.reshape(L, B * K).take(case_class, axis=1)


def _gwdl_terms(flat, labels, true_idx, case_class, want_gradient, loss):
    """Generalized Wasserstein Dice loss per case.

    Let W_i be the per-voxel earth-mover error and F the set of foreground
    voxels (ground-truth class != background).  The loss is

        1 - (2*N + eps) / (2*N + S + eps)

    with N = sum_{i in F} (1 - W_i) and S = sum_i W_i over all voxels.  The
    quotient is a Wasserstein-weighted Dice overlap that equals 1 for a
    perfect prediction, so the loss bottoms out at 0 there; the smoothing
    keeps the all-background case finite.  The distance matrix m is
    ``loss.m``.
    """
    # Per-voxel earth-mover error: W = (m @ p)[gt], column by column.
    w = (loss.m.m @ flat).take(true_idx)
    fg = labels != BACKGROUND
    n = np.where(fg, 1.0 - w, 0.0).sum(axis=-1)
    s = w.sum(axis=-1)
    a = 2.0 * n + SMOOTH_EPS
    b = 2.0 * n + s + SMOOTH_EPS
    values = 1.0 - a / b

    grad = None
    if want_gradient:
        # The quotient rule over the per-(class, true class) tables dA, dB.
        da, db = loss.gwdl_gradient
        a, b = a[:, None], b[:, None]
        grad = _spread((a * db - da * b) / (b * b), case_class)
    return values, grad


def _dice_terms(flat, true_p, case_class, want_gradient, loss):
    """Soft multi-class Dice loss per case, averaged over foreground classes.

    Per foreground class l the overlap quotient is
    (2*sum_i p_hat*p + eps) / (sum_i p_hat + sum_i p + eps); the loss is one
    minus the mean quotient.  The background class BACKGROUND is excluded
    from the mean; the _Loss made sure there is a foreground class.
    """
    L, (B, V) = flat.shape[0], true_p.shape
    n_fg = L - 1
    # Per (case, class): the probability mass on the class's own voxels
    # and the voxel count, both as [L, B].
    keys = case_class.reshape(-1)
    inter = np.bincount(keys, weights=true_p.reshape(-1), minlength=B * L)
    inter = inter.reshape(B, L).T
    counts = np.bincount(keys, minlength=B * L).reshape(B, L).T
    sums = flat.reshape(L, B, V).sum(axis=-1) + counts
    num = 2.0 * inter + SMOOTH_EPS
    den = sums + SMOOTH_EPS
    quotient = num / den
    quotient[BACKGROUND] = 0.0
    values = 1.0 - quotient.sum(axis=0) / n_fg

    grad = None
    if want_gradient:
        # d/dp_{l,b,v} of num/den is (2*onehot*den - num) / den^2: one value
        # on the voxels of class l, another off them; foreground classes only.
        sq = den * den
        on = -((2.0 * den - num) / sq) / n_fg
        off = -(-num / sq) / n_fg
        table = np.where(loss.own_class, on[..., None], off[..., None])
        table[BACKGROUND] = 0.0
        grad = _spread(table, case_class)
    return values, grad


def _ce_terms(true_p, want_gradient):
    """Clamped cross-entropy per case: the mean negative log-probability of
    the true class, from the [B, V] true-class probabilities; the gradient
    is d/d(true-class probability)."""
    V = true_p.shape[-1]
    clamped = np.maximum(true_p, CE_CLAMP)
    values = -(np.log(clamped).sum(axis=-1) / V)

    grad = None
    if want_gradient:
        # -1 / (V * p), computed in the buffer of the clamped copy: with the
        # MLP on large cases this is a training step's peak of memory.
        # Below the clamp the loss is locally constant.
        grad = np.multiply(clamped, V, out=clamped)
        np.divide(-1.0, grad, out=grad)
        grad[~(true_p > CE_CLAMP)] = 0.0
    return values, grad


def composite_loss(
    kind: str,
    pred,
    gt: LabelMap,
    m: DistanceMatrix | None = None,
    want_gradient: bool = False,
) -> LossValue:
    """One case's loss: "ce", "dice", "gwdl" (needs ``m``), or the sums
    "dice_ce" and "gwdl_ce", which add the parts value- and gradient-wise.

    ``pred`` is a [V, L] probability array; it runs through the batched
    core as one class-major case, and the gradient comes back as [V, L].
    """
    p = _pred_array(pred)
    loss = _Loss(kind, m, p.shape[1])
    _check_shapes(p.shape, gt)
    values, grad = _batch_terms(loss, np.ascontiguousarray(p.T)[:, None, :],
                                gt.labels[None, :], want_gradient)
    if grad is not None:
        grad = np.ascontiguousarray(grad[:, 0, :].T)
    return LossValue(value=float(values[0]), gradient=grad)
