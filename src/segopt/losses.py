"""Per-sample segmentation losses with analytic gradients.

composite_loss(kind, ...) is the one per-case entry point, for every kind
in LOSS_KINDS.  It takes a soft prediction of shape [V, L] (V voxels,
L classes, each row a probability vector) against an integer label map,
and returns the scalar value and, on request, the gradient with respect
to the predicted probabilities.  Gradients are taken in probability space;
composing with the softmax Jacobian is the model's job, which keeps the
loss math independent of the classifier head.

_batch_terms() is the one batched core behind it: B same-size cases in
class-major layout [L, B, V], values reduced per case along V.  Training
and the finite-difference harness call it directly on whole batches,
after their own checks.

The centerpiece is the generalized Wasserstein Dice loss: a Dice-style
overlap loss whose per-voxel error is the earth-mover distance between the
predicted class distribution and the one-hot ground truth under an
inter-class ground-distance matrix.  Semantically close mistakes (e.g.
confusing two tumor subregions) cost less than mistakes across the
background boundary, which is what makes the loss fit hierarchical label
sets like the BraTS tumor regions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import require_finite

__all__ = [
    "SMOOTH_EPS",
    "CE_CLAMP",
    "LOSS_KINDS",
    "ProbMap",
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

LOSS_KINDS = ("ce", "dice", "gwdl", "dice_ce", "gwdl_ce")

# The background class of every label map, prediction and distance matrix.
BACKGROUND = 0


@dataclass
class ProbMap:
    """Soft prediction: one probability vector per voxel, shape [V, L]."""

    voxels: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.voxels, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"probability map must be [V, L], got shape {v.shape}")
        require_finite(v, "probability map")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("probability entries must lie in [0, 1]")
        # A mat-vec, not v.sum(axis=1): a reduction over the short contiguous
        # class axis runs a tiny inner loop per row and costs several times more.
        rowsums = v @ np.ones(v.shape[1])
        if np.any(np.abs(rowsums - 1.0) > 1e-9):
            worst = int(np.argmax(np.abs(rowsums - 1.0)))
            raise ValueError(f"row {worst} sums to {rowsums[worst]!r}, not 1")
        self.voxels = v


@dataclass
class LabelMap:
    """Integer-labeled segmentation, flattened row-major from its grid."""

    labels: np.ndarray
    num_classes: int
    spatial_shape: tuple[int, ...]

    def __post_init__(self):
        lab = np.ascontiguousarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be a flat sequence")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if lab.size and (lab.min() < 0 or lab.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"found range [{lab.min()}, {lab.max()}]"
            )
        self.spatial_shape = tuple(int(s) for s in self.spatial_shape)
        if int(np.prod(self.spatial_shape)) != lab.size:
            raise ValueError(
                f"spatial shape {self.spatial_shape} does not cover {lab.size} voxels"
            )
        self.labels = lab

    @property
    def num_voxels(self) -> int:
        return self.labels.size


@dataclass
class DistanceMatrix:
    """Symmetric zero-diagonal ground-distance matrix between classes.

    Entries live in [0, 1]; the row/column of the background class
    BACKGROUND (class 0) sits at the maximal distance 1 from every other
    class, so background mistakes always pay full price while distances
    between foreground classes encode how much they have in common.
    """

    m: np.ndarray

    def __post_init__(self):
        """Check every structural invariant, naming the first offending entry."""
        m = self.m = np.ascontiguousarray(self.m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {m.shape}")
        L, b = m.shape[0], BACKGROUND
        if L == 0:
            raise ValueError("distance matrix has no classes")
        require_finite(m, "distance matrix")
        if np.any(m < 0.0) or np.any(m > 1.0):
            i, j = np.unravel_index(int(np.argmax((m < 0) | (m > 1))), m.shape)
            raise ValueError(f"entry ({i},{j})={m[i, j]!r} outside [0, 1]")
        diag = np.diagonal(m)
        if np.any(diag != 0.0):
            i = int(np.argmax(diag != 0.0))
            raise ValueError(f"nonzero diagonal at ({i},{i})={m[i, i]!r}")
        asym = m != m.T
        if np.any(asym):
            i, j = np.unravel_index(int(np.argmax(asym)), m.shape)
            raise ValueError(f"asymmetric at ({i},{j}): {m[i, j]!r} != {m[j, i]!r}")
        off = np.ones(L, dtype=bool)
        off[b] = False
        if np.any(m[b, off] != 1.0) or np.any(m[off, b] != 1.0):
            j = int(np.argmax(m[b] != 1.0)) if np.any(m[b, off] != 1.0) else b
            raise ValueError(
                f"background row/column must be 1 off-diagonal, entry ({b},{j})={m[b, j]!r}"
            )

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
    JSON integer 0 (not a bool, float or string)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        matrix = payload["matrix"]
        background = payload["background_index"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distance-matrix file {path}: {exc}") from exc
    if type(background) is not int or background != BACKGROUND:
        raise ValueError(
            f"{path}: background_index must be the integer {BACKGROUND}, got {background!r}")
    return DistanceMatrix(m=np.asarray(matrix, dtype=np.float64))


@dataclass
class LossValue:
    """Scalar loss plus, when requested, d(loss)/d(predicted probabilities)."""

    value: float
    gradient: np.ndarray | None = field(default=None)


def _pred_array(pred) -> np.ndarray:
    if isinstance(pred, ProbMap):
        return pred.voxels
    arr = np.asarray(pred, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"prediction must be [V, L], got shape {arr.shape}")
    return arr


def _check_shapes(shape, gt: LabelMap, m: DistanceMatrix | None = None) -> None:
    """Check a [V, L] prediction shape against the labels and the matrix."""
    num_voxels, num_classes = shape
    if num_voxels != gt.num_voxels:
        raise ValueError(
            f"prediction has {num_voxels} voxels but labels have {gt.num_voxels}"
        )
    if num_classes != gt.num_classes:
        raise ValueError(
            f"prediction has {num_classes} classes but labels declare {gt.num_classes}"
        )
    if m is not None and m.num_classes != num_classes:
        raise ValueError(
            f"distance matrix is {m.num_classes}x{m.num_classes} "
            f"but prediction has {num_classes} classes"
        )


def wasserstein_voxel(pred_row, gt_class: int, m: DistanceMatrix) -> float:
    """Earth-mover error of one voxel against a one-hot ground truth.

    With the ground truth concentrated on ``gt_class`` the transport plan is
    forced, so the distance collapses to the inner product of the matrix row
    for ``gt_class`` with the predicted distribution.
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
    _check_shapes(p.shape, gt, m)
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


def _batch_terms(kind, p, labels, m, want_gradient):
    """Per-case values of one loss kind over B cases of V voxels each.

    The layout is class-major: ``p[l, b, v]`` is the predicted
    probability of class l at voxel v of case b, a C-contiguous [L, B, V]
    block, and ``labels`` is the matching [B, V] integer array with
    entries in [0, L).  Every reduction runs along V, so case b's value
    depends on case b alone.  Returns the values, shape [B], and when
    requested the gradient of each case's value with respect to its own
    probabilities, shape [L, B, V].  Rows need not sum to 1 (finite
    differencing steps off the simplex).  Nothing is checked: the kind,
    matrix, shapes and label range are the caller's contract.

    Two index arrays replace one-hot masks: ``true_idx`` points at each
    voxel's ground-truth entry in the flattened block (gather the true
    class's probability, scatter the cross-entropy gradient), and
    ``case_class`` numbers each (case, class) pair, to sum per case and
    class with bincount and to spread per-(case, class) gradient tables
    back over the voxels.
    """
    L, B, V = p.shape
    true_idx = labels * (B * V) + np.arange(B * V).reshape(B, V)
    case_class = labels + L * np.arange(B)[:, None]
    flat = p.reshape(L, B * V)
    true_p = flat.take(true_idx)
    base = None
    if kind in ("dice", "dice_ce"):
        base = _dice_terms(flat, true_p, case_class, want_gradient)
    elif kind in ("gwdl", "gwdl_ce"):
        base = _gwdl_terms(flat, labels, true_idx, case_class, m, want_gradient)
    if kind not in ("ce", "dice_ce", "gwdl_ce"):
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


def _gwdl_terms(flat, labels, true_idx, case_class, m, want_gradient):
    """Generalized Wasserstein Dice loss per case.

    Let W_i be the per-voxel earth-mover error and F the set of foreground
    voxels (ground-truth class != background).  The loss is

        1 - (2*N + eps) / (2*N + S + eps)

    with N = sum_{i in F} (1 - W_i) and S = sum_i W_i over all voxels.  The
    quotient is a Wasserstein-weighted Dice overlap that equals 1 for a
    perfect prediction, so the loss bottoms out at 0 there; the smoothing
    keeps the all-background case finite.
    """
    L = flat.shape[0]
    # Per-voxel earth-mover error: W = (m @ p)[gt], column by column.
    w = (m.m @ flat).take(true_idx)
    fg = labels != BACKGROUND
    n = np.where(fg, 1.0 - w, 0.0).sum(axis=-1)
    s = w.sum(axis=-1)
    a = 2.0 * n + SMOOTH_EPS
    b = 2.0 * n + s + SMOOTH_EPS
    values = 1.0 - a / b

    grad = None
    if want_gradient:
        # dW/dp_l = m[gt, l], so the gradient depends on the case and the
        # voxel's class only: dN picks up -dW on foreground voxels, dS
        # picks up +dW everywhere, the quotient rule does the rest.
        dw = m.m.T[:, None, :]  # [l, 1, k] = m[k, l]
        dn = np.where(np.arange(L) != BACKGROUND, -dw, 0.0)
        da = 2.0 * dn
        db = 2.0 * dn + dw
        a, b = a[:, None], b[:, None]
        grad = _spread((a * db - da * b) / (b * b), case_class)
    return values, grad


def _dice_terms(flat, true_p, case_class, want_gradient):
    """Soft multi-class Dice loss per case, averaged over foreground classes.

    Per foreground class l the overlap quotient is
    (2*sum_i p_hat*p + eps) / (sum_i p_hat + sum_i p + eps); the loss is one
    minus the mean quotient.  The background class BACKGROUND is excluded
    from the mean.
    """
    L, (B, V) = flat.shape[0], true_p.shape
    n_fg = L - 1
    if n_fg == 0:
        raise ValueError("dice loss needs at least one foreground class")
    # Per (case, class): the probability mass on the class's own voxels
    # and the voxel count, both as [L, B].
    keys = case_class.reshape(-1)
    inter = np.bincount(keys, weights=true_p.reshape(-1), minlength=B * L)
    inter = inter.reshape(B, L).T
    count = np.bincount(keys, minlength=B * L).reshape(B, L).T
    sums = flat.reshape(L, B, V).sum(axis=-1) + count
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
        table = np.where(np.eye(L, dtype=bool)[:, None, :], on[..., None], off[..., None])
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
        # below the clamp the loss is locally constant
        grad = np.where(true_p > CE_CLAMP, -1.0 / (V * clamped), 0.0)
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

    ``pred`` is a ProbMap or a [V, L] array; it runs through the batched
    core as one class-major case, and the gradient comes back as [V, L].
    """
    m = _check_kind(kind, m)
    p = _pred_array(pred)
    _check_shapes(p.shape, gt, m)
    values, grad = _batch_terms(kind, np.ascontiguousarray(p.T)[:, None, :],
                                gt.labels[None, :], m, want_gradient)
    if grad is not None:
        grad = np.ascontiguousarray(grad[:, 0, :].T)
    return LossValue(value=float(values[0]), gradient=grad)
