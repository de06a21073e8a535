"""How the tree-distance weighted Dice loss grades segmentation errors.

A plain Dice loss treats every wrong label the same.  The weighted
variant scores each error by how far the predicted label sits from the
truth on the label hierarchy, so confusing two tumor compartments costs
less than calling tumor healthy tissue.  This script walks through the
distance matrix, a two-voxel example small enough to check by hand, and
the near-miss/catastrophe contrast that motivates the whole construction.
"""

import numpy as np

from segopt.losses import (
    brats_distance_matrix,
    composite_loss,
    gwdl,
)


def label_map(labels):
    from segopt.losses import LabelMap
    labels = np.asarray(labels, dtype=np.int64)
    return LabelMap(labels, 4, (labels.size,))


def main():
    m = brats_distance_matrix()
    names = ["background", "enhancing", "edema", "core"]
    print("label tree distances (background=0, enhancing=1, edema=2, core=3):")
    for i in range(4):
        row = "  ".join(f"{m.m[i, j]:.1f}" for j in range(4))
        print(f"  {names[i]:>10}  {row}")
    print()

    # Two voxels, both truly edema.  The model nails the first and calls
    # the second tumor core: a mistake, but a mild one (distance 0.7).
    probs = np.zeros((2, 4))
    probs[0, 2] = 1.0
    probs[1, 3] = 1.0
    gt = label_map([2, 2])
    loss = gwdl(probs, gt, m)
    print("two-voxel hand example (truth: edema, edema):")
    print(f"  prediction: edema, core -> loss {loss.value:.4f}")
    print(f"  by hand: 1 - 2*(1+0.3)/(2*1.3+0.7) = {1 - 2.6 / 3.3:.4f}")
    print()

    # Same mistake budget, different severity.  One prediction confuses
    # compartments inside the tumor; the other hallucinates background.
    gt = label_map([2] * 8)
    near_miss = np.zeros((8, 4))
    near_miss[:4, 2] = 1.0
    near_miss[4:, 3] = 1.0  # half the voxels called core (distance 0.7)
    catastrophe = np.zeros((8, 4))
    catastrophe[:4, 2] = 1.0
    catastrophe[4:, 0] = 1.0  # half the voxels called background (distance 1)
    print("eight edema voxels, half mislabeled either way:")
    print(f"  called core:       {gwdl(near_miss, gt, m).value:.4f}")
    print(f"  called background: {gwdl(catastrophe, gt, m).value:.4f}")
    print("  the background call costs more; plain dice cannot tell them apart")
    print()

    # The composite used for training adds cross-entropy on top.
    soft = np.full((8, 4), 0.05)
    soft[np.arange(8), [2, 2, 2, 2, 3, 3, 0, 0]] = 0.85
    for kind in ("dice", "gwdl", "dice_ce", "gwdl_ce"):
        value = composite_loss(kind, soft, gt, m).value
        print(f"  {kind:8s} on a soft prediction: {value:.4f}")


if __name__ == "__main__":
    main()
