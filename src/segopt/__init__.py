"""Training-optimization toolkit for multi-class segmentation at desk scale.

Building blocks: semantically informed Dice-style losses with analytic
gradients, hardness-weighted sampling for distributionally robust
training, the Ranger optimizer family, tiny differentiable per-voxel
models with hand-derived backprop, BraTS-style region evaluation, and a
synthetic nested-region dataset generator.  The `segopt` command wires
them into reproducible experiments.
"""

from .dro import DEFAULT_BETA, HardnessWeightedSampler
from .losses import (CE_CLAMP, DistanceMatrix, LabelMap, LOSS_KINDS, LossValue,
                     ProbMap, SMOOTH_EPS, brats_distance_matrix, composite_loss,
                     cross_entropy, dice_loss, gwdl, load_distance_matrix,
                     validate_distance_matrix, wasserstein_per_voxel,
                     wasserstein_voxel)
from .metrics import (REGIONS, AggregateStats, CaseMetrics, RegionSpec, aggregate,
                      dice_score, ensemble_mean_softmax, evaluate_case, hd95,
                      postprocess_et, region_mask)
from .model import (Model, ModelSpec, TrainConfig, TrainedModel, TrainingDiverged,
                    load_model, save_model, train)
from .numerics import Rng, softmax
from .optim import (Adam, Lookahead, PolySchedule, RAdam, SgdNesterov,
                    make_optimizer, ranger)
from .synthdata import Case, DatasetManifest, SynthConfig, generate, load, read_manifest

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BETA", "HardnessWeightedSampler",
    "CE_CLAMP", "DistanceMatrix", "LabelMap", "LOSS_KINDS", "LossValue",
    "ProbMap", "SMOOTH_EPS", "brats_distance_matrix", "composite_loss",
    "cross_entropy", "dice_loss", "gwdl", "load_distance_matrix",
    "validate_distance_matrix", "wasserstein_per_voxel", "wasserstein_voxel",
    "REGIONS", "AggregateStats", "CaseMetrics", "RegionSpec", "aggregate",
    "dice_score", "ensemble_mean_softmax", "evaluate_case", "hd95",
    "postprocess_et", "region_mask",
    "Model", "ModelSpec", "TrainConfig", "TrainedModel", "TrainingDiverged",
    "load_model", "save_model", "train",
    "Rng", "softmax",
    "Adam", "Lookahead", "PolySchedule", "RAdam", "SgdNesterov",
    "make_optimizer", "ranger",
    "Case", "DatasetManifest", "SynthConfig", "generate", "load", "read_manifest",
    "__version__",
]
