"""Training-optimization toolkit for multi-class segmentation at desk scale.

Building blocks: semantically informed Dice-style losses with analytic
gradients, hardness-weighted sampling for distributionally robust
training, the Ranger optimizer family, tiny differentiable per-voxel
models with hand-derived backprop, BraTS-style region evaluation, and a
synthetic nested-region dataset generator.  The `segopt` command wires
them into reproducible experiments.
"""
