"""Hardness-weighted sampling for distributionally robust training.

Instead of minimizing the plain mean of per-sample losses, distributionally
robust optimization lets an adversary reweight the samples, with a KL
penalty pulling the weights back toward uniform.  The inner maximization
has a closed form: sample i gets weight proportional to exp(beta * loss_i),
a Gibbs distribution over the running loss estimates.  Training realizes
the objective simply by drawing batches from that distribution instead of
shuffling, updating each sample's loss estimate whenever it is visited.

beta interpolates between the two regimes: beta -> 0 recovers uniform
sampling (plain empirical risk), beta -> inf concentrates on the current
hardest sample.
"""

from __future__ import annotations

import numpy as np

from .losses import MAX_LOSS
from .numerics import Rng, softmax

__all__ = ["HardnessWeightedSampler", "DEFAULT_BETA"]

DEFAULT_BETA = 100.0

# The loss estimate of a sample not yet visited.  Meant to be optimistic, so
# that unvisited samples get explored early, but a visited sample whose loss
# is above it outweighs every unvisited one.
INIT_LOSS = 1.0


def _check_beta(beta: float) -> None:
    """The hardness-weighting strength must be positive, and small enough
    that the Gibbs weight exponent, beta times a loss, stays finite."""
    if not 0.0 < beta * MAX_LOSS < np.inf:
        raise ValueError(f"beta must be positive and beta times the largest loss "
                         f"({MAX_LOSS:.2f}) finite, got {beta}")


class HardnessWeightedSampler:
    """Gibbs sampler over per-sample loss estimates.

    Single-writer: one training loop owns and mutates the state.  Loss
    estimates are stale between visits; that staleness is the on-line
    approximation that keeps the overhead negligible.
    """

    def __init__(self, n: int, beta: float = DEFAULT_BETA, seed: int = 0):
        if n < 1:
            raise ValueError(f"need at least one sample, got n={n}")
        _check_beta(beta)
        self.n = int(n)
        self.beta = float(beta)
        self.loss_estimates = np.full(self.n, INIT_LOSS)
        self.initialized = np.zeros(self.n, dtype=bool)
        self.rng = Rng(seed)

    def probabilities(self) -> np.ndarray:
        """Current sampling distribution: softmax of beta * loss estimates."""
        return softmax(self.beta * self.loss_estimates)

    def update_loss(self, sample_index: int, new_loss: float) -> None:
        """Record a freshly computed per-sample loss (last write wins)."""
        if not 0 <= sample_index < self.n:
            raise ValueError(f"sample index {sample_index} out of range [0, {self.n})")
        if not np.isfinite(new_loss):
            raise ValueError(f"loss estimate for sample {sample_index} is not finite")
        self.loss_estimates[sample_index] = float(new_loss)
        self.initialized[sample_index] = True

    def sample_batch(self, batch_size: int) -> np.ndarray:
        """Draw ``batch_size`` indices i.i.d. with replacement.

        Inverse-CDF on uniform draws, so the result is a pure function of
        the rng stream position and the current probabilities.
        """
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        cdf = np.cumsum(self.probabilities())
        u = self.rng.uniform(size=batch_size)
        return np.minimum(np.searchsorted(cdf, u, side="right"), self.n - 1)

    def entropy(self) -> float:
        """Shannon entropy (nats) of the sampling distribution."""
        q = self.probabilities()
        nz = q > 0
        return float(-np.sum(q[nz] * np.log(q[nz])))
