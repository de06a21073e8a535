"""Shared numerical primitives.

Everything downstream works on dense float64 numpy arrays in row-major
order, and draws randomness from :class:`Rng`, a counter-based generator
whose streams replay bit-identically across platforms for a fixed seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Rng", "softmax", "softmax_inplace", "require_finite", "as_f64"]


def as_f64(values, name: str = "array") -> np.ndarray:
    """Coerce to a float64 ndarray (C order), rejecting non-finite entries."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    require_finite(arr, name)
    return arr


def require_finite(arr: np.ndarray, name: str = "array") -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {name}")


class Rng:
    """Seeded random stream shared by samplers, models, and data generation.

    Backed by the Philox counter-based bit generator: the same 64-bit seed
    produces the same draw sequence on every platform, which is what makes
    whole training runs replay byte-identically.  Single-owner: never share
    one instance between concurrent writers.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(seed))

    def uniform(self, size=None) -> np.ndarray:
        """Draws in [0, 1)."""
        return self._gen.uniform(size=size)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(scale=scale, size=size) if scale > 0 else np.zeros(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Stable softmax (max-subtracted) along ``axis``.

    Accepts a single logit vector or a batch of rows; rows of the result are
    probability vectors summing to 1 within 1e-12.
    """
    z = np.array(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    return softmax_inplace(z, axis)


def softmax_inplace(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """softmax() without input checks, overwriting the float64 array ``z``.

    For callers whose logits are finite by construction (validated inputs
    and parameters); non-finite logits come out as NaN probabilities.
    """
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z
