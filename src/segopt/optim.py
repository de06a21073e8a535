"""Optimizer family and learning-rate schedule.

Plain-numpy implementations over a flat parameter vector: SGD with
Nesterov momentum (the baseline), Adam, rectified Adam (RAdam), the
Lookahead wrapper, and Ranger (Lookahead around RAdam).  Every optimizer
exposes ``step(params, grad, lr=None)`` returning the updated vector; a
per-call ``lr`` lets the epoch schedule drive any of them.

RAdam tempers Adam's early steps: while too few gradients have been seen
for the second-moment estimate to be trustworthy (rho_t <= 4), it takes a
plain bias-corrected momentum step with no adaptive denominator, and once
the estimate is tractable it scales the Adam step by a variance
rectification factor r_t that rises toward 1.

Lookahead keeps a second, slow copy of the weights.  The inner optimizer
runs k fast steps, then the slow weights move a fraction alpha toward the
fast ones and the fast weights restart from there, smoothing the
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_f64

__all__ = [
    "PolySchedule",
    "SgdNesterov",
    "Adam",
    "RAdam",
    "Lookahead",
    "ranger",
    "make_optimizer",
    "DEFAULT_LR",
    "OPTIMIZER_KINDS",
]

# Default learning rate per optimizer kind; the single source for the
# optimizer classes, make_optimizer() and the command line.
DEFAULT_LR = {"sgd": 1e-2, "adam": 3e-3, "radam": 3e-3, "ranger": 3e-3}

OPTIMIZER_KINDS = tuple(DEFAULT_LR)


@dataclass(frozen=True)
class PolySchedule:
    """Polynomial decay evaluated once per epoch: lr0 * (1 - t/t_max)^exponent."""

    initial_lr: float
    t_max: int
    exponent: float = 0.9

    def __post_init__(self):
        if not self.initial_lr > 0:
            raise ValueError(f"initial learning rate must be positive, got {self.initial_lr}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")

    def at(self, t: int) -> float:
        if not 0 <= t <= self.t_max:
            raise ValueError(f"epoch {t} outside [0, {self.t_max}]")
        return self.initial_lr * (1.0 - t / self.t_max) ** self.exponent


class _OptimizerBase:
    """Common bookkeeping: lazy buffer allocation, step counting, lr default."""

    def __init__(self, lr: float):
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0

    def _check(self, params: np.ndarray, grad: np.ndarray) -> None:
        if params.shape != grad.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameters {params.shape}"
            )

    def step(self, params, grad, lr: float | None = None) -> np.ndarray:
        params = as_f64(params, "params")
        grad = as_f64(grad, "grad")
        self._check(params, grad)
        self.step_count += 1
        return self._update(params, grad, self.lr if lr is None else float(lr))


class SgdNesterov(_OptimizerBase):
    """SGD with Nesterov momentum (momentum 0.99 by default, nnU-Net style)."""

    def __init__(self, lr: float = DEFAULT_LR["sgd"], momentum: float = 0.99):
        super().__init__(lr)
        self.momentum = float(momentum)
        self._velocity = None

    def _update(self, params, grad, lr):
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        self._velocity = self.momentum * self._velocity + grad
        return params - lr * (grad + self.momentum * self._velocity)


class Adam(_OptimizerBase):
    """Adam with bias-corrected first and second moments."""

    def __init__(self, lr: float = DEFAULT_LR["adam"], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._m = None
        self._v = None

    def _update(self, params, grad, lr):
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        t = self.step_count
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grad * grad
        m_hat = self._m / (1.0 - self.beta1**t)
        v_hat = self._v / (1.0 - self.beta2**t)
        return params - lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RAdam(_OptimizerBase):
    """Rectified Adam: variance-rectified adaptive steps once rho_t > 4."""

    def __init__(self, lr: float = DEFAULT_LR["radam"], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.rho_inf = 2.0 / (1.0 - self.beta2) - 1.0
        self._m = None
        self._v = None

    def rho_t(self, t: int) -> float:
        """Length of the approximated simple moving average after t steps."""
        b2t = self.beta2**t
        return self.rho_inf - 2.0 * t * b2t / (1.0 - b2t)

    def rectification(self, t: int) -> float:
        """Variance rectification factor r_t; only defined where rho_t > 4."""
        rho_t = self.rho_t(t)
        return math.sqrt(
            ((rho_t - 4.0) * (rho_t - 2.0) * self.rho_inf)
            / ((self.rho_inf - 4.0) * (self.rho_inf - 2.0) * rho_t)
        )

    def _update(self, params, grad, lr):
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        t = self.step_count
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grad * grad
        m_hat = self._m / (1.0 - self.beta1**t)
        if self.rho_t(t) > 4.0:
            v_hat = self._v / (1.0 - self.beta2**t)
            return params - lr * self.rectification(t) * m_hat / (np.sqrt(v_hat) + self.eps)
        # Variance not yet tractable: momentum step without the denominator.
        return params - lr * m_hat


class Lookahead:
    """Slow/fast weight wrapper around any inner optimizer.

    Every k inner steps the slow weights interpolate toward the fast ones,
    phi <- (1 - alpha) * phi + alpha * theta, and the fast weights restart
    from phi.  The interpolation is written in convex form so that alpha=1
    reproduces the inner optimizer exactly, with no rounding drift.
    """

    def __init__(self, inner: _OptimizerBase, k: int = 6, alpha: float = 0.5):
        if k < 1:
            raise ValueError(f"sync period k must be >= 1, got {k}")
        # alpha=0 is the degenerate "never move" limit, allowed here for
        # completeness; ranger() restricts to (0, 1].
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"slow step alpha must be in [0, 1], got {alpha}")
        self.inner = inner
        self.k = int(k)
        self.alpha = float(alpha)
        self.slow_weights = None
        self.inner_counter = 0

    @property
    def step_count(self) -> int:
        return self.inner.step_count

    def step(self, params, grad, lr: float | None = None) -> np.ndarray:
        fast = self.inner.step(params, grad, lr)  # validates params and grad
        if self.slow_weights is None:
            self.slow_weights = np.array(params, dtype=np.float64)
        self.inner_counter += 1
        if self.inner_counter == self.k:
            self.slow_weights = (1.0 - self.alpha) * self.slow_weights + self.alpha * fast
            fast = self.slow_weights.copy()
            self.inner_counter = 0
        return fast


def ranger(lr: float = DEFAULT_LR["ranger"], k: int = 6, alpha: float = 0.5,
           beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> Lookahead:
    """Ranger: the Lookahead wrapper around RAdam."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"slow step alpha must be in (0, 1], got {alpha}")
    return Lookahead(RAdam(lr=lr, beta1=beta1, beta2=beta2, eps=eps), k=k, alpha=alpha)


def make_optimizer(kind: str, lr: float | None = None, lookahead_k: int = 6,
                   lookahead_alpha: float = 0.5):
    """Build an optimizer by CLI name, with per-kind default learning rates."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer {kind!r}, expected one of {OPTIMIZER_KINDS}")
    if lr is None:
        lr = DEFAULT_LR[kind]
    if kind == "sgd":
        return SgdNesterov(lr=lr)
    if kind == "adam":
        return Adam(lr=lr)
    if kind == "radam":
        return RAdam(lr=lr)
    return ranger(lr=lr, k=lookahead_k, alpha=lookahead_alpha)
