"""Optimizer family and learning-rate schedule.

Plain-numpy implementations over a flat parameter vector: SGD with
Nesterov momentum (the baseline), Adam, rectified Adam (RAdam), the
Lookahead wrapper, and Ranger (Lookahead around RAdam).  Every optimizer
exposes ``step(params, grad, lr)`` returning the updated vector.  No
optimizer holds a learning rate: the caller passes one to every step, so
the epoch schedule drives any of them.

RAdam tempers Adam's early steps: while too few gradients have been seen
for the second-moment estimate to be trustworthy (rho_t <= 4), it takes a
plain bias-corrected momentum step with no adaptive denominator, and once
the estimate is tractable it scales the Adam step by a variance
rectification factor r_t that rises toward 1.

Lookahead keeps a second, slow copy of the weights.  The inner optimizer
runs k fast steps, then the slow weights move a fraction alpha toward the
fast ones and the fast weights restart from there, smoothing the
trajectory.

Hyperparameters other than the rate are class constants, as in Ranger:
SGD's momentum 0.99, Adam's betas (0.9, 0.999), and Lookahead's k=6 and
alpha=0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# Default learning rate per optimizer kind, resolved by TrainConfig.
DEFAULT_LR = {"sgd": 1e-2, "adam": 3e-3, "radam": 3e-3, "ranger": 3e-3}

OPTIMIZER_KINDS = tuple(DEFAULT_LR)


def _check_lr(lr: float) -> None:
    """A learning rate must be positive and finite."""
    if not 0.0 < lr < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")


@dataclass(frozen=True)
class PolySchedule:
    """Polynomial decay evaluated once per epoch: lr0 * (1 - t/t_max)^0.9."""

    initial_lr: float
    t_max: int

    def __post_init__(self):
        _check_lr(self.initial_lr)
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")

    def at(self, t: int) -> float:
        if not 0 <= t <= self.t_max:
            raise ValueError(f"epoch {t} outside [0, {self.t_max}]")
        return self.initial_lr * (1.0 - t / self.t_max) ** 0.9


class _OptimizerBase:
    """Common bookkeeping: lazy buffer allocation and step counting."""

    def __init__(self):
        self.step_count = 0

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        """The updated parameters after one step on ``grad`` at rate ``lr``.

        Checks that ``grad`` has the shape of ``params`` and that ``lr`` is
        positive and finite.  Trusts both arrays to be finite float64:
        finiteness is the caller's job (model.train checks the parameters
        on entry and after every step).
        """
        if params.shape != grad.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameters {params.shape}"
            )
        _check_lr(lr)
        self.step_count += 1
        return self._update(params, grad, lr)


class SgdNesterov(_OptimizerBase):
    """SGD with Nesterov momentum 0.99, nnU-Net style."""

    momentum = 0.99

    def __init__(self):
        super().__init__()
        self._velocity = None

    def _update(self, params, grad, lr):
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        self._velocity = self.momentum * self._velocity + grad
        return params - lr * (grad + self.momentum * self._velocity)


class Adam(_OptimizerBase):
    """Adam with bias-corrected first and second moments."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        super().__init__()
        self._m = None
        self._v = None

    def _moments(self, params, grad):
        """Update both moments; return the step count and the corrected first moment."""
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        t = self.step_count
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grad * grad
        return t, self._m / (1.0 - self.beta1**t)

    def _update(self, params, grad, lr):
        t, m_hat = self._moments(params, grad)
        v_hat = self._v / (1.0 - self.beta2**t)
        return params - lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RAdam(Adam):
    """Rectified Adam: variance-rectified adaptive steps once rho_t > 4."""

    rho_inf = 2.0 / (1.0 - Adam.beta2) - 1.0

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
        t, m_hat = self._moments(params, grad)
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

    k, alpha = 6, 0.5

    def __init__(self, inner: _OptimizerBase):
        self.inner = inner
        self.slow_weights = None
        self.inner_counter = 0

    @property
    def step_count(self) -> int:
        return self.inner.step_count

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        """One inner step, checked as _OptimizerBase.step checks it; every
        k-th moves the slow weights and restarts the fast ones from them."""
        fast = self.inner.step(params, grad, lr)
        if self.slow_weights is None:
            self.slow_weights = np.array(params, dtype=np.float64)
        self.inner_counter += 1
        if self.inner_counter == self.k:
            self.slow_weights = (1.0 - self.alpha) * self.slow_weights + self.alpha * fast
            fast = self.slow_weights.copy()
            self.inner_counter = 0
        return fast


def ranger() -> Lookahead:
    """Ranger: the Lookahead wrapper around RAdam."""
    return Lookahead(RAdam())


def make_optimizer(kind: str):
    """Build an optimizer by CLI name."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer {kind!r}, expected one of {OPTIMIZER_KINDS}")
    return {"sgd": SgdNesterov, "adam": Adam, "radam": RAdam, "ranger": ranger}[kind]()
