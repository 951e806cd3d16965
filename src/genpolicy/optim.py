"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError
from .tensor import Tensor


class Adam:
    """Standard Adam. Moments live alongside the parameter list; the step
    counter strictly increases and parameters are updated in place."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Update every parameter from its ``grad``; a parameter without one
        takes a zero gradient. All or nothing: every gradient is checked
        first, so a bad one leaves the parameters, the moments and the
        step count as they were."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        for p, g in zip(self.params, grads):
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError("non-finite gradient in Adam step")
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def check_training_loop(name: str, lr: float, steps: int, batch_size: int) -> None:
    """Refuse (ValueError) an Adam learning rate that is not finite and > 0,
    a negative step count or a batch of fewer than one row; ``name`` says
    whose settings they are."""
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"{name} lr must be finite and > 0, got {lr}")
    if steps < 0:
        raise ValueError(f"{name} steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise ValueError(f"{name} batch_size must be >= 1, got {batch_size}")
