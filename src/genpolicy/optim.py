"""Adam optimizer with bias correction, over one flat parameter buffer.

At construction ``Adam`` copies its parameters into one float64 array
and rebinds each parameter's ``data`` to its view of that array; the two
moments are flat arrays of the same length. A step gathers the
gradients into one flat array and updates every parameter with one set
of ufunc calls, in place: the same operations, in the same order, as
the per-tensor formula

    m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
    p = p - lr (m / c1) / (sqrt(v / c2) + eps),  c_i = 1 - b_i^step,

so the parameters are bit for bit those of updating each tensor alone.
A parameter therefore belongs to one optimizer and keeps its view:
listing it twice, or replacing its ``data`` after construction, is
refused (``ValueError``); changing the values in place is fine.
Because the step writes into the arrays a recorded graph refers to, a
graph must not be backpropagated after a step over its parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError
from .tensor import Tensor


class Adam:
    """Standard Adam. The step counter strictly increases and parameters
    are updated in place, in their views of ``flat``."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed twice; Adam holds each in its buffer once")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.flat = np.concatenate([p.data.ravel() for p in self.params] or [np.zeros(0)])
        self._spans = []  # per parameter: (slice of flat, its view)
        lo = 0
        for p in self.params:
            at = slice(lo, lo + p.data.size)
            p.data = self.flat[at].reshape(p.data.shape)
            self._spans.append((at, p.data))
            lo = at.stop
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self) -> None:
        """Update every parameter from its ``grad``; a parameter without one
        takes a zero gradient. All or nothing: every parameter and gradient
        is checked first, and the new moments and parameters are formed
        beside the old ones, so a bad gradient, or a moment or update that
        overflows (``NonFiniteError``, with no numpy warning), leaves the
        parameters, the moments and the step count as they were."""
        g = np.zeros_like(self.flat)
        for p, (at, view) in zip(self.params, self._spans):
            if p.data is not view:
                raise ValueError("a parameter's data was replaced after the optimizer took it; "
                                 "change it in place")
            if p.grad is not None:
                if np.shape(p.grad) != view.shape:
                    raise ValueError(f"gradient shape {np.shape(p.grad)} != parameter shape {view.shape}")
                g[at].reshape(view.shape)[...] = p.grad
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite gradient in Adam step")
        step = self.step_count + 1
        c1 = 1.0 - self.beta1 ** step
        c2 = 1.0 - self.beta2 ** step
        # the moments and parameters start finite and g is finite, so only an
        # overflow (and the invalid operations that follow one) makes a non-finite value
        try:
            with np.errstate(over="raise", invalid="raise"):
                m = self.m * self.beta1
                m += (1.0 - self.beta1) * g
                t = g * (1.0 - self.beta2)
                t *= g
                v = self.v * self.beta2
                v += t
                np.divide(m, c1, out=t)
                t *= self.lr
                np.divide(v, c2, out=g)
                np.sqrt(g, out=g)
                g += self.eps
                t /= g
                np.subtract(self.flat, t, out=t)
        except FloatingPointError as exc:
            raise NonFiniteError(f"Adam moment or update overflowed: {exc}") from None
        self.flat[...] = t
        self.m, self.v, self.step_count = m, v, step

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
