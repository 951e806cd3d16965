"""Adam optimizer with bias correction, over one flat parameter buffer.

At construction ``Adam`` copies its parameters into one float64 array
and rebinds each parameter's ``data`` to its view of that array; the two
moments and a gradient buffer are flat arrays of the same length, made
once. A step gathers the gradients into that buffer and then updates the
moments and the parameters in place, block by block (``BLOCK`` elements,
so one block of every array stays in cache), with the same operations,
in the same order, as the per-tensor formula

    m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
    p = p - lr (m / c1) / (sqrt(v / c2) + eps),  c_i = 1 - b_i^step,

so the parameters are bit for bit those of updating each tensor alone,
and a step allocates nothing the size of the parameters.

The step is all or nothing, decided before anything is written. With
eps > 0, m is a sum of past gradients and v of their squares, each
with weights summing to at most 1, so |m| <= 2G and v <= 2G^2 (the 2
covers rounding), where G is the largest |g| of any committed step, and
every update is at most u = 2 lr G / (c1 eps). The step is
refused (``NonFiniteError``, nothing changed) when a gradient is not
finite, when G >= 1e150, or when 2 lr G / c1, 2 G^2 / c2, u or
max|p| + u reaches 1e300; otherwise no value of the pass can overflow.
A refusal therefore means an overflow the bound cannot rule out, not
one that happened. ``max|p|`` is read every step, because parameters
may be changed in place between steps.

lr, beta1, beta2 and eps are public attributes a run may change between
steps (a lower lr, say), so every step checks them by the construction
rules first: an lr or eps that is not finite and > 0, or a beta outside
[0, 1), is refused (``ValueError``) before anything is written.

A parameter belongs to one optimizer and keeps its view: listing it
twice, or replacing its ``data`` after construction, is refused
(``ValueError``); changing the values in place is fine. Because the
step writes into the arrays a recorded graph refers to, a graph must not
be backpropagated after a step over its parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError
from .tensor import Tensor

BLOCK = 16384  # elements per block of the in-place pass: 128 KiB per array

# the up-front bound: G below _GRAD_LIMIT and every bounded value below _LIMIT
_GRAD_LIMIT = 1e150
_LIMIT = 1e300


def _check_hyperparameters(lr, beta1, beta2, eps) -> None:
    """Refuse (ValueError) an lr or eps that is not finite and > 0, or a
    beta1/beta2 outside [0, 1)."""
    for name, value in (("lr", lr), ("eps", eps)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"Adam {name} must be finite and > 0, got {value}")
    for name, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0 <= value < 1:
            raise ValueError(f"Adam {name} must be in [0, 1), got {value}")


class Adam:
    """Standard Adam. The step counter strictly increases and parameters
    are updated in place, in their views of ``flat``."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        _check_hyperparameters(lr, beta1, beta2, eps)
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed twice; Adam holds each in its buffer once")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.flat = np.concatenate([p.data.ravel() for p in self.params] or [np.zeros(0)])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._g = np.zeros_like(self.flat)
        self._g_max = 0.0  # G: the largest |g| of any committed step
        self._spans = []  # per parameter: (its view of flat, its view of the gradient buffer)
        lo = 0
        for p in self.params:
            at = slice(lo, lo + p.data.size)
            p.data = self.flat[at].reshape(p.data.shape)
            self._spans.append((p.data, self._g[at].reshape(p.data.shape)))
            lo = at.stop
        # per block: views of flat, m, v and g, and two scratch rows of its length
        n = self.flat.size
        scratch = np.empty((2, min(n, BLOCK)))
        self._blocks = [(self.flat[lo:lo + BLOCK], self.m[lo:lo + BLOCK], self.v[lo:lo + BLOCK],
                         self._g[lo:lo + BLOCK], *scratch[:, :min(BLOCK, n - lo)])
                        for lo in range(0, n, BLOCK)]

    def step(self) -> None:
        """Update every parameter from its ``grad``; a parameter without one
        takes a zero gradient. All or nothing: every parameter and gradient
        is checked, and the bound is decided, before anything is written,
        so a bad gradient or a step the bound cannot clear (``ValueError``
        or ``NonFiniteError``, with no numpy warning) leaves the
        parameters, the moments and the step count as they were. The
        hyperparameters are public attributes a caller may reassign
        between steps, so they are checked again first, by the
        construction rules (``ValueError``)."""
        _check_hyperparameters(self.lr, self.beta1, self.beta2, self.eps)
        for p, (view, grad) in zip(self.params, self._spans):
            if p.data is not view:
                raise ValueError("a parameter's data was replaced after the optimizer took it; "
                                 "change it in place")
            if p.grad is None:
                grad.fill(0.0)
            else:
                if np.shape(p.grad) != view.shape:
                    raise ValueError(f"gradient shape {np.shape(p.grad)} != parameter shape {view.shape}")
                grad[...] = p.grad
        g_hi, g_lo = float(self._g.max(initial=0.0)), float(self._g.min(initial=0.0))
        if not (-np.inf < g_lo and g_hi < np.inf):  # a NaN fails both
            raise NonFiniteError("non-finite gradient in Adam step")
        step = self.step_count + 1
        # Python floats, so the bound's own arithmetic overflows to inf without a warning
        lr, b1, b2, eps = float(self.lr), float(self.beta1), float(self.beta2), float(self.eps)
        c1 = 1.0 - b1 ** step
        c2 = 1.0 - b2 ** step
        g_max = max(self._g_max, g_hi, -g_lo)
        scaled = 2.0 * lr * g_max / c1  # bounds lr m / c1
        update = scaled / eps
        p_hi, p_lo = float(self.flat.max(initial=0.0)), float(self.flat.min(initial=0.0))
        if not (g_max < _GRAD_LIMIT and scaled < _LIMIT and 2.0 * g_max * g_max / c2 < _LIMIT
                and update < _LIMIT and p_hi + update < _LIMIT and update - p_lo < _LIMIT):
            raise NonFiniteError(f"Adam step refused: the bound cannot rule out an overflow "
                                 f"(largest |gradient| {g_max:.3g}, update bound {update:.3g}, "
                                 f"parameters in [{p_lo:.3g}, {p_hi:.3g}])")
        # below the bound no value overflows, so the pass writes in place
        k1, k2 = 1.0 - b1, 1.0 - b2
        for p, m, v, g, t, d in self._blocks:
            m *= b1
            np.multiply(g, k1, out=t)
            m += t
            np.multiply(g, k2, out=t)
            t *= g
            v *= b2
            v += t
            np.divide(m, c1, out=t)
            t *= lr
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += eps
            t /= d
            p -= t
        self._g_max, self.step_count = g_max, step

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
