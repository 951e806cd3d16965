"""Multilayer perceptrons and time-feature embeddings on the tensor engine.

``Mlp.forward_jvp`` propagates tangents alongside the forward pass
(forward-mode through the layers, expressed in taped primitives; it runs
the same layer loop as ``Mlp.__call__``, with the tangent switched on), so
Jacobian-vector products remain differentiable with respect to the
parameters by the ordinary reverse pass. The likelihood module relies on
this for trainable Jacobian traces.

Tangents come stacked: for a batch of B inputs, ``u`` holds k·B rows,
k blocks of B rows each, block j being the j-th tangent for every input
row. The forward pass runs once on the B rows; each layer's activation
slope is computed once and broadcast over the k blocks, and the output
tangent has the same k·B-row layout.

Each layer is one fused ``linear`` node (``h @ w + b``), and the tanh
slope is one ``tanh_slope`` node read off the layer's output. Per hidden
layer the tape then stores the pre-activation, the activation and the
slope for the B primal rows and two arrays for the k·B tangent rows; the
product ``h @ w`` and the squares behind ``1 - h*h`` are never kept.
Inference and training run these same ops.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, concat, linear

_ACTIVATIONS = ("tanh", "sin")


class GaussianFourier:
    """Random Fourier features of scalar time, fixed at construction.

    emb(t) = [sin(2 pi w_i t), cos(2 pi w_i t)] with w ~ N(0, scale^2).
    The frequencies are part of the model state (saved in checkpoints)
    but are never trained.
    """

    def __init__(self, width: int, rng: np.random.Generator, scale: float = 1.0):
        if width % 2 != 0 or width < 2:
            raise ValueError("time-embedding width must be a positive even number")
        self.width = width
        self.freqs = rng.standard_normal(width // 2) * scale

    def __call__(self, t: Tensor) -> Tensor:
        ang = t * (2.0 * math.pi * self.freqs)  # (B,1)*(half,) -> (B,half)
        return concat([ang.sin(), ang.cos()], axis=1)


class Mlp:
    """Fully connected net: linear output, tanh (default) hidden layers.

    Parameter count is sum over layers of (fan_in + 1) * fan_out. A
    zero-weight network returns its output bias for any input.
    """

    def __init__(self, sizes, rng: np.random.Generator, activation: str = "tanh"):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        self.sizes = list(sizes)
        self.activation = activation
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    @property
    def param_count(self) -> int:
        return sum((i + 1) * o for i, o in zip(self.sizes[:-1], self.sizes[1:]))

    def __call__(self, x: Tensor) -> Tensor:
        return self._forward(x, None)[0]

    def forward_jvp(self, x: Tensor, u: Tensor) -> tuple[Tensor, Tensor]:
        """Forward pass plus the Jacobian-vector products d(out)/dx @ u.

        ``x`` is (B, in); ``u`` is (k·B, in), k tangent blocks of B rows
        (row j·B + i is the j-th tangent at input row i). Returns the
        (B, out) output, op for op the same as ``__call__``, and the
        (k·B, out) output tangents in the same block layout. Both stay
        on the tape, so the JVPs can themselves be differentiated with
        respect to the parameters.
        """
        return self._forward(x, u)

    def _forward(self, x: Tensor, u: Tensor | None):
        """The one layer loop; the tangent ``u`` is optional (None -> None)."""
        rows = x.shape[0]
        if u is not None:
            k, rem = divmod(u.shape[0], rows)
            if rem or k < 1:
                raise ValueError(f"tangent rows {u.shape[0]} are not a multiple of batch {rows}")
        h, dh = x, u
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = linear(h, w, b)
            h = z.tanh() if self.activation == "tanh" else z.sin()
            if dh is not None:
                slope = h.tanh_slope() if self.activation == "tanh" else z.cos()
                dz = dh @ w
                width = dz.shape[1]
                dh = (dz.reshape(k, rows, width) * slope).reshape(k * rows, width)
        out = linear(h, self.weights[-1], self.biases[-1])
        return out, None if dh is None else dh @ self.weights[-1]

    def freeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = False


class FieldNetwork:
    """Conditional network over (x, t [, condition]) used as v/eps/score head.

    Input layout: time-embedding || condition || x. ``condition`` may be
    omitted for unconditional density models (state_dim = 0).
    """

    def __init__(self, x_dim: int, state_dim: int, hidden, rng: np.random.Generator,
                 t_emb_width: int = 32, activation: str = "tanh", t_emb_scale: float = 1.0):
        self.x_dim = x_dim
        self.state_dim = state_dim
        self.t_emb = GaussianFourier(t_emb_width, rng, scale=t_emb_scale)
        self.mlp = Mlp([t_emb_width + state_dim + x_dim, *hidden, x_dim], rng, activation)

    def parameters(self) -> list[Tensor]:
        return self.mlp.parameters()

    def _lift_t(self, t, batch: int) -> Tensor:
        if isinstance(t, Tensor):
            return t
        return Tensor(np.full((batch, 1), float(t)))

    def _inputs(self, x: Tensor, t, condition) -> Tensor:
        parts = [self._lift_t(t, x.shape[0])]
        if self.state_dim:
            if condition is None:
                raise ValueError("conditional network called without a condition")
            parts.append(condition if isinstance(condition, Tensor) else Tensor(condition))
        parts.append(x)
        return concat([self.t_emb(parts[0])] + parts[1:], axis=1)

    def __call__(self, x: Tensor, t, condition=None) -> Tensor:
        return self.mlp(self._inputs(x, t, condition))

    def jvp(self, x: Tensor, t, condition, u: Tensor) -> tuple[Tensor, Tensor]:
        """(output, d(output)/dx @ u); the tangent enters through x only.

        ``x`` is (B, x_dim) and ``u`` is (k·B, x_dim), k stacked tangent
        blocks (see ``Mlp.forward_jvp``). The output has B rows, the
        output tangent k·B rows in the same block layout.
        """
        inp = self._inputs(x, t, condition)
        pad = inp.shape[1] - self.x_dim
        du = concat([Tensor(np.zeros((u.shape[0], pad))), u], axis=1)
        return self.mlp.forward_jvp(inp, du)

    def freeze(self) -> None:
        self.mlp.freeze()
