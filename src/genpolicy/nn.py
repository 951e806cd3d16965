"""Multilayer perceptrons and time-feature embeddings on the tensor engine.

``Mlp.forward_jvp`` propagates tangents alongside the forward pass
(forward-mode through the layers, expressed in taped nodes; it runs the
same layer loop as ``Mlp.__call__``, with the tangent switched on), so
Jacobian-vector products remain differentiable with respect to the
parameters by the ordinary reverse pass. The likelihood module relies on
this for trainable Jacobian traces.

Tangents come stacked: for a batch of B inputs, ``u`` holds k·B rows,
k blocks of B rows each, block j being the j-th tangent for every input
row. ``u`` is a constant array (the tangent seeds take no gradient) and
enters the first layer as that node's own constant input, next to x's B
rows; there is no stacked concat node, and the reverse pass hands x the
gradient of its own rows only. Every layer is one ``tensor.dense`` node
over the (k+1)·B stacked rows: the primal rows get
``act(h @ w + b)``, the tangent rows ``(dh @ w) * act'``, each through
its own matmul, so the primal output is bit for bit that of
``__call__`` (the k = 0 case of the same node). Per hidden layer the
tape keeps only the layer's (k+1)·B-row output. The output layer's
product is split back into the B-row output, plus its bias, and the
k·B-row output tangent.

``FieldNetwork`` feeds its first layer the time embedding and the
condition as constant columns ahead of x (a ``prefix``), so the tangent
enters only through the weight rows of x. Both are plain arrays: the
Fourier features are computed in numpy, once per call, and for a scalar
time as one row shared by the whole batch. The first layer multiplies
that row once, emb(t) @ w_t, and adds it into its bias row, so a solver
stage's matmul covers only the condition and x columns (``tensor.dense``);
times drawn per sample, as the matching losses draw them, stay columns of
that matmul. The first layer's weight stays one array, as checkpoints
store it.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, as_tensor, dense


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

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """emb(t) for a (B, 1) array of times, as a (B, width) array."""
        ang = t * (2.0 * math.pi * self.freqs)  # (B,1)*(half,) -> (B,half)
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class Mlp:
    """Fully connected net: tanh hidden layers, linear output.

    Parameter count is sum over layers of (fan_in + 1) * fan_out. A
    zero-weight network returns its output bias for any input.
    """

    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def __call__(self, x: Tensor, prefix=()) -> Tensor:
        """The (B, out) output for the (B, in) input ``x``.

        ``prefix`` optionally holds constant arrays (B rows, or one row
        for all) whose columns come before x's in the first layer's input;
        ``sizes[0]`` counts them. No gradient flows into them.
        """
        return self._forward(x, None, prefix)[0]

    def forward_jvp(self, x: Tensor, u: np.ndarray, prefix=()) -> tuple[Tensor, Tensor]:
        """Forward pass plus the Jacobian-vector products d(out)/dx @ u.

        ``x`` is (B, in); ``u`` is a constant (k·B, in) array, k tangent
        blocks of B rows (row j·B + i is the j-th tangent at input row i),
        which takes no gradient. Returns the
        (B, out) output, bit for bit that of ``__call__``, and the
        (k·B, out) output tangents in the same block layout. Both stay
        on the tape, so the JVPs can themselves be differentiated with
        respect to the parameters. ``prefix`` is as in ``__call__``.
        """
        return self._forward(x, u, prefix)

    def _forward(self, x: Tensor, u, prefix):
        """The one layer loop; the tangent ``u`` is optional (None -> None).

        The first layer takes ``u`` as its constant tangent, so the reverse
        pass hands x the gradient of its B rows alone.
        """
        rows = x.shape[0]
        jvp = u is not None
        if jvp and (u.shape[0] < rows or u.shape[0] % rows):
            raise ValueError(f"tangent rows {u.shape[0]} are not a multiple of batch {rows}")
        h = x
        *hidden, (w_out, b_out) = zip(self.weights, self.biases)
        for w, b in hidden:
            h = dense(h, w, b, rows, tanh=True, prefix=prefix, tangent=u)
            prefix, u = (), None  # both feed the first layer only
        if not jvp:
            return dense(h, w_out, b_out, rows, prefix=prefix), None
        # The output bias is added to the primal rows alone, so a loss on
        # the tangents alone leaves it without a gradient.
        out = dense(h, w_out, None, rows, prefix=prefix, tangent=u)
        return out.rows(0, rows) + b_out, out.rows(rows)

    def freeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = False


class FieldNetwork:
    """Conditional network over (x, t [, condition]) used as v/eps/score head.

    Input layout: time-embedding || condition || x. ``condition`` may be
    omitted for unconditional density models (state_dim = 0). The time
    and the condition are constants of the network: no gradient flows
    into them.
    """

    def __init__(self, x_dim: int, state_dim: int, hidden, rng: np.random.Generator,
                 t_emb_width: int = 32, t_emb_scale: float = 1.0):
        self.x_dim = x_dim
        self.state_dim = state_dim
        self.t_emb = GaussianFourier(t_emb_width, rng, scale=t_emb_scale)
        self.mlp = Mlp([t_emb_width + state_dim + x_dim, *hidden, x_dim], rng)

    def parameters(self) -> list[Tensor]:
        return self.mlp.parameters()

    def _prefix(self, t, condition) -> list:
        """The input columns ahead of x, as arrays: emb(t), then the condition.

        Both are constants of the network: arrays, or Tensors that carry no
        gradient. A scalar ``t`` is embedded as one row, shared by every
        input row.
        """
        parts = [t]
        if self.state_dim:
            if condition is None:
                raise ValueError("conditional network called without a condition")
            parts.append(condition)
        arrays = []
        for p in parts:
            if isinstance(p, Tensor):
                if p.requires_grad or p._prev:
                    raise ValueError("the time and condition inputs take no gradient")
                p = p.data
            arrays.append(np.asarray(p, dtype=float))
        if arrays[0].ndim == 0:
            arrays[0] = arrays[0].reshape(1, 1)
        arrays[0] = self.t_emb(arrays[0])
        return arrays

    def __call__(self, x: Tensor, t, condition=None) -> Tensor:
        return self.mlp(as_tensor(x), self._prefix(t, condition))

    def jvp(self, x: Tensor, t, condition, u: np.ndarray) -> tuple[Tensor, Tensor]:
        """(output, d(output)/dx @ u); the tangent enters through x only.

        ``x`` is (B, x_dim) and ``u`` is a constant (k·B, x_dim) array, k
        stacked tangent blocks (see ``Mlp.forward_jvp``). The output has B rows, the
        output tangent k·B rows in the same block layout.
        """
        return self.mlp.forward_jvp(as_tensor(x), u, self._prefix(t, condition))

    def freeze(self) -> None:
        self.mlp.freeze()
