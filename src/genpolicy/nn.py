"""Multilayer perceptrons and time-feature embeddings on the tensor engine.

``Mlp.forward_jvp`` propagates tangents alongside the forward pass
(forward-mode through the layers, in the same one-node ``tensor.network``
call that ``Mlp.__call__`` records, with the tangent switched on), so
Jacobian-vector products remain differentiable with respect to the
parameters by the ordinary reverse pass. The likelihood module relies on
this for trainable Jacobian traces.

Tangents come stacked: for a batch of B inputs, ``u`` holds k·B rows,
k blocks of B rows each, block j being the j-th tangent for every input
row. ``u`` is a constant array (the tangent seeds take no gradient) and
enters the first layer as the node's own constant input, next to x's B
rows; there is no stacked concat node, and the reverse pass hands x the
gradient of its own rows only. Every call is one ``tensor.network`` node
over the (k+1)·B stacked rows: per layer the primal rows get
``act(h @ w + b)``, the tangent rows ``(dh @ w) * act'``, each through
its own matmul, so the primal output is bit for bit that of
``__call__`` (the k = 0 case of the same node). With tangents the node
keeps no hidden-layer row and holds ``u`` as it is (an unroll passes
every stage the same seed array); its reverse rule reruns the hidden
layers, primal and tangent rows, from the first layer's input and the
seeds. Its stacked output, biased on the primal rows only, is split back
into the B-row output and the k·B-row output tangent, two
``tensor.RowView`` views that keep the stacked output as their source:
the likelihood's trace node reads the tangent rows there, so the
tangent's view never enters the tape.

``FieldNetwork`` feeds its first layer the time embedding and the
condition as constant columns ahead of x (a ``prefix``), so the tangent
enters only through the weight rows of x. Both are plain arrays: the
Fourier features are computed in numpy, once per call, and for a scalar
time as one row shared by the whole batch. The first layer multiplies
that row once, emb(t) @ w_t, and adds it into its bias row, so a solver
stage's matmul covers only the condition and x columns (``tensor.network``);
times drawn per sample, as the matching losses draw them, stay columns of
that matmul. The first layer's weight stays one array, as checkpoints
store it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NonFiniteError
from .tensor import RowView, Tensor, as_tensor, network


class GaussianFourier:
    """Random Fourier features of scalar time, fixed at construction.

    emb(t) = [sin(2 pi w_i t), cos(2 pi w_i t)] with w ~ N(0, scale^2),
    drawn from ``rng``, or the given ``freqs``. The frequencies are part
    of the model state (saved in checkpoints) but are never trained. Ones
    whose 2 pi w is not finite are refused (``NonFiniteError``, with no
    numpy warning): their features would be NaN.
    """

    def __init__(self, width: int, rng: np.random.Generator | None = None, scale: float = 1.0,
                 freqs: np.ndarray | None = None):
        if width % 2 != 0 or width < 2:
            raise ValueError("time-embedding width must be a positive even number")
        self.width = width
        if freqs is None and rng is None:
            raise ValueError("GaussianFourier needs an rng or its freqs")
        if freqs is not None and freqs.shape != (width // 2,):
            raise ValueError(f"frequencies have shape {freqs.shape}, expected {(width // 2,)}")
        with np.errstate(over="ignore"):
            if freqs is None:
                freqs = rng.standard_normal(width // 2) * scale
            if not np.isfinite(2.0 * math.pi * freqs).all():
                raise NonFiniteError("time-embedding frequencies overflow: 2 pi w is not "
                                     f"finite for the largest |w|, {np.abs(freqs).max():g}")
        self.freqs = freqs

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """emb(t) for a (B, 1) array of times, as a (B, width) array."""
        ang = t * (2.0 * math.pi * self.freqs)  # (B,1)*(half,) -> (B,half)
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class Mlp:
    """Fully connected net: tanh hidden layers, linear output.

    Parameter count is sum over layers of (fan_in + 1) * fan_out. A
    zero-weight network returns its output bias for any input. The
    weights are drawn from ``rng`` (N(0, 1/fan_in), zero biases), or
    taken as they are from ``params``, arrays in ``parameters()`` order.
    """

    def __init__(self, sizes, rng: np.random.Generator | None = None, params=None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = [operator.index(n) for n in sizes]
        layers = list(zip(self.sizes[:-1], self.sizes[1:]))
        if params is None:
            if rng is None:
                raise ValueError("Mlp needs an rng or its params")
            params = []
            for fan_in, fan_out in layers:
                params += [rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in),
                           np.zeros(fan_out)]
        shapes = [s for fan_in, fan_out in layers for s in ((fan_in, fan_out), (fan_out,))]
        if len(params) != len(shapes):
            raise ValueError(f"{len(params)} parameter arrays for {len(layers)} layers")
        for i, (arr, shape) in enumerate(zip(params, shapes)):
            if arr.shape != shape:
                raise ValueError(f"parameter {i} has shape {arr.shape}, expected {shape}")
        self.weights = [Tensor(w, requires_grad=True) for w in params[0::2]]
        self.biases = [Tensor(b, requires_grad=True) for b in params[1::2]]

    def parameters(self) -> list[Tensor]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def __call__(self, x: Tensor, prefix=()) -> Tensor:
        """The (B, out) output for the (B, in) input ``x``, one ``network`` node.

        ``prefix`` optionally holds constant arrays (B rows, or one row
        for all) whose columns come before x's in the first layer's input;
        ``sizes[0]`` counts them. No gradient flows into them.
        """
        return network(x, self.weights, self.biases, prefix)

    def forward_jvp(self, x: Tensor, u: np.ndarray, prefix=()) -> tuple[RowView, RowView]:
        """Forward pass plus the Jacobian-vector products d(out)/dx @ u.

        ``x`` is (B, in); ``u`` is a constant (k·B, in) array, k tangent
        blocks of B rows (row j·B + i is the j-th tangent at input row i),
        which takes no gradient. Returns the (B, out) output, bit for bit
        that of ``__call__``, and the (k·B, out) output tangents in the
        same block layout, both ``RowView`` views of the one network
        node's stacked output (their ``source``). Both stay on the tape,
        so the JVPs can themselves be differentiated with respect to the
        parameters.
        ``prefix`` is as in ``__call__``.
        """
        rows = x.shape[0]
        # The node adds each bias to the primal rows alone, so a loss on the
        # tangents alone gives the output bias a zero gradient.
        out = network(x, self.weights, self.biases, prefix, u)
        return out.rows(0, rows), out.rows(rows)

    def freeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = False


class FieldNetwork:
    """Conditional network over (x, t [, condition]) used as v/eps/score head.

    Input layout: time-embedding || condition || x. ``condition`` may be
    omitted for unconditional density models (state_dim = 0). The time
    and the condition are constants of the network: no gradient flows
    into them. The embedding's ``freqs`` and the MLP's ``params`` are
    drawn from ``rng`` unless given (see ``GaussianFourier`` and ``Mlp``).
    """

    def __init__(self, x_dim: int, state_dim: int, hidden, rng: np.random.Generator | None = None,
                 t_emb_width: int = 32, t_emb_scale: float = 1.0, freqs=None, params=None):
        self.x_dim = x_dim
        self.state_dim = state_dim
        self.t_emb = GaussianFourier(t_emb_width, rng, scale=t_emb_scale, freqs=freqs)
        self.mlp = Mlp([t_emb_width + state_dim + x_dim, *hidden, x_dim], rng, params)

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
