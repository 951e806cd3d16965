"""Dense tensors with reverse-mode automatic differentiation.

The computation graph *is* the gradient tape: every operation records its
parent nodes and a backward closure on the result. ``backward()`` on a
scalar output walks the graph in reverse topological order and accumulates
gradients into the ``grad`` field of every node that ``requires_grad``.

Tape lifecycle: the tape lives exactly as long as the output tensor that
heads it. The reverse pass keeps only what it still needs: once a node's
backward closure has run, that interior node's ``grad`` is set back to
``None``, so the pass holds the gradients of the frontier it is working
on rather than one per node. Leaves and the root keep theirs. Because of
that, ``backward`` may be called more than once and every leaf gradient
truly accumulates; training loops call ``zero_grad`` between steps.
Recording is re-entrant — new operations may reference nodes of an
existing graph at any time, which is what lets a solver unroll of up to
T=1000 steps stay differentiable. Memory grows with the number of
recorded operations (one activation array per op), so an unroll costs
O(T x state size). Two fused nodes keep that array count down:
``linear(x, w, b)`` is ``x @ w + b`` as one node (the product alone is
never stored), and ``tanh_slope`` is the tanh derivative ``1 - y*y`` of
a tanh output ``y`` as one node.

Inside ``with no_tape():`` operations compute and check the same values
but record no parents and no backward closure, so each intermediate is
freed as soon as nothing refers to it and a T-step unroll holds O(state
size). The rule: a function that returns arrays records no tape. Sampling,
array log-densities and critic values run under ``no_tape()``; everything
that returns a Tensor for training records as before. ``no_tape()`` nests
and restores the previous setting on exit, also when an error escapes.

Every library-produced value is checked for NaN/Inf and raises
``NonFiniteError`` instead of propagating silently. Arithmetic is
float64: non-float input is converted to float64, and a float32 array
keeps its dtype.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteError

_RECORDING = True


@contextmanager
def no_tape():
    """Compute without recording a graph (see the module docstring)."""
    global _RECORDING
    saved, _RECORDING = _RECORDING, False
    try:
        yield
    finally:
        _RECORDING = saved


def _check_finite(arr: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value produced by {where}")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, _prev=(), _backward=None, _op: str = "leaf"):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._prev = _prev
        self._backward = _backward
        self._op = _op
        _check_finite(self.data, _op)

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Constant leaf sharing this tensor's values; gradient stops here."""
        return Tensor(self.data, requires_grad=False)

    # -- graph nodes ---------------------------------------------------

    def _node(self, data, prev, backward, op):
        needs = _RECORDING and any(p.requires_grad or p._prev for p in prev)
        return Tensor(data, _prev=prev if needs else (), _backward=backward if needs else None, _op=op)

    def _accum(self, g: np.ndarray) -> None:
        _check_finite(g, "reverse pass")
        if self.grad is None:
            # a copy: ``g`` may be the consumer's own ``grad`` (see _unbroadcast)
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # -- binary ops (numpy broadcasting; gradients un-broadcast) --------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def bwd(out):
            if self.requires_grad or self._prev:
                self._accum(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad or other._prev:
                other._accum(_unbroadcast(out.grad, other.data.shape))

        return self._node(out_data, (self, other), bwd, "add")

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def bwd(out):
            if self.requires_grad or self._prev:
                self._accum(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad or other._prev:
                other._accum(_unbroadcast(out.grad * self.data, other.data.shape))

        return self._node(out_data, (self, other), bwd, "mul")

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul is defined for 2-d tensors")
        out_data = self.data @ other.data

        def bwd(out):
            if self.requires_grad or self._prev:
                self._accum(out.grad @ other.data.T)
            if other.requires_grad or other._prev:
                other._accum(self.data.T @ out.grad)

        return self._node(out_data, (self, other), bwd, "matmul")

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, divisor):
        # Constant divisors only: division is not a taped primitive.
        if isinstance(divisor, Tensor):
            raise TypeError("tensor/tensor division is not a primitive; multiply by a constant reciprocal")
        return self * (1.0 / np.asarray(divisor))

    # -- elementwise unary ops ------------------------------------------

    def _unary(self, fn, dfn, op):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out_data = fn(self.data)

        def bwd(out):
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                g = out.grad * dfn(self.data, out_data)
            self._accum(g)

        return self._node(out_data, (self,), bwd, op)

    def exp(self):
        return self._unary(np.exp, lambda x, y: y, "exp")

    def log(self):
        return self._unary(np.log, lambda x, y: 1.0 / x, "log")

    def tanh(self):
        return self._unary(np.tanh, lambda x, y: 1.0 - y * y, "tanh")

    def sin(self):
        return self._unary(np.sin, lambda x, y: np.cos(x), "sin")

    def cos(self):
        return self._unary(np.cos, lambda x, y: -np.sin(x), "cos")

    def tanh_slope(self):
        """1 - y*y for a tanh output y, the slope of tanh at its input."""
        return self._unary(lambda y: 1.0 - y * y, lambda y, _: -2.0 * y, "tanh_slope")

    def sqrt(self):
        return self._unary(np.sqrt, lambda x, y: 0.5 / y, "sqrt")

    def square(self):
        return self._unary(np.square, lambda x, y: 2.0 * x, "square")

    # -- reductions -----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def bwd(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, shape).copy())

        return self._node(out_data, (self,), bwd, "sum")

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- structural ops ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def bwd(out):
            self._accum(out.grad.reshape(old))

        return self._node(out_data, (self,), bwd, "reshape")

    # -- backward -------------------------------------------------------

    def backward(self) -> None:
        """Reverse pass from a scalar output, accumulating into ``grad``."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar output, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)
                if node is not self:
                    node.grad = None  # consumed; see "Tape lifecycle"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._prev:
                idx = [slice(None)] * out.grad.ndim
                idx[axis] = slice(lo, hi)
                t._accum(out.grad[tuple(idx)])

    needs = _RECORDING and any(t.requires_grad or t._prev for t in tensors)
    return Tensor(out_data, _prev=tuple(tensors) if needs else (),
                  _backward=bwd if needs else None, _op="concat")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: the product is never stored on the tape."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("matmul is defined for 2-d tensors")
    out_data = x.data @ w.data
    out_data += b.data

    def bwd(out):
        g = out.grad
        if x.requires_grad or x._prev:
            x._accum(g @ w.data.T)
        if w.requires_grad or w._prev:
            w._accum(x.data.T @ g)
        if b.requires_grad or b._prev:
            b._accum(_unbroadcast(g, b.data.shape))

    return x._node(out_data, (x, w, b), bwd, "linear")


def backward(output: Tensor) -> dict[int, np.ndarray]:
    """Run the reverse pass and return a gradient map keyed by ``id(leaf)``.

    Leaves are the reachable tensors with ``requires_grad``; a constant
    (non-recorded) input maps to a zero gradient by construction since it
    never receives accumulation.
    """
    leaves: dict[int, Tensor] = {}
    stack = [output]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.requires_grad and not node._prev:
            node.grad = None
            leaves[id(node)] = node
        stack.extend(node._prev)
    output.backward()
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data)) for k, t in leaves.items()}


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


def grad_check(f, point: Tensor, h: float = 1e-5) -> float:
    """Max relative error between AD and central finite differences.

    ``f`` must be a deterministic scalar function of ``point``. Returns
    max over coordinates of |AD - FD| / (|FD| + 1e-8). Finite differences
    are invalid at kinks or discontinuities; a non-finite evaluation at a
    perturbed point raises rather than being masked.
    """
    x = Tensor(point.data.copy(), requires_grad=True)
    out = f(x)
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    out.backward()
    ad = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_hi = float(f(Tensor(x.data.copy())).data)
        flat[i] = orig - h
        f_lo = float(f(Tensor(x.data.copy())).data)
        flat[i] = orig
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NonFiniteError("function non-finite at finite-difference probe")
        fd[i] = (f_hi - f_lo) / (2.0 * h)
    fd = fd.reshape(x.data.shape)
    return float(np.max(np.abs(ad - fd) / (np.abs(fd) + 1e-8)))


def param_grad_check(loss_fn, params, h: float = 1e-5, sample: int | None = None,
                     rng: np.random.Generator | None = None) -> float:
    """Finite-difference check of d(loss)/d(params).

    ``loss_fn`` takes no arguments, must be deterministic across calls
    (freeze any randomness inside), and returns a scalar Tensor built from
    ``params``. Perturbs every coordinate, or ``sample`` random coordinates
    per parameter, in place. Returns the max relative error with the same
    |AD - FD| / (|FD| + 1e-8) metric as ``grad_check``.
    """
    zero_grad(params)
    loss_fn().backward()
    ad = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, g in zip(params, ad):
        flat = p.data.reshape(-1)
        if sample is None or sample >= flat.size:
            idxs = range(flat.size)
        else:
            idxs = (rng or np.random.default_rng(0)).choice(flat.size, size=sample, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_hi = float(loss_fn().data)
            flat[i] = orig - h
            f_lo = float(loss_fn().data)
            flat[i] = orig
            fd = (f_hi - f_lo) / (2.0 * h)
            worst = max(worst, abs(g.reshape(-1)[i] - fd) / (abs(fd) + 1e-8))
    return worst
