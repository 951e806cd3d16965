"""Dense tensors with reverse-mode automatic differentiation.

The computation graph *is* the gradient tape: every operation records its
parent nodes and a backward closure on the result. ``backward()`` on a
scalar output walks the graph in reverse topological order and accumulates
gradients into the ``grad`` field of every node that ``requires_grad``.

Tape lifecycle: the tape lives exactly as long as the output tensor that
heads it. The reverse pass keeps only what it still needs: once a node's
backward closure has run, that interior node's ``grad`` is set back to
``None``, so the pass holds the gradients of the frontier it is working
on rather than one per node. A gradient a closure has just computed for
one parent becomes that parent's ``grad`` as it is, uncopied. Leaves and
the root keep theirs. Because of that, ``backward`` may be called more
than once and every leaf gradient truly accumulates; training loops call
``Adam.zero_grad`` between steps. Closures keep references to the weight
arrays, not copies, and ``Adam.step`` updates those arrays in place, so a
graph must not be backpropagated after an optimizer step over its
parameters. Recording is re-entrant — new operations
may reference nodes of an existing graph at any time, which is what lets
a solver unroll of up to T=1000 steps stay differentiable. Memory grows
with the number of recorded operations (one array per op, plus what a
network node keeps in its closure), so an unroll costs O(T x state size).

The node rule: only a value that can carry a gradient becomes a Tensor.
A constant operand (a Python number or an array: time features, a
condition, tangent seeds, a step size) stays an array, captured by the op
that reads it, so it makes neither a node nor a finite check of its own;
the op's result is checked. Binary ops take it on either side
(``__array_ufunc__ = None`` makes ``array * tensor`` defer to the
Tensor), and a number acts as the float64 scalar a Tensor of it would
hold, so values and gradients are those of the wrapped constant.

A whole MLP call is one node, ``network``, over stacked rows: the B
primal rows and k blocks of B tangent rows (forward-mode JVPs) go in and
come out together, with one hand-written reverse rule that runs the
layers from the last to the first and includes the derivative of tanh's
slope. The tangent seeds are a constant array, so they get no gradient,
and so are the first layer's prefix columns: a one-row block (the time
embedding at a scalar t) is multiplied once and added into the bias row,
never broadcast to every row. Besides its value the node keeps the
first layer's inputs: its B per-row input rows and its folded bias row.
A plain call (no tangents: the critic and matching losses) also keeps
every hidden layer's B primal rows. A tangent-carrying call keeps no
hidden-layer row: its reverse rule reruns every hidden layer bottom-up,
primal and tangent rows, through the loop the forward ran, so the tape
holds no row but the output's and the first layer's input; the hidden
activations are the node's internal values, so they make no nodes and no
finite checks of their own. ``rows`` slices the stacked result back
apart. A loss is a handful of nodes: ``a - b`` of two Tensors is one
``sub`` node and a full ``mean()`` one ``mean`` node. A regression loss,
the weighted mean of squared residuals against a constant target, is
one ``sq_mean`` node with the values and gradients of its composite, so
a training loss records its network calls plus one node (plus the
``* 0.5`` of the matching losses).

``backward`` walks only the nodes that have a reverse rule; the leaves
(parameters and inputs) take their gradients from their consumers and
never enter its topological list, which keeps the walk's cost
proportional to the recorded ops, not to the parameter count.

Inside ``with no_tape():`` operations compute and check the same values
but record no parents and no backward closure, so each intermediate is
freed as soon as nothing refers to it and a T-step unroll holds O(state
size). The rule: a function that returns arrays records no tape. Sampling,
array log-densities and critic values run under ``no_tape()``; everything
that returns a Tensor for training records as before. ``no_tape()`` nests
and restores the previous setting on exit, also when an error escapes.

Every library-produced value is checked for NaN/Inf and raises
``NonFiniteError`` instead of propagating silently. Every Tensor holds
float64: any other input is converted to it.
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


def _float_array(value) -> np.ndarray:
    """``value`` as a float64 array (itself when it already is one)."""
    arr = value if type(value) is np.ndarray else np.asarray(value)
    return arr if arr.dtype == np.float64 else arr.astype(np.float64)


def _constant(value):
    """A constant operand: a Python number as an ``np.float64`` scalar,
    anything else as a float64 array."""
    if isinstance(value, (int, float)):
        return np.float64(value)
    return _float_array(value)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op")
    __array_ufunc__ = None  # ``array * tensor`` defers to Tensor.__rmul__

    def __init__(self, data, requires_grad: bool = False):
        self.data = _float_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev, self._backward, self._op = (), None, "leaf"
        _check_finite(self.data, "leaf")

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"

    # -- graph nodes ---------------------------------------------------

    def _node(self, data, prev, backward, op):
        """The result of an op on the ``prev`` Tensors; it records them and
        ``backward`` when recording is on and one of them can carry a
        gradient. ``data`` is the op's float result."""
        out = Tensor.__new__(Tensor)
        out.data = data if type(data) is np.ndarray else np.asarray(data)
        out.grad = None
        out.requires_grad = False
        out._prev, out._backward = (), None
        out._op = op
        if _RECORDING:
            for p in prev:
                if p.requires_grad or p._prev:
                    out._prev, out._backward = prev, backward
                    break
        _check_finite(out.data, op)
        return out

    def _accum(self, g: np.ndarray, fresh: bool = False, at=None) -> None:
        """Add ``g`` into ``grad`` (into rows ``at`` when given).

        A first ``fresh`` gradient, one the closure has just computed for
        this node alone, is kept as it is; any other is copied, since it
        may be the consumer's own ``grad`` or a view of it.
        """
        _check_finite(g, "reverse pass")
        if at is not None:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[at] += g
        elif self.grad is None:
            self.grad = g if fresh else np.array(g)
        else:
            self.grad += g

    # -- binary ops (numpy broadcasting; gradients un-broadcast) --------
    # A non-Tensor operand is a constant: the op reads it as ``_constant``
    # makes it and records only the Tensor operand.

    def __add__(self, other):
        if not isinstance(other, Tensor):
            def bwd_const(out):
                g = _unbroadcast(out.grad, self.data.shape)
                self._accum(g, fresh=g is not out.grad)

            return self._node(self.data + _constant(other), (self,), bwd_const, "add")
        out_data = self.data + other.data

        def bwd(out):
            for t in (self, other):
                if t.requires_grad or t._prev:
                    g = _unbroadcast(out.grad, t.data.shape)
                    t._accum(g, fresh=g is not out.grad)

        return self._node(out_data, (self, other), bwd, "add")

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            c = _constant(other)

            def bwd_const(out):
                self._accum(_unbroadcast(out.grad * c, self.data.shape), fresh=True)

            return self._node(self.data * c, (self,), bwd_const, "mul")
        out_data = self.data * other.data

        def bwd(out):
            if self.requires_grad or self._prev:
                self._accum(_unbroadcast(out.grad * other.data, self.data.shape), fresh=True)
            if other.requires_grad or other._prev:
                other._accum(_unbroadcast(out.grad * self.data, other.data.shape), fresh=True)

        return self._node(out_data, (self, other), bwd, "mul")

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return self + _constant(other) * np.float64(-1.0)  # the values of -Tensor(other)

        def bwd(out):  # the gradients of self + other * (-1.0)
            if self.requires_grad or self._prev:
                g = _unbroadcast(out.grad, self.data.shape)
                self._accum(g, fresh=g is not out.grad)
            if other.requires_grad or other._prev:
                other._accum(_unbroadcast(out.grad, other.data.shape) * np.float64(-1.0), fresh=True)

        # a - b is a + (-b) exactly, in IEEE arithmetic
        return self._node(self.data - other.data, (self, other), bwd, "sub")

    def __rsub__(self, other):
        return (-self) + other

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
            self._accum(g, fresh=True)

        return self._node(out_data, (self,), bwd, op)

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
            full = np.empty(shape)
            full[...] = g
            self._accum(full, fresh=True)

        return self._node(out_data, (self,), bwd, "sum")

    def mean(self, axis=None, keepdims: bool = False):
        """The sum times 1/n; a full mean is one node with the values and
        gradients of ``sum() * (1 / n)``."""
        if axis is not None:
            return self.sum(axis=axis, keepdims=keepdims) * (1.0 / self.data.shape[axis])
        c = np.float64(1.0 / self.data.size)
        shape = self.data.shape

        def bwd(out):
            self._accum(np.full(shape, out.grad * c), fresh=True)

        return self._node(self.data.sum(keepdims=keepdims) * c, (self,), bwd, "mean")

    def sq_mean(self, target, weight=None):
        """The mean of ``(self - target)**2 * weight`` over the broadcast
        shape, as one node; ``target`` and ``weight`` (None: 1) are
        constants. Its value and its gradient are bit for bit those of
        ``((self - target).square() * weight).mean()``: the reverse rule
        runs that composite's own ops in the same order,
        ``full(g/n) * weight * (2 * (self - target))``, un-broadcast to
        each operand's shape. A residual written ``target - self`` has the
        same bits too, since IEEE subtraction and products are exact under
        negation."""
        c = _constant(target)
        w = None if weight is None else _constant(weight)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            r = self.data - c
            sq = np.square(r)
            if w is not None:
                sq = sq * w
            k = np.float64(1.0 / sq.size)
            value = sq.sum() * k
        shape, x_shape = sq.shape, self.data.shape

        def bwd(out):
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                g = np.full(shape, out.grad * k)
                if w is not None:
                    g *= w
                    g = _unbroadcast(g, r.shape)
                g *= 2.0 * r
            self._accum(_unbroadcast(g, x_shape), fresh=True)

        return self._node(value, (self,), bwd, "sq_mean")

    # -- structural ops ---------------------------------------------------

    def rows(self, start: int, stop: int | None = None) -> "Tensor":
        """Rows ``start:stop`` (a view); the reverse pass adds into those rows."""
        at = slice(start, stop)

        def bwd(out):
            self._accum(out.grad, at=at)

        return self._node(self.data[at], (self,), bwd, "rows")

    # -- backward -------------------------------------------------------

    def backward(self) -> None:
        """Reverse pass from a scalar output, accumulating into ``grad``.

        The walk orders only the nodes that have a reverse rule: a leaf
        (a parameter, an input) never enters the topological list, since
        it has nothing to run, and it gets its gradient from its consumers'
        rules. The interior nodes keep the order a walk over every node
        gives them, so gradients accumulate in the same order as well.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar output, got shape {self.data.shape}")
        self.grad = np.ones_like(self.data)
        if self._backward is None:
            return
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
                if p._backward is not None and id(p) not in visited:
                    stack.append((p, False))
        for node in reversed(topo):
            node._backward(node)
            if node is not self:
                node.grad = None  # consumed; see "Tape lifecycle"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _scale_blocks(stacked: np.ndarray, rows: int, s: np.ndarray) -> None:
    """Multiply every block of ``rows`` rows of ``stacked`` by ``s`` in
    place, block by block: numpy's broadcast in-place product would
    allocate a buffer the size of ``stacked``."""
    for lo in range(0, stacked.shape[0], rows):
        stacked[lo:lo + rows] *= s


def network(x: Tensor, weights, biases, prefix=(), tangent=None) -> Tensor:
    """One call of a multilayer perceptron, tanh hidden layers and a linear
    output layer, as one node.

    ``x`` holds B primal rows; ``weights`` and ``biases`` list the layers,
    first to last. ``tangent`` optionally holds k >= 1 blocks of B tangent
    rows as a constant array (block j is the j-th tangent at every primal
    row). Every layer runs over the stacked rows [primal; tangents]:

        primal rows      a    = act(z),  z = [prefix | h_0] @ w + b
        tangent block j  da_j = (dh_j @ w_h) * act'(z)

    act is tanh on the hidden layers and the identity on the last one; the
    result is the last layer's stacked output, (k+1)·B rows. ``prefix``
    holds constant arrays of B rows or of one row: first-layer input
    columns that only the primal rows have, ahead of x's. A tangent sees
    only w_h, the rows of a weight that multiply the layer's own input.

    A one-row prefix block p (the time embedding at a scalar t; every block
    when B is 1) is shared by all primal rows, so its product is taken
    once, p @ w_p, and added into the bias row: z = [per-row blocks | x] @
    w_rest + (b + p @ w_p). The primal and the tangent rows go through
    separate matmuls, so the primal rows are bit for bit those of the call
    without tangents, and no slope is computed without tangents.

    On the tape the node keeps its value (the last layer's stacked output)
    and the first layer's inputs: its per-row input (x's rows, or [per-row
    blocks | x] with a per-row prefix block), its folded bias row and
    w_rest (a view of the weight when the rows it keeps are one range),
    and the tangent seeds, the caller's array as it is. A tangent-carrying
    call keeps no hidden-layer row: its reverse rule reruns the hidden
    layers bottom-up, primal and tangent rows, with the loop the forward
    ran (``run``), so they are bit for bit the rows the forward dropped;
    the rerun costs one B-row matmul and one tanh per hidden layer beyond
    the tangent rows' own. A plain call (k = 0: the critic and matching
    losses) keeps every hidden layer's a, B rows each, and reruns nothing.
    Then the rule runs the layers from the last to the first and carries
    the slope's own derivative:

        gz = ga * (1 - a*a) - 2a * sum_j gda_j * da_j   (tanh)
        gdz_j = gda_j * act'(z),  gb = sum over rows of gz,
        gw_p = outer(p, gb)  for a one-row block,
        gw_rest = [per-row blocks | h_0]^T gz + dh^T gdz  (one matmul
        over the stacked [h_0; dh] without a per-row block),
        g[h] = [gz; gdz] @ w_h^T  into the layer below,

    and hands x the gradient of its primal rows, gz @ w_h^T; the tangent
    seeds take none. A hidden layer's [ga; gda] is the pass's own array,
    so it is scaled into [gz; gdz] in place, after the slope term has read
    its unscaled tangent rows. It stops at the lowest layer that still
    owes a gradient, and drops each rerun stack [a; da] and its slope once
    the layers that read them are done. The hidden activations are the
    node's internal values: only its output and the gradients it hands to
    x and to each w and b are checked, and a NaN inside the call reaches
    the output. An overflow or an invalid operation anywhere in the forward
    pass raises ``NonFiniteError`` at once, with no numpy warning: a hidden
    layer's tanh would turn an infinite pre-activation into a finite ±1
    that no output check sees.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _network(x, weights, biases, prefix, tangent)
    except NonFiniteError:
        raise
    except FloatingPointError as exc:
        raise NonFiniteError(f"non-finite value produced by network: {exc}") from None


def _network(x: Tensor, weights, biases, prefix, tangent) -> Tensor:
    """``network``'s forward pass and its node."""
    xd = x.data
    if xd.ndim != 2 or any(w.data.ndim != 2 for w in weights):
        raise ValueError("network is defined for 2-d inputs and weights")
    rows = xd.shape[0]
    if rows < 1:
        raise ValueError("network needs at least one input row")
    k = 0
    if tangent is not None:
        if tangent.shape[0] < rows or tangent.shape[0] % rows:
            raise ValueError(f"tangent rows {tangent.shape[0]} are not a multiple of batch {rows}")
        k = tangent.shape[0] // rows
    width = xd.shape[1] + sum(p.shape[1] for p in prefix)
    for w, b in zip(weights, biases):
        if w.data.shape[0] != width or b.data.shape != w.data.shape[1:]:
            raise ValueError(f"network: input width {width}, weight {w.data.shape} and bias "
                             "do not fit")
        width = w.data.shape[1]
    parents = (x, *weights, *biases)
    taped = _RECORDING and any(p.requires_grad or p._prev for p in parents)
    shared, per_row, lo = [], [], 0  # one-row blocks come with their weight rows
    for p in prefix:
        if p.shape[0] == 1:
            shared.append((p, lo, lo + p.shape[1]))
        else:
            per_row.append(p)
        lo += p.shape[1]
    last = len(weights) - 1
    wds = [w.data for w in weights]
    bds = [b.data for b in biases]
    # the first layer's inputs: per-row input rows, weight rows and bias row
    inp0, w0, b0 = xd, wds[0], bds[0]
    if shared:
        keep = np.ones(w0.shape[0], dtype=bool)
        for p, lo, hi in shared:
            keep[lo:hi] = False
            row = p @ w0[lo:hi]
            b0 = b0 + row
        at = np.flatnonzero(keep)
        one_range = at.size and at[-1] - at[0] + 1 == at.size
        w0 = w0[at[0]:at[-1] + 1] if one_range else w0[keep]
    if per_row:
        inp0 = np.concatenate(per_row + [xd], axis=1)

    def run(depth, keep_hidden):
        """Layers 0..depth-1 over the stacked rows: the top one's output
        and, when ``keep_hidden``, every hidden layer's (output, slope)."""
        out, stacks, h, dh = None, [], inp0, tangent
        for i in range(depth):
            wd = wds[i]
            out = np.empty(((k + 1) * rows, wd.shape[1]))
            a, slope = out[:rows], None
            np.matmul(h, w0 if i == 0 else wd, out=a)
            a += b0 if i == 0 else bds[i]
            if k:
                np.matmul(dh, wd[wd.shape[0] - dh.shape[1]:], out=out[rows:])
            if i < last:
                np.tanh(a, out=a)
                if k:
                    slope = 1.0 - a * a
                    _scale_blocks(out[rows:], rows, slope)
                if keep_hidden:
                    stacks.append((out, slope))
            h, dh = a, out[rows:]
        return out, stacks

    out, kept = run(last + 1, taped and not k)  # a plain call keeps every hidden layer's a

    def bwd(node):
        stop = 0 if x.requires_grad or x._prev else next(
            i for i, (w, b) in enumerate(zip(weights, biases))
            if w.requires_grad or w._prev or b.requires_grad or b._prev)
        stacks = run(last, True)[1] if k else list(kept)
        g = node.grad
        for i in range(last, stop - 1, -1):
            w, b = weights[i], biases[i]
            need_w = w.requires_grad or w._prev
            need_b = b.requires_grad or b._prev
            wd = wds[i]
            gz = g[:rows]  # g becomes [gz; gdz]: a hidden layer scales it, this pass's own array, in place
            if i < last:
                out, slope = stacks.pop()
                a = out[:rows]
                if k:  # the slope's own derivative (see the rule above), from the unscaled g
                    da = out[rows:]
                    acc = g[rows:2 * rows] * da[:rows]
                    for j in range(1, k):
                        acc += g[(j + 1) * rows:(j + 2) * rows] * da[j * rows:(j + 1) * rows]
                    acc *= a
                    acc *= 2.0
                _scale_blocks(g, rows, 1.0 - a * a if slope is None else slope)
                if k:
                    gz -= acc
            n = wd.shape[0] if i else xd.shape[1]  # the width of h (x's for the first layer)
            first_shared = shared if i == 0 else ()
            gb = gz.sum(axis=0) if need_b or (need_w and first_shared) else None
            if need_b:
                b._accum(gb, fresh=True)
            if need_w:
                if i == 0 and per_row:
                    gw = inp0.T @ gz
                    if k:
                        gw[-n:] += tangent.T @ g[rows:]
                elif i:
                    gw = stacks[-1][0].T @ g
                else:  # the stacked first-layer input, made for this product alone
                    gw = (np.concatenate([xd, tangent]) if k else xd).T @ g
                if first_shared:
                    gw_in, gw = gw, np.empty_like(wd)
                    gw[keep] = gw_in
                    for p, lo, hi in first_shared:
                        gw[lo:hi] = np.outer(p, gb)
                w._accum(gw, fresh=True)
            w_h = wd[wd.shape[0] - n:]
            if i > stop:
                g = g @ w_h.T
            elif i == 0 and (x.requires_grad or x._prev):
                x._accum(gz @ w_h.T, fresh=True)

    return x._node(out, parents, bwd, "network")
