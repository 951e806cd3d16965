"""Finite-difference and reverse-sweep oracles that the tests check the library against,
and the tensor ops only the tests use, built on the library's node machinery."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from genpolicy import likelihood, nn, sampler, tensor
from genpolicy.errors import NonFiniteError, TrainingDivergedError
from genpolicy.likelihood import TraceMode, _basis_seeds, _stderr_of, trace_with_jvp
from genpolicy.tensor import Tensor, as_tensor, no_tape


# -- tensor ops the library does not use ---------------------------------------


def exp(x: Tensor) -> Tensor:
    return x._unary(np.exp, lambda x, y: y, "exp")


def log(x: Tensor) -> Tensor:
    return x._unary(np.log, lambda x, y: 1.0 / x, "log")


def sqrt(x: Tensor) -> Tensor:
    return x._unary(np.sqrt, lambda x, y: 0.5 / y, "sqrt")


def tanh(x: Tensor) -> Tensor:
    return x._unary(np.tanh, lambda x, y: 1.0 - y * y, "tanh")


def sin(x: Tensor) -> Tensor:
    return x._unary(np.sin, lambda x, y: np.cos(x), "sin")


def cos(x: Tensor) -> Tensor:
    return x._unary(np.cos, lambda x, y: -np.sin(x), "cos")


def reshape(x: Tensor, *shape) -> Tensor:
    old = x.data.shape

    def bwd(out):
        x._accum(out.grad.reshape(old))

    return x._node(x.data.reshape(shape), (x,), bwd, "reshape")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2-d Tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul is defined for 2-d tensors")

    def bwd(out):
        if a.requires_grad or a._prev:
            a._accum(out.grad @ b.data.T, fresh=True)
        if b.requires_grad or b._prev:
            b._accum(a.data.T @ out.grad, fresh=True)

    return a._node(a.data @ b.data, (a, b), bwd, "matmul")


def concat(tensors, axis: int = 1) -> Tensor:
    """The Tensors joined along ``axis``; the reverse pass hands each its slice."""
    tensors = [as_tensor(t) for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def bwd(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._prev:
                t._accum(np.take(out.grad, np.arange(lo, hi), axis=axis), fresh=True)

    return tensors[0]._node(np.concatenate([t.data for t in tensors], axis=axis),
                            tuple(tensors), bwd, "concat")


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


def recorded_nodes(*outputs: Tensor) -> int:
    """Number of recorded nodes (Tensors with parents) in the graph the outputs head."""
    seen, stack = set(), list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._prev:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


# -- finite differences and reference computations -----------------------------


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


def jacobian_trace(field, x, t, mode: TraceMode = TraceMode(), rng=None):
    """Trace of d(field)/dx at (x, t); returns (trace, stderr), numpy.

    ``field`` is a callable (Tensor x, t) -> Tensor; if it exposes
    ``jvp(x, t, u)`` the estimate uses one stacked forward sweep (see
    ``likelihood.trace_with_jvp``), recording no tape, otherwise reverse
    sweeps on a fresh leaf (d of them in exact mode, one per probe in
    Hutchinson mode), which need theirs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    batch, d = x.shape
    jvp_fn = getattr(field, "jvp", None)
    if jvp_fn is not None:
        probes = None
        if mode.kind == "hutchinson":
            probes = rng.standard_normal((mode.n_probes, batch, d))
        with no_tape():
            est = trace_with_jvp(jvp_fn, Tensor(x), t, mode, probes)[1].data
    elif mode.kind == "exact":
        est = np.zeros((1, batch))
        for i, e in enumerate(np.eye(d)):
            leaf = Tensor(x, requires_grad=True)
            (field(leaf, t) * e).sum().backward()
            est[0] += leaf.grad[:, i]
    else:
        est = np.zeros((mode.n_probes, batch))
        for p in range(mode.n_probes):
            eps = rng.standard_normal((batch, d))
            leaf = Tensor(x, requires_grad=True)
            (field(leaf, t) * eps).sum().backward()
            est[p] = (leaf.grad * eps).sum(axis=1)
    return est.mean(axis=0), _stderr_of(est)


def network_reference(x: Tensor, weights, biases, prefix=(), tangent=None) -> Tensor:
    """``tensor.network`` as it was when the node kept every layer's whole
    stacked output on the tape: the tangent-carrying call's values and
    gradients that the library's node must reproduce byte for byte."""
    xd = x.data
    if xd.ndim != 2 or any(w.data.ndim != 2 for w in weights):
        raise ValueError("network is defined for 2-d inputs and weights")
    rows = xd.shape[0]
    if rows < 1:
        raise ValueError("network needs at least one input row")
    h = xd
    if tangent is not None:
        if tangent.shape[0] < rows or tangent.shape[0] % rows:
            raise ValueError(f"tangent rows {tangent.shape[0]} are not a multiple of batch {rows}")
        h = np.concatenate([xd, tangent])
    k = h.shape[0] // rows - 1
    width = xd.shape[1] + sum(p.shape[1] for p in prefix)
    for w, b in zip(weights, biases):
        if w.data.shape[0] != width or (b is not None and b.data.shape != w.data.shape[1:]):
            raise ValueError(f"network: input width {width}, weight {w.data.shape} and bias "
                             "do not fit")
        width = w.data.shape[1]
    parents = (x, *weights, *(b for b in biases if b is not None))
    taped = tensor._RECORDING and any(p.requires_grad or p._prev for p in parents)
    shared, per_row, lo = [], [], 0  # one-row blocks come with their weight rows
    for p in prefix:
        if p.shape[0] == 1:
            shared.append((p, lo, lo + p.shape[1]))
        else:
            per_row.append(p)
        lo += p.shape[1]
    last = len(weights) - 1
    saved = []  # per layer on the tape: (weight, stacked input, per-row primal input, output)
    for i, (w, b) in enumerate(zip(weights, biases)):
        wd = w.data
        n_in, m = wd.shape
        w_in, bias = wd, None if b is None else b.data
        inp = h[:rows]
        if i == 0:
            if shared:
                keep = np.ones(n_in, dtype=bool)
                for p, lo, hi in shared:
                    keep[lo:hi] = False
                    row = p @ wd[lo:hi]
                    bias = row if bias is None else bias + row
                w_in = wd[keep]
            if per_row:
                inp = np.concatenate(per_row + [inp], axis=1)
        out = np.empty((h.shape[0], m))
        a = out[:rows]
        np.matmul(inp, w_in, out=a)
        if bias is not None:
            a += bias
        if k:
            np.matmul(h[rows:], wd[n_in - h.shape[1]:], out=out[rows:])
        if i < last:
            np.tanh(a, out=a)
            if k:
                tangents = out[rows:].reshape(k, rows, m)
                tangents *= 1.0 - a * a
        if taped:
            saved.append((wd, h, inp, out))
        h = out

    def bwd(node):
        stop = 0 if x.requires_grad or x._prev else next(
            i for i, (w, b) in enumerate(zip(weights, biases))
            if w.requires_grad or w._prev or (b is not None and (b.requires_grad or b._prev)))
        g = node.grad
        for i in range(last, stop - 1, -1):
            w, b = weights[i], biases[i]
            wd, h, inp, out = saved[i]
            n, m = h.shape[1], out.shape[1]
            if i == last:
                gz, G = g[:rows], g
            else:
                a = out[:rows]
                G = np.empty_like(g)  # [gz; gdz]
                np.multiply(g.reshape(k + 1, rows, m), 1.0 - a * a, out=G.reshape(k + 1, rows, m))
                gz = G[:rows]
                if k:  # the slope's own derivative (see the rule above)
                    da = out[rows:]
                    acc = g[rows:2 * rows] * da[:rows]
                    for j in range(1, k):
                        acc += g[(j + 1) * rows:(j + 2) * rows] * da[j * rows:(j + 1) * rows]
                    acc *= a
                    acc *= 2.0
                    gz -= acc
            first_shared = shared if i == 0 else ()
            need_w = w.requires_grad or w._prev
            need_b = b is not None and (b.requires_grad or b._prev)
            gb = gz.sum(axis=0) if need_b or (need_w and first_shared) else None
            if need_b:
                b._accum(gb, fresh=True)
            if need_w:
                if i == 0 and per_row:
                    gw = inp.T @ gz
                    if k:
                        gw[-n:] += h[rows:].T @ G[rows:]
                else:
                    gw = h.T @ G
                if first_shared:
                    gw_in, gw = gw, np.empty_like(wd)
                    gw[keep] = gw_in
                    for p, lo, hi in first_shared:
                        gw[lo:hi] = np.outer(p, gb)
                w._accum(gw, fresh=True)
            w_h = wd[wd.shape[0] - n:]
            if i > stop:
                g = G @ w_h.T
            elif i == 0 and (x.requires_grad or x._prev):
                x._accum(gz @ w_h.T, fresh=True)

    return x._node(h, parents, bwd, "network")


def iql_step_reference(critic, batch, opt_v, opt_q) -> tuple[float, float]:
    """The two-forward IQL step ``critic.iql_step`` must match byte for byte:
    a tape-free Q(s, a) for the V loss, a second, taped one for the Q loss,
    V(s') evaluated whatever ``done`` holds, and each loss as its composite
    ops (residual, square, weight, mean) rather than one ``sq_mean`` node."""
    s, a, r, s2, done = (np.asarray(x, dtype=float) for x in batch)
    r = r.reshape(-1, 1)
    done = done.reshape(-1, 1)

    with no_tape():
        q_fixed = critic.q_tensor(s, Tensor(a))
    opt_v.zero_grad()
    u = q_fixed - critic.v_tensor(s)
    v_loss = (u.square() * np.abs(critic.config.tau - (u.data <= 0.0).astype(float))).mean()
    v_loss.backward()
    opt_v.step()

    target = r + critic.config.gamma * (1.0 - done) * critic.v_values(s2)[:, None]
    opt_q.zero_grad()
    q_loss = (critic.q_tensor(s, Tensor(a)) - target).square().mean()
    q_loss.backward()
    opt_q.step()

    vl, ql = float(v_loss.data), float(q_loss.data)
    if not (np.isfinite(vl) and np.isfinite(ql)):
        raise TrainingDivergedError("IQL loss went non-finite")
    return vl, ql


# -- the solver stages as separate nodes -----------------------------------------


def rows_node(x: Tensor, start: int, stop: int | None = None) -> Tensor:
    """Rows ``start:stop`` of ``x`` as a ``rows`` node of its own, checked
    like any other op's result."""
    at = slice(start, stop)

    def bwd(out):
        x._accum(out.grad, at=at)

    return x._node(x.data[at], (x,), bwd, "rows")


def _forward_jvp_unfused(self, x: Tensor, u: np.ndarray, prefix=()):
    """``Mlp.forward_jvp`` splitting the network node into two rows nodes."""
    out = tensor.network(x, self.weights, self.biases, prefix, u)
    return rows_node(out, 0, x.shape[0]), rows_node(out, x.shape[0])


def _trace_with_jvp_unfused(jvp_fn, x: Tensor, t, mode: TraceMode, probes=None,
                            negate: bool = False):
    """``likelihood.trace_with_jvp`` as a ``trace`` node over the J u
    Tensor the JVP returns (a rows node, for a velocity head), and the
    sign as a ``* -1.0`` node of its own."""
    batch, d = x.shape
    if probes is None and mode.kind == "exact":
        probes = _basis_seeds(batch, d)
    u = probes.reshape(-1, d)
    v, ju = jvp_fn(x, t, u)
    blocks = u.shape[0] // batch
    est = (ju.data * u).sum(axis=1).reshape(blocks, batch)
    if mode.kind == "exact" and d > 1:
        est = est.sum(axis=0, keepdims=True)

    def bwd(node):
        g = np.broadcast_to(node.grad, (blocks, batch)).reshape(-1, 1)
        ju._accum(g * u, fresh=True)

    tr = ju._node(est, (ju,), bwd, "trace")
    return v, tr * (-1.0) if negate else tr


def _combine_unfused(state: tuple, ks: list, coeffs, h: float) -> tuple:
    """``sampler._combine`` with each term a multiply node and an add node."""
    out = []
    for i, y in enumerate(state):
        for k, w in zip(ks, coeffs):
            if w:
                y = y + k[i] * (w * h)
        out.append(y)
    return tuple(out)


@contextmanager
def unfused_stages():
    """Run the solver stages as separate nodes: the network's output split
    by two rows nodes, the trace node over the tangent rows node and its
    sign a ``* -1.0`` node, and every combination term y + k * c a
    multiply and an add. The library's stage nodes must reproduce its
    values and gradients byte for byte."""
    patches = [(nn.Mlp, "forward_jvp", _forward_jvp_unfused),
               (likelihood, "trace_with_jvp", _trace_with_jvp_unfused),
               (sampler, "_combine", _combine_unfused)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, new in patches:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


class AdamReference:
    """Adam applied tensor by tensor, each moment and parameter a fresh
    array per step: the update ``optim.Adam`` must match byte for byte."""

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = list(params), lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)
