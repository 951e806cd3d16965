"""Finite-difference and reverse-sweep oracles that the tests check the library against,
and the tensor ops only the tests use, built on the library's node machinery."""

from __future__ import annotations

import numpy as np

from genpolicy.critic import expectile_loss
from genpolicy.errors import NonFiniteError, TrainingDivergedError
from genpolicy.likelihood import TraceMode, _stderr_of, trace_with_jvp
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


def iql_step_reference(critic, batch, opt_v, opt_q) -> tuple[float, float]:
    """The two-forward IQL step ``critic.iql_step`` must match byte for byte:
    a tape-free Q(s, a) for the V loss, a second, taped one for the Q loss,
    and V(s') evaluated whatever ``done`` holds."""
    s, a, r, s2, done = (np.asarray(x, dtype=float) for x in batch)
    r = r.reshape(-1, 1)
    done = done.reshape(-1, 1)

    with no_tape():
        q_fixed = critic.q_tensor(s, Tensor(a))
    opt_v.zero_grad()
    v_loss = expectile_loss(q_fixed - critic.v_tensor(s), critic.config.tau)
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
