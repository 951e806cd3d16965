"""Continuous-normalizing-flow log densities via the augmented ODE.

The state [x; l] is integrated jointly with dl/dt = -Tr(dv/dx) by the
sampler's own ``integrate``, as the tuple state (x, l): the same tableau
stepper on the same fixed grid (one shared discretization, so a generated
action and its log-likelihood come from one consistent object, and the
exact-trace samples are bit-identical to ``sampler.generate``'s).
Traveling from time a to time b along dx/dt = v gives

    log p_b(x_b) = log p_a(x_a) + l_b - l_a,

so integrating data -> prior yields log p(x_data) = log N(z; 0, I) - l_T,
and generating noise -> data yields log p(sample) = log N(z0; 0, I) + l_T.

The Jacobian trace is computed through the model's explicit
Jacobian-vector product, which keeps everything first-order on the tape.
Each right-hand-side evaluation makes one JVP call: the network's forward
pass runs once, and all tangents go through one sweep, stacked as k
blocks of rows (the d basis vectors in exact mode, which are summed to
the exact trace; the P standard-normal probes in Hutchinson mode, each
giving eps^T J eps). The tangent seeds are one constant array per
unroll, shared by every stage's network and trace nodes, and the
estimate is one taped ``trace`` node over J u: the product with the
seeds, the row sums, in exact mode the sum over the d blocks, and for
the augmented ODE the sign of dl/dt = -trace. For a velocity head J u
is the network node's stacked output from row B on, and the trace node
reads it there (``tensor.RowView``): a traced stage records the network
node, the velocity's rows view and the trace node, and its x and l
updates one ``add_scaled`` node per tableau term. The same call returns
the velocity, so the state update needs no further forward pass.
Hutchinson probes are drawn once per call (shared across steps, standard
practice; each probe then yields an independent estimate of the whole
integral, which is what the reported standard error is computed from).
The log-density accumulators are kept as (n_estimates, batch),
probe-major like the stacked tangents.

A stage whose tableau weight b[i] is 0 (midpoint's first) has a trace
that nothing reads: the stepper forms stage inputs for x alone, so b[i]
is the only reader of a stage's trace. Such a stage evaluates the
velocity alone through ``model.velocity``, whose values are bit for bit
the JVP call's primal rows, in training and in the tape-free
log-densities alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import SolverSpec, integrate
from .schedules import prior_logpdf, prior_logpdf_tensor
from .tensor import RowView, Tensor

_MINUS_ONE = np.float64(-1.0)


@dataclass(frozen=True)
class TraceMode:
    kind: str = "exact"  # "exact" | "hutchinson"
    n_probes: int = 1

    def __post_init__(self):
        if self.kind not in ("exact", "hutchinson"):
            raise ValueError(f"unknown trace mode {self.kind!r}")
        if self.kind == "hutchinson" and self.n_probes < 1:
            raise ValueError("hutchinson needs n_probes >= 1")

    def tangents(self, d: int) -> int:
        """Tangent blocks a JVP call carries at dimension d: the d basis
        vectors for an exact trace, one per probe for Hutchinson."""
        return d if self.kind == "exact" else self.n_probes


@dataclass
class LogDensityResult:
    """Log density in nats and its estimator error.

    ``logp`` is a Tensor (differentiable w.r.t. the data argument and
    model parameters); ``stderr`` is zero in exact mode and the
    across-probe standard error in Hutchinson mode (zero when a single
    probe makes it inestimable).
    """
    logp: Tensor
    stderr: np.ndarray

    @property
    def logp_values(self) -> np.ndarray:
        return self.logp.data


def _basis_seeds(batch: int, d: int) -> np.ndarray:
    """The exact trace's tangent seeds as (d, batch, d) blocks, laid out
    like Hutchinson probes: block i is e_i on every row."""
    return np.repeat(np.eye(d), batch, axis=0).reshape(d, batch, d)


def trace_with_jvp(jvp_fn, x: Tensor, t, mode: TraceMode, probes=None, negate: bool = False):
    """(velocity, per-sample trace estimates) from one JVP call, on the tape.

    ``jvp_fn(x, t, u) -> (v, J u)`` with ``u`` a constant array of k
    stacked tangent blocks of ``batch`` rows, ``probes`` as (k, batch, d)
    blocks. Exact mode stacks the d basis vectors (``_basis_seeds``, built
    here when ``probes`` is None) and returns the exact trace as a (1,
    batch) row; Hutchinson mode stacks the P probes and returns one row
    per probe, (P, batch). ``negate`` returns minus the estimate instead,
    the rate the augmented ODE integrates.

    The estimate is one ``trace`` node over J u: per row the sum of
    (J u) * u, in exact mode the sum over the d blocks, then the sign.
    When J u is a ``RowView`` (a velocity head's output tangent, the rows
    from B on of the network node's stacked output), the node reads those
    rows where they lie and takes the stacked output as its parent, adding
    its gradient into those rows, so the view never enters the tape.
    """
    batch, d = x.shape
    if probes is None and mode.kind == "exact":
        probes = _basis_seeds(batch, d)
    u = probes.reshape(-1, d)
    v, ju = jvp_fn(x, t, u)
    src, at = (ju.source, ju.at) if isinstance(ju, RowView) else (ju, None)
    blocks = u.shape[0] // batch
    est = (ju.data * u).sum(axis=1).reshape(blocks, batch)
    if mode.kind == "exact" and d > 1:
        est = est.sum(axis=0, keepdims=True)
    if negate:
        est = est * _MINUS_ONE

    def bwd(node):
        g = node.grad * _MINUS_ONE if negate else node.grad
        g = np.broadcast_to(g, (blocks, batch)).reshape(-1, 1)
        src._accum(g * u, fresh=True, at=at)

    return v, src._node(est, (src,), bwd, "trace")


def _augmented_integrate(model, condition, x0: Tensor, t0: float, t1: float,
                         spec: SolverSpec, mode: TraceMode, probes):
    """Integrate [x; l] with dl/dt = -trace; returns (x_T, l_T (P,B)).

    Every stage's JVP call takes the same tangent seeds: the Hutchinson
    ``probes``, or the exact trace's basis seeds, built once here, so the
    stages' network and trace nodes share one seed array. A stage whose
    trace the step does not read (``traced`` false) gets the velocity
    alone, from ``model.velocity``: bit for bit the primal rows of the
    JVP call.
    """
    if mode.kind == "exact":
        probes = _basis_seeds(*x0.shape)

    def jvp_fn(x, t, u):
        return model.velocity_jvp(x, t, condition, u)

    def rhs(x, t, traced):
        if not traced:
            return (model.velocity(x, t, condition),)
        return trace_with_jvp(jvp_fn, x, t, mode, probes, negate=True)

    n_est = 1 if mode.kind == "exact" else mode.n_probes
    l0 = Tensor(np.zeros((n_est, x0.shape[0])))
    return integrate(rhs, (x0, l0), spec, (t0, t1))


def _stderr_of(est: np.ndarray) -> np.ndarray:
    """Across-estimate standard error of (n_estimates, batch) estimates."""
    if est.shape[0] > 1:
        return est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
    return np.zeros(est.shape[1])


def log_prob(model, x_data, spec: SolverSpec, trace_mode: TraceMode = TraceMode(),
             rng: np.random.Generator | None = None, condition=None) -> LogDensityResult:
    """log p(x_data) under the model's generative flow, in nats.

    Integrates data -> prior on the clipped span. Differentiable with
    respect to ``x_data`` (pass a Tensor leaf) and the model parameters.
    """
    x = x_data if isinstance(x_data, Tensor) else Tensor(np.asarray(x_data, dtype=float))
    sched = model.schedule
    probes = None
    if trace_mode.kind == "hutchinson":
        probes = rng.standard_normal((trace_mode.n_probes,) + x.shape)
    z, l = _augmented_integrate(model, condition, x, sched.data_time, sched.noise_time,
                                spec, trace_mode, probes)
    logp = prior_logpdf_tensor(z) - l.mean(axis=0)
    return LogDensityResult(logp=logp, stderr=_stderr_of(l.data))


def generate_with_log_prob(model, n: int, spec: SolverSpec,
                           trace_mode: TraceMode = TraceMode(),
                           rng: np.random.Generator | None = None,
                           condition=None) -> tuple[Tensor, Tensor, np.ndarray]:
    """Sample noise -> data while accumulating log-likelihood on the way.

    Returns (samples, logp, stderr); both tensors stay on the tape so the
    reverse-KL objective can differentiate through the sample and its
    density on one shared grid.
    """
    d = model.net.x_dim
    z0 = rng.standard_normal((n, d))
    sched = model.schedule
    probes = None
    if trace_mode.kind == "hutchinson":
        probes = rng.standard_normal((trace_mode.n_probes, n, d))
    x, l = _augmented_integrate(model, condition, Tensor(z0), sched.noise_time, sched.data_time,
                                spec, trace_mode, probes)
    logp = l.mean(axis=0) + prior_logpdf(z0)
    return x, logp, _stderr_of(l.data)
