"""Fixed-grid explicit ODE integration for generation and likelihoods.

Schemes: euler, midpoint, and the 3/8-rule fourth-order Runge-Kutta, all
on a uniform grid of T steps and differentiable end to end (the unrolled
steps stay on the tape; gradients are exact for the discrete objective).
Each scheme is nothing but its Butcher tableau in ``TABLEAUX``; one
stepper evaluates the stages and combines them component by component
over a tuple state, so the sampler's x and the likelihood module's
augmented [x; l] run through the same code on the same grid. A stage
input or a state update, y + h·sum_j c_j·k_j, records one node per
nonzero term, ``y.add_scaled(k_j, c_j·h)`` in j order, with the
roundings of a multiply and then an add: euler's and midpoint's
combinations are one node each, rk4_38's stage inputs and updates one
per term (k1 alone feeds four of them).
Generation starts from a standard-normal draw and integrates in the
schedule's noise-to-data direction over the clipped time span. For vpsde
the terminal marginal is only approximately N(0, I) under the default
beta range; the mismatch is ~alpha_1 = exp(-5.025) and is documented
rather than corrected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, NonFiniteError
from .tensor import Tensor, as_tensor, no_tape

# scheme -> Butcher tableau (a, b, c): stage i is evaluated at t + c[i] h on
# the state plus h * sum_j a[i][j] k_j, and the step adds h * sum_i b[i] k_i.
TABLEAUX = {
    "euler": (((),), (1.0,), (0.0,)),
    "midpoint": (((), (0.5,)), (0.0, 1.0), (0.0, 0.5)),
    "rk4_38": (((), (1 / 3,), (-1 / 3, 1.0), (1.0, -1.0, 1.0)),
               (1 / 8, 3 / 8, 3 / 8, 1 / 8), (0.0, 1 / 3, 2 / 3, 1.0)),
}
SCHEMES = tuple(TABLEAUX)


@dataclass(frozen=True)
class SolverSpec:
    scheme: str = "euler"
    steps: int = 32

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; options: {SCHEMES}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class Trajectory:
    """Recorded integration path: times (T+1,), states (T+1, batch, dim)."""
    times: np.ndarray
    states: np.ndarray


def _combine(state: tuple, ks: list, coeffs, h: float) -> tuple:
    """state + h * sum_j coeffs[j] * ks[j], component by component, one
    ``add_scaled`` node per nonzero term, y + k_j * (coeffs[j] h), in j
    order."""
    out = []
    for i, y in enumerate(state):
        for k, w in zip(ks, coeffs):
            if w:
                y = y.add_scaled(k[i], w * h)
        out.append(y)
    return tuple(out)


def _step(field, state: tuple, t: float, h: float, tableau) -> tuple:
    """One step; the stage inputs are formed for x, the one component the field reads.

    So a stage's accumulator rates are read only through its weight b[i];
    the field is told whether that weight is nonzero, and where it is zero
    it may return the x rate alone.
    """
    a, b, c = tableau
    ks = []
    for row, bi, ci in zip(a, b, c):
        ks.append(field(_combine(state[:1], ks, row, h)[0], t + ci * h, bi != 0.0))
    return _combine(state, ks, b, h)


def integrate(field, x_init, spec: SolverSpec, t_span=(0.0, 1.0), record: bool = False):
    """Integrate dx/dt = field(x, t) from t_span[0] to t_span[1].

    ``field`` maps (Tensor, float t) -> Tensor. The state may also be a
    tuple of Tensors (x, accumulators...), with ``field`` mapping (x, t,
    read) to a tuple of the same layout: the field never reads the
    accumulators, so their stage inputs are not formed, and where ``read``
    is false the step never reads the stage's accumulator rates either,
    so the field may return (x rate,) alone. Returns the
    final state, or (final, Trajectory) when recording (the trajectory
    holds a tuple state's first component); the
    recorded endpoint is bit-identical to the non-recorded result. Raises
    ``IntegrationDivergedError`` carrying the step index if the state goes
    non-finite.
    """
    single = not isinstance(x_init, tuple)
    state = (as_tensor(x_init),) if single else x_init
    stage_field = (lambda x, t, _: (field(x, t),)) if single else field
    tableau = TABLEAUX[spec.scheme]
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / spec.steps
    if record:  # each step writes into one array, so the path is held once
        x = state[0].data
        states = np.empty((spec.steps + 1, *x.shape), dtype=x.dtype)
        states[0] = x
    for k in range(spec.steps):
        t = t0 + k * h
        try:
            state = _step(stage_field, state, t, h, tableau)
        except NonFiniteError as exc:
            raise IntegrationDivergedError(k, f"integration diverged at step {k}: {exc}") from exc
        if record:
            states[k + 1] = state[0].data
    final = state[0] if single else state
    if record:
        times = np.array([t0 + k * h for k in range(spec.steps + 1)])
        return final, Trajectory(times, states)
    return final


def generate(model, n: int, spec: SolverSpec, condition=None,
             rng: np.random.Generator | None = None, record: bool = False):
    """Draw n prior points and transport them to data space, as arrays.

    ``model`` is a GenerativeModel; its output is converted to a velocity
    view whatever the parameterization. ``condition`` must have n rows
    when present. n = 0 returns an empty sample set without integrating.
    Records no tape: the unroll holds one step's values at a time. The
    differentiable unroll is ``integrate`` (or
    ``likelihood.generate_with_log_prob``) called outside ``no_tape()``.
    """
    d = model.net.x_dim
    if n == 0:
        empty = np.zeros((0, d))
        return (empty, None) if record else empty
    if condition is not None:
        condition = np.asarray(condition, dtype=float)
        if condition.shape[0] != n:
            raise ValueError(f"condition rows {condition.shape[0]} != n {n}")
    x0 = rng.standard_normal((n, d))

    def field(x, t):
        return model.velocity(x, t, condition)

    span = (model.schedule.noise_time, model.schedule.data_time)
    with no_tape():
        out = integrate(field, Tensor(x0), spec, span, record=record)
    if record:
        final, traj = out
        return final.data, traj
    return out.data
