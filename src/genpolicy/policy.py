"""Generative policies and the two extraction schemes.

A policy is a conditional generative model over actions given states. The
network operates on z-scored actions (normalizer fixed from the dataset at
construction); generated samples are mapped back to raw action space and
log-likelihoods carry the constant -sum(log std) correction, which cancels
inside the reverse-KL ratio when policy and behavior share the normalizer.

Training schemes:

* behavior pretraining — the plain matching loss on dataset (s, a) pairs;
* advantage-weighted matching (exponentially tilted regression toward
  high-advantage actions, exponential-clamped or softmax-over-candidates
  weights) — runs the same trainer as pretraining with a different weight
  rule, so zero temperature reproduces pretraining bit for bit; against
  the frozen critic, exp-clamp scores each dataset row's advantage once
  per stage, into a table the drawn batches index;
* reverse-KL policy gradient — actions sampled through the differentiable
  solver, with the policy's log-likelihood accumulated on the same grid
  and the frozen behavior model's log-likelihood integrated back through
  its own flow; plus the importance-weighted static-sampling variant whose
  surrogate gradient is weight * bracket * grad(log pi).

All three read their settings from one ``TrainingConfig``, the
``[policy]`` section, and train through one loop, ``_train_loop``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TrainingDivergedError
from .likelihood import TraceMode, generate_with_log_prob, log_prob
from .matching import MatchingConfig, matching_loss
from .model import GenerativeModel
from .nn import FieldNetwork
from .optim import Adam, check_training_loop
from .sampler import TABLEAUX, SolverSpec, generate
from .schedules import PathSchedule
from .tensor import Tensor, no_tape


@dataclass
class PolicyConfig:
    state_dim: int = 1
    action_dim: int = 1
    hidden: tuple = (256, 256, 256)
    t_emb_width: int = 32
    t_emb_scale: float = 1.0
    parameterization: str = "velocity"
    schedule: PathSchedule = field(default_factory=PathSchedule)
    eval_solver: SolverSpec = field(default_factory=lambda: SolverSpec("euler", 32))


class GenerativePolicy:
    """A policy over z-scored actions; its network's ``freqs`` and
    ``params`` are drawn from ``rng`` unless given (``FieldNetwork``)."""

    def __init__(self, config: PolicyConfig, rng: np.random.Generator | None = None,
                 action_mean=None, action_std=None, freqs=None, params=None):
        self.config = config
        net = FieldNetwork(config.action_dim, config.state_dim, list(config.hidden), rng,
                           t_emb_width=config.t_emb_width, t_emb_scale=config.t_emb_scale,
                           freqs=freqs, params=params)
        self.model = GenerativeModel(net, config.parameterization, config.schedule)
        self.action_mean = np.zeros(config.action_dim) if action_mean is None else np.asarray(action_mean, float)
        self.action_std = np.ones(config.action_dim) if action_std is None else np.asarray(action_std, float)

    # -- normalizer ------------------------------------------------------

    def set_normalizer_from(self, dataset) -> None:
        self.action_mean = dataset.a.mean(axis=0)
        self.action_std = np.maximum(dataset.a.std(axis=0), 1e-6)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return (np.asarray(a, float) - self.action_mean) / self.action_std

    def denormalize(self, z):
        if isinstance(z, Tensor):
            return z * self.action_std + self.action_mean
        return np.asarray(z) * self.action_std + self.action_mean

    @property
    def log_norm_correction(self) -> float:
        """log pi(a) = log p_z(z) - sum log std (change of variables)."""
        return float(np.log(self.action_std).sum())

    # -- inference ---------------------------------------------------------

    def sample_actions(self, states, rng: np.random.Generator,
                       solver: SolverSpec | None = None) -> np.ndarray:
        """One action per state row (the single-draw inference rule); records no tape."""
        states = np.atleast_2d(np.asarray(states, float))
        z = generate(self.model, states.shape[0], solver or self.config.eval_solver,
                     condition=states, rng=rng)
        return self.denormalize(z)

    def log_prob_actions(self, states, actions, solver: SolverSpec,
                         trace: TraceMode = TraceMode(), rng=None):
        """(log pi(a|s), stderr) for raw actions, numpy; records no tape.

        The values are those of ``log_prob(...).logp_values`` minus the
        normalizer correction, bit for bit; ``log_prob`` is the taped path.
        """
        states = np.atleast_2d(np.asarray(states, float))
        z = self.normalize(actions)
        with no_tape():
            res = log_prob(self.model, z, solver, trace, rng, condition=states)
        return res.logp_values - self.log_norm_correction, res.stderr

    def parameters(self):
        return self.model.parameters()


# -- weighting ---------------------------------------------------------------


def _check_beta(beta: float) -> None:
    """Refuse a temperature that is not finite and >= 0 (0 is pretraining)."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"temperature beta must be finite and >= 0, got {beta}")


def gmpo_weight(critic, s, q, beta: float, w_max: float = 100.0) -> np.ndarray:
    """Per-sample exponential regression weights from the critic.

    min(exp(beta * (Q - V)), w_max) for ``q``, the (batch,) values of
    Q(s, a) the caller has evaluated, with the per-state normalizer taken
    as 1 (intractable; the clamp bounds the scale). beta = 0 gives
    exactly 1, which is what collapses the scheme onto plain pretraining.
    Softmax weights are computed per candidate set instead; see
    ``softmax_candidate_weights``.
    """
    _check_beta(beta)
    return exp_clamp_weight(q - critic.v_values(s), beta, w_max)


def exp_clamp_weight(adv: np.ndarray, beta: float, w_max: float = 100.0) -> np.ndarray:
    """min(exp(beta * adv), w_max) for advantages already evaluated. The
    exponent is capped at ln w_max + 1 first, where exp is already past
    w_max, so a weight below w_max is exp(beta * adv) bit for bit and a
    large beta * adv (an overflowing product is inf) gives w_max with no
    overflow in exp."""
    with np.errstate(over="ignore"):
        z = beta * adv
    return np.minimum(np.exp(np.minimum(z, np.log(w_max) + 1.0)), w_max)


def softmax_candidate_weights(q, beta: float) -> np.ndarray:
    """Stable softmax of beta * Q(s, a_i) over K candidates per state.

    ``q`` holds the candidates' Q values with shape (batch, K); returns
    (batch, K) weights summing to 1 per row (invariant to adding a
    constant to Q). A finite row whose logits overflow takes the
    beta -> inf limit instead, with no warning: equal weight on the
    row's largest Q, 0 elsewhere.
    """
    _check_beta(beta)
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = beta * q
        logits -= logits.max(axis=1, keepdims=True)
    over = np.isfinite(q).all(axis=1) & ~np.isfinite(logits).all(axis=1)
    logits[over] = 0.0
    e = np.exp(logits)
    w = e / e.sum(axis=1, keepdims=True)
    if over.any():
        top = q[over] == q[over].max(axis=1, keepdims=True)
        w[over] = top / top.sum(axis=1, keepdims=True)
    return w


# -- the [policy] settings ---------------------------------------------------


WEIGHT_MODES = ("exp_clamp", "softmax")


@dataclass(frozen=True)
class TrainingConfig:
    """The ``[policy]`` settings of every policy-training stage, checked
    at construction. Pretraining and GMPO run ``steps`` Adam steps of
    ``batch_size`` rows at ``lr`` on the ``objective``/``lambda_mode``
    matching loss, GMPO weighted by ``weight_mode`` at temperature
    ``beta``; GMPG runs ``gmpg_steps`` of ``gmpg_batch_size`` rows at
    ``gmpg_lr``, unrolling ``t_train`` steps of ``gmpg_scheme`` with the
    ``trace``/``n_probes`` log-density, in the dynamic or static
    ``variant``."""
    beta: float = 1.0
    weight_mode: str = "exp_clamp"
    w_max: float = 100.0
    k_candidates: int = 8
    objective: str = "cfm"
    lambda_mode: str = "vanilla"
    steps: int = 2000
    batch_size: int = 64       # matching-regression batch
    gmpg_steps: int = 200
    gmpg_batch_size: int = 512  # 8x the regression batch, mirroring the
    gmpg_lr: float = 1e-4       # large-batch stabilization of the scheme
    t_train: int = 1000
    gmpg_scheme: str = "euler"
    trace: str = "exact"       # "exact" | "hutchinson"
    n_probes: int = 1
    variant: str = "dynamic"   # "dynamic" | "static"
    lr: float = 1e-4

    def __post_init__(self):
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.weight_mode!r}; options: {WEIGHT_MODES}")
        if not (np.isfinite(self.w_max) and self.w_max > 0):
            raise ValueError(f"w_max must be finite and > 0, got {self.w_max}")
        if self.weight_mode == "softmax" and self.k_candidates < 2:
            raise ValueError("softmax mode needs K >= 2 candidates")
        _check_beta(self.beta)
        check_training_loop("GMPO", self.lr, self.steps, self.batch_size)
        if self.t_train < 1:
            raise ValueError("t_train must be >= 1")
        if self.variant not in ("dynamic", "static"):
            raise ValueError(f"unknown variant {self.variant!r}")
        check_training_loop("GMPG", self.gmpg_lr, self.gmpg_steps, self.gmpg_batch_size)
        self.matching, self.trace_mode, self.gmpg_solver  # their own checks, built once

    @cached_property
    def matching(self) -> MatchingConfig:
        return MatchingConfig(self.objective, self.lambda_mode)

    @cached_property
    def trace_mode(self) -> TraceMode:
        return TraceMode(self.trace, self.n_probes)

    @cached_property
    def gmpg_solver(self) -> SolverSpec:
        return SolverSpec(self.gmpg_scheme, self.t_train)


# -- the policy-training loop ------------------------------------------------


def _train_loop(stage: str, dataset, policy: GenerativePolicy, steps: int, batch_size: int,
                lr: float, step_loss, rng: np.random.Generator, on_step=None) -> None:
    """The one loop of pretraining, both GMPO weightings and GMPG.

    Each step draws ``min(batch_size, n)`` dataset row indices from
    ``rng`` and hands them to ``step_loss(idx) -> (loss, metrics)``, which
    builds the step's loss, drawing from the same ``rng``; one Adam step
    at ``lr`` follows, then ``on_step(step, {"loss": ..., **metrics})``.
    One rng stream drives every draw, so two runs with identical seeds
    are bit-identical. ``stage`` names the stage in its refusal of an
    empty dataset, before anything is built, and in the
    ``TrainingDivergedError`` of a non-finite loss.
    """
    if dataset.n == 0:
        raise ValueError(f"{stage} needs a non-empty dataset")
    opt = Adam(policy.parameters(), lr=lr)
    for step in range(steps):
        idx = rng.integers(0, dataset.n, size=min(batch_size, dataset.n))
        opt.zero_grad()
        loss, metrics = step_loss(idx)
        loss.backward()
        opt.step()
        val = float(loss.data)
        del loss  # free this step's tape before on_step and the next step's graph
        if not np.isfinite(val):
            raise TrainingDivergedError(f"{stage} loss non-finite at step {step}")
        if on_step is not None:
            on_step(step, {"loss": val, **metrics})


def _matching_step(policy: GenerativePolicy, config: TrainingConfig, rng: np.random.Generator,
                   batch_fn):
    """``_train_loop``'s step for pretraining and GMPO: ``batch_fn(idx) ->
    (states, actions, w, mean_advantage)`` turns the drawn row indices
    into the weighted regression batch, slicing ``dataset.s``/``dataset.a``
    itself, and the loss is the ``config.matching`` loss on it."""

    def step_loss(idx):
        s, a, w, mean_adv = batch_fn(idx)
        loss = matching_loss(policy.model, policy.config.schedule, policy.normalize(a),
                             w, rng, condition=s, config=config.matching)
        return loss, {"mean_weight": float(np.mean(w)), "mean_advantage": mean_adv}

    return step_loss


# -- behavior pretraining and advantage-weighted matching --------------------


def _advantage_table(dataset, critic, block: int) -> np.ndarray:
    """Q - V of every dataset row, evaluated in order ``block`` rows at a time."""
    adv = np.empty(dataset.n)
    for lo in range(0, dataset.n, block):
        hi = lo + block
        adv[lo:hi] = critic.advantage(dataset.s[lo:hi], dataset.a[lo:hi])
    return adv


def pretrain_behavior(dataset, policy: GenerativePolicy, config: TrainingConfig,
                      rng: np.random.Generator, on_step=None) -> GenerativePolicy:
    """Fit the behavior model mu by the plain matching loss on (s, a)."""

    def unit_weights(idx):
        return dataset.s[idx], dataset.a[idx], np.ones(idx.shape[0]), 0.0

    _train_loop("pretraining", dataset, policy, config.steps, config.batch_size, config.lr,
                _matching_step(policy, config, rng, unit_weights), rng, on_step)
    return policy


def train_gmpo(dataset, critic, policy: GenerativePolicy, config: TrainingConfig,
               rng: np.random.Generator, behavior: GenerativePolicy | None = None,
               on_step=None) -> GenerativePolicy:
    """Advantage-weighted matching regression (no pretraining required).

    Exponential mode weights dataset actions. The critic is never updated
    here, so a row's advantage Q - V is fixed for the whole stage: at step
    0, before its loss, an n-row table (8 n bytes) is filled with it,
    evaluating the dataset in order in blocks of ``min(batch_size, n)``
    rows, and every step reads its drawn rows from that table.
    ``steps = 0`` evaluates no row. A Q or V output that goes non-finite
    on any row, drawn or not, raises ``NonFiniteError`` before step 0's
    loss (exit 4 in the CLI).

    Softmax mode draws k_candidates actions per state from a pretrained
    behavior model and regresses onto them under softmax(beta Q) weights.
    """
    if config.weight_mode == "exp_clamp":
        table = None

        def batch_fn(idx):
            nonlocal table
            if table is None:
                table = _advantage_table(dataset, critic, min(config.batch_size, dataset.n))
            adv = table[idx]
            return (dataset.s[idx], dataset.a[idx],
                    exp_clamp_weight(adv, config.beta, config.w_max), float(np.mean(adv)))
    else:
        if behavior is None:
            raise ValueError("softmax weight mode needs a pretrained behavior policy")
        k = config.k_candidates

        def batch_fn(idx):
            s = dataset.s[idx]
            s_rep = np.repeat(s, k, axis=0)
            cand = behavior.sample_actions(s_rep, rng)
            q = critic.q_values(s_rep, cand)
            w = softmax_candidate_weights(q.reshape(s.shape[0], k), config.beta)
            adv = q - np.repeat(critic.v_values(s), k)  # V once per drawn state
            return s_rep, cand, w.reshape(-1), float(np.mean(adv))

    _train_loop("GMPO", dataset, policy, config.steps, config.batch_size, config.lr,
                _matching_step(policy, config, rng, batch_fn), rng, on_step)
    return policy


# -- reverse-KL policy gradient ------------------------------------------------


_STAGE_BYTES = 4608  # fitted: 4.5 KiB per taped stage, at batches 16 to 512


def gmpg_tape_bytes(policy: GenerativePolicy, config: TrainingConfig, batch: int) -> int:
    """Estimated bytes of one GMPG step's tape after the forward pass.

    Analytic, from the shapes alone. Each taped solver stage of an unroll
    holds float64 arrays of ``batch`` rows. A stage whose JVP call carries
    tangents keeps no hidden-layer row (its reverse rule reruns them, see
    ``tensor.network``): it holds the first layer's per-row input
    (condition, x; a stage's time embedding is one row shared by the
    batch, which the first layer folds into its bias row), the network's
    stacked output, which the velocity's rows view and the trace node
    read in place, and about three rows of width d + n for the trace
    node (which carries the sign), the ``add_scaled`` updates of x and l
    and the loss's own per-sample rows, spread over the stages (the
    tangent seeds are one array per unroll):

        first + (k + 1)·d + 3·(d + n)

    floats per row, with first the condition and x columns, k the tangent
    blocks (the action dimension d for an exact trace, the probe count for
    Hutchinson) and n the log-density estimates per row (1 exact, the
    probe count for Hutchinson). A stage whose weight b[i] is 0
    (midpoint's first) evaluates the velocity alone in a plain call, which
    keeps every hidden layer's rows, and its stage input is one node:
    widths + first + 2·d, widths the sum of the hidden widths. Every
    stage also holds about ``_STAGE_BYTES`` of nodes, closures and array
    headers, which dominate at small batches. The dynamic variant tapes
    two unrolls (pi and mu), the static one only log pi.
    """
    net = policy.model.net
    d = net.x_dim
    k = config.trace_mode.tangents(d)
    n = 1 if config.trace == "exact" else k
    widths = sum(net.mlp.sizes[1:-1])
    first = net.mlp.sizes[0] - net.t_emb.width
    weights = TABLEAUX[config.gmpg_scheme][1]
    floats = sum(first + ((k + 1) * d + 3 * (d + n) if bi else widths + 2 * d) for bi in weights)
    per_step = 8 * batch * floats + _STAGE_BYTES * len(weights)
    return per_step * config.t_train * (2 if config.variant == "dynamic" else 1)


def gmpg_reverse_bytes(policy: GenerativePolicy, config: TrainingConfig, batch: int) -> int:
    """Estimated bytes one network call's reverse rule holds beside the
    tape during a GMPG step's reverse pass, from the shapes: the rerun
    hidden stacks [a; da] and their slopes, (k + 2)·widths floats per row,
    and the stacked-output gradients of two adjacent layers, 2·(k + 1)·m
    floats per row, m the widest layer (see ``tensor.network``)."""
    net = policy.model.net
    k = config.trace_mode.tangents(net.x_dim)
    sizes = net.mlp.sizes
    return 8 * batch * ((k + 2) * sum(sizes[1:-1]) + 2 * (k + 1) * max(sizes[1:]))


def _check_gmpg_models(policy: GenerativePolicy, behavior: GenerativePolicy) -> None:
    if policy.model.parameterization != "velocity" or behavior.model.parameterization != "velocity":
        raise ValueError("reverse-KL training requires velocity-parameterized models "
                         "(noise heads blow up as g^2/(2 sigma) near the data endpoint)")
    if not (np.array_equal(policy.action_mean, behavior.action_mean)
            and np.array_equal(policy.action_std, behavior.action_std)):
        raise ValueError("policy and behavior must share the action normalizer")


def gmpg_per_sample(policy: GenerativePolicy, behavior: GenerativePolicy, critic, states,
                    config: TrainingConfig, rng: np.random.Generator) -> Tensor:
    """Per-sample -beta Q(s, a) + log pi(a|s) - log mu(a|s) with a ~ pi.

    The action is produced by the differentiable solver; its log-density
    accumulates on the same grid during generation, and log mu re-integrates
    the action through the frozen behavior flow. Gradients flow through the
    action into Q and both log terms, and through log pi's parameters.
    """
    _check_gmpg_models(policy, behavior)
    states = np.atleast_2d(np.asarray(states, float))
    b = states.shape[0]
    spec, trace = config.gmpg_solver, config.trace_mode
    z, logp_pi, _ = generate_with_log_prob(policy.model, b, spec, trace, rng, condition=states)
    a_raw = policy.denormalize(z)
    q = critic.q_tensor(states, a_raw).sum(axis=1)  # (B,1) -> (B,)
    logp_mu = log_prob(behavior.model, z, spec, trace, rng, condition=states).logp
    # the -sum(log std) corrections cancel between the two log terms
    return q * (-config.beta) + logp_pi - logp_mu


def gmpg_loss(policy: GenerativePolicy, behavior: GenerativePolicy, critic, states,
              config: TrainingConfig, rng: np.random.Generator) -> Tensor:
    """Batch mean of ``gmpg_per_sample``, the reverse-KL objective."""
    return gmpg_per_sample(policy, behavior, critic, states, config, rng).mean()


def gmpg_static_surrogate(policy: GenerativePolicy, behavior: GenerativePolicy, critic,
                          states, config: TrainingConfig, rng: np.random.Generator) -> Tensor:
    """Surrogate scalar whose gradient is the importance-weighted
    score-function estimator: w(s,a) * (-beta Q + log pi - log mu) * grad log pi
    with a drawn from the frozen behavior model."""
    _check_gmpg_models(policy, behavior)
    states = np.atleast_2d(np.asarray(states, float))
    spec, trace = config.gmpg_solver, config.trace_mode
    a_raw = behavior.sample_actions(states, rng, spec)
    z = policy.normalize(a_raw)
    logp_pi_t = log_prob(policy.model, z, spec, trace, rng, condition=states).logp
    with no_tape():
        logp_mu = log_prob(behavior.model, z, spec, trace, rng, condition=states).logp_values
    q = critic.q_values(states, a_raw)
    w = gmpo_weight(critic, states, q, config.beta)
    bracket = -config.beta * q + logp_pi_t.data - logp_mu  # constants
    return (logp_pi_t * (w * bracket)).mean()


def train_gmpg(dataset, critic, policy: GenerativePolicy, behavior: GenerativePolicy,
               config: TrainingConfig, rng: np.random.Generator, on_step=None) -> GenerativePolicy:
    """Reverse-KL fine-tuning; the policy must start as a copy of mu."""
    _check_gmpg_models(policy, behavior)
    behavior.model.freeze()
    critic.freeze()

    def step_loss(idx):
        loss_fn = gmpg_loss if config.variant == "dynamic" else gmpg_static_surrogate
        return loss_fn(policy, behavior, critic, dataset.s[idx], config, rng), {}

    _train_loop("GMPG", dataset, policy, config.gmpg_steps, config.gmpg_batch_size,
                config.gmpg_lr, step_loss, rng, on_step)
    return policy
