"""Implicit Q-Learning: expectile-regressed V, one-step Bellman Q.

Update order per step is V then Q, each against the other's live values
(no target networks, no Polyak averaging, no double-Q): the V loss sees
Q(s, a) held fixed, the Q loss regresses onto r + gamma (1 - done) V(s')
with V held fixed. Terminal transitions mask the bootstrap term. One
taped Q(s, a) forward per step feeds both losses, since the V step leaves
Q's weights alone, and V(s') is evaluated only when some row of the batch
is non-terminal: on an all-terminal batch the target is r itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError
from .nn import Mlp
from .optim import Adam, check_training_loop
from .tensor import Tensor, no_tape


def _expectile_weight(u: np.ndarray, tau: float) -> np.ndarray:
    """|tau - 1(u <= 0)|, the expectile regression's weight of residual ``u``."""
    return np.abs(tau - (u <= 0.0).astype(u.dtype))


def expectile_loss(u, tau: float) -> Tensor:
    """Mean of |tau - 1(u <= 0)| u^2; tau = 0.5 is exactly half-MSE.

    The asymmetric weight is a constant of the residual's sign, so the
    gradient treats it as fixed within the step. One ``sq_mean`` node.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    ut = u if isinstance(u, Tensor) else Tensor(np.asarray(u, dtype=float))
    return ut.sq_mean(0.0, _expectile_weight(ut.data, tau))


@dataclass
class CriticConfig:
    tau: float = 0.7
    gamma: float = 0.99
    lr: float = 1e-4
    hidden: tuple = (256, 256, 256)
    steps: int = 20_000
    batch_size: int = 256

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie strictly inside (0, 1)")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"critic gamma must lie in [0, 1], got {self.gamma}")
        check_training_loop("critic", self.lr, self.steps, self.batch_size)


class Critic:
    """Q(s||a) and V(s) heads over the shared tensor engine; each head's
    weights are drawn from ``rng`` unless given (``Mlp``'s ``params``)."""

    def __init__(self, state_dim: int, action_dim: int, config: CriticConfig,
                 rng: np.random.Generator | None = None, q_params=None, v_params=None):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.config = config
        self.q_net = Mlp([state_dim + action_dim, *config.hidden, 1], rng, q_params)
        self.v_net = Mlp([state_dim, *config.hidden, 1], rng, v_params)

    # -- tensor paths (differentiable) --------------------------------

    def q_tensor(self, s, a: Tensor) -> Tensor:
        """Q(s, a); the array ``s`` is a constant prefix of the first layer."""
        return self.q_net(a, prefix=[np.asarray(s, dtype=float)])

    def v_tensor(self, s) -> Tensor:
        s_t = s if isinstance(s, Tensor) else Tensor(np.asarray(s, dtype=float))
        return self.v_net(s_t)

    # -- array evaluation (no tape) --------------------------------------

    def q_values(self, s, a) -> np.ndarray:
        """Q(s, a) as a (batch,) array; the same ops as ``q_tensor``, recording no tape."""
        with no_tape():
            q = self.q_tensor(np.asarray(s, dtype=float), Tensor(np.asarray(a, dtype=float)))
        return q.data[:, 0]

    def v_values(self, s) -> np.ndarray:
        """V(s) as a (batch,) array, recording no tape."""
        with no_tape():
            v = self.v_tensor(np.asarray(s, dtype=float))
        return v.data[:, 0]

    def advantage(self, s, a) -> np.ndarray:
        """Q(s, a) - V(s), batched; ordering in a equals Q ordering at fixed s."""
        return self.q_values(s, a) - self.v_values(s)

    def parameters(self):
        return self.q_net.parameters() + self.v_net.parameters()

    def freeze(self):
        self.q_net.freeze()
        self.v_net.freeze()


def iql_step(critic: Critic, batch, opt_v: Adam, opt_q: Adam) -> tuple[float, float]:
    """One IQL update (V step, then Q step). Returns (v_loss, q_loss).

    One taped Q(s, a) forward feeds both losses: the V loss reads its values
    as a constant, the Q loss differentiates through it. The V step changes
    only V's weights, so both losses are op for op those of evaluating
    Q(s, a) twice. V(s') is skipped only when every row is terminal; with
    ``done`` in {0, 1} and finite s', the masked term is then exactly zero.
    Each loss is one ``sq_mean`` node over its network's output, with the
    values and gradients of the composite (residual, square, weight, mean).
    """
    s, a, r, s2, done = (np.asarray(x, dtype=float) for x in batch)
    r = r.reshape(-1, 1)
    done = done.reshape(-1, 1)

    q = critic.q_tensor(s, Tensor(a))
    opt_v.zero_grad()
    v = critic.v_tensor(s)  # the expectile loss of q - v, as one node on v
    v_loss = v.sq_mean(q.data, _expectile_weight(q.data - v.data, critic.config.tau))
    v_loss.backward()
    opt_v.step()

    target = r
    if not done.all():
        target = r + critic.config.gamma * (1.0 - done) * critic.v_values(s2)[:, None]
    opt_q.zero_grad()
    q_loss = q.sq_mean(target)
    q_loss.backward()
    opt_q.step()

    vl, ql = float(v_loss.data), float(q_loss.data)
    if not (np.isfinite(vl) and np.isfinite(ql)):
        raise TrainingDivergedError("IQL loss went non-finite")
    return vl, ql


def train_critic(dataset, config: CriticConfig, rng: np.random.Generator,
                 on_step=None) -> Critic:
    """Fit a critic on an offline dataset by mini-batch IQL."""
    if dataset.n == 0:
        raise ValueError("critic training needs a non-empty dataset")
    critic = Critic(dataset.state_dim, dataset.action_dim, config, rng)
    opt_v = Adam(critic.v_net.parameters(), lr=config.lr)
    opt_q = Adam(critic.q_net.parameters(), lr=config.lr)
    n = dataset.n
    for step in range(config.steps):
        idx = rng.integers(0, n, size=min(config.batch_size, n))
        losses = iql_step(critic, (dataset.s[idx], dataset.a[idx], dataset.r[idx],
                                   dataset.s2[idx], dataset.done[idx]), opt_v, opt_q)
        if on_step is not None:
            on_step(step, losses)
    return critic
