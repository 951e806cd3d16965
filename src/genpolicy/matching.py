"""Denoising score matching and conditional flow matching objectives.

Both losses are Monte-Carlo estimates with one (t, noise) draw per batch
item, reduced by the mean over batch and dimensions, and accept
per-sample nonnegative weights. With weights identically 1 they are the
plain unweighted estimators, bit for bit, which is what makes the
advantage-weighted training scheme degenerate exactly to behavior
pretraining at zero temperature.

The lambda(t) weighting applies to score matching only: "vanilla" is
sigma_t^2 (so a noise-predicting head sees unit weight), "mlsm" is g^2(t)
(the likelihood-bound weighting), "unit" is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, UnsupportedKindError
from .schedules import PathSchedule, alpha_sigma, drift_diffusion, sample_path_point, target_velocity
from .tensor import Tensor

LAMBDA_MODES = ("vanilla", "mlsm", "unit")


@dataclass
class MatchingConfig:
    objective: str = "cfm"  # "dsm" | "cfm"
    lambda_mode: str = "vanilla"

    def __post_init__(self):
        if self.objective not in ("dsm", "cfm"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"unknown lambda mode {self.lambda_mode!r}")


def check_objective(objective: str, parameterization: str, schedule: PathSchedule) -> None:
    """Raise unless ``objective`` can train a ``parameterization`` head on ``schedule``.

    Score matching needs a diffusion-kind schedule and a score or noise
    head; flow matching needs a velocity head.
    """
    if objective == "dsm":
        if not schedule.is_diffusion:
            raise UnsupportedKindError("score matching needs a diffusion-kind schedule")
        if parameterization not in ("score", "noise"):
            raise ValueError("dsm_loss expects a score- or noise-parameterized model")
    elif parameterization != "velocity":
        raise ValueError("cfm_loss expects a velocity-parameterized model")


def _check_weights(weights, batch: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != batch:
        raise ValueError(f"got {w.shape[0]} weights for batch of {batch}")
    if not np.isfinite(w).all():
        raise NonFiniteError("per-sample weights must be finite")
    if np.any(w < 0):
        raise ValueError("per-sample weights must be nonnegative")
    return w


def draw_times(schedule: PathSchedule, n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-sample times, uniform on the clipped domain, shape (n, 1)."""
    lo, hi = schedule.t_clip, 1.0 - schedule.t_clip
    return rng.uniform(lo, hi, size=(n, 1))


def dsm_loss(model, schedule: PathSchedule, x0, weights, rng,
             condition=None, config: MatchingConfig | None = None, draws=None) -> Tensor:
    """Weighted denoising-score-matching loss, differentiable scalar.

    1/2 E[lambda(t) w ||s_theta(x_t) - grad log p(x_t|x0)||^2] with
    t ~ U(clipped), eps ~ N(0, I). ``draws=(t, eps)`` overrides the draws
    (replay / permutation-invariance testing).
    """
    config = config or MatchingConfig(objective="dsm")
    check_objective("dsm", model.parameterization, schedule)
    x0 = np.asarray(x0, dtype=float)
    w = _check_weights(weights, x0.shape[0])

    if draws is None:
        t = draw_times(schedule, x0.shape[0], rng)
        eps = rng.standard_normal(x0.shape)
    else:
        t, eps = draws
    x_t = sample_path_point(schedule, x0, eps, t)
    sigma = alpha_sigma(schedule, t)[1]
    score_target = -eps / sigma

    out = model(Tensor(x_t), t, condition)
    if model.parameterization == "noise":
        out = out * (-1.0 / sigma)

    if config.lambda_mode == "vanilla":
        lam = sigma * sigma
    elif config.lambda_mode == "mlsm":
        lam = drift_diffusion(schedule, t)[1]
    else:
        lam = np.ones_like(t)
    return out.sq_mean(score_target, w[:, None] * lam) * 0.5


def cfm_loss(model, schedule: PathSchedule, x0, x1, weights, rng,
             condition=None, config: MatchingConfig | None = None, draws=None) -> Tensor:
    """Weighted conditional-flow-matching loss, differentiable scalar.

    1/2 E[w ||v_theta(x_t) - v(x_t|x0, x1)||^2]. For diffusion kinds x0 is
    the data endpoint and x1 the standard-normal draw; for icfm x0 is the
    source (noise) and x1 the data endpoint.
    """
    config = config or MatchingConfig(objective="cfm")
    check_objective("cfm", model.parameterization, schedule)
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    w = _check_weights(weights, x0.shape[0])

    if draws is None:
        t = draw_times(schedule, x0.shape[0], rng)
        path_eps = rng.standard_normal(x0.shape) if (not schedule.is_diffusion and schedule.path_sigma > 0) else None
    else:
        t, path_eps = draws

    x_t = sample_path_point(schedule, x0, x1, t, path_eps)
    v_target = target_velocity(schedule, x0, x1, t)

    out = model(Tensor(x_t), t, condition)
    return out.sq_mean(v_target, w[:, None]) * 0.5


def matching_loss(model, schedule: PathSchedule, data, weights, rng,
                  condition=None, config: MatchingConfig | None = None) -> Tensor:
    """Dispatch on the configured objective, drawing the free endpoint.

    ``data`` is the data-side batch (actions); the noise endpoint is drawn
    here so that every training scheme shares one rng discipline.
    """
    config = config or MatchingConfig()
    if config.objective == "dsm":
        return dsm_loss(model, schedule, data, weights, rng, condition, config)
    data = np.asarray(data, dtype=float)
    free = rng.standard_normal(data.shape)
    if schedule.is_diffusion:
        return cfm_loss(model, schedule, data, free, weights, rng, condition, config)
    return cfm_loss(model, schedule, free, data, weights, rng, condition, config)
