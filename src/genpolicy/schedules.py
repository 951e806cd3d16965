"""Probability paths for diffusion and flow models.

Three kinds:

* ``vpsde`` — exponential-decay scale with linear beta_t = beta_min +
  t (beta_max - beta_min): alpha_t = exp(-1/2 int beta), sigma_t =
  sqrt(1 - exp(-int beta)).
* ``gvp``   — trigonometric pair alpha_t = cos(pi t / 2), sigma_t =
  sin(pi t / 2), so alpha^2 + sigma^2 = 1 exactly.
* ``icfm``  — independent-coupling straight paths x_t = t x1 + (1-t) x0
  + sigma eps with constant conditional velocity x1 - x0.

Orientation: diffusion kinds place data at t=0 and noise at t=1; icfm
places noise at t=0 and data at t=1. The sampler owns direction handling.

Drift/diffusion coefficients follow from the scale/noise pair:
f(t) = d log(alpha)/dt and g^2(t) = d(sigma^2)/dt - 2 f sigma^2. These
blow up at the endpoints (tan for gvp, 1/sigma ratios for vpsde), so the
singular operations evaluate on the clipped domain [t_clip, 1 - t_clip];
plain alpha/sigma evaluation and path sampling are exact on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, UnsupportedKindError
from .tensor import Tensor

KINDS = ("vpsde", "gvp", "icfm")
PARAMETERIZATIONS = ("velocity", "noise", "score")


@dataclass(frozen=True)
class PathSchedule:
    kind: str = "gvp"
    beta_min: float = 0.1
    beta_max: float = 20.0
    path_sigma: float = 0.0  # icfm conditional path noise
    t_clip: float = 1e-3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKindError(f"unknown schedule kind {self.kind!r}")
        if self.path_sigma < 0:
            raise ValueError("path_sigma must be >= 0")
        if not 0 <= self.beta_min <= self.beta_max or self.beta_max <= 0:
            raise ValueError(f"vpsde needs 0 <= beta_min <= beta_max and beta_max > 0, got "
                             f"beta_min={self.beta_min}, beta_max={self.beta_max}")

    @property
    def is_diffusion(self) -> bool:
        return self.kind in ("vpsde", "gvp")

    def clip(self, t):
        return np.clip(t, self.t_clip, 1.0 - self.t_clip)

    @property
    def data_time(self) -> float:
        return self.t_clip if self.is_diffusion else 1.0 - self.t_clip

    @property
    def noise_time(self) -> float:
        return 1.0 - self.t_clip if self.is_diffusion else self.t_clip


def _require_diffusion(schedule: PathSchedule, op: str) -> None:
    if not schedule.is_diffusion:
        raise UnsupportedKindError(f"{op} is undefined for the {schedule.kind} kind")


def _beta(schedule: PathSchedule, t):
    return schedule.beta_min + (schedule.beta_max - schedule.beta_min) * np.asarray(t, dtype=float)


def _beta_integral(schedule: PathSchedule, t):
    t = np.asarray(t, dtype=float)
    return schedule.beta_min * t + 0.5 * (schedule.beta_max - schedule.beta_min) * t * t


def alpha_sigma(schedule: PathSchedule, t):
    """Closed-form (alpha_t, sigma_t) of the transition p(x_t|x_0)."""
    _require_diffusion(schedule, "alpha_sigma")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > 1):
        raise NumericDomainError("t must lie in [0, 1]")
    if schedule.kind == "vpsde":
        big = _beta_integral(schedule, t)
        return np.exp(-0.5 * big), np.sqrt(-np.expm1(-big))
    return np.cos(0.5 * math.pi * t), np.sin(0.5 * math.pi * t)


def alpha_sigma_prime(schedule: PathSchedule, t):
    """Closed-form time derivatives (d alpha/dt, d sigma/dt), clipped t."""
    _require_diffusion(schedule, "alpha_sigma_prime")
    t = schedule.clip(np.asarray(t, dtype=float))
    alpha, sigma = alpha_sigma(schedule, t)
    if schedule.kind == "vpsde":
        beta = _beta(schedule, t)
        return -0.5 * beta * alpha, 0.5 * beta * alpha * alpha / sigma
    return -0.5 * math.pi * sigma, 0.5 * math.pi * alpha


def drift_diffusion(schedule: PathSchedule, t):
    """(f(t), g^2(t)) with f = d log alpha / dt, g^2 = d sigma^2/dt - 2 f sigma^2."""
    _require_diffusion(schedule, "drift_diffusion")
    t = schedule.clip(np.asarray(t, dtype=float))
    if schedule.kind == "vpsde":
        beta = _beta(schedule, t)
        return -0.5 * beta, beta
    half_pi_t = 0.5 * math.pi * t
    tan = np.tan(half_pi_t)
    f = -0.5 * math.pi * tan
    g2 = math.pi * tan
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g2))):
        raise NumericDomainError("drift/diffusion non-finite after clipping")
    return f, g2


def sample_path_point(schedule: PathSchedule, x0, other, t, path_eps=None) -> np.ndarray:
    """x_t on the conditional path.

    Diffusion kinds: ``other`` is the standard-normal draw eps and x_t =
    alpha_t x0 + sigma_t eps. icfm: ``other`` is the data endpoint x1 and
    x_t = t x1 + (1-t) x0, plus path_sigma * ``path_eps`` when given.
    """
    x0 = np.asarray(x0, dtype=float)
    other = np.asarray(other, dtype=float)
    if other.shape != x0.shape:
        raise ValueError(f"shape mismatch {other.shape} vs {x0.shape}")
    if schedule.is_diffusion:
        alpha, sigma = alpha_sigma(schedule, t)
        return alpha * x0 + sigma * other
    x_t = t * other + (1.0 - t) * x0
    if path_eps is not None:
        x_t = x_t + schedule.path_sigma * path_eps
    return x_t


def target_velocity(schedule: PathSchedule, x0, other, t):
    """Conditional velocity: alpha' x0 + sigma' eps (diffusion) or x1 - x0 (icfm)."""
    x0 = np.asarray(x0, dtype=float)
    other = np.asarray(other, dtype=float)
    if other.shape != x0.shape:
        raise ValueError(f"shape mismatch {other.shape} vs {x0.shape}")
    if schedule.is_diffusion:
        da, ds = alpha_sigma_prime(schedule, t)
        return da * x0 + ds * other
    return other - x0


def prior_logpdf(z: np.ndarray) -> np.ndarray:
    """Standard-normal log density per row (the generation prior)."""
    z = np.asarray(z)
    return -0.5 * (z * z).sum(axis=-1) - 0.5 * z.shape[-1] * math.log(2.0 * math.pi)


def prior_logpdf_tensor(z: Tensor) -> Tensor:
    d = z.shape[-1]
    return z.square().sum(axis=1) * (-0.5) + (-0.5 * d * math.log(2.0 * math.pi))
