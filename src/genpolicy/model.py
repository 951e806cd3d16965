"""A field network plus the declared meaning of its output.

``GenerativeModel`` bundles the conditional network with its
parameterization tag (velocity / noise / score) and path schedule, and
exposes a velocity view for the sampler and likelihood modules regardless
of what the network actually predicts.
"""

from __future__ import annotations

import numpy as np

from .nn import FieldNetwork
from .schedules import PARAMETERIZATIONS, PathSchedule, alpha_sigma, drift_diffusion
from .tensor import Tensor


class GenerativeModel:
    def __init__(self, net: FieldNetwork, parameterization: str, schedule: PathSchedule):
        if parameterization not in PARAMETERIZATIONS:
            raise ValueError(f"unknown parameterization {parameterization!r}")
        if parameterization != "velocity" and not schedule.is_diffusion:
            raise ValueError("icfm models must be velocity-parameterized")
        self.net = net
        self.parameterization = parameterization
        self.schedule = schedule

    def __call__(self, x: Tensor, t, condition=None) -> Tensor:
        return self.net(x, t, condition)

    def parameters(self):
        return self.net.parameters()

    def freeze(self):
        self.net.freeze()

    # -- velocity view ---------------------------------------------------

    def _coeffs(self, t):
        """(f, c) such that velocity = f * x + c * net_output, for a score or
        noise head (a velocity head's output is the velocity itself)."""
        f, g2 = drift_diffusion(self.schedule, t)
        if self.parameterization == "score":
            return f, -0.5 * g2
        _, sigma = alpha_sigma(self.schedule, self.schedule.clip(np.asarray(t, dtype=float)))
        return f, 0.5 * g2 / sigma

    def velocity(self, x: Tensor, t, condition=None) -> Tensor:
        out = self.net(x, t, condition)
        if self.parameterization == "velocity":
            return out
        f, c = self._coeffs(t)
        return x * f + out * c

    def velocity_jvp(self, x: Tensor, t, condition, u: np.ndarray):
        """(velocity, d(velocity)/dx @ u), both on the tape.

        ``u`` is a constant array that may stack k tangent blocks of x's B
        rows (k·B rows, see ``FieldNetwork.jvp``); the tangent result has
        the same layout.
        """
        out, dout = self.net.jvp(x, t, condition, u)
        if self.parameterization == "velocity":
            return out, dout
        f, c = self._coeffs(t)
        return x * f + out * c, dout * c + u * f
