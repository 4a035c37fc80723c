"""Integral sliding surface s = z + alpha1 * integral(exp(z^2) |z|^(p/q) sign(z)).

This module holds the surface parameters and the integrand. The integral
starts empty, so s equals the tracking error at t=0 and the closed loop begins
directly on the surface s=z. The simulation engine accumulates the integral
with rectangle-rule increments of the plant's step: the control law cancels
this exact discrete term, and a higher-order quadrature here would inject an
artificial disturbance into the s-dynamics. The closed loop is therefore first
order in the step whatever the plant stepper, which is euler alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .numerics import safe_exp


@dataclass(frozen=True)
class SlidingParams:
    """Per-channel surface parameters: gain alpha1 > 0 and exponent p/q in [0, 1).

    p and q are kept as integers; the exponent used everywhere is the real
    quotient p/q. p = 0 (pure sign integrand) is allowed.
    """

    alpha1: float
    p: int
    q: int

    def __post_init__(self):
        if not (np.isfinite(self.alpha1) and self.alpha1 > 0.0):
            raise ParameterError(f"alpha1 must be positive, got {self.alpha1}")
        if not (isinstance(self.p, (int, np.integer)) and isinstance(self.q, (int, np.integer))):
            raise ParameterError("p and q must be integers")
        if self.p < 0 or self.q < 1:
            raise ParameterError(f"need p >= 0 and q >= 1, got p={self.p}, q={self.q}")
        if not self.p / self.q < 1.0:
            raise ParameterError(
                f"exponent p/q must satisfy 0 <= p/q < 1, got {self.p}/{self.q}"
            )

    @property
    def exponent(self) -> float:
        return self.p / self.q


def integrand(z, exponent):
    """exp(z^2) * |z|^exponent * sign(z), elementwise over z.

    ``exponent`` comes from SlidingParams, which already holds it in [0, 1).
    The engine calls this at every evaluation, so it computes
    ``signed_power``'s expression without repeating that function's check.
    """
    return safe_exp(z * z) * (np.abs(z) ** exponent * np.sign(z))
