"""Scalar numeric primitives: signed powers, a clamped exponential, the
fixed-step grid settings, and the check of a box that states are drawn from.

The primitives accept either floats or numpy arrays and operate elementwise,
so the same code serves both scalar unit tests and the vectorized simulation
loop. Stepping itself lives in the simulation engine (``fxtsmc.sim``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# exp(50) ~ 5.18e21: comfortably representable, so exp(z^2)-weighted terms
# stay finite even when |z| transiently exceeds ~7.
EXP_CLAMP = 50.0

_METHODS = ("euler",)

# Relative slack when checking that t_end sits on the step grid.
_GRID_RTOL = 1e-9


def signed_power(x, alpha):
    """Signed power |x|**alpha * sign(x), with sign(0) taken as 0.

    For alpha = 0 this is the sign function itself (0 at the origin), which
    keeps the controller quiescent at exact equilibrium.
    """
    if np.any(np.asarray(alpha) < 0.0):
        raise ParameterError(f"signed_power exponent must be >= 0, got {alpha}")
    return np.abs(x) ** alpha * np.sign(x)


def safe_exp(x):
    """exp(x) with the argument clamped at EXP_CLAMP so the result is finite."""
    return np.exp(np.minimum(x, EXP_CLAMP))


@dataclass(frozen=True)
class StepConfig:
    """Fixed-step integration settings.

    ``t_end`` must land on the step grid: the number of steps is
    round(t_end / step_size), and t_end must equal that multiple of
    step_size to within a 1e-9 relative tolerance.
    """

    step_size: float
    t_end: float
    method: str = "euler"

    def __post_init__(self):
        if not (self.step_size > 0.0 and np.isfinite(self.step_size)):
            raise ParameterError(f"step_size must be positive, got {self.step_size}")
        if not (self.t_end >= 0.0 and np.isfinite(self.t_end)):
            raise ParameterError(f"t_end must be >= 0, got {self.t_end}")
        if self.method == "explicit-euler":
            object.__setattr__(self, "method", "euler")
        if self.method not in _METHODS:
            raise ParameterError(f"method must be one of {_METHODS}, got {self.method!r}")
        steps = self.t_end / self.step_size
        if not np.isfinite(steps):
            raise ParameterError(f"t_end / step_size is not finite: {self.t_end} / {self.step_size}")
        n = round(steps)
        if abs(n * self.step_size - self.t_end) > _GRID_RTOL * max(1.0, self.t_end):
            raise ParameterError(
                f"t_end={self.t_end} is not an integer multiple of step_size={self.step_size}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.step_size)


def check_ic_box(box, n: int, name: str = "ic_box") -> np.ndarray:
    """``box`` as an (n, 2) array of ordered (low, high) pairs whose bounds
    and widths high - low are finite, or a ParameterError that calls it
    ``name``. Uniform draws need a finite width, and then stay in the box; a
    bound that is not finite makes its width not finite too."""
    box = np.asarray(box, dtype=float)
    if box.shape != (n, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ParameterError(
            f"{name} must be {n} ordered (low, high) pairs, got {box.tolist()}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        width = box[:, 1] - box[:, 0]
    if not np.isfinite(width).all():
        raise ParameterError(
            f"{name} bounds and widths high - low must be finite, got {box.tolist()}"
        )
    return box
