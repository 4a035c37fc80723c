"""Scalar numeric primitives: a clamped exponential, the fixed-step grid
settings, the check of a box that states are drawn from, and the one CSV
number writer of the trajectory and dataset exports.

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

# Bound once for the step loop: the clamp as a 0-d array, since numpy
# converts a float operand on every call, and the ufuncs safe_exp calls.
_EXP_CLAMP = np.array(EXP_CLAMP)
_minimum, _exp = np.minimum, np.exp

# Relative slack when checking that t_end sits on the step grid.
_GRID_RTOL = 1e-9

# Rows per block of a CSV export: one format call and one write each, so an
# export holds the data plus one block.
CSV_BLOCK_ROWS = 256


def safe_exp(x):
    """exp(x) with the argument clamped at EXP_CLAMP so the result is finite.
    An array result is one new array, which the exponential fills in place."""
    y = _minimum(x, _EXP_CLAMP)
    return _exp(y, out=y) if y.ndim else _exp(y)


@dataclass(frozen=True)
class StepConfig:
    """Fixed-step integration settings.

    ``t_end`` must land on the step grid: the number of steps is
    round(t_end / step_size), and t_end must equal that multiple of
    step_size to within a 1e-9 relative tolerance.
    """

    step_size: float
    t_end: float

    def __post_init__(self):
        if not (self.step_size > 0.0 and np.isfinite(self.step_size)):
            raise ParameterError(f"step_size must be positive, got {self.step_size}")
        if not (self.t_end >= 0.0 and np.isfinite(self.t_end)):
            raise ParameterError(f"t_end must be >= 0, got {self.t_end}")
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


def write_csv_rows(fh, columns) -> None:
    """Write ``columns`` (arrays of one length; a 2-D one is several columns)
    to ``fh``, a line of comma-separated ``%.17g`` values per row, in blocks of
    CSV_BLOCK_ROWS rows. 17 significant digits round-trip every float64."""
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
        row = ",".join(["%.17g"] * block.shape[1]) + "\n"
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))
