"""Closed-loop accuracy of the euler plant stepper against the step size.

    PYTHONPATH=src python3 benchmarks/closed_loop_order.py

Runs ``configs/pmsm-known.json`` (the perturbed PMSM, zero reference) to
t_end = 1 from [1, 1, 1] and [2, -1.5, 0.5], at each step size h in STEPS
and at h = 1e-6 as the reference solution. It prints, per start and h, the
max over the 1 ms grid of |x - x_ref| over all channels, and the observed
order between neighbouring step sizes, log(e1 / e2) / log(h1 / h2). Both
starts go through the step loop as one block of two runs, whose rows equal
their single runs bit for bit, and only the 1 ms rows are kept. The
figures are deterministic; a run takes about 45 s on one core, most of it
the reference.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from fxtsmc import sim
from fxtsmc.cli import build_scenario, load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "pmsm-known.json"
STARTS = [[1.0, 1.0, 1.0], [2.0, -1.5, 0.5]]
STEPS = [1e-3, 2.5e-4, 1e-4]
REFERENCE_STEP = 1e-6
GRID = 1e-3
T_END = 1.0


class _GridRows:
    """A step-loop sink that keeps the state rows on the 1 ms grid."""

    def __init__(self, stride):
        self.stride = stride
        self.x = []

    def start(self, t, x_d, d, z_is_x):
        pass

    def row(self, k, x, z, s, u, f_used):
        if k % self.stride == 0:
            self.x.append(x.copy())

    @staticmethod
    def fail(errors):
        raise next(iter(errors.values()))


def grid_states(h: float) -> np.ndarray:
    """(grid rows, starts, n) states of both starts stepped at ``h``."""
    cfg = load_config(CONFIG)
    cfg["sim"].update(step_size=h, t_end=T_END)
    scenario = build_scenario(cfg)
    sink = _GridRows(round(GRID / h))
    sim._step_loop(scenario, np.array(STARTS), sink)
    return np.array(sink.x)


def main() -> None:
    x_ref = grid_states(REFERENCE_STEP)
    print(f"max over the 1 ms grid of |x - x_ref|, x_ref: euler at h = {REFERENCE_STEP:g}")
    print("| x0 | method | " + " | ".join(f"h = {h:g}" for h in STEPS) + " | observed order |")
    print("| --- | --- | " + " | ".join("---" for _ in STEPS) + " | --- |")
    err = np.abs(np.array([grid_states(h) for h in STEPS]) - x_ref).max(axis=(1, 3))
    for r, x0 in enumerate(STARTS):
        e = err[:, r]
        orders = [
            math.log(e[i] / e[i + 1]) / math.log(STEPS[i] / STEPS[i + 1])
            for i in range(len(STEPS) - 1)
        ]
        print(
            f"| {x0} | euler | " + " | ".join(f"{v:.3e}" for v in e)
            + " | " + ", ".join(f"{o:.2f}" for o in orders) + " |"
        )


if __name__ == "__main__":
    main()
