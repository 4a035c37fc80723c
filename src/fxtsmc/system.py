"""Perturbed controlled systems: x_i' = f_i(x) + u_i + d_i(t).

Each u_i enters only its own channel, with unit gain: both plants a config
builds (``make_pmsm``, ``make_lemma2_plant``) have it, and the law's division
by a constant gain would cancel against the plant's product up to one
rounding. Drift and perturbation are plain vector-valued callables.
Benchmark instances are code-defined through this interface.

Every callable also accepts a block of inputs, so the engine can step many
runs at once: the drift maps states of shape (..., n) to (..., n), and
perturbations and references map a time, a float or an array of shape (A,),
to (n,) or (A, n). A result that does not depend on its input (a zero
perturbation) may stay (n,); it broadcasts against the block. Each run
evaluates the perturbation and the reference once over its whole time grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controller import SQRT_PI_HALF
from .errors import ParameterError
from .numerics import safe_exp


@dataclass(frozen=True)
class SystemModel:
    """A perturbed system x' = f(x) + u + d(t), built in code, never from a
    config's numbers.

    ``drift`` maps a state of shape (..., n) to (..., n). ``perturbation``
    maps t, a float or an array of shape (A,), to (n,) or (A, n).
    ``perturbation_bounds``, of shape (n,) and non-negative, is the declared
    bound on |d_i(t)|, which a settling bound needs the controller's
    ``d_bar`` to cover.
    """

    n: int
    drift: Callable[[np.ndarray], np.ndarray]
    perturbation: Callable[[float], np.ndarray]
    perturbation_bounds: np.ndarray
    name: str = "custom"


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference trajectory x_d(t) and its time derivative.

    Both map t, a float or an array of shape (A,), to (n,) or (A, n).
    """

    value: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray]


def zero_reference(n: int) -> ReferenceSignal:
    """Constant-zero reference (pure stabilization)."""
    zeros = np.zeros(n)
    return ReferenceSignal(value=lambda t: zeros, derivative=lambda t: zeros)


def constant_reference(value) -> ReferenceSignal:
    v = np.asarray(value, dtype=float)
    zeros = np.zeros_like(v)
    return ReferenceSignal(value=lambda t: v, derivative=lambda t: zeros)


def sinusoid_reference(amplitude, frequency, phase=None) -> ReferenceSignal:
    """Per-channel x_d_i(t) = A_i sin(w_i t + phi_i)."""
    a = np.asarray(amplitude, dtype=float)
    w = np.asarray(frequency, dtype=float)
    ph = np.zeros_like(a) if phase is None else np.asarray(phase, dtype=float)
    if not (a.shape == w.shape == ph.shape):
        raise ParameterError("amplitude, frequency, and phase must share one shape")
    return ReferenceSignal(
        value=lambda t: a * np.sin(w * np.asarray(t)[..., None] + ph),
        derivative=lambda t: a * w * np.cos(w * np.asarray(t)[..., None] + ph),
    )


# --- benchmark: permanent magnet synchronous motor (3-state chaotic system) ---

# Gain set used throughout the benchmark literature for this plant, by the
# ``ControllerParams`` field each value is compared with (p/q = 8/10).
PMSM_STANDARD_GAINS = {"alpha1": 6.0, "alpha2": 4.0, "exponent": 8 / 10, "d_bar": 1.0}

# Reference settling-time values quoted alongside this gain set. Their z-entry,
# 0.92593 per channel and in aggregate, is reproduced exactly by theorem 1's
# T_z, so only the s-entries and T_max are kept: they are NOT produced by any
# of the bound formulas implemented here (a known discrepancy that cmd_bounds
# reports explicitly) and are kept only for comparison.
PMSM_QUOTED_BOUNDS = {
    "t_s_channel": 2.8284,
    "t_s": 0.57364,
    "t_max": 3.7544,
}


def _pmsm_drift(x):
    """One state on Python floats, whose +, - and * round as numpy's do (a
    NaN's sign bit aside, which numpy's own loops do not set alike either); a
    block as one C-contiguous array, which the law reads at half the cost of
    a transposed one."""
    if x.ndim == 1:
        x1, x2, x3 = x.tolist()
        return np.array([2.5 * (x2 - x1), -x2 - x3 * x1 + 25.0 * x1, -x3 + x1 * x2])
    x1, x2, x3 = x.T
    return np.array([2.5 * (x2 - x1), -x2 - x3 * x1 + 25.0 * x1, -x3 + x1 * x2]).T.copy()


def _pmsm_perturbation(t):
    return np.array(
        [np.sin(10.0 * t), np.cos(10.0 * t), np.cos(10.0 * t) * np.sin(4.0 * t)]
    ).T


def make_pmsm() -> SystemModel:
    """The 3-state motor benchmark with bounded perturbations."""
    return SystemModel(
        n=3,
        drift=_pmsm_drift,
        perturbation=_pmsm_perturbation,
        perturbation_bounds=np.ones(3),
        name="pmsm",
    )


# --- benchmark: scalar fixed-time validation plant --------------------------


def make_lemma2_plant(alpha: float) -> SystemModel:
    """Scalar plant x' = -alpha*(sqrt(pi)/2)*exp(x^2)*sign(x), run open loop.

    With zero perturbation its settling time from x0 is erf(|x0|)/alpha
    (substitute y = erf(x), which turns the dynamics into y' = -alpha*sign(y)),
    which makes it the analytic oracle used by the validation suite. The
    config schema keeps alpha positive and finite.
    """
    coef = alpha * SQRT_PI_HALF

    def drift(x):
        return -coef * safe_exp(x * x) * np.sign(x)

    zeros = np.zeros(1)
    return SystemModel(
        n=1,
        drift=drift,
        perturbation=lambda t: zeros,
        perturbation_bounds=np.zeros(1),
        name="lemma2",
    )
