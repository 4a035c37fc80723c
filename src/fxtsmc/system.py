"""Perturbed controlled systems: x_i' = f_i(x) + g_i(x) u_i + d_i(t).

The gain is diagonal (each u_i enters only its own channel) and does not
depend on the state: it is a ``ConstantGain``, checked once when built, and
the engine uses its value. Drift and perturbation are plain vector-valued
callables. Benchmark instances are code-defined through this interface.

Every callable also accepts a block of inputs, so the engine can step many
runs at once: the drift maps states of shape (..., n) to (..., n), and
perturbations and references map a time, a float or an array of shape (A,),
to (n,) or (A, n). A result that does not depend on its input (a zero
perturbation) may stay (n,); it broadcasts against the block. Each run
evaluates the perturbation and the reference once over its whole time grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .controller import SQRT_PI_HALF
from .errors import ParameterError
from .numerics import safe_exp


@dataclass(frozen=True, eq=False)
class ConstantGain:
    """The input gain, declared by its finite, nonzero value of shape (n,).
    Calling it returns ``value`` for any state; the engine reads ``value``."""

    value: np.ndarray

    def __post_init__(self):
        g = np.array(self.value, dtype=float)
        if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g) & (g != 0.0)):
            raise ParameterError(
                f"constant gain must be a finite, nonzero (n,) array, got {g!r}"
            )
        g.flags.writeable = False
        object.__setattr__(self, "value", g)

    def __call__(self, x):
        return self.value


@dataclass(frozen=True)
class SystemModel:
    """A perturbed system with drift f(x), constant diagonal gain g,
    perturbation d(t).

    ``drift`` maps a state of shape (..., n) to (..., n); ``gain`` is a
    ``ConstantGain`` of length n. ``perturbation`` maps t, a float or an
    array of shape (A,), to (n,) or (A, n). ``perturbation_bounds`` is
    optional: the declared bound on |d_i(t)|, which a settling bound needs
    the controller's ``d_bar`` to cover.
    """

    n: int
    drift: Callable[[np.ndarray], np.ndarray]
    gain: ConstantGain
    perturbation: Callable[[float], np.ndarray]
    perturbation_bounds: Optional[np.ndarray] = None
    name: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"system dimension must be >= 1, got {self.n}")
        if not isinstance(self.gain, ConstantGain) or self.gain.value.shape != (self.n,):
            raise ParameterError(
                f"gain must be a ConstantGain of shape ({self.n},), got {self.gain!r}"
            )
        if self.perturbation_bounds is not None:
            b = np.asarray(self.perturbation_bounds, dtype=float)
            if b.shape != (self.n,):
                raise ParameterError(
                    f"perturbation_bounds must have shape ({self.n},), got {b.shape}"
                )
            if np.any(b < 0.0):
                raise ParameterError("perturbation_bounds must be non-negative")
            object.__setattr__(self, "perturbation_bounds", b)


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


def _finite(value, name: str) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} must be finite, got {a}")
    return a


def constant_reference(value) -> ReferenceSignal:
    v = _finite(value, "reference value")
    zeros = np.zeros_like(v)
    return ReferenceSignal(value=lambda t: v, derivative=lambda t: zeros)


def sinusoid_reference(amplitude, frequency, phase=None) -> ReferenceSignal:
    """Per-channel x_d_i(t) = A_i sin(w_i t + phi_i)."""
    a = _finite(amplitude, "sinusoid amplitude")
    w = _finite(frequency, "sinusoid frequency")
    ph = np.zeros_like(a) if phase is None else _finite(phase, "sinusoid phase")
    if not (a.shape == w.shape == ph.shape):
        raise ParameterError("amplitude, frequency, and phase must share one shape")
    return ReferenceSignal(
        value=lambda t: a * np.sin(w * np.asarray(t)[..., None] + ph),
        derivative=lambda t: a * w * np.cos(w * np.asarray(t)[..., None] + ph),
    )


# --- benchmark: permanent magnet synchronous motor (3-state chaotic system) ---

# Gain set used throughout the benchmark literature for this plant.
PMSM_STANDARD_GAINS = {"alpha1": 6.0, "alpha2": 4.0, "p": 8, "q": 10, "d_bar": 1.0}

# Reference settling-time values quoted alongside this gain set. The z-entry
# is reproduced exactly by theorem1_z_bound; the s-entries are NOT produced by
# any of the bound formulas implemented here (a known discrepancy that
# cmd_bounds reports explicitly) and are kept only for comparison.
PMSM_QUOTED_BOUNDS = {
    "t_z_channel": 0.92593,
    "t_s_channel": 2.8284,
    "t_z": 0.92593,
    "t_s": 0.57364,
    "t_max": 3.7544,
}


def _pmsm_drift(x):
    x1, x2, x3 = x.T
    return np.array([2.5 * (x2 - x1), -x2 - x3 * x1 + 25.0 * x1, -x3 + x1 * x2]).T


def _pmsm_perturbation(t):
    return np.array(
        [np.sin(10.0 * t), np.cos(10.0 * t), np.cos(10.0 * t) * np.sin(4.0 * t)]
    ).T


def make_pmsm(perturbed: bool = True) -> SystemModel:
    """The 3-state motor benchmark with unit gains and bounded perturbations.

    ``perturbed=False`` drops the matched disturbances (bounds become zero),
    which is the configuration used to isolate the reaching law in tests.
    """
    zeros = np.zeros(3)
    return SystemModel(
        n=3,
        drift=_pmsm_drift,
        gain=ConstantGain(np.ones(3)),
        perturbation=_pmsm_perturbation if perturbed else lambda t: zeros,
        perturbation_bounds=np.full(3, 1.0 if perturbed else 0.0),
        name="pmsm" if perturbed else "pmsm-unperturbed",
    )


# --- benchmark: scalar fixed-time validation plant --------------------------


def make_lemma2_plant(alpha: float) -> SystemModel:
    """Scalar plant x' = -alpha*(sqrt(pi)/2)*exp(x^2)*sign(x), run open loop.

    With zero perturbation its settling time from x0 is erf(|x0|)/alpha
    (substitute y = erf(x), which turns the dynamics into y' = -alpha*sign(y)),
    which makes it the analytic oracle used by the validation suite.
    """
    if not 0.0 < alpha < np.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    coef = alpha * SQRT_PI_HALF

    def drift(x):
        return -coef * safe_exp(x * x) * np.sign(x)

    zeros = np.zeros(1)
    return SystemModel(
        n=1,
        drift=drift,
        gain=ConstantGain(np.ones(1)),
        perturbation=lambda t: zeros,
        perturbation_bounds=np.zeros(1),
        name="lemma2",
    )
