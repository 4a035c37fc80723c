"""Integral sliding surface s = z + alpha1 * integral(exp(z^2) |z|^(p/q) sign(z)).

This module holds the surface's integrand; its gains alpha1 and p/q are
fields of ``controller.ControllerParams``. The integral starts empty, so s
equals the tracking error at t=0 and the closed loop begins directly on the
surface s=z. The simulation engine accumulates the integral with
rectangle-rule increments of the plant's step: the control law cancels this
exact discrete term, and a higher-order quadrature here would inject an
artificial disturbance into the s-dynamics. The closed loop is therefore first
order in the step whatever the plant stepper, which is euler alone.
"""
from __future__ import annotations

import numpy as np

from .numerics import safe_exp

# bound once for the step loop
_abs, _sign = np.abs, np.sign


def integrand(z, exponent):
    """exp(z^2) * |z|^exponent * sign(z), elementwise over z, with sign(0) = 0.

    ``exponent`` comes from ControllerParams, which already holds it in
    [0, 1), so it is not checked here. The result is odd in z and increasing,
    which the backward-Euler root solve relies on.
    """
    a = _abs(z)
    a **= exponent
    a *= _sign(z)
    y = safe_exp(z * z)
    y *= a
    return y
