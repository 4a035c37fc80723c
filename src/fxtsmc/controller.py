"""Controller gains and settling-time bounds.

``ControllerParams`` holds the gains of all n channels of the integral
fixed-time law, channel i of which is

    u_i = -(f_hat_i + alpha1_i*exp(z_i^2)*|z_i|^(p_i/q_i)*sign(z_i) - xd_dot_i
            + kappa_i*alpha2_i*exp(s_i^2)*sign(s_i)),

which the simulation engine (``fxtsmc.sim``) evaluates; ``f_hat`` is the
model drift f (known-model mode) or the GP posterior mean (gp-based mode).
The mode sets kappa: sqrt(pi)/2 in known-model mode (theorem 1), 1 in
gp-based mode (theorem 2).

Both settling theorems bound each channel on its own and take the slowest,
so ``bound_report`` evaluates each closed-form estimate as one expression
over the gain arrays, with the s-phase bound of the learned-model case
available in two variants. It returns the bound as one record, the
JSON-ready dict that the summaries hold and the ``bounds`` command prints.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import ConfigError, ParameterError

TWO_OVER_SQRT_PI = 2.0 / sqrt(pi)
SQRT_PI_HALF = sqrt(pi) / 2.0

# Theorem 2's s-phase bound is numerator / (2 * margin), with
# margin = kappa*alpha2 - d_bar - delta_f_bar: "lemma3" applies lemma 3
# (V' <= |z| A exp(z^2) with V = z^2/2 settles by -(2*sqrt(2)+1)/(2A), A < 0)
# to A = -margin; "printed-t8" uses the commonly quoted constant 2*sqrt(2).
# Both are exposed because the two disagree by a constant factor.
S_BOUND_NUMERATORS = {"lemma3": 2.0 * sqrt(2.0) + 1.0, "printed-t8": 2.0 * sqrt(2.0)}


@dataclass(frozen=True, init=False, eq=False)
class ControllerParams:
    """The gains of n channels, each a read-only float array of shape (n,).

    ``exponent`` is p/q in [0, 1); p = 0 (pure sign integrand) is allowed.
    ``reach_gain`` is kappa * alpha2, the reaching gain the law applies, with
    the true sign(s) that both settling theorems assume. The theorems' gain
    condition reach_gain > d_bar + delta_f_bar is a hypothesis of the bound,
    not of the law, and ``bound_decision`` checks it.
    """

    alpha1: np.ndarray
    exponent: np.ndarray
    alpha2: np.ndarray
    d_bar: np.ndarray
    reach_gain: np.ndarray

    def __init__(self, n, *, alpha1, alpha2, p, q, d_bar=0.0, mode="known-model"):
        """Each gain is one value, shared by the n channels, or a list of n,
        as the config's ``controller`` section gives it; the schema keeps
        them finite and in range, and p < q is checked here. ``mode`` sets
        kappa."""
        given = {"alpha1": alpha1, "alpha2": alpha2, "p": p, "q": q, "d_bar": d_bar}
        for name, value in given.items():
            if not isinstance(value, (list, tuple)):
                given[name] = [value] * n
            elif len(value) != n:
                raise ConfigError(f"controller.{name} needs 1 or {n} entries, got {len(value)}")
        p, q = ([int(v) for v in given[k]] for k in ("p", "q"))
        for i in range(n):
            # p < q first, in integers: p / q overflows for p beyond the float range
            if not (p[i] < q[i] and p[i] / q[i] < 1.0):
                raise ParameterError(
                    f"channel {i + 1}: exponent p/q must satisfy 0 <= p/q < 1, got {p[i]}/{q[i]}"
                )
        kappa = 1.0 if mode == "gp-based" else SQRT_PI_HALF
        given["exponent"] = [pv / qv for pv, qv in zip(p, q)]
        given["reach_gain"] = [kappa * float(a) for a in given["alpha2"]]
        for name in ("alpha1", "exponent", "alpha2", "d_bar", "reach_gain"):
            arr = np.array(given[name], dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


# --- settling-time bounds ----------------------------------------------------


def _positive_finite(name: str, values: np.ndarray) -> list:
    values = values.tolist()
    if not all(0.0 < v < np.inf for v in values):
        raise ParameterError(f"{name} entries must be positive and finite: {tuple(values)}")
    return values


def _t_z_channels(params: ControllerParams) -> list:
    # theorem 1, on the surface; callers ignore overflow, as an inf is refused
    t_z = (2.0 / params.alpha1) / (1.0 - params.exponent * params.exponent)
    return _positive_finite("T_z", t_z)


@np.errstate(over="ignore", divide="ignore")  # a bound beyond the floats is refused
def bound_report(
    params: ControllerParams, delta_f_bars=None, s_bound_mode: str = "lemma3"
) -> dict:
    """The bound record: the settling bounds of every channel, T_z =
    (2/alpha1) / (1 - (p/q)^2) (theorem 1, on the surface) and the s-phase
    bound, and the slowest channel's of each.

    With ``delta_f_bars`` omitted the known-model s-phase bound of lemma 2,
    1/(alpha2 - (2/sqrt(pi)) d_bar), is used. Passing the (n,) drift-error
    bounds |f - f_hat| <= delta_f_bar switches it to theorem 2's bound in
    ``s_bound_mode`` (see ``S_BOUND_NUMERATORS``), which needs
    reach_gain > d_bar + delta_f_bar on every channel.

    The record is the JSON-ready dict a summary file holds under ``bounds``:
    ``mode`` ("known-model" or "gp-based"), ``s_bound_mode`` (which a
    known-model record carries too, though it plays no part there), the
    per-channel lists ``t_z_channels`` and ``t_s_channels``, their maxima
    ``t_z`` and ``t_s``, and ``t_max = t_s + t_z``. A bound that is not
    positive and finite on every channel is refused, T_z first; so is T_s
    where theorem 2's margin is not positive.
    """
    t_z = _t_z_channels(params)
    if delta_f_bars is None:
        mode = "known-model"
        t_s = 1.0 / (params.alpha2 - TWO_OVER_SQRT_PI * params.d_bar)
    else:
        mode = "gp-based"
        margin = params.reach_gain - params.d_bar - delta_f_bars
        t_s = S_BOUND_NUMERATORS[s_bound_mode] / (2.0 * margin)
    t_s = _positive_finite("T_s", t_s)
    return {"mode": mode, "s_bound_mode": s_bound_mode, "t_z_channels": t_z,
            "t_s_channels": t_s, "t_z": max(t_z), "t_s": max(t_s), "t_max": max(t_s) + max(t_z)}


@np.errstate(over="ignore")  # an inf T_z is refused
def bound_decision(params: ControllerParams, d_bounds, audit=None):
    """(``bound_report`` record, None), or (None, note) where a hypothesis of
    the theorems fails. Both theorems need d_bar at least the plant's bound
    ``d_bounds`` on |d|, and one margin on every channel, reach_gain > d_bar
    + delta: theorem 1 (known-model) with delta = 0, which is lemma 2's
    alpha2 > (2/sqrt(pi)) d_bar, and theorem 2 (gp-based) with the (n,)
    delta_f_bar from ``audit()``. The audit is called after every other check
    and T_z's refusal; a T_s that is not positive and finite is refused after
    the margin, by ``bound_report``."""
    short = params.d_bar < d_bounds
    if short.any():
        i = short.argmax()
        why = f"d_bar = {params.d_bar[i]:g} is below the plant's perturbation bound {d_bounds[i]:g}"
    else:
        _t_z_channels(params)
        delta = np.zeros_like(params.d_bar) if audit is None else audit()
        short = ~(params.reach_gain - params.d_bar - delta > 0.0)
        if not short.any():
            return bound_report(params, None if audit is None else delta), None
        i = short.argmax()
        if audit is None:
            why = (f"need alpha2 > (2/sqrt(pi))*d_bar = {TWO_OVER_SQRT_PI * params.d_bar[i]:.6g}, "
                   f"got alpha2 = {params.alpha2[i]}")
        else:
            why = (f"need reaching gain kappa*alpha2 > d_bar + delta_f_bar = "
                   f"{params.d_bar[i] + delta[i]:.6g}, "
                   f"got kappa*alpha2 = {params.reach_gain[i]:.6g}")
    return None, f"settling bound unavailable: channel {i + 1}: {why}"
