"""Controller gains and settling-time bounds.

``ControllerParams`` holds the gains of all n channels of the integral
fixed-time law, channel i of which is

    u_i = -(f_hat_i + alpha1_i*exp(z_i^2)*|z_i|^(p_i/q_i)*sign(z_i) - xd_dot_i
            + kappa_i*alpha2_i*exp(s_i^2)*sign(s_i)),

which the simulation engine (``fxtsmc.sim``) evaluates; ``f_hat`` is the
model drift f (known-model mode) or the GP posterior mean (gp-based mode).
For the known-model law kappa = sqrt(pi)/2; the estimated-drift law omits
that factor by default (selectable per channel via
``include_sqrt_pi_factor``).

Both settling theorems bound each channel on its own and take the slowest,
so ``bound_report`` evaluates each closed-form estimate as one expression
over the gain arrays, with the s-phase bound of the learned-model case
available in two variants.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import ConfigError, GainTooSmallError, ParameterError

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
    the true sign(s) that both settling theorems assume. ``alpha2`` must
    exceed (2/sqrt(pi)) * d_bar, the margin that dominates the bounded
    perturbation in the reaching dynamics. The learned-model gain condition
    reach_gain > d_bar + delta_f_bar involves the model error and is checked
    where that bound is computed, not here.
    """

    alpha1: np.ndarray
    exponent: np.ndarray
    alpha2: np.ndarray
    d_bar: np.ndarray
    reach_gain: np.ndarray

    def __init__(self, n, *, alpha1, alpha2, p, q, d_bar=0.0, include_sqrt_pi_factor=True):
        """Each gain is one value, shared by the n channels, or a list of n,
        as the config's ``controller`` section gives it; the schema keeps them
        finite, and their signs and p/q are checked here."""
        given = {"alpha1": alpha1, "alpha2": alpha2, "p": p, "q": q, "d_bar": d_bar,
                 "include_sqrt_pi_factor": include_sqrt_pi_factor}
        for name, value in given.items():
            if not isinstance(value, (list, tuple)):
                given[name] = [value] * n
            elif len(value) != n:
                raise ConfigError(f"controller.{name} needs 1 or {n} entries, got {len(value)}")
        alpha1, alpha2, d_bar = (
            [float(v) for v in given[k]] for k in ("alpha1", "alpha2", "d_bar")
        )
        p, q = ([int(v) for v in given[k]] for k in ("p", "q"))
        try:
            for i in range(n):
                _check_channel(alpha1[i], p[i], q[i], alpha2[i], d_bar[i])
        except GainTooSmallError as err:
            raise GainTooSmallError(f"channel {i + 1}: {err}") from None
        except ParameterError as err:
            raise ParameterError(f"channel {i + 1}: {err}") from None
        kappa = [SQRT_PI_HALF if v else 1.0 for v in given["include_sqrt_pi_factor"]]
        for name, value in (
            ("alpha1", alpha1),
            ("exponent", [pv / qv for pv, qv in zip(p, q)]),
            ("alpha2", alpha2),
            ("d_bar", d_bar),
            ("reach_gain", [k * a for k, a in zip(kappa, alpha2)]),
        ):
            arr = np.array(value, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _check_channel(alpha1: float, p: int, q: int, alpha2: float, d_bar: float) -> None:
    if not alpha1 > 0.0:
        raise ParameterError(f"alpha1 must be positive, got {alpha1}")
    if p < 0 or q < 1:
        raise ParameterError(f"need p >= 0 and q >= 1, got p={p}, q={q}")
    # p < q first, in integers: p / q overflows for p beyond the float range
    if not (p < q and p / q < 1.0):
        raise ParameterError(f"exponent p/q must satisfy 0 <= p/q < 1, got {p}/{q}")
    if not alpha2 > 0.0:
        raise ParameterError(f"alpha2 must be positive, got {alpha2}")
    if not d_bar >= 0.0:
        raise ParameterError(f"d_bar must be >= 0, got {d_bar}")
    if not alpha2 > TWO_OVER_SQRT_PI * d_bar:
        raise GainTooSmallError(
            f"need alpha2 > (2/sqrt(pi))*d_bar = {TWO_OVER_SQRT_PI * d_bar:.6g}, "
            f"got alpha2 = {alpha2}"
        )


# --- settling-time bounds ----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Per-channel and aggregate settling-time bounds: T_max = T_s + T_z."""

    t_z_channels: tuple
    t_s_channels: tuple
    mode: str  # "known-model" or "gp-based"
    s_bound_mode: str = "lemma3"

    def __post_init__(self):
        for name, vals in (("T_z", self.t_z_channels), ("T_s", self.t_s_channels)):
            arr = np.asarray(vals, dtype=float)
            if not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
                raise ParameterError(f"{name} entries must be positive and finite: {vals}")

    @property
    def t_z(self) -> float:
        return max(self.t_z_channels)

    @property
    def t_s(self) -> float:
        return max(self.t_s_channels)

    @property
    def t_max(self) -> float:
        return self.t_s + self.t_z


@np.errstate(over="ignore")  # a bound too large for a float is refused by BoundReport
def bound_report(
    params: ControllerParams, delta_f_bars=None, s_bound_mode: str = "lemma3"
) -> BoundReport:
    """Settling bounds of every channel: T_z = (2/alpha1) / (1 - (p/q)^2)
    (theorem 1, on the surface) and the s-phase bound.

    With ``delta_f_bars`` omitted the known-model s-phase bound of lemma 2,
    1/(alpha2 - (2/sqrt(pi)) d_bar), is used. Passing the (n,) drift-error
    bounds |f - f_hat| <= delta_f_bar switches it to theorem 2's bound in
    ``s_bound_mode`` (see ``S_BOUND_NUMERATORS``), which needs
    reach_gain > d_bar + delta_f_bar on every channel.
    """
    t_z = (2.0 / params.alpha1) / (1.0 - params.exponent * params.exponent)
    if delta_f_bars is None:
        t_s = 1.0 / (params.alpha2 - TWO_OVER_SQRT_PI * params.d_bar)
        return BoundReport(tuple(t_z.tolist()), tuple(t_s.tolist()), "known-model")
    margin = params.reach_gain - params.d_bar - delta_f_bars
    short = np.flatnonzero(~(margin > 0.0))
    if short.size:
        i = int(short[0])
        raise GainTooSmallError(
            f"channel {i + 1}: need reaching gain kappa*alpha2 > d_bar + delta_f_bar = "
            f"{params.d_bar[i] + delta_f_bars[i]:.6g}, "
            f"got kappa*alpha2 = {params.reach_gain[i]:.6g}"
        )
    t_s = S_BOUND_NUMERATORS[s_bound_mode] / (2.0 * margin)
    return BoundReport(tuple(t_z.tolist()), tuple(t_s.tolist()), "gp-based", s_bound_mode)
