"""Controller gains and settling-time bounds.

``ControllerParams`` holds one channel's gains for the integral fixed-time law

    u = -(f_hat + alpha1*exp(z^2)*|z|^(p/q)*sign(z) - xd_dot
          + kappa*alpha2*exp(s^2)*sign(s)) / g,

which the simulation engine (``fxtsmc.sim``) evaluates; ``f_hat`` is the
model drift f (known-model mode) or the GP posterior mean (gp-based mode).
For the known-model law kappa = sqrt(pi)/2; the estimated-drift law omits
that factor by default (selectable per channel via
``include_sqrt_pi_factor``).

The bound calculators cover each closed-form settling-time estimate, with the
s-phase bound of the learned-model case available in two variants (see
``theorem2_s_bound``).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import Sequence

import numpy as np

from .errors import GainTooSmallError, ParameterError
from .sliding import SlidingParams

TWO_OVER_SQRT_PI = 2.0 / sqrt(pi)
SQRT_PI_HALF = sqrt(pi) / 2.0

S_BOUND_MODES = ("lemma3", "printed-t8")


@dataclass(frozen=True)
class ControllerParams:
    """One channel's gains.

    ``alpha2`` must exceed (2/sqrt(pi)) * d_bar — the margin that dominates
    the bounded perturbation in the reaching dynamics. The learned-model gain
    condition reach_gain > d_bar + delta_f_bar involves the model error and is
    checked where that bound is computed, not here.

    The law's reaching term is ``reach_gain * exp(s^2) * sign(s)`` with the
    true sign, which both settling theorems assume.
    """

    sliding: SlidingParams
    alpha2: float
    d_bar: float = 0.0
    include_sqrt_pi_factor: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.alpha2) and self.alpha2 > 0.0):
            raise ParameterError(f"alpha2 must be positive, got {self.alpha2}")
        if not (np.isfinite(self.d_bar) and self.d_bar >= 0.0):
            raise ParameterError(f"d_bar must be >= 0, got {self.d_bar}")
        if not self.alpha2 > TWO_OVER_SQRT_PI * self.d_bar:
            raise GainTooSmallError(
                f"need alpha2 > (2/sqrt(pi))*d_bar = {TWO_OVER_SQRT_PI * self.d_bar:.6g}, "
                f"got alpha2 = {self.alpha2}"
            )

    @property
    def reach_gain(self) -> float:
        """kappa * alpha2, with kappa = sqrt(pi)/2 where the factor is included."""
        return (SQRT_PI_HALF if self.include_sqrt_pi_factor else 1.0) * self.alpha2


def _as_channel_list(params, n: int) -> list[ControllerParams]:
    """Accept one ControllerParams (shared by all channels) or a length-n sequence."""
    if isinstance(params, ControllerParams):
        return [params] * n
    params = list(params)
    if len(params) != n:
        raise ParameterError(f"expected {n} channel parameter sets, got {len(params)}")
    return params


# --- settling-time bounds ----------------------------------------------------


def lemma2_bound(alpha: float, d_bar: float) -> float:
    """1/(alpha - (2/sqrt(pi)) d_bar): settling bound of the reaching dynamics."""
    if not d_bar >= 0.0:
        raise ParameterError(f"d_bar must be >= 0, got {d_bar}")
    margin = alpha - TWO_OVER_SQRT_PI * d_bar
    if not margin > 0.0:
        raise GainTooSmallError(
            f"need alpha > (2/sqrt(pi))*d_bar = {TWO_OVER_SQRT_PI * d_bar:.6g}, got alpha = {alpha}"
        )
    return 1.0 / margin


def theorem1_z_bound(alpha1: float, p: int, q: int) -> float:
    """(2/alpha1) / (1 - (p/q)^2): on-surface error settling bound."""
    if not alpha1 > 0.0:
        raise ParameterError(f"alpha1 must be positive, got {alpha1}")
    if q < 1 or p < 0 or p >= q or not p / q < 1.0:
        raise ParameterError(f"exponent p/q must lie in [0, 1), got {p}/{q}")
    r = p / q
    return (2.0 / alpha1) / (1.0 - r * r)


def lemma3_bound(a: float) -> float:
    """-(2*sqrt(2)+1)/(2A) for A < 0, from V' <= |z| A exp(z^2) with V = z^2/2."""
    if not a < 0.0:
        raise ParameterError(f"need A < 0, got A={a}")
    return -(2.0 * sqrt(2.0) + 1.0) / (2.0 * a)


def theorem2_s_bound(
    reach_gain: float, d_bar: float, delta_f_bar: float, mode: str = "lemma3"
) -> float:
    """s-phase settling bound under drift-estimate error |f - fhat| <= delta_f_bar
    for the reaching gain kappa * alpha2 the law applies.

    mode "lemma3" (default) applies lemma3_bound to A = -(reach_gain - d_bar -
    delta_f_bar), giving (2*sqrt(2)+1)/(2(reach_gain-d_bar-delta_f_bar)). mode
    "printed-t8" uses the commonly quoted constant 2*sqrt(2) in the numerator
    instead; both are exposed because the two disagree by a constant factor.
    """
    if mode not in S_BOUND_MODES:
        raise ParameterError(f"mode must be one of {S_BOUND_MODES}, got {mode!r}")
    if not delta_f_bar >= 0.0:
        raise ParameterError(f"delta_f_bar must be >= 0, got {delta_f_bar}")
    margin = reach_gain - d_bar - delta_f_bar
    if not margin > 0.0:
        raise GainTooSmallError(
            f"need reaching gain kappa*alpha2 > d_bar + delta_f_bar = "
            f"{d_bar + delta_f_bar:.6g}, got kappa*alpha2 = {reach_gain:.6g}"
        )
    if mode == "lemma3":
        return lemma3_bound(-margin)
    return 2.0 * sqrt(2.0) / (2.0 * margin)


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


def bound_report(
    params: Sequence[ControllerParams],
    delta_f_bars=None,
    s_bound_mode: str = "lemma3",
) -> BoundReport:
    """Settling bounds for a per-channel parameter sequence.

    With ``delta_f_bars`` omitted the known-model composition is used (s-phase
    from lemma2_bound); passing per-channel drift-error bounds switches the
    s-phase to theorem2_s_bound in the requested mode.
    """
    params = list(params)
    gp_mode = delta_f_bars is not None
    if gp_mode:
        delta_f_bars = np.broadcast_to(
            np.asarray(delta_f_bars, dtype=float), (len(params),)
        )
    t_z, t_s = [], []
    for i, cp in enumerate(params):
        try:
            t_z.append(theorem1_z_bound(cp.sliding.alpha1, cp.sliding.p, cp.sliding.q))
            if gp_mode:
                t_s.append(
                    theorem2_s_bound(
                        cp.reach_gain, cp.d_bar, float(delta_f_bars[i]), s_bound_mode
                    )
                )
            else:
                t_s.append(lemma2_bound(cp.alpha2, cp.d_bar))
        except GainTooSmallError as err:
            raise GainTooSmallError(f"channel {i + 1}: {err}", channel=i) from err
        except ParameterError as err:
            raise ParameterError(f"channel {i + 1}: {err}") from err
    return BoundReport(
        t_z_channels=tuple(t_z),
        t_s_channels=tuple(t_s),
        mode="gp-based" if gp_mode else "known-model",
        s_bound_mode=s_bound_mode if gp_mode else "lemma3",
    )
