"""Closed-loop simulation: plant, sliding accumulator, and controller together.

The engine logs on a fixed macro grid (``StepConfig.step_size``) and, inside
each macro step, advances through as many scale-limited substeps as the state
requires. The exp(z^2)/exp(s^2) factors in the law make the far field
violently stiff: a step size that is stable inside the operating band
overflows double precision a few steps after starting from a large initial
condition. Each substep is therefore sized so that no channel's z or s moves
by more than ``GUARD_REL`` of its own magnitude (plus ``GUARD_ABS``); in the
operating band the allowance exceeds the macro step and the loop collapses to
a single plain step, bit-identical to an unguarded fixed-step loop. The guard
is purely state-driven and deterministic.

In euler mode the plant state and the sliding integral step together with
the same shared integrand evaluation the control law used, which keeps the
discrete surface dynamics an exact algebraic cancellation (s_{k+1} = s_k -
h*reach + h*d up to one rounding) — several tests pin that property. In rk4
mode the plant advances through the classical stages (controller re-evaluated
at stage states, sliding integral frozen at its step-start value) and the
integral still accumulates rectangle-rule style, while the guard falls back to
trial halving.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .controller import (
    BoundReport,
    LawArrays,
    _as_channel_list,
    bound_report,
    sign_or_layer,
)
from .errors import (
    ParameterError,
    PerturbationBoundError,
    SimulationDivergedError,
    SingularGainError,
    UnfitGPError,
)
from .numerics import StepConfig, safe_exp
from .sliding import integrand
from .system import ReferenceSignal, SystemModel, check_gain

CONTROLLER_MODES = ("known-model", "gp-based", "open-loop")

# Substep guard: per substep, |delta z_i| and |delta s_i| are each held below
# GUARD_REL * (|.| + GUARD_ABS). Inactive whenever the dynamics allow the full
# macro step (the entire operating band).
GUARD_REL = 0.5
GUARD_ABS = 1.0
MAX_SUBSTEPS = 100_000
MIN_RK4_FRACTION = 1e-12

DEFAULT_SETTLE_THRESHOLD = 1e-2


@dataclass(frozen=True)
class Scenario:
    """Everything one closed-loop run needs.

    ``params`` is a single ControllerParams shared across channels or a
    per-channel sequence; it may be None only in open-loop mode, in which case
    the s columns simply repeat z (no surface is defined without gains).
    """

    system: SystemModel
    reference: ReferenceSignal
    params: object
    x0: np.ndarray
    step: StepConfig
    mode: str = "known-model"
    gp_models: Optional[Sequence] = None
    settle_threshold: float = DEFAULT_SETTLE_THRESHOLD

    def __post_init__(self):
        if self.mode not in CONTROLLER_MODES:
            raise ParameterError(
                f"mode must be one of {CONTROLLER_MODES}, got {self.mode!r}"
            )
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if x0.shape != (self.system.n,):
            raise ParameterError(
                f"x0 must have shape ({self.system.n},), got {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise ParameterError(f"x0 must be finite, got {x0}")
        for name in ("value", "derivative"):
            shape = np.shape(getattr(self.reference, name)(0.0))
            if shape != (self.system.n,):
                raise ParameterError(
                    f"reference {name} must have shape ({self.system.n},), got {shape}"
                )
        if not self.settle_threshold > 0.0:
            raise ParameterError(
                f"settle_threshold must be positive, got {self.settle_threshold}"
            )
        if self.params is None and self.mode != "open-loop":
            raise ParameterError(f"mode {self.mode!r} requires controller params")
        if self.mode == "gp-based":
            if not self.gp_models:
                raise UnfitGPError("gp-based mode requires one fitted model per channel")
            if len(self.gp_models) != self.system.n:
                raise UnfitGPError(
                    f"need {self.system.n} channel models, got {len(self.gp_models)}"
                )
        object.__setattr__(self, "x0", x0)

    @property
    def channels(self):
        if self.params is None:
            return None
        return _as_channel_list(self.params, self.system.n)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled log of one run. Row k is the state at t = k*h, before
    the k-th step; the first row has s = z by construction."""

    t: np.ndarray
    x: np.ndarray
    x_d: np.ndarray
    z: np.ndarray
    s: np.ndarray
    u: np.ndarray
    d: np.ndarray
    f_hat: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def v_s(self) -> np.ndarray:
        """Per-channel surface Lyapunov samples V_s = s^2 / 2."""
        return 0.5 * self.s * self.s

    def column_names(self) -> list[str]:
        n = self.n
        names = ["t"]
        for prefix in ("x", "xd", "z", "s", "u", "d"):
            names += [f"{prefix}{i + 1}" for i in range(n)]
        if self.f_hat is not None:
            names += [f"fhat{i + 1}" for i in range(n)]
        return names

    def as_matrix(self) -> np.ndarray:
        cols = [self.t[:, None], self.x, self.x_d, self.z, self.s, self.u, self.d]
        if self.f_hat is not None:
            cols.append(self.f_hat)
        return np.hstack(cols)


def _drift_estimator(models):
    from .gp import DriftEstimator

    return DriftEstimator(models)


def simulate(scenario: Scenario) -> Trajectory:
    """Run the closed loop on the scenario's fixed grid and log every sample.

    Raises
    ------
    SimulationDivergedError
        Non-finite state/accumulator, or the substep guard could not make
        progress within its budget.
    SingularGainError, PerturbationBoundError, UnfitGPError
        As detected on the macro grid.
    """
    model = scenario.system
    n = model.n
    cfg = scenario.step
    h = cfg.step_size
    n_steps = cfg.n_steps
    rk4 = cfg.method == "rk4"

    ref_value = scenario.reference.value
    ref_deriv = scenario.reference.derivative
    drift = model.drift
    gain = model.gain
    pert = model.perturbation
    bound_tol = None
    if model.perturbation_bounds is not None:
        bound_tol = model.perturbation_bounds * (1.0 + 1e-12)

    channels = scenario.channels
    open_loop = scenario.mode == "open-loop"
    arrays = LawArrays(channels) if channels is not None else None
    estimator = _drift_estimator(scenario.gp_models) if scenario.mode == "gp-based" else None

    rows = n_steps + 1
    t_log = np.arange(rows) * h
    x_log = np.empty((rows, n))
    xd_log = np.empty((rows, n))
    z_log = np.empty((rows, n))
    s_log = np.empty((rows, n))
    u_log = np.empty((rows, n))
    d_log = np.empty((rows, n))
    fhat_log = np.empty((rows, n)) if estimator is not None else None

    x = scenario.x0.copy()
    integral = np.zeros(n)
    zeros = np.zeros(n)

    def eval_loop(x_cur, t_cur, integral_cur):
        """One full controller + dynamics evaluation at (x, t, I): the only
        place the control law is evaluated.

        Returns (z, s, u, d, f_used, dx, integ) with dx = f + g*u + d; integ
        is None when no surface is tracked (open loop without gains).
        """
        xd = ref_value(t_cur)
        z = x_cur - xd
        d = pert(t_cur)
        f = drift(x_cur)
        if arrays is None:
            return z, z, zeros, d, f, f + d, None
        integ = integrand(z, arrays.exponent)
        s = z + arrays.alpha1 * integral_cur
        if open_loop:
            return z, s, zeros, d, f, f + d, integ
        g = check_gain(gain(x_cur), x_cur, n)
        sgn = np.sign(s) if arrays.plain_sign else sign_or_layer(s, arrays.eps)
        reach = arrays.reach_gain * safe_exp(s * s) * sgn
        f_used = f if estimator is None else estimator(x_cur)
        u = -(f_used + arrays.alpha1 * integ - ref_deriv(t_cur) + reach) / g
        dx = f + g * u + d
        return z, s, u, d, f_used, dx, integ

    for k in range(rows):
        t = float(t_log[k])
        z, s, u, d, f_used, dx, integ = eval_loop(x, t, integral)

        if bound_tol is not None and not (np.abs(d) <= bound_tol).all():
            ch = int(np.argmax(np.abs(d) > bound_tol))
            raise PerturbationBoundError(
                f"|d_{ch + 1}({t:g})| = {abs(d[ch]):g} exceeds declared bound "
                f"{model.perturbation_bounds[ch]:g}",
                t=t,
                channel=ch,
            )

        x_log[k] = x
        xd_log[k] = ref_value(t)
        z_log[k] = z
        s_log[k] = s
        u_log[k] = u
        d_log[k] = d
        if fhat_log is not None:
            fhat_log[k] = f_used

        if k == n_steps:
            break

        if rk4:
            x, integral = _advance_rk4(x, integral, t, h, eval_loop)
        else:
            x, integral = _advance_euler(x, integral, t, h, z, s, dx, integ, eval_loop, arrays)
        if not np.isfinite(x).all():
            ch = int(np.argmin(np.isfinite(x)))
            raise SimulationDivergedError(
                f"state channel {ch + 1} non-finite after step at t = {t:g}",
                t=t,
                channel=ch,
            )

    return Trajectory(
        t=t_log, x=x_log, x_d=xd_log, z=z_log, s=s_log, u=u_log, d=d_log, f_hat=fhat_log
    )


def _guard_rate(z, s, dz, ds) -> float:
    """Fastest normalized shrink/growth rate across channels (1/seconds).

    The guard is inactive over a step h exactly when h * rate <= 1; otherwise
    1/rate is the largest admissible substep. Denominators are bounded away
    from zero by GUARD_ABS, so no special-casing is needed.
    """
    rz = (np.abs(dz) / (np.abs(z) + GUARD_ABS)).max()
    if s is z and ds is dz:
        return float(rz) / GUARD_REL  # no surface tracked: one ratio covers both
    rs =(np.abs(ds) / (np.abs(s) + GUARD_ABS)).max()
    return float(max(rz, rs)) / GUARD_REL


def _advance_euler(x, integral, t, h, z, s, dx, integ, eval_loop, arrays):
    """One macro step, split into guard-sized Euler substeps when necessary.

    ``integ`` is None (and ``arrays`` unused) when no surface is tracked.
    """
    remaining = h
    n_sub = 0
    while True:
        # dz/dt differs from dx/dt only by the (bounded) reference rate, which
        # is negligible whenever the guard can trigger, so dx stands in for
        # the z rate.
        ds = dx if integ is None else dx + arrays.alpha1 * integ
        rate = _guard_rate(z, s, dx, ds)
        if n_sub == 0 and h * rate <= 1.0:
            # Operating band: single plain step, identical to an unguarded loop.
            return x + h * dx, integral if integ is None else integral + h * integ
        if not np.isfinite(rate):
            ch = int(np.argmin(np.isfinite(ds)))
            raise SimulationDivergedError(
                f"non-finite dynamics rate in channel {ch + 1} during substepping "
                f"at t = {t:g}",
                t=t,
                channel=ch,
            )
        h_allow = 1.0 / rate if rate > 0.0 else remaining
        h_sub = remaining if h_allow >= remaining else h_allow
        x = x + h_sub * dx
        if integ is not None:
            integral = integral + h_sub * integ
        remaining -= h_sub
        if remaining <= 0.0:
            return x, integral
        n_sub += 1
        if n_sub > MAX_SUBSTEPS:
            raise SimulationDivergedError(
                f"substep guard exceeded {MAX_SUBSTEPS} substeps within the macro "
                f"step at t = {t:g}",
                t=t,
            )
        if not np.isfinite(x).all():
            ch = int(np.argmin(np.isfinite(x)))
            raise SimulationDivergedError(
                f"state channel {ch + 1} non-finite during substepping at t = {t:g}",
                t=t,
                channel=ch,
            )
        t_local = t + (h - remaining)
        z, s, _, _, _, dx, integ = eval_loop(x, t_local, integral)


def _advance_rk4(x, integral, t, h, eval_loop):
    """One macro step via classical rk4 with trial halving under the guard.

    Stage evaluations re-run the controller at the stage state and time with
    the sliding integral frozen at its substep-start value; the integral then
    accumulates rectangle-rule from the substep-start integrand.
    """
    remaining = h
    h_try = h
    n_sub = 0
    while remaining > 0.0:
        h_sub = remaining if h_try >= remaining else h_try
        z0, s0, _, _, _, k1, integ0 = eval_loop(x, t + (h - remaining), integral)
        t0 = t + (h - remaining)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, _, _, _, k2, _ = eval_loop(x + 0.5 * h_sub * k1, t0 + 0.5 * h_sub, integral)
            _, _, _, _, _, k3, _ = eval_loop(x + 0.5 * h_sub * k2, t0 + 0.5 * h_sub, integral)
            _, _, _, _, _, k4, _ = eval_loop(x + h_sub * k3, t0 + h_sub, integral)
            delta = (h_sub / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_new = x + delta
        ok = bool(np.all(np.isfinite(x_new)))
        if ok:
            z_new = x_new - (x - z0)  # same reference sample: z moves with x
            dz_move = np.abs(z_new - z0)
            ok = bool(np.all(dz_move <= GUARD_REL * (np.abs(z0) + GUARD_ABS) + 1e-12))
        if not ok:
            h_try = 0.5 * h_sub
            if h_try < h * MIN_RK4_FRACTION:
                raise SimulationDivergedError(
                    f"rk4 halving stalled below {MIN_RK4_FRACTION:g} of the step "
                    f"at t = {t:g}",
                    t=t,
                )
            n_sub += 1
            if n_sub > MAX_SUBSTEPS:
                raise SimulationDivergedError(
                    f"rk4 guard exceeded {MAX_SUBSTEPS} attempts within the macro "
                    f"step at t = {t:g}",
                    t=t,
                )
            continue
        x = x_new
        if integ0 is not None:
            integral = integral + h_sub * integ0
        remaining -= h_sub
        h_try = 2.0 * h_sub
        n_sub += 1
        if n_sub > MAX_SUBSTEPS:
            raise SimulationDivergedError(
                f"rk4 guard exceeded {MAX_SUBSTEPS} substeps within the macro step "
                f"at t = {t:g}",
                t=t,
            )
    return x, integral


# --- settling measurement ------------------------------------------------------


def measure_settling(traj: Trajectory, which: str, threshold: float) -> np.ndarray:
    """Earliest grid time per channel after which the signal stays < threshold.

    ``which`` selects the tracking error ("error") or the sliding variable
    ("sliding"). A channel that never stays below gets NaN. The "stays below
    for the remainder of the run" semantics are computed with a reversed
    running maximum, so the cost is one pass.
    """
    if which == "error":
        sig = np.abs(traj.z)
    elif which == "sliding":
        sig = np.abs(traj.s)
    else:
        raise ParameterError(f"which must be 'error' or 'sliding', got {which!r}")
    if not threshold > 0.0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    suffix_max = np.maximum.accumulate(sig[::-1], axis=0)[::-1]
    below = suffix_max < threshold
    first = np.argmax(below, axis=0)
    out = traj.t[first].astype(float)
    out[~below[-1]] = np.nan
    return out


@dataclass(frozen=True)
class RunSummary:
    """Settling measurements and bound checks for one run.

    ``chatter_amplitude`` is max |s| over the samples after every error
    channel has settled (NaN when the run never settles): once the error is
    inside its band the surface variable is pure chatter, so this is the
    realized chatter band half-width.
    """

    x0: tuple
    threshold: float
    settling_error: tuple
    settling_sliding: tuple
    bounds: Optional[BoundReport]
    bound_satisfied: Optional[tuple]
    max_abs_u: float
    chatter_amplitude: float

    @property
    def settled(self) -> bool:
        return bool(np.all(np.isfinite(self.settling_error)))

    @property
    def settling_time(self) -> float:
        """Slowest error channel (NaN when any channel never settles)."""
        arr = np.asarray(self.settling_error, dtype=float)
        return float(np.max(arr)) if np.all(np.isfinite(arr)) else float("nan")

    @property
    def all_bounds_satisfied(self) -> Optional[bool]:
        if self.bound_satisfied is None:
            return None
        return all(self.bound_satisfied)


def summarize_run(
    traj: Trajectory,
    scenario: Scenario,
    bounds: Optional[BoundReport] = None,
) -> RunSummary:
    """Measure both settling families and audit them against the bound report.

    ``bounds`` defaults to the known-model report of a known-model scenario's
    controller parameters. Other modes carry no bound unless one is passed:
    a gp-based bound depends on the GP error budget, which only the caller
    knows, so an unavailable one stays unavailable.
    """
    threshold = scenario.settle_threshold
    settle_err = measure_settling(traj, "error", threshold)
    settle_s = measure_settling(traj, "sliding", threshold)
    if bounds is None and scenario.mode == "known-model":
        bounds = bound_report(scenario.channels)
    flags = None
    if bounds is not None:
        flags = tuple(
            bool(np.isfinite(ti) and ti <= bounds.t_max) for ti in settle_err
        )
    t_star = np.max(settle_err) if np.all(np.isfinite(settle_err)) else np.nan
    if np.isfinite(t_star):
        tail = traj.s[traj.t >= t_star]
        chatter = float(np.max(np.abs(tail))) if tail.size else float("nan")
    else:
        chatter = float("nan")
    return RunSummary(
        x0=tuple(float(v) for v in traj.x[0]),
        threshold=threshold,
        settling_error=tuple(float(v) for v in settle_err),
        settling_sliding=tuple(float(v) for v in settle_s),
        bounds=bounds,
        bound_satisfied=flags,
        max_abs_u=float(np.max(np.abs(traj.u))),
        chatter_amplitude=chatter,
    )


# --- Monte-Carlo batches ---------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-run summaries (None where a run failed), failure records, aggregate."""

    x0s: np.ndarray
    summaries: tuple
    failures: tuple
    seed: int
    aggregate: dict


def run_monte_carlo(
    template: Scenario,
    ic_box,
    runs: int,
    seed: int,
    bounds: Optional[BoundReport] = None,
) -> MonteCarloResult:
    """Simulate ``runs`` seeded-uniform initial states drawn from ``ic_box``.

    ``ic_box`` is a per-dimension sequence of (low, high) pairs. Per-run
    errors become failure records; the batch always completes. The aggregate
    reports the worst settling time, the bound-satisfaction fraction, and
    chatter/input maxima over the successful runs.
    """
    if runs < 1:
        raise ParameterError(f"need runs >= 1, got {runs}")
    n = template.system.n
    box = np.asarray(ic_box, dtype=float)
    if box.shape != (n, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ParameterError(
            f"ic_box must be {n} ordered (low, high) pairs, got {ic_box!r}"
        )
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(box[:, 0], box[:, 1], size=(runs, n))
    summaries: list[Optional[RunSummary]] = []
    failures: list[dict] = []
    for i in range(runs):
        sc = dataclasses.replace(template, x0=x0s[i])
        try:
            traj = simulate(sc)
            summaries.append(summarize_run(traj, sc, bounds=bounds))
        except (
            SimulationDivergedError,
            SingularGainError,
            PerturbationBoundError,
        ) as err:
            summaries.append(None)
            failures.append(
                {
                    "run": i,
                    "x0": [float(v) for v in x0s[i]],
                    "error_type": type(err).__name__,
                    "message": str(err),
                }
            )
    good = [s for s in summaries if s is not None]
    settled = [s for s in good if s.settled]
    settle_times = [s.settling_time for s in settled]
    flagged = [s for s in good if s.bound_satisfied is not None]
    aggregate = {
        "runs": runs,
        "n_failed": len(failures),
        "n_settled": len(settled),
        "max_settling_error": max(settle_times) if settled else None,
        "fraction_settled": len(settled) / runs,
        "fraction_bound_satisfied": (
            sum(1 for s in flagged if s.all_bounds_satisfied) / len(flagged)
            if flagged
            else None
        ),
        "max_chatter_amplitude": (
            max(s.chatter_amplitude for s in settled) if settled else None
        ),
        "max_abs_u": max((s.max_abs_u for s in good), default=None),
    }
    return MonteCarloResult(
        x0s=x0s,
        summaries=tuple(summaries),
        failures=tuple(failures),
        seed=seed,
        aggregate=aggregate,
    )


# --- export ----------------------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path, config: Optional[dict] = None) -> None:
    """CSV with one row per sample, 17 significant digits, reproducible bytes.

    When ``config`` is given the full resolved configuration is embedded as a
    leading ``# config: {...}`` comment line (keys sorted), so the file alone
    reproduces the run.
    """
    path = Path(path)
    matrix = traj.as_matrix()
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True))
    lines.append(",".join(traj.column_names()))
    for row in matrix:
        lines.append(",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def _nan_to_none(value):
    if value is None:
        return None
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def summary_to_dict(summary: RunSummary) -> dict:
    out = {
        "x0": list(summary.x0),
        "threshold": summary.threshold,
        "settling_error": [_nan_to_none(v) for v in summary.settling_error],
        "settling_sliding": [_nan_to_none(v) for v in summary.settling_sliding],
        "settled": summary.settled,
        "settling_time": _nan_to_none(summary.settling_time),
        "max_abs_u": summary.max_abs_u,
        "chatter_amplitude": _nan_to_none(summary.chatter_amplitude),
        "bound_satisfied": (
            list(summary.bound_satisfied) if summary.bound_satisfied is not None else None
        ),
    }
    if summary.bounds is not None:
        out["bounds"] = bound_report_to_dict(summary.bounds)
    return out


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        "t_z_channels": list(report.t_z_channels),
        "t_s_channels": list(report.t_s_channels),
        "t_z": report.t_z,
        "t_s": report.t_s,
        "t_max": report.t_max,
        "mode": report.mode,
        "s_bound_mode": report.s_bound_mode,
    }


def write_summary_json(summary: RunSummary, path, config: Optional[dict] = None) -> None:
    """Summary JSON (sorted keys, no timestamps: byte-reproducible)."""
    doc = summary_to_dict(summary)
    if config is not None:
        doc["config"] = config
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def mc_result_to_dict(result: MonteCarloResult, config: Optional[dict] = None) -> dict:
    doc = {
        "seed": result.seed,
        "aggregate": {k: _nan_to_none(v) for k, v in result.aggregate.items()},
        "failures": list(result.failures),
        "runs": [
            summary_to_dict(s) if s is not None else None for s in result.summaries
        ],
    }
    if config is not None:
        doc["config"] = config
    return doc
