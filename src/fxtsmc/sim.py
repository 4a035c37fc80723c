"""Closed-loop simulation: plant, sliding accumulator, and controller together.

The engine logs on a fixed macro grid (``StepConfig.step_size``) and, inside
each macro step, advances through as many scale-limited substeps as the state
requires. The exp(z^2)/exp(s^2) factors in the law make the far field
violently stiff: a step size that is stable inside the operating band
overflows double precision a few steps after starting from a large initial
condition. An explicit substep is therefore sized so that no channel's z or
s moves by more than ``GUARD_REL`` of its own magnitude (plus ``GUARD_ABS``);
in the operating band the allowance exceeds the macro step and the loop
collapses to a single plain step, bit-identical to an unguarded fixed-step
loop. The guard is purely state-driven and deterministic.

Far out, explicit substeps cannot make progress: with |s| >> 1 the reaching
term is clamped at kappa * alpha2 * e^50, z sits at a balance near |z| = 6.9
with a stiffness of about 1e23 per second, and explicit substeps last about
1e-22 s. So in closed loop a run whose explicit step cannot cover the rest
of its macro step inside the guard takes a backward-Euler substep of the
law's terms instead (Hairer & Wanner, Solving Ordinary Differential
Equations II, on stiff problems): the integrand and the reaching term are
taken at the end of the substep, while d, x_d' and gp-mode's f - f_hat stay
explicit. Its length is chosen, without trial steps, so that the implicit
move of every channel's s stays inside the guard; while the reaching term
is clamped, each such substep halves |s|, and a start at 1e5 drains in
about 14 substeps where explicit ones took tens of thousands.
Implicit discretization of sliding-mode laws is studied by Acary & Brogliato
(Systems & Control Letters, 2010); their implicit sign is not used here, the
sign stays explicit. Open-loop runs take explicit substeps only.

The plant state and the sliding integral step together, by h * dx and
h * integ, with the same shared integrand evaluation the control law used,
which keeps the discrete surface dynamics an exact algebraic cancellation
(s_{k+1} = s_k - h*reach + h*d up to one rounding) on plain steps and
explicit substeps — several tests pin that property. Since the law cancels
that rectangle-rule term exactly, the closed loop is first order in h
whatever the plant stepper, and a higher-order one buys no accuracy (the
README's closed-loop order table, ``benchmarks/closed_loop_order.py``): euler
is the one stepper, and a config's ``sim.method`` may only name it.

One step loop serves a single run and a Monte-Carlo batch alike: it steps a
state of shape (n,) or a block (R, n) of independent runs. Every operation
acts elementwise or per row, so each run of a block gets the numbers its own
single run gets, bit for bit. Substepping is per run: only the runs outside
the guard substep, together, each on its own remaining time and local time.
A failed run of a block is recorded and dropped, and the others carry on.
A batch buffers a chunk of grid rows and reduces it per run in one pass
(settling rows, max |u|, and the max |s| since the error last left its band,
the chatter amplitude), so it keeps no array that grows with rows times runs.
``summarize_run`` reduces a trajectory as one chunk of a one-run block, so a
batch's summaries and the single run's agree by construction. Both return a
run's summary as the record one builder makes (``_BatchStats.summary``): the
JSON-ready dict the summary files hold, with None for "not settled".
The law's per-channel constants take the shape of the block they act on.

A single run logs its rows on one anonymous shared mapping. Where the ``run``
command passes a ``numerics.CsvStream``, the log starts the stream's helper
process before the first step, and the helper formats each block of the
trajectory CSV on a second CPU as soon as the loop has filled it; the export
then copies the text.

The loop evaluates per step only what depends on the state. The reference,
its derivative and the perturbation depend on time alone: they are evaluated
once over the whole grid, each in one call with the grid as an array of
times; every guard substep calls them again, at its runs' local times (none
of the 36 block substeps of a 30-run mc-far batch leaves them all unmoved).

The loop also skips every operation whose result it knows bit for bit. A
reference that is constant (shape (n,) on the grid) and all +0.0 is an exact
identity, so ``x - x_d`` and ``- x_d'`` are not applied. The perturbation is
always added. Two checks that an earlier test implies are dropped: the NaN
test of s before a plain step runs in open loop only, since in closed loop a
NaN s makes dx NaN and fails the rates bound; and a plain step admitted by
that bound, which moves no state by more than GUARD_REL, is not checked for
a finite result. Substeps are.

A grid row acts on arrays of 3 to 12 elements, so what it costs is mostly
numpy's per-call overhead, not arithmetic. The loop therefore tests the rates
bound and takes the plain step itself, in place on its own copy of the
state, and calls ``_advance`` only where that bound fails. Each chain of the
law fills one new array in place, in the order of the expression it stands
for, and the constant operands and ufuncs of the law are bound once: numpy
converts a float operand on every call. None of this changes a bit.
"""
from __future__ import annotations

import errno
import json
import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import gp
from .controller import ControllerParams
from .errors import ParameterError, RunErrors, SimulationDivergedError
from .numerics import (
    CSV_BLOCK_ROWS, EXP_CLAMP, CsvStream, StepConfig, check_ic_box, check_rows, safe_exp,
    write_csv_rows,
)
from .sliding import integrand
from .system import ReferenceSignal, SystemModel

# Substep guard: per explicit substep, |delta z_i| and |delta s_i| are each
# held below GUARD_REL * (|.| + GUARD_ABS), and per backward-Euler substep
# |delta s_i| alone. Inactive whenever the dynamics allow the full macro step
# (the entire operating band).
GUARD_REL = 0.5
GUARD_ABS = 1.0
MAX_SUBSTEPS = 100_000
# Newton-bisection steps at most per root of a backward-Euler substep.
SOLVE_ITERATIONS = 100

DEFAULT_SETTLE_THRESHOLD = 1e-2

# A batch reduces its grid rows a chunk at a time: the z, s and u buffers of
# one chunk take about CHUNK_BYTES, and hold at most CHUNK_ROWS rows.
CHUNK_BYTES = 2**20
CHUNK_ROWS = 256


@dataclass(frozen=True)
class Scenario:
    """Everything one closed-loop run needs, as ``cli.build_scenario`` builds
    it from a checked config: one of the schema's modes, a finite x0, a
    positive settle threshold, and the gains and GP model the mode needs for
    n channels. The
    constructor checks only what a config can still get wrong: the shapes of
    x0 and of the reference.

    ``params`` holds the gains of the system's n channels; it may be None
    only in open-loop mode, in which case the s columns simply repeat z (no
    surface is defined without gains).

    ``csv_stream``, which only the ``run`` command sets, makes ``simulate``
    start its helper before the first step and note each block of rows as
    the run fills it, so the trajectory CSV is formatted while the run steps.
    """

    system: SystemModel
    reference: ReferenceSignal
    params: Optional[ControllerParams]
    x0: np.ndarray
    step: StepConfig
    mode: str = "known-model"
    gp_model: Optional[gp.GPModel] = None
    settle_threshold: float = DEFAULT_SETTLE_THRESHOLD
    csv_stream: Optional[CsvStream] = None

    def __post_init__(self):
        n = self.system.n
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if x0.shape != (n,):
            raise ParameterError(f"x0 must have shape ({n},), got {x0.shape}")
        for name in ("value", "derivative"):
            shape = np.shape(getattr(self.reference, name)(0.0))
            if shape != (n,):
                raise ParameterError(f"reference {name} must have shape ({n},), got {shape}")
        object.__setattr__(self, "x0", x0)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled log of one run. Row k is the state at t = k*h, before
    the k-th step; the first row has s = z by construction. ``x_d`` and ``d``
    are the time signals evaluated over the grid; one that does not depend
    on t is a read-only view repeating a single row. ``csv_stream`` is the
    scenario's, whose helper has formatted the rows for the CSV export."""

    t: np.ndarray
    x: np.ndarray
    x_d: np.ndarray
    z: np.ndarray
    s: np.ndarray
    u: np.ndarray
    d: np.ndarray
    f_hat: Optional[np.ndarray] = None
    csv_stream: Optional[CsvStream] = None

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def column_names(self) -> list[str]:
        n = self.n
        names = ["t"]
        for prefix in ("x", "xd", "z", "s", "u", "d"):
            names += [f"{prefix}{i + 1}" for i in range(n)]
        if self.f_hat is not None:
            names += [f"fhat{i + 1}" for i in range(n)]
        return names

    def columns(self) -> list[np.ndarray]:
        """The arrays of the CSV columns, in ``column_names`` order."""
        cols = [self.t, self.x, self.x_d, self.z, self.s, self.u, self.d]
        if self.f_hat is not None:
            cols.append(self.f_hat)
        return cols


def simulate(scenario: Scenario) -> Trajectory:
    """Run the closed loop on the scenario's fixed grid and log every sample.

    Raises
    ------
    SimulationDivergedError
        Non-finite state/accumulator, or the substep guard could not make
        progress within its budget.
    """
    log = _Log(scenario)
    _step_loop(scenario, scenario.x0, log)
    return log.traj


class _Log:
    """Sink of ``_step_loop`` for one run: every grid row of the state-dependent
    columns, for a Trajectory (the time signals come from the grid).

    The x, z, s, u and f_hat rows lie on one anonymous shared mapping, so the
    helper of the scenario's ``csv_stream``, forked in ``start`` before row 0,
    sees every row written later; the time signals exist by then, and it gets
    them through fork. Once per CSV_BLOCK_ROWS rows the log notes the rows
    that are final, at the cost of one integer test per row."""

    def __init__(self, scenario: Scenario):
        n = scenario.system.n
        width = (5 if scenario.mode == "gp-based" else 4) * n
        rows = check_rows(scenario.step.n_steps + 1, width, "a run's log")
        try:
            shared = mmap.mmap(-1, rows * width * 8)
        except OSError as err:  # where numpy's allocation raises MemoryError
            if err.errno != errno.ENOMEM:
                raise
            raise MemoryError(
                f"a run's log of {rows} rows by {width} columns: {err.strerror}"
            ) from None
        self.x, self.z, self.s, self.u, *f_hat = np.frombuffer(shared).reshape(-1, rows, n)
        self.f_hat = f_hat[0] if f_hat else None
        self.stream = scenario.csv_stream
        self.next_note = -1  # the row after which the next note is due

    def start(self, t, x_d, d):
        self.traj = Trajectory(t=t, x=self.x, x_d=x_d, z=self.z, s=self.s, u=self.u, d=d,
                               f_hat=self.f_hat, csv_stream=self.stream)
        if self.stream is not None and self.stream.start(self.traj.columns()):
            self.next_note = CSV_BLOCK_ROWS - 1

    def row(self, k, x, z, s, u, f_used):
        self.x[k] = x
        self.z[k] = z
        self.s[k] = s
        self.u[k] = u
        if self.f_hat is not None:
            self.f_hat[k] = f_used
        if k == self.next_note:
            self.stream.note(k + 1)
            self.next_note += CSV_BLOCK_ROWS

    @staticmethod
    def fail(errors):
        raise next(iter(errors.values())) from None


@np.errstate(all="ignore")
def _step_loop(scenario: Scenario, x: np.ndarray, sink):
    """The one step loop: one state ``x`` of shape (n,), or a block (R, n) of
    runs stepped together from their initial states.

    The grid and its (x_d, d) columns go to ``sink.start`` before the first
    step, and every grid row of the state-dependent signals to ``sink.row``. The
    errors of failed runs go to ``sink.fail`` as {block row: exception}: a
    single run's sink raises, a batch's sink records them and returns the mask
    of runs to keep. The step is then redone for the kept runs, which repeats
    their numbers bit for bit, since no run's numbers depend on another's.

    The signals that depend on time alone (reference, its derivative,
    perturbation) are evaluated once over the whole grid before the loop;
    only the local times of guard substeps call them again.

    numpy's floating-point warnings are off in the loop: every rate and state
    it makes is checked (the rates bound, the row rates, ``_finite``), and a
    non-finite one ends the run with its error. The loop steps its own copy
    of ``x``, in place where it takes the plain step, so a sink copies what
    it keeps of a row.
    """
    x = np.array(x, dtype=float)
    model = scenario.system
    n = model.n
    cfg = scenario.step
    h = cfg.step_size
    n_steps = cfg.n_steps
    t_grid = np.arange(check_rows(n_steps + 1, n, "a grid")) * h

    ref_value = scenario.reference.value
    ref_deriv = scenario.reference.derivative
    drift = model.drift
    pert = model.perturbation

    params = scenario.params
    open_loop = scenario.mode == "open-loop"
    estimator = gp.DriftEstimator(scenario.gp_model) if scenario.mode == "gp-based" else None

    # An operand that is an exact identity is held as None, and the operation
    # that would apply it is skipped: a reference signal that is constant and
    # all +0.0 (x - 0.0 is exact, also for -0.0 and NaN).
    xd_grid, xd_rows = _on_grid(ref_value, t_grid, n)
    d_grid = _on_grid(pert, t_grid, n)[0]
    sink.start(t_grid, xd_grid, d_grid)
    xdot_rows = None if open_loop else _on_grid(ref_deriv, t_grid, n)[1]

    integral = np.zeros_like(x)
    zeros = np.zeros(n)

    def signals_at(t_cur):
        """(x_d, d, x_d') at ``t_cur``, one local time per row; None for an
        identity."""
        return (
            None if xd_rows is None else ref_value(t_cur),
            pert(t_cur),
            None if xdot_rows is None else ref_deriv(t_cur),
        )

    # The law's constants in the shape of the states they act on: (n,) for
    # one state; for a block, leading rows of (R, n) copies, which serve every
    # smaller block too. An op between two arrays of one block shape costs
    # about half of one that broadcasts an (n,) operand over the block.
    law = None if params is None else (params.alpha1, params.exponent, params.reach_gain)
    law_rows = None if law is None else [np.tile(c, (x.size // n, 1)) for c in law]
    law_shape = None  # the state shape the constants below are taken for
    alpha1 = exponent = reach_gain = None
    # Bound once: the ufuncs the loop calls, the reduction that ndarray.max
    # reaches through numpy's Python layer, and the plain step's h as a 0-d
    # array, since numpy converts a float operand on every call.
    absolute, add, maximum, negative, sign = np.abs, np.add, np.maximum, np.negative, np.sign
    max_of = np.maximum.reduce
    h_step = np.array(h)

    def eval_loop(x_cur, signals, integral_cur):
        """One full controller + dynamics evaluation at (x, t, I): the only
        place the control law is evaluated. ``signals`` holds (x_d, d, x_d')
        at t, from ``signals_at`` or read from the grid, None for an identity.

        Returns (z, s, u, f_used, dx, integ, ds) with dx = f + u + d and
        ds = dx + alpha1 * integ, the rate of s; integ and ds are None when no
        surface is tracked (open loop without gains).
        """
        nonlocal law_shape, alpha1, exponent, reach_gain
        xd, d, xd_dot = signals
        z = x_cur if xd is None else x_cur - xd
        f = drift(x_cur)
        if law is None:
            return z, z, zeros, f, f + d, None, None
        if x_cur.shape != law_shape:
            law_shape = x_cur.shape
            alpha1, exponent, reach_gain = law if x_cur.ndim == 1 else (
                c[: len(x_cur)] for c in law_rows
            )
        # Each chain fills one new array in place, in the order and with the
        # operand order of the expression it stands for (which NaN a sum of
        # two NaNs keeps depends on it); ds holds alpha1 * integ until dx is
        # added.
        integ = integrand(z, exponent)
        s = alpha1 * integral_cur
        add(z, s, out=s)
        ds = alpha1 * integ
        if open_loop:
            dx = f + d
            add(dx, ds, out=ds)
            return z, s, zeros, f, dx, integ, ds
        reach = reach_of(s)
        f_used = f if estimator is None else estimator(x_cur)
        u = f_used + ds
        if xd_dot is not None:
            u -= xd_dot
        u += reach
        negative(u, out=u)
        dx = f + u
        dx += d
        add(dx, ds, out=ds)
        return z, s, u, f_used, dx, integ, ds

    # The law's reaching term and its backward-Euler substep act on the block
    # eval_loop evaluated last, whose shape the constants above were taken for.
    def reach_of(s):
        """kappa * alpha2 * exp(s^2) * sign(s), with the true sign the
        settling theorems assume."""
        reach = safe_exp(s * s)
        reach *= reach_gain
        reach *= sign(s)
        return reach

    def reach_and_slope(s):
        """``reach_of(s)`` and its derivative in s."""
        reach = reach_of(s)
        return reach, np.abs(reach) * _exp_sq_growth(s)

    def implicit_substep(x, z, s, ds, integral, remaining):
        """One backward-Euler substep per row of the law's terms, sized from
        the implicit move of s; returns (substep sizes, x, integral) after it.

        The rate c = ds + reach(s) = dx + alpha1 * integ(z) + reach(s) stays
        explicit: d, x_d' and gp-mode's f - f_hat. The substep of length H
        solves y = z + H * (c - alpha1 * integ(y) - reach(s')) with I' = I +
        H * integ(y) and s' = y + alpha1 * I', which splits into s' = s + H *
        (c - reach(s')) in s' alone, then y + alpha1 * H * integ(y) = s' -
        alpha1 * I; both sides increase in the unknown.
        The right side is formed as z + H * (c - reach(s')), equal in exact
        arithmetic: s' - alpha1 * I cancels two terms of about |s|, and far
        out that leaves nothing of z.
        H, at most ``remaining``, keeps the root s' of every channel within
        g = GUARD_REL * (|s| + GUARD_ABS) of s, since reach increases: s' >
        s + g would need c - reach(s + g) > g / H, and s' < s - g would need
        reach(s - g) - c > g / H.
        """
        c = ds + reach_of(s)
        g = GUARD_REL * (np.abs(s) + GUARD_ABS)
        rate = (np.maximum(c - reach_of(s + g), reach_of(s - g) - c) / g).max(axis=-1)
        h_sub = np.minimum(np.divide(1.0, rate, out=remaining.copy(), where=rate > 0.0), remaining)
        hs = h_sub[:, None]
        s_next = _solve_increasing(s + hs * c, hs, reach_and_slope, s)
        y = _solve_increasing(
            z + hs * (c - reach_of(s_next)), hs * alpha1,
            lambda v: _integrand_and_slope(v, exponent), z,
        )
        return h_sub, x + (y - z), integral + hs * integrand(y, exponent)

    implicit = None if open_loop else implicit_substep
    k = 0
    while True:
        try:
            signals = (
                None if xd_rows is None else xd_rows[k],
                d_grid[k],
                None if xdot_rows is None else xdot_rows[k],
            )
            z, s, u, f_used, dx, integ, ds = eval_loop(x, signals, integral)
            sink.row(k, x, z, s, u, f_used)
            if k == n_steps:
                return
            # The rates bound: each guard ratio |dz|/(|z| + GUARD_ABS) is at
            # most |dz| in floating point, its denominator being at least 1,
            # so rates that pass it pass the row-rate test of _advance. dz/dt
            # differs from dx/dt only by the (bounded) reference rate, which
            # is negligible whenever the guard can trigger, so dx stands in
            # for the z rate. A NaN rate fails the bound. In closed loop a NaN
            # s makes the reaching term, u and so dx NaN; in open loop u is
            # zero, and a NaN z (from a NaN reference) or integral makes s
            # NaN, and with it a ratio, yet can leave the rates finite, so s
            # is tested apart there.
            rates = absolute(dx) if ds is None else maximum(absolute(dx), absolute(ds))
            if h * (float(max_of(rates, None)) / GUARD_REL) <= 1.0 and not (
                open_loop and np.isnan(s).any()
            ):
                # Operating band: the plain step, identical to an unguarded
                # loop. |h * dx| <= GUARD_REL after the bound, so it leaves a
                # finite state finite.
                dx *= h_step
                x += dx
                if integ is not None:
                    integ *= h_step
                    integral += integ
            else:
                x, integral = _advance(
                    x, integral, float(t_grid[k]), h, z, s, dx, integ, ds, eval_loop,
                    signals_at, implicit,
                )
        except RunErrors as err:
            keep = sink.fail(err.errors)
            x, integral = x[keep], integral[keep]
            if not keep.any():
                return
            continue
        k += 1


def _on_grid(fn, t_grid, n):
    """``fn`` evaluated once over the whole time grid, as a (rows, n) array,
    twice: for the log, and for the loop to read per row, or None there when
    it is all +0.0 and does not depend on t. A result of shape (n,) does not
    depend on t: it becomes a read-only view repeating it on every row, which
    takes no memory per row."""
    values = np.asarray(fn(t_grid), dtype=float)
    zero = False
    if values.shape == (n,):
        zero = not (values.any() or np.signbit(values).any())
        values = np.broadcast_to(values, (t_grid.size, n))
    return values, None if zero else values


def _diverged(what: str, values, t: float, bad=None) -> RunErrors:
    """RunErrors with a SimulationDivergedError for each block row of
    ``values`` where ``bad`` holds (by default, where the row is not finite),
    naming the row's first non-finite channel, numbered from 1, in ``what``."""
    finite = np.isfinite(values.reshape(-1, values.shape[-1]))

    def error(r):
        ch = int(np.argmin(finite[r]))
        return SimulationDivergedError(f"{what.format(ch + 1)} at t = {t:g}")

    return RunErrors.where(~finite.all(axis=1) if bad is None else bad, error)


def _row_rates(z, s, dz, ds):
    """Each row's fastest normalized rate (1/seconds): the max over its
    channels of |dz|/(|z| + GUARD_ABS) and, unless ``ds`` is None (no
    surface), |ds|/(|s| + GUARD_ABS), over GUARD_REL. A NaN in either ratio
    makes it NaN. A substep of h is inside the guard exactly when
    h * rate <= 1; otherwise 1/rate is the largest admissible substep."""
    ratio = np.abs(dz) / (np.abs(z) + GUARD_ABS)
    if ds is not None:
        ratio = np.maximum(ratio, np.abs(ds) / (np.abs(s) + GUARD_ABS))
    return ratio.max(axis=-1) / GUARD_REL


def _advance(x, integral, t, h, z, s, dx, integ, ds, eval_loop, signals_at, implicit):
    """One macro step of every run, each split into guard-sized substeps where
    its own rates call for it. A step or explicit substep adds h_sub * dx.

    The loop takes the plain step itself where the rates bound admits it, and
    calls this only where that bound fails. ``integ`` and ``ds`` are None
    when no surface is tracked. Every run substeps, each with its own
    remaining time, substep size and local time, until each has covered h; a
    run inside the guard covers it in one substep of exactly h, its plain
    step, identical to an unguarded loop. ``implicit`` is the backward-Euler
    substep of closed loop, and None in open loop. In closed loop, a run
    whose explicit step cannot cover its remaining time inside the guard
    takes that substep, and a run whose explicit step can takes it as its
    last substep. Every substep evaluates the time signals at its runs' local
    times. A state that is not finite after the step raises.
    """
    shape, n = x.shape, x.shape[-1]
    x, integral, dx = x.reshape(-1, n), integral.reshape(-1, n), dx.reshape(-1, n)
    z, s = z.reshape(-1, n), s.reshape(-1, n)
    if integ is not None:
        integ, ds = integ.reshape(-1, n), ds.reshape(-1, n)
    rate = _row_rates(z, s, dx, ds)
    # a run inside the guard covers h in its first substep, its plain step,
    # even where 1/rate rounds below h
    rate = np.where(h * rate <= 1.0, 0.0, rate)
    x_out, i_out = np.empty_like(x), np.empty_like(integral)
    rows = np.arange(len(x))
    remaining = np.full(rows.size, h)
    n_sub = 0
    while True:
        finite = np.isfinite(rate)
        if not finite.all():
            # dx from a drift and perturbation that ignore the block is (1, n)
            raise _diverged(
                "non-finite dynamics rate in channel {} during substepping",
                np.broadcast_to(dx if ds is None else ds, x.shape), t, ~finite,
            ).at(rows)
        h_allow = np.divide(1.0, rate, out=remaining.copy(), where=rate > 0.0)
        h_sub = np.minimum(h_allow, remaining)
        stiff = None
        if implicit is not None and (h_allow < remaining).any():
            # a row whose explicit step cannot cover its remaining time takes
            # a backward-Euler substep; the others take their last substep
            stiff = h_allow < remaining
            h_imp, x_imp, i_imp = implicit(x, z, s, ds, integral, remaining)
            h_sub = np.where(stiff, h_imp, h_sub)
            stiff = stiff[:, None]
        hs = h_sub[:, None]
        x = x + hs * dx
        if integ is not None:
            integral = integral + hs * integ
        if stiff is not None:
            x, integral = np.where(stiff, x_imp, x), np.where(stiff, i_imp, integral)
        remaining = remaining - h_sub
        done = remaining <= 0.0
        if done.any():
            x_out[rows[done]] = x[done]
            i_out[rows[done]] = integral[done]
            if done.all():
                return _finite(x_out.reshape(shape), t), i_out.reshape(shape)
            left = ~done
            rows, x, integral, remaining = rows[left], x[left], integral[left], remaining[left]
        n_sub += 1
        if n_sub > MAX_SUBSTEPS:
            message = (
                f"substep guard exceeded {MAX_SUBSTEPS} substeps within the macro "
                f"step at t = {t:g}"
            )
            raise RunErrors({int(r): SimulationDivergedError(message) for r in rows})
        if not np.isfinite(x).all():
            raise _diverged("state channel {} non-finite during substepping", x, t).at(rows)
        try:
            z, s, _, _, dx, integ, ds = eval_loop(x, signals_at(t + (h - remaining)), integral)
        except RunErrors as err:
            raise err.at(rows) from None
        rate = _row_rates(z, s, dx, ds)


def _exp_sq_growth(v):
    """2|v| below the exp clamp and 0 where it holds safe_exp(v^2) constant,
    so that a term safe_exp(v^2) * a(v), with a(v) of the sign of v, has the
    derivative |term| * _exp_sq_growth(v) + safe_exp(v^2) * a'(v)."""
    return np.where(v * v < EXP_CLAMP, 2.0 * np.abs(v), 0.0)


def _integrand_and_slope(v, exponent):
    """``integrand(v, exponent)`` and its derivative in v (not finite at 0)."""
    value = integrand(v, exponent)
    return value, np.abs(value) * (_exp_sq_growth(v) + exponent / np.abs(v))


def _solve_increasing(b, scale, phi, start):
    """Per element, the root v of v + scale * phi(v) = b, where ``phi``
    returns the value and derivative of an increasing function with the sign
    of v and ``scale`` >= 0, so that the root lies between 0 and b; where phi
    jumps at 0 and leaves no root, a v next to 0 on the side of b.

    Safeguarded Newton from ``start`` (Press et al., Numerical Recipes,
    rtsafe): a Newton step that leaves the bracket, or shrinks more slowly
    than halving every second step, is replaced by bisection. An element is
    done once its Newton step is at most 4 eps |v| of a nonzero iterate v
    (it takes that step, as rtsafe does), once its bracket is within 4 eps
    of the bracket's end nearer 0, or once its residual is within eps |b|,
    which bounds the rounding of the residual near the root. It is then left
    as it is, so its root does not depend on the other elements. At most
    SOLVE_ITERATIONS steps are taken; a bracket that keeps its end at 0 (no
    root) takes them all. On the benchmark's far box (4 runs from +-1e5,
    seeds 7 and 11) a block's z-solve takes 9 to 12 phi evaluations on
    average, and from there and from +-1e15 every root is within 3 ulps of
    a float-bisection root.
    """
    eps = np.finfo(float).eps
    lo, hi = np.minimum(b, 0.0), np.maximum(b, 0.0)
    rounding = eps * np.abs(b)
    v = np.clip(start, lo, hi)
    step = step_before = hi - lo
    done = ~(hi - lo > rounding)  # b = 0, and b not finite
    for _ in range(SOLVE_ITERATIONS):
        if done.all():
            break
        value, slope = phi(v)
        residual = v + scale * value - b
        lo = np.where(residual < 0.0, v, lo)
        hi = np.where(residual > 0.0, v, hi)
        near = np.minimum(np.abs(lo), np.abs(hi))
        done_now = ~(np.abs(residual) > rounding) | ~(hi - lo > 4.0 * eps * near)
        newton = residual / (1.0 + scale * slope)
        # at 0 the slope is infinite and the step 0 whatever the residual
        converged = (np.abs(newton) <= 4.0 * eps * np.abs(v)) & (v != 0.0)
        v_newton = v - newton
        take = converged | (
            (v_newton > lo) & (v_newton < hi) & (2.0 * np.abs(newton) <= np.abs(step_before))
        )
        step_before, step = step, np.where(take, newton, 0.5 * (hi - lo))
        v_next = np.where(take, v_newton, 0.5 * (lo + hi))
        v = np.where(done | done_now, v, v_next)
        done = done | done_now | converged
    return v


def _finite(x, t):
    """``x``, or RunErrors for each row of it that is not finite after the
    step at ``t``."""
    if not np.isfinite(x).all():
        raise _diverged("state channel {} non-finite after step", x, t)
    return x


# --- run summaries ---------------------------------------------------------------


def summarize_run(
    traj: Trajectory,
    scenario: Scenario,
    bounds: Optional[dict] = None,
) -> dict:
    """Measure both settling families and audit them against ``bounds``.

    Returns the run's summary record, the JSON-ready dict a summary file
    holds (``_BatchStats.summary``). The trajectory goes through the batch
    reduction, as one chunk of a one-run block, so a batch's records and this
    one agree by construction. The record carries exactly the bound record
    passed (``controller.bound_report``'s), or none: whether a bound holds
    for a run (the gains, the GP error budget, the plant's perturbation
    bound) is the caller's decision.
    """
    stats = _BatchStats(scenario, 1, bounds)
    stats.reduce(0, traj.z[:, None], np.abs(traj.s)[:, None], traj.u[:, None])
    return stats.summary(0, traj.t, traj.x[0])


# --- Monte-Carlo batches ---------------------------------------------------------


def run_monte_carlo(
    template: Scenario,
    ic_box,
    runs: int,
    seed: int,
    bounds: Optional[dict] = None,
) -> tuple[np.ndarray, dict]:
    """Simulate ``runs`` seeded-uniform initial states drawn from ``ic_box``.

    ``ic_box`` is a per-dimension sequence of (low, high) pairs. All runs are
    stepped together as one (runs, n) block through the loop ``simulate``
    uses, and the grid rows are reduced a chunk at a time, so no trajectory
    is kept; ``summarize_run`` goes through the same reduction and record
    builder, so every record equals it on that run's ``simulate``.
    A run's error becomes a failure record with the type and message its own
    ``simulate`` raises; that run is dropped and the batch carries on.

    Returns ``(x0s, doc)``: the (runs, n) initial states, and the JSON-ready
    document a batch summary file holds, ``{seed, aggregate, failures, runs}``
    plus ``bounds``, the bound record (``controller.bound_report``'s) as it
    is passed, when one is. ``runs`` holds each run's summary
    record, None where the run failed. The aggregate, built from the records,
    reports the worst settling time, the fraction of runs within ``bounds``
    (None when no bound is passed), and chatter/input maxima over the
    successful runs.
    """
    n = template.system.n
    box = check_ic_box(ic_box, n)
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(box[:, 0], box[:, 1], size=(check_rows(runs, n, "a batch"), n))

    stats = _BatchStats(template, runs, bounds)
    _step_loop(template, x0s, stats)
    stats.flush()
    records = [None] * runs
    for j, i in enumerate(stats.runs):
        records[i] = stats.summary(j, stats.t, x0s[i])
    failures = [
        {
            "run": i,
            "x0": x0s[i].tolist(),
            "error_type": type(err).__name__,
            "message": str(err),
        }
        for i, err in sorted(stats.failures.items())
    ]
    good = [r for r in records if r is not None]
    settled = [r for r in good if r["settled"]]
    flagged = [r["bound_satisfied"] for r in good if r["bound_satisfied"] is not None]
    aggregate = {
        "runs": runs,
        "n_failed": len(failures),
        "n_settled": len(settled),
        "max_settling_error": _worst(r["settling_time"] for r in settled),
        "fraction_settled": len(settled) / runs,
        "fraction_bound_satisfied": (
            sum(all(b) for b in flagged) / len(flagged) if flagged else None
        ),
        "max_chatter_amplitude": _worst(r["chatter_amplitude"] for r in settled),
        "max_abs_u": _worst(r["max_abs_u"] for r in good),
    }
    doc = {"seed": seed, "aggregate": aggregate, "failures": failures, "runs": records}
    if stats.bounds is not None:
        doc["bounds"] = stats.bounds
    return x0s, doc


def _worst(values):
    """The largest of ``values``; None when there are none, or when one is
    None or the largest is not finite."""
    values = list(values)
    return None if not values or None in values else _finite_or_none(max(values))


def _finite_or_none(value: float):
    return value if np.isfinite(value) else None


class _BatchStats:
    """Sink of ``_step_loop`` for a batch: the grid rows reduced per run, a
    chunk of rows at a time. ``summarize_run`` reduces a trajectory here too.

    Each row's z, s and u are copied into a buffer of ``chunk`` rows, and a
    full buffer is reduced in one vectorized pass. Per (run, channel) the
    reduction keeps the last row where |z| (|s|) is not below the threshold,
    which gives the settling times; per run the max |u|, and the max |s|
    since the last row where some |z| channel was not below the threshold,
    which is the chatter amplitude from t* on. ``fail`` reduces the buffered
    rows before it records and drops failed runs; ``flush`` reduces them at
    the end. The loop sends rows in order, and a row it redoes after a
    failure comes after a flush, so a buffer holds consecutive rows.
    ``bounds``, the bound record of ``controller.bound_report`` or None, is
    stored as given, and every summary holds it.
    """

    def __init__(self, template: Scenario, runs: int, bounds: Optional[dict]):
        n = template.system.n
        self.threshold = template.settle_threshold
        self.bounds = bounds
        self.chunk = min(CHUNK_ROWS, max(1, CHUNK_BYTES // (24 * runs * n)))
        self.runs = np.arange(runs)
        self.failures = {}
        self.last_z = np.full((runs, n), -1)
        self.last_s = np.full((runs, n), -1)
        self.max_u = np.full(runs, -np.inf)
        self.tail_s = np.full(runs, -np.inf)
        self._buffer(runs, n)

    def _buffer(self, runs, n):
        self.z, self.s, self.u = np.empty((3, self.chunk, runs, n))
        self.k0 = self.m = 0

    def start(self, t, x_d, d):
        self.t = t

    def row(self, k, x, z, s, u, f_used):
        m = self.m
        if m == 0:
            self.k0 = k
        self.z[m], self.s[m], self.u[m] = z, s, u
        self.m = m + 1
        if self.m == self.chunk:
            self.flush()

    def flush(self):
        m, self.m = self.m, 0
        if m:
            self.reduce(self.k0, self.z[:m], np.abs(self.s[:m], out=self.s[:m]), self.u[:m])

    def reduce(self, k0, z, abs_s, u):
        """Fold consecutive rows, numbered from ``k0``, into the per-run
        results: stacks (rows, runs, n) of z, |s| and u."""
        # "not below" rather than "at or above", so that a NaN counts as
        # unsettled
        z_out = ~(np.abs(z) < self.threshold)
        self.last_z = _last_true(z_out, k0, self.last_z)
        self.last_s = _last_true(~(abs_s < self.threshold), k0, self.last_s)
        self.max_u = np.maximum(self.max_u, np.abs(u).max(axis=(0, 2)))
        out_row = _last_true(z_out.any(axis=2), 0, -1)
        tail = np.where(np.arange(len(z))[:, None] > out_row, abs_s.max(axis=2), -np.inf).max(axis=0)
        self.tail_s = np.where(out_row >= 0, tail, np.maximum(self.tail_s, tail))

    def summary(self, j, t, x0) -> dict:
        """The summary record of the run in row ``j`` of the results, on the
        grid ``t``, from ``x0``: the only place a run's record is built.

        It is the JSON-ready dict a summary file holds. None stands for "not
        settled": a channel's settling time, and ``settling_time`` (the
        slowest error channel) and ``chatter_amplitude`` of a run that has
        not settled in every error channel. The chatter amplitude is max |s|
        over the samples after every error channel has settled: once the
        error is inside its band the surface variable is pure chatter, so
        this is the realized chatter band half-width. ``bound_satisfied``
        (per channel) audits the bound record passed against its ``t_max``,
        and ``bounds`` is that record as it was passed; they are None and
        absent without one.
        """
        bounds = self.bounds
        settle_err = _settled_after(self.last_z[j], t)
        settled = bool(np.isfinite(settle_err).all())
        record = {
            "x0": x0.tolist(),
            "threshold": self.threshold,
            "settling_error": _settling_list(settle_err),
            "settling_sliding": _settling_list(_settled_after(self.last_s[j], t)),
            "settled": settled,
            "settling_time": float(settle_err.max()) if settled else None,
            "max_abs_u": float(self.max_u[j]),
            "chatter_amplitude": _finite_or_none(float(self.tail_s[j])) if settled else None,
            # a NaN time (not settled) is not within the bound
            "bound_satisfied": None if bounds is None else (settle_err <= bounds["t_max"]).tolist(),
        }
        if bounds is not None:
            record["bounds"] = bounds
        return record

    def fail(self, errors) -> np.ndarray:
        self.flush()
        keep = np.ones(self.runs.size, dtype=bool)
        keep[list(errors)] = False
        for r, err in errors.items():
            self.failures[int(self.runs[r])] = err
        self.runs, self.last_z, self.last_s = self.runs[keep], self.last_z[keep], self.last_s[keep]
        self.max_u, self.tail_s = self.max_u[keep], self.tail_s[keep]
        self._buffer(self.runs.size, self.last_z.shape[1])
        return keep


def _last_true(mask, first, none) -> np.ndarray:
    """Per column of ``mask``, a stack of rows numbered from ``first``, the
    number of its last True row, or ``none`` where it has none."""
    last = first + len(mask) - 1 - np.argmax(mask[::-1], axis=0)
    return np.where(mask.any(axis=0), last, none)


def _settled_after(last, t) -> np.ndarray:
    """Settling times from each channel's last unsettled row (-1 for none):
    the next grid time, or NaN when the last row itself is unsettled."""
    first = last + 1
    out = t[np.minimum(first, t.size - 1)]
    out[first == t.size] = np.nan
    return out


def _settling_list(times) -> list:
    """Settling times as a list, None where a channel has not settled."""
    return [None if np.isnan(v) else v for v in times.tolist()]


# --- export ----------------------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path, config: Optional[dict] = None) -> None:
    """CSV with one row per sample, 17 significant digits, reproducible bytes,
    written in blocks of rows (``numerics.write_csv_rows``). Where the run
    had a ``csv_stream`` with a helper, the helper formatted the blocks while
    the run stepped: this reaps it and copies its spool. Otherwise, as with
    one usable CPU, every block is formatted here; the bytes are the same.

    When ``config`` is given the full resolved configuration is embedded as a
    leading ``# config: {...}`` comment line (keys sorted), so the file alone
    reproduces the run.
    """
    with Path(path).open("w") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(traj.column_names()) + "\n")
        write_csv_rows(fh, traj.columns(), traj.csv_stream)


def write_summary_json(doc: dict, path, config: Optional[dict] = None) -> None:
    """A run's summary record or a batch's document as JSON, with ``config``
    embedded when given (sorted keys, no timestamps: byte-reproducible)."""
    if config is not None:
        doc = {**doc, "config": config}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
