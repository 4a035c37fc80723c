"""Per-layer tracing of one ``fxtsmc.cli.main`` call, from outside the package.

The wrappers replace the module attributes that the CLI and the engine look
up at call time, for the duration of one traced call, and restore them
afterwards; nothing under ``src/`` is edited. Spans are kept in memory as
``[name, start, end, parent]`` and written out by the caller when the run
ends. Counts are taken at the same boundaries.

Law evaluation (``controller``, ``sliding``, ``numerics``) runs inside
``sim.simulate`` and has no span of its own; it is part of ``sim.simulate.s``.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import time
from pathlib import Path

import numpy as np

from fxtsmc import cli, gp, sim
from fxtsmc.numerics import EXP_CLAMP

# Every per-layer metric this module derives, with its unit. A metric of a
# layer the workload never enters reads 0.
LAYER_UNITS = {
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.resolve_config.s": "s",
    "cli.build_scenario.s": "s",
    "gp.generate_training_data.s": "s",
    "gp.gp_fit.s": "s",
    "gp.gp_fit.calls": "count",
    "gp.drift_estimator.s": "s",
    "gp.drift_estimator.calls": "count",
    "gp.variance_many.s": "s",
    "gp.variance_many.states": "count",
    "system.drift.evals": "count",
    "sim.simulate.s": "s",
    "sim.simulate.calls": "count",
    "sim.simulate.steps": "count",
    "sim.simulate.us_per_step": "us",
    "sim.guard.evals_per_step": "ratio",
    "sim.run_monte_carlo.self_s": "s",
    "sim.summarize_run.s": "s",
    "sim.write_trajectory_csv.s": "s",
    "sim.write_trajectory_csv.bytes": "bytes",
    "sim.failed_runs": "count",
    "numerics.exp_clamp_rows": "count",
}


class Tracer:
    """Spans and counts of one traced ``cli.main`` call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._simulating = 0

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced names in for the duration of the block."""
        patches = {
            (cli, "resolve_config"): lambda f: self._wrap("cli.resolve_config", f),
            (cli, "build_scenario"): lambda f: self._wrap("cli.build_scenario", f),
            (cli, "build_system"): self._build_system,
            (cli, "generate_training_data"): lambda f: self._wrap("gp.generate_training_data", f),
            (cli, "gp_fit"): lambda f: self._wrap("gp.gp_fit", f),
            (cli, "variance_many"): self._variance_many,
            (cli, "run_monte_carlo"): lambda f: self._wrap("sim.run_monte_carlo", f),
            (cli, "simulate"): self._simulate,
            (cli, "summarize_run"): lambda f: self._wrap("sim.summarize_run", f),
            (cli, "write_trajectory_csv"): self._write_trajectory_csv,
            (sim, "simulate"): self._simulate,
            (sim, "summarize_run"): lambda f: self._wrap("sim.summarize_run", f),
            (gp, "DriftEstimator"): self._drift_estimator,
        }
        saved = {key: getattr(*key) for key in patches}
        try:
            for (module, attr), make in patches.items():
                setattr(module, attr, make(saved[(module, attr)]))
            yield self
        finally:
            for (module, attr), original in saved.items():
                setattr(module, attr, original)

    def _build_system(self, build_system):
        """Count plant drift evaluations made inside ``simulate`` spans only,
        so the dataset generation of a GP workload is not counted."""

        def traced(cfg):
            model = self.call("cli.build_system", build_system, cfg)
            drift = model.drift

            def counted_drift(x):
                if self._simulating:
                    self.counts["system.drift.evals"] += 1
                return drift(x)

            return dataclasses.replace(model, drift=counted_drift)

        return traced

    def _simulate(self, simulate):
        def traced(scenario):
            self._simulating += 1
            try:
                traj = self.call("sim.simulate", simulate, scenario)
            except Exception:
                self.counts["sim.failed_runs"] += 1
                raise
            finally:
                self._simulating -= 1
            self.counts["sim.simulate.steps"] += traj.t.shape[0]
            clamped = (traj.z * traj.z > EXP_CLAMP) | (traj.s * traj.s > EXP_CLAMP)
            self.counts["numerics.exp_clamp_rows"] += int(np.count_nonzero(clamped.any(axis=1)))
            return traj

        return traced

    def _variance_many(self, variance_many):
        def traced(model, states):
            self.counts["gp.variance_many.states"] += np.atleast_2d(states).shape[0]
            return self.call("gp.variance_many", variance_many, model, states)

        return traced

    def _write_trajectory_csv(self, write_trajectory_csv):
        def traced(traj, path, config=None):
            self.call("sim.write_trajectory_csv", write_trajectory_csv, traj, path, config=config)
            self.counts["sim.write_trajectory_csv.bytes"] += Path(path).stat().st_size

        return traced

    def _drift_estimator(self, estimator_class):
        tracer = self

        class TracedDriftEstimator(estimator_class):
            def __call__(self, x):
                return tracer.call("gp.drift_estimator", super().__call__, x)

        return TracedDriftEstimator

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this call; see ``LAYER_UNITS``."""
        total = collections.Counter()
        own = collections.Counter()
        calls = collections.Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, children):
            total[name] += end - start
            own[name] += end - start - inner
            calls[name] += 1
        counts = self.counts
        steps = counts["sim.simulate.steps"]
        return {
            "cli.main.s": total["cli.main"],
            "cli.main.self_s": own["cli.main"],
            "cli.resolve_config.s": total["cli.resolve_config"],
            "cli.build_scenario.s": total["cli.build_scenario"],
            "gp.generate_training_data.s": total["gp.generate_training_data"],
            "gp.gp_fit.s": total["gp.gp_fit"],
            "gp.gp_fit.calls": calls["gp.gp_fit"],
            "gp.drift_estimator.s": total["gp.drift_estimator"],
            "gp.drift_estimator.calls": calls["gp.drift_estimator"],
            "gp.variance_many.s": total["gp.variance_many"],
            "gp.variance_many.states": counts["gp.variance_many.states"],
            "system.drift.evals": counts["system.drift.evals"],
            "sim.simulate.s": total["sim.simulate"],
            "sim.simulate.calls": calls["sim.simulate"],
            "sim.simulate.steps": steps,
            "sim.simulate.us_per_step": 1e6 * total["sim.simulate"] / steps if steps else 0.0,
            "sim.guard.evals_per_step": counts["system.drift.evals"] / steps if steps else 0.0,
            "sim.run_monte_carlo.self_s": own["sim.run_monte_carlo"],
            "sim.summarize_run.s": total["sim.summarize_run"],
            "sim.write_trajectory_csv.s": total["sim.write_trajectory_csv"],
            "sim.write_trajectory_csv.bytes": counts["sim.write_trajectory_csv.bytes"],
            "sim.failed_runs": counts["sim.failed_runs"],
            "numerics.exp_clamp_rows": counts["numerics.exp_clamp_rows"],
        }
