"""Closed-loop simulation engine: fixed points, oracles, batches, export."""

import dataclasses
import functools
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_integrator_plant, standard_channels
from fxtsmc.errors import ParameterError, SimulationDivergedError, UnfitGPError
from fxtsmc import sim
from fxtsmc.controller import BoundReport, bound_report
from fxtsmc.gp import KernelConfig, generate_training_data, gp_fit
from fxtsmc.numerics import CSV_BLOCK_ROWS, StepConfig
from fxtsmc.sim import (
    Scenario,
    Trajectory,
    measure_settling,
    mc_result_to_dict,
    run_monte_carlo,
    simulate,
    summarize_run,
    summary_to_dict,
    write_summary_json,
    write_trajectory_csv,
)
from fxtsmc.system import (
    ConstantGain,
    ReferenceSignal,
    SystemModel,
    constant_reference,
    make_lemma2_plant,
    make_pmsm,
    sinusoid_reference,
    zero_reference,
)

ERF_1 = 0.8427007929497149


def pmsm_scenario(x0=(1.0, 1.0, 1.0), step_size=1e-4, t_end=1.0, **kwargs):
    return Scenario(
        system=make_pmsm(),
        reference=zero_reference(3),
        params=standard_channels(),
        x0=np.asarray(x0, dtype=float),
        step=StepConfig(step_size=step_size, t_end=t_end),
        **kwargs,
    )


# --- simulate: exact fixed point --------------------------------------------------


def test_exact_fixed_point_at_reference():
    # Starting on a constant reference with no drift and no perturbation, the
    # discrete loop must reproduce the reference bitwise: sign(0) = 0 makes the
    # reaching term vanish and every other control term is exactly zero.
    scenario = Scenario(
        system=make_integrator_plant(1),
        reference=constant_reference([0.7]),
        params=standard_channels(1),
        x0=np.array([0.7]),
        step=StepConfig(step_size=1e-3, t_end=0.1),
    )
    traj = simulate(scenario)
    assert np.all(traj.x == 0.7)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.z == 0.0)
    assert np.all(traj.s == 0.0)


# --- simulate: analytic settling oracle --------------------------------------------


def test_lemma2_plant_settles_at_erf():
    # The scalar plant xdot = -a*sign(x)*exp(-x^2) has the closed-form settling
    # time erf(|x0|)/a, which pins the whole logging + measurement chain.
    scenario = Scenario(
        system=make_lemma2_plant(1.0),
        reference=zero_reference(1),
        params=None,
        x0=np.array([1.0]),
        step=StepConfig(step_size=1e-5, t_end=1.2),
        mode="open-loop",
    )
    traj = simulate(scenario)
    settled = measure_settling(traj, "error", 1e-3)
    assert settled[0] == pytest.approx(ERF_1, rel=0.02)


@pytest.mark.parametrize("x0", [0.25, 0.5, 2.0])
def test_lemma2_plant_oracle_other_starts(x0):
    scenario = Scenario(
        system=make_lemma2_plant(1.0),
        reference=zero_reference(1),
        params=None,
        x0=np.array([x0]),
        step=StepConfig(step_size=1e-5, t_end=1.2),
        mode="open-loop",
    )
    settled = measure_settling(simulate(scenario), "error", 1e-3)
    assert settled[0] == pytest.approx(math.erf(x0), rel=0.02)


# --- simulate: motor benchmark -----------------------------------------------------


def test_pmsm_settles_inside_benchmark_window():
    traj = simulate(pmsm_scenario(t_end=4.0))
    late = traj.t >= 3.7544
    assert late.any()
    assert np.all(np.abs(traj.z[late]) < 0.02)


def test_initial_sample_invariants():
    traj = simulate(pmsm_scenario(step_size=1e-3, t_end=0.05))
    assert traj.t[0] == 0.0
    assert np.array_equal(traj.x[0], [1.0, 1.0, 1.0])
    assert np.array_equal(traj.s[0], traj.z[0])
    assert np.all(np.diff(traj.t) > 0)
    assert all(np.isfinite(col).all() for col in traj.columns())


def test_trajectory_shapes_and_vs():
    scenario = pmsm_scenario(step_size=1e-3, t_end=0.05)
    traj = simulate(scenario)
    rows = scenario.step.n_steps + 1
    assert traj.t.shape == (rows,)
    assert traj.x.shape == (rows, 3)
    assert traj.f_hat is None
    assert np.array_equal(traj.v_s, 0.5 * traj.s * traj.s)


def test_simulate_is_deterministic():
    scenario = pmsm_scenario(step_size=1e-3, t_end=0.2)
    a = simulate(scenario)
    b = simulate(scenario)
    for field in ("t", "x", "x_d", "z", "s", "u", "d"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_step_halving_moves_settling_less_than_five_percent():
    coarse = simulate(pmsm_scenario(step_size=1e-4, t_end=1.0))
    fine = simulate(pmsm_scenario(step_size=5e-5, t_end=1.0))
    t_coarse = measure_settling(coarse, "error", 0.02)
    t_fine = measure_settling(fine, "error", 0.02)
    assert np.isfinite(t_coarse).all() and np.isfinite(t_fine).all()
    assert np.max(t_coarse) == pytest.approx(np.max(t_fine), rel=0.05)


def test_divergence_reports_time_and_channel():
    # An unstable plant with no control authority blows past float range.
    unstable = SystemModel(
        n=1,
        drift=lambda x: 10.0 * x * np.abs(x),
        gain=ConstantGain(np.ones(1)),
        perturbation=lambda t: np.zeros(1),
        perturbation_bounds=None,
        name="blowup",
    )
    scenario = Scenario(
        system=unstable,
        reference=zero_reference(1),
        params=None,
        x0=np.array([5.0]),
        step=StepConfig(step_size=0.5, t_end=50.0),
        mode="open-loop",
    )
    with np.errstate(over="ignore"), pytest.raises(SimulationDivergedError) as excinfo:
        simulate(scenario)
    assert "t = " in str(excinfo.value)


def test_open_loop_never_evaluates_the_gain():
    scaled = dataclasses.replace(make_integrator_plant(2), gain=ConstantGain([2.0, -3.0]))
    for params in (None, standard_channels(2)):
        traj = simulate(Scenario(
            system=scaled,
            reference=zero_reference(2),
            params=params,
            x0=np.array([0.5, -0.5]),
            step=StepConfig(step_size=1e-3, t_end=0.01),
            mode="open-loop",
        ))
        assert np.all(traj.u == 0.0)
        assert np.all(traj.x == [0.5, -0.5])


def test_gain_of_wrong_shape_is_a_parameter_error():
    # a plant refuses a gain of the wrong length before any run is built
    with pytest.raises(ParameterError, match=r"^gain must be a ConstantGain of shape \(2,\)"):
        dataclasses.replace(make_integrator_plant(2), gain=ConstantGain(np.ones(3)))

# --- scenario validation -----------------------------------------------------------


def test_closed_loop_requires_params():
    with pytest.raises(ParameterError, match="requires controller params"):
        Scenario(
            system=make_pmsm(),
            reference=zero_reference(3),
            params=None,
            x0=np.zeros(3),
            step=StepConfig(step_size=1e-3, t_end=0.01),
        )


def test_gp_mode_requires_models():
    with pytest.raises(UnfitGPError):
        Scenario(
            system=make_pmsm(),
            reference=zero_reference(3),
            params=standard_channels(),
            x0=np.zeros(3),
            step=StepConfig(step_size=1e-3, t_end=0.01),
            mode="gp-based",
        )


def test_gp_mode_requires_one_model_per_channel():
    kernel = KernelConfig(family="exponential", length_scale=1.0)
    datasets = generate_training_data(
        make_pmsm(), n_samples=5, region=[(-1, 1)] * 3, sigma_f=0.0, seed=3
    )
    models = [gp_fit(datasets[0], kernel)]
    with pytest.raises(UnfitGPError, match="3"):
        Scenario(
            system=make_pmsm(),
            reference=zero_reference(3),
            params=standard_channels(),
            x0=np.zeros(3),
            step=StepConfig(step_size=1e-3, t_end=0.01),
            mode="gp-based",
            gp_models=models,
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "sliding"},
        {"settle_threshold": 0.0},
        {"settle_threshold": -1.0},
        {"x0": np.zeros(2)},
        {"x0": np.array([np.nan, 0.0, 0.0])},
        {"settle_threshold": np.inf},
    ],
)
def test_scenario_rejects_bad_fields(kwargs):
    base = dict(
        system=make_pmsm(),
        reference=zero_reference(3),
        params=standard_channels(),
        x0=np.zeros(3),
        step=StepConfig(step_size=1e-3, t_end=0.01),
    )
    base.update(kwargs)
    with pytest.raises(ParameterError):
        Scenario(**base)


# --- measure_settling --------------------------------------------------------------


def hand_trajectory(t, signal):
    """Single-channel trajectory whose z and s both equal ``signal``."""
    t = np.asarray(t, dtype=float)
    col = np.asarray(signal, dtype=float)[:, None]
    zeros = np.zeros_like(col)
    return Trajectory(t=t, x=col, x_d=zeros, z=col, s=col, u=zeros, d=zeros)


def test_settling_of_zero_signal_is_zero():
    t = np.linspace(0.0, 1.0, 101)
    traj = hand_trajectory(t, np.zeros_like(t))
    assert measure_settling(traj, "error", 0.1)[0] == 0.0


def test_settling_of_linear_decay():
    t = np.arange(0.0, 2.0 + 1e-12, 0.01)
    traj = hand_trajectory(t, np.maximum(0.0, 1.0 - t))
    settled = measure_settling(traj, "error", 0.1)
    assert abs(settled[0] - 0.9) <= 0.01 + 1e-12


def test_settling_never_reached_is_nan():
    t = np.linspace(0.0, 1.0, 11)
    traj = hand_trajectory(t, np.ones_like(t))
    assert np.isnan(measure_settling(traj, "error", 0.5)[0])


def test_settling_ignores_transient_dips():
    # Dips below the threshold that do not persist must not count.
    t = np.linspace(0.0, 1.0, 11)
    signal = np.ones_like(t)
    signal[3] = 0.0
    signal[8:] = 0.0
    traj = hand_trajectory(t, signal)
    assert measure_settling(traj, "error", 0.5)[0] == pytest.approx(t[8])


def test_settling_sliding_selects_s_column():
    t = np.linspace(0.0, 1.0, 11)
    col = np.zeros((11, 1))
    s = np.ones((11, 1))
    s[5:] = 0.0
    traj = Trajectory(t=t, x=col, x_d=col, z=col, s=s, u=col, d=col)
    assert measure_settling(traj, "error", 0.5)[0] == 0.0
    assert measure_settling(traj, "sliding", 0.5)[0] == pytest.approx(t[5])


@pytest.mark.parametrize("which,threshold", [("both", 0.1), ("error", 0.0), ("error", -1.0)])
def test_settling_rejects_bad_arguments(which, threshold):
    t = np.linspace(0.0, 1.0, 11)
    traj = hand_trajectory(t, np.zeros_like(t))
    with pytest.raises(ParameterError):
        measure_settling(traj, which, threshold)


# --- summaries ---------------------------------------------------------------------


def test_summarize_run_fields():
    scenario = pmsm_scenario(t_end=1.0, settle_threshold=0.02)
    traj = simulate(scenario)
    summary = summarize_run(traj, scenario, bounds=bound_report(scenario.channels))
    assert summary.settled
    assert summary.settling_time == pytest.approx(np.max(summary.settling_error))
    assert summary.bounds is not None
    assert summary.bounds.t_max == pytest.approx(1.2741613156896068)
    assert summary.bound_satisfied == (True, True, True)
    assert summary.all_bounds_satisfied
    assert summary.max_abs_u > 0.0
    assert 0.0 <= summary.chatter_amplitude < 0.05


def test_summary_round_trips_through_json(tmp_path):
    scenario = pmsm_scenario(step_size=1e-3, t_end=0.02)
    summary = summarize_run(simulate(scenario), scenario, bounds=bound_report(scenario.channels))
    path = tmp_path / "summary.json"
    write_summary_json(summary, path, config={"b": 1, "a": 2})
    doc = json.loads(path.read_text())
    assert doc["config"] == {"a": 2, "b": 1}
    assert doc["x0"] == [1.0, 1.0, 1.0]
    # t_end is far too short to settle: NaNs must serialize as null.
    assert doc["settled"] is False
    assert doc["settling_time"] is None
    assert doc["bounds"]["t_max"] == pytest.approx(1.2741613156896068)


def oracle_settling(t, sig, threshold):
    """Per channel, t[k] for the least k with every |sig[k:]| < threshold (a
    NaN sample is not below it), or NaN when there is no such k."""
    out = []
    for column in sig.T:
        ks = [k for k in range(len(t)) if all(abs(v) < threshold for v in column[k:])]
        out.append(t[ks[0]] if ks else math.nan)
    return np.array(out)


def random_signal(rng, rows, n, threshold):
    """Values near the threshold: above it before a random row per channel and
    below it after, with some samples exactly at it and some NaN."""
    k_in = rng.integers(0, rows + 1, size=n)
    size = np.where(np.arange(rows)[:, None] < k_in, rng.uniform(0.5, 1.5, (rows, n)),
                    rng.uniform(0.5, 1.0, (rows, n)))
    values = threshold * size * rng.choice([-1.0, 1.0], (rows, n))
    values[rng.random((rows, n)) < 0.05] = threshold
    values[rng.random((rows, n)) < 0.03] = math.nan
    return values


def test_summary_matches_a_direct_oracle_on_random_trajectories():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n, rows = int(rng.integers(1, 4)), int(rng.integers(1, 41))
        threshold = float(rng.choice([1e-2, 0.5, 3.0]))
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, rows - 1))])
        z, s = random_signal(rng, rows, n, threshold), random_signal(rng, rows, n, threshold)
        u = rng.normal(size=(rows, n))
        u[rng.random((rows, n)) < 0.02] = math.nan
        traj = Trajectory(t=t, x=z + 1.0, x_d=np.zeros((rows, n)), z=z, s=s, u=u,
                          d=np.zeros((rows, n)))
        scenario = Scenario(
            system=make_integrator_plant(n),
            reference=zero_reference(n),
            params=standard_channels(n),
            x0=np.zeros(n),
            step=StepConfig(step_size=0.1, t_end=1.0),
            settle_threshold=threshold,
        )
        bounds = BoundReport(t_z_channels=(0.5 * t[-1] + 0.01,) * n,
                             t_s_channels=(0.01,) * n, mode="known-model")

        settle_z = oracle_settling(t, z, threshold)
        settle_s = oracle_settling(t, s, threshold)
        np.testing.assert_array_equal(measure_settling(traj, "error", threshold), settle_z)
        np.testing.assert_array_equal(measure_settling(traj, "sliding", threshold), settle_s)

        summary = summarize_run(traj, scenario, bounds=bounds)
        np.testing.assert_array_equal(summary.x0, z[0] + 1.0)
        assert summary.threshold == threshold
        np.testing.assert_array_equal(summary.settling_error, settle_z)
        np.testing.assert_array_equal(summary.settling_sliding, settle_s)
        assert summary.bound_satisfied == tuple(
            bool(ts <= bounds.t_max) for ts in settle_z  # NaN <= t_max is False
        )
        np.testing.assert_array_equal(summary.max_abs_u, np.max(np.abs(u)))
        if np.isnan(settle_z).any():
            assert math.isnan(summary.chatter_amplitude)
        else:
            k_star = int(np.flatnonzero(t == settle_z.max())[0])
            np.testing.assert_array_equal(
                summary.chatter_amplitude, np.max(np.abs(s[k_star:]))
            )


# --- monte carlo -------------------------------------------------------------------


def test_monte_carlo_single_run_reduces_to_simulate():
    template = pmsm_scenario(t_end=1.0, settle_threshold=0.02)
    box = [(0.5, 0.5), (-0.25, -0.25), (1.5, 1.5)]
    result = run_monte_carlo(template, box, runs=1, seed=9)
    assert np.array_equal(result.x0s, [[0.5, -0.25, 1.5]])
    direct = simulate(dataclasses.replace(template, x0=np.array([0.5, -0.25, 1.5])))
    expected = measure_settling(direct, "error", 0.02)
    assert np.array_equal(result.summaries[0].settling_error, expected)
    assert result.aggregate["runs"] == 1
    assert result.aggregate["n_failed"] == 0
    assert result.aggregate["fraction_settled"] == 1.0


def test_monte_carlo_is_deterministic():
    template = pmsm_scenario(step_size=1e-3, t_end=0.3)
    box = [(-1.0, 1.0)] * 3
    a = run_monte_carlo(template, box, runs=3, seed=123)
    b = run_monte_carlo(template, box, runs=3, seed=123)
    assert np.array_equal(a.x0s, b.x0s)
    assert a.aggregate == b.aggregate
    c = run_monte_carlo(template, box, runs=3, seed=124)
    assert not np.array_equal(a.x0s, c.x0s)


def test_monte_carlo_draws_stay_inside_box():
    template = pmsm_scenario(step_size=1e-3, t_end=0.1)
    box = [(-2.0, -1.0), (0.0, 0.5), (3.0, 4.0)]
    result = run_monte_carlo(template, box, runs=8, seed=5)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    assert np.all(result.x0s >= lows) and np.all(result.x0s <= highs)


def test_monte_carlo_records_failures_without_aborting():
    # A drift that is NaN at the origin fails every run started there.
    nan_at_zero = SystemModel(
        n=1,
        drift=lambda x: np.where(x == 0.0, np.nan, 0.0),
        gain=ConstantGain(np.ones(1)),
        perturbation=lambda t: np.zeros(1),
        perturbation_bounds=None,
        name="nan-at-zero",
    )
    template = Scenario(
        system=nan_at_zero,
        reference=zero_reference(1),
        params=standard_channels(1),
        x0=np.array([1.0]),
        step=StepConfig(step_size=1e-3, t_end=0.01),
    )
    result = run_monte_carlo(template, [(0.0, 0.0)], runs=2, seed=0)
    assert result.summaries == (None, None)
    assert len(result.failures) == 2
    assert result.failures[0]["error_type"] == "SimulationDivergedError"
    assert result.failures[1]["run"] == 1
    assert result.aggregate["n_failed"] == 2
    assert result.aggregate["max_settling_error"] is None


def assert_batch_equals_single_runs(template, box, runs, seed):
    """run_monte_carlo must give, run by run, what simulate + summarize_run
    give: equal summary dicts, and for a failed run a record with the type and
    message of the exception its own simulate raises."""
    result = run_monte_carlo(template, box, runs=runs, seed=seed)
    records = {record["run"]: record for record in result.failures}
    for i, x0 in enumerate(result.x0s):
        scenario = dataclasses.replace(template, x0=x0)
        try:
            expected = summary_to_dict(summarize_run(simulate(scenario), scenario))
        except SimulationDivergedError as err:
            assert result.summaries[i] is None
            assert records[i]["error_type"] == type(err).__name__
            assert records[i]["message"] == str(err)
            continue
        assert i not in records
        assert summary_to_dict(result.summaries[i]) == expected
    return result


def counting_drift(model):
    """The model with its drift wrapped to count the states it is evaluated at."""
    evaluated = [0]

    def drift(x):
        evaluated[0] += np.asarray(x).reshape(-1, model.n).shape[0]
        return model.drift(x)

    return dataclasses.replace(model, drift=drift), evaluated


def test_guard_substeps_on_the_surface_rate_alone():
    # x' = 0 from x0 = 3, open loop: z stands still while s = z + alpha1 *
    # integral moves fast, so only the surface ratio calls for substeps.
    system, evaluated = counting_drift(make_integrator_plant(1))
    traj = simulate(Scenario(
        system=system,
        reference=zero_reference(1),
        params=standard_channels(1),
        x0=np.array([3.0]),
        step=StepConfig(step_size=1e-3, t_end=1e-3),
        mode="open-loop",
    ))
    assert np.all(traj.x == 3.0)
    assert evaluated[0] > 2  # one evaluation per grid row, plus substeps


def constant_rate_plant(rate):
    """x' = rate, g = 1, d = 0, for one channel."""
    return SystemModel(
        n=1,
        drift=lambda x: np.full(np.shape(x), rate),
        gain=ConstantGain(np.ones(1)),
        perturbation=lambda t: np.zeros(1),
    )


def open_loop(system, x0, step_size, t_end, reference=None):
    return Scenario(
        system=system,
        reference=zero_reference(1) if reference is None else reference,
        params=None,
        x0=np.array([x0]),
        step=StepConfig(step_size=step_size, t_end=t_end),
        mode="open-loop",
    )


def test_step_with_rate_over_half_inverse_step_but_ratio_in_band_is_plain():
    # |dx| = 1e4 exceeds 0.5 / h = 5e3, but |dx| / (|z| + 1) does not: the
    # ratio test, not the rate bound, admits each step, one evaluation a row.
    system, evaluated = counting_drift(constant_rate_plant(1e4))
    scenario = open_loop(system, 1e4, 1e-4, 1e-3)
    traj = simulate(scenario)
    np.testing.assert_array_equal(traj.x[:, 0], 1e4 + np.arange(scenario.step.n_steps + 1))
    assert evaluated[0] == scenario.step.n_steps + 1


def test_step_admitted_by_ratio_alone_that_overflows_still_raises():
    # From 1.7e308 at x' = 1e308 the ratio admits a plain step of h = 0.5,
    # which overflows; the check after the step must still catch it.
    with np.errstate(over="ignore"), pytest.raises(SimulationDivergedError) as excinfo:
        simulate(open_loop(constant_rate_plant(1e308), 1.7e308, 0.5, 0.5))
    assert str(excinfo.value) == "state channel 1 non-finite after step at t = 0"


def test_batch_records_a_plain_step_overflow_for_that_run_alone():
    template = open_loop(constant_rate_plant(1e308), 1.0, 0.5, 0.5)
    box = [(1e308, 1.7e308)]  # runs past 1.3e308 overflow in their first step
    with np.errstate(over="ignore"):
        result = assert_batch_equals_single_runs(template, box, runs=6, seed=3)
    assert 0 < result.aggregate["n_failed"] < 6
    for record in result.failures:
        assert record["message"] == "state channel 1 non-finite after step at t = 0"


def nan_reference(n):
    """A reference whose value is NaN in every channel. ``constant_reference``
    refuses NaN, so this one is built by hand to reach the step loop's guard."""
    nan, zeros = np.full(n, np.nan), np.zeros(n)
    return ReferenceSignal(value=lambda t: nan, derivative=lambda t: zeros)


def test_nan_reference_without_a_surface_still_fails_the_guard():
    # a NaN z leaves dx finite when no surface is tracked; its NaN ratio
    # must still send the step to the substep loop, which reports it
    scenario = open_loop(constant_rate_plant(1.0), 1.0, 1e-3, 1e-2, reference=nan_reference(1))
    with pytest.raises(SimulationDivergedError, match="non-finite dynamics rate"):
        simulate(scenario)


def test_batch_records_a_non_finite_rate_of_a_block_blind_model_like_single_runs():
    # Drift and perturbation give one (n,) row for a whole block of states,
    # so at t = 0.25 the block's dx is one row whose channel 3 is infinite;
    # every run must still get the failure its own simulate raises.
    def perturbation(t):
        return np.where(np.asarray(t)[..., None] >= 0.25, [0.0, 0.0, np.inf], 0.0)

    template = Scenario(
        system=SystemModel(
            n=3, drift=lambda x: np.zeros(3), gain=ConstantGain(np.ones(3)),
            perturbation=perturbation,
        ),
        reference=zero_reference(3),
        params=None,
        x0=np.zeros(3),
        step=StepConfig(step_size=0.25, t_end=0.5),
        mode="open-loop",
    )
    result = assert_batch_equals_single_runs(template, [(-1.0, 1.0)] * 3, runs=4, seed=1)
    assert result.aggregate["n_failed"] == 4
    for record in result.failures:
        assert record["message"] == (
            "non-finite dynamics rate in channel 3 during substepping at t = 0.25"
        )


def far_sinusoid_template(system=None, t_end=0.2):
    return Scenario(
        system=system or make_pmsm(),
        reference=sinusoid_reference([1.0, 0.5, 0.2], [3.0, 2.0, 1.0], [0.0, 0.3, 0.6]),
        params=standard_channels(),
        x0=np.ones(3),
        step=StepConfig(step_size=1e-3, t_end=t_end),
        settle_threshold=0.05,
    )


def test_batch_far_box_with_sinusoid_reference_equals_single_runs():
    # From |x0| up to 100 the guard substeps every run, each on its own
    # local times, which the sinusoid reference and perturbation then see.
    system, evaluated = counting_drift(make_pmsm())
    template = far_sinusoid_template(system)
    runs = 6
    result = run_monte_carlo(template, [(-100.0, 100.0)] * 3, runs=runs, seed=11)
    assert evaluated[0] > runs * (template.step.n_steps + 1)  # substeps were taken
    assert result.aggregate["n_failed"] == 0
    assert_batch_equals_single_runs(template, [(-100.0, 100.0)] * 3, runs, 11)


def gp_template(t_end):
    """gp-based mode on a 20-point GP of the PMSM drift over [-3, 3]^3."""
    kernel = KernelConfig(family="exponential", length_scale=1.0)
    datasets = generate_training_data(
        make_pmsm(), n_samples=20, region=[(-3, 3)] * 3, sigma_f=0.01, seed=5
    )
    return dataclasses.replace(
        pmsm_scenario(
            step_size=1e-3, t_end=t_end, settle_threshold=0.05,
            mode="gp-based", gp_models=[gp_fit(ds, kernel) for ds in datasets],
        ),
        params=standard_channels(alpha2=6.0),
    )


def test_batch_gp_based_equals_single_runs():
    template = gp_template(t_end=1.0)
    result = assert_batch_equals_single_runs(template, [(-1.0, 1.0)] * 3, 4, 8)
    assert result.aggregate["n_settled"] == 4


def blowup_template(t_end=0.5):
    """x' = 10 x |x|, open loop: it blows up in finite time 1/(10 |x0|)."""
    unstable = SystemModel(
        n=1,
        drift=lambda x: 10.0 * x * np.abs(x),
        gain=ConstantGain(np.ones(1)),
        perturbation=lambda t: np.zeros(1),
        perturbation_bounds=None,
        name="blowup",
    )
    return Scenario(
        system=unstable,
        reference=zero_reference(1),
        params=None,
        x0=np.array([0.1]),
        step=StepConfig(step_size=1e-3, t_end=t_end),
        mode="open-loop",
    )


def test_batch_with_diverging_runs_records_each_and_carries_on():
    # The runs that start far enough out diverge inside the horizon, the
    # others survive it.
    template = blowup_template()
    with np.errstate(over="ignore", invalid="ignore"):
        result = assert_batch_equals_single_runs(template, [(-1.0, 1.0)], 10, 1)
    assert 0 < result.aggregate["n_failed"] < 10
    assert [r["run"] for r in result.failures] == sorted(r["run"] for r in result.failures)


def test_batch_records_exhausted_substep_budget_like_single_runs(monkeypatch):
    # A small budget makes the runs that need more substeps fail inside a
    # macro step.
    # Backward-Euler substeps cover a step from the +-10 box in at most two
    # substeps, so the runs start from +-1e5, where they take 32 to 35
    # substeps at t = 0.
    box, budget = 1e5, 32
    monkeypatch.setattr(sim, "MAX_SUBSTEPS", budget)
    template = Scenario(
        system=make_pmsm(),
        reference=zero_reference(3),
        params=standard_channels(),
        x0=np.ones(3),
        step=StepConfig(step_size=1e-3, t_end=0.1),
        settle_threshold=0.05,
    )
    result = assert_batch_equals_single_runs(template, [(-box, box)] * 3, 6, 3)
    assert 0 < result.aggregate["n_failed"] < 6
    assert all(f"exceeded {budget}" in r["message"] for r in result.failures)


def chatter_pulse_template():
    """A perturbation pulse at t = 0.6 throws the settled error out of its band."""
    def pulse(t):
        t = np.asarray(t)[..., None]
        return np.where((t >= 0.6) & (t < 0.65), [30.0, -30.0, 30.0], 0.0)

    return Scenario(
        system=dataclasses.replace(make_pmsm(), perturbation=pulse, perturbation_bounds=None),
        reference=zero_reference(3),
        params=standard_channels(),
        x0=np.ones(3),
        step=StepConfig(step_size=1e-3, t_end=1.5),
        settle_threshold=0.05,
    )


def test_batch_chatter_after_error_leaves_band_again_equals_single_runs():
    # After the pulse, the chatter amplitude counts only the rows after t*,
    # the second entry into the band, not those of the first.
    template = chatter_pulse_template()
    box = [(-1.0, 1.0)] * 3
    result = assert_batch_equals_single_runs(template, box, 4, 6)
    assert result.aggregate["n_settled"] == 4
    for x0, summary in zip(result.x0s, result.summaries):
        traj = simulate(dataclasses.replace(template, x0=x0))
        in_band = (np.abs(traj.z) < template.settle_threshold).all(axis=1)
        last_out = np.flatnonzero(~in_band)[-1]
        assert traj.t[last_out] >= 0.6
        # the rows in band before t* reach a larger |s| than the tail's
        assert np.abs(traj.s[:last_out][in_band[:last_out]]).max() > summary.chatter_amplitude


def drift_gap_template():
    """Integrator plant, closed loop at h = 1e-2, whose drift is NaN for x in
    (0.2, 0.5]: a run fails at one of the first grid rows, as it enters the
    gap, while the others settle."""
    plant = make_integrator_plant(1)
    return Scenario(
        system=dataclasses.replace(
            plant, drift=lambda x: np.where((x > 0.2) & (x <= 0.5), np.nan, 0.0)
        ),
        reference=zero_reference(1),
        params=standard_channels(1),
        x0=np.array([-1.0]),
        step=StepConfig(step_size=1e-2, t_end=1.0),
        settle_threshold=0.1,
    )


# (template, box, runs, seed). Grid rows 203, 503, 101 and 1_501: neither 2
# nor 3 divides them, so the last chunk of rows is a partial one at every
# chunk size tried below.
CHUNK_CASES = {
    "far-sinusoid": (lambda: far_sinusoid_template(t_end=0.202), [(-100.0, 100.0)] * 3, 6, 11),
    # runs diverge at different rows, some inside a chunk
    "diverging": (lambda: blowup_template(t_end=0.502), [(-1.0, 1.0)], 10, 1),
    # runs fail in the first rows, some after rows of their chunk that hold
    # the survivors' largest |u|
    "drift-gap": (drift_gap_template, [(-1.0, 1.0)], 10, 2),
    "chatter-pulse": (chatter_pulse_template, [(-1.0, 1.0)] * 3, 4, 6),
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_batch_equals_single_runs_at_any_chunk_size(monkeypatch, case, chunk_rows):
    # A batch reduces its rows a chunk at a time; the chunk boundaries, a
    # partial last chunk and runs failing mid-chunk must not change a summary.
    monkeypatch.setattr(sim, "CHUNK_ROWS", chunk_rows)
    make_template, box, runs, seed = CHUNK_CASES[case]
    with np.errstate(over="ignore", invalid="ignore"):
        result = assert_batch_equals_single_runs(make_template(), box, runs, seed)
    n_failed = result.aggregate["n_failed"]
    assert 0 < n_failed < runs if case in ("diverging", "drift-gap") else n_failed == 0
    if case in ("drift-gap", "chatter-pulse"):
        # settling times and chatter amplitudes compared too
        assert result.aggregate["n_settled"] == runs - n_failed


class _RowRecorder:
    """A ``_step_loop`` sink that keeps every row of x, z, s and u."""

    def __init__(self):
        self.rows = []

    def row(self, k, x, z, s, u, f_used):
        # an open loop logs u as one row of zeros for the whole block
        self.rows.append(np.array([x, z, s, np.broadcast_to(u, x.shape)]))

    @staticmethod
    def fail(errors):
        raise next(iter(errors.values()))


FAR_STARTS = [[1e3, -1e3, 1e3], [-900.0, 950.0, 1e3], [600.0, 800.0, -700.0]]


def test_every_substep_evaluates_the_time_signals_at_its_local_times():
    # One macro step from far starts, as single runs and as one block: every
    # state a substep evaluates gets the perturbation at its own local time,
    # inside the step, even where a substep left the local time unmoved.
    pmsm = make_pmsm()
    times = []

    def perturbation(t):
        times.append(np.asarray(t, dtype=float))
        return pmsm.perturbation(t)

    system, evaluated = counting_drift(dataclasses.replace(pmsm, perturbation=perturbation))
    template = dataclasses.replace(pmsm_scenario(step_size=1e-4, t_end=1e-4), system=system)
    h = template.step.step_size
    for x0s in [np.array(x0) for x0 in FAR_STARTS] + [np.array(FAR_STARTS)]:
        times.clear()
        evaluated[0] = 0
        sim._step_loop(template, x0s, _RowRecorder())
        # the first call is the grid's, before the grid rows t = 0 and t = h
        substep_times = times[1:]
        substeps = evaluated[0] - 2 * (x0s.size // 3)
        assert substeps > 0
        assert sum(t.size for t in substep_times) == substeps
        assert all(((0.0 <= t) & (t <= h)).all() for t in substep_times)
    # the same starts stepped together as one block over ten steps: every
    # run's rows equal its own run's
    assert_block_rows_equal_single_runs(pmsm_scenario(step_size=1e-4, t_end=1e-3), FAR_STARTS)


def assert_block_rows_equal_single_runs(template, x0s):
    """Every grid row of x, z, s and u that the block ``x0s`` logs, stepped
    through ``_step_loop``, equals bit for bit the row of its own run."""
    recorder = _RowRecorder()
    sim._step_loop(template, np.array(x0s, dtype=float), recorder)
    block = np.array(recorder.rows)
    for r, x0 in enumerate(x0s):
        traj = simulate(dataclasses.replace(template, x0=np.asarray(x0, dtype=float)))
        for i, column in enumerate((traj.x, traj.z, traj.s, traj.u)):
            assert block[:, i, r].tobytes() == column.tobytes()


# --- backward-Euler substeps in the far field -------------------------------------


def test_far_start_drains_in_few_backward_euler_substeps():
    # From 1e5 the reaching term is clamped at kappa * alpha2 * e^50, so each
    # substep, which holds the implicit move of s to GUARD_REL * (|s| + 1),
    # halves |s|: ceil(log2(1e5 / sqrt(50))) = 14 substeps bring s inside
    # the clamp, and a few more cross the unclamped band. Explicit substeps
    # took 38,615 evaluations here.
    system, evaluated = counting_drift(make_pmsm())
    scenario = dataclasses.replace(
        pmsm_scenario(x0=[1e5, -1e5, 1e5], step_size=1e-4, t_end=1e-4), system=system
    )
    simulate(scenario)
    assert evaluated[0] - (scenario.step.n_steps + 1) <= 64


FAR_TEMPLATES = {
    # f - f_hat, large where the GP reverts to its prior, held explicit
    "gp-based": lambda: gp_template(t_end=0.05),
    # the gain's rounding of g * (u / g), held explicit
    "constant-gain": lambda: dataclasses.replace(
        pmsm_scenario(step_size=1e-3, t_end=0.05),
        system=dataclasses.replace(make_pmsm(), gain=ConstantGain([2.0, 0.5, 1.5])),
    ),
    # the reference and its derivative at each run's local times
    "sinusoid": lambda: far_sinusoid_template(t_end=0.05),
}


@pytest.mark.parametrize("case", list(FAR_TEMPLATES))
def test_batch_backward_euler_substeps_equal_single_runs(case):
    # From the +-1e4 box every run leaves the guard at t = 0 and takes
    # backward-Euler substeps, each row on its own substep sizes and roots.
    template = FAR_TEMPLATES[case]()
    system, evaluated = counting_drift(template.system)
    template = dataclasses.replace(template, system=system)
    box, runs, seed = [(-1e4, 1e4)] * 3, 4, 5
    result = assert_batch_equals_single_runs(template, box, runs, seed)
    assert result.aggregate["n_failed"] == 0
    evaluated[0] = 0
    assert_block_rows_equal_single_runs(template, result.x0s)
    assert evaluated[0] > 2 * runs * (template.step.n_steps + 1)  # substeps were taken


# --- the backward-Euler root solve ------------------------------------------------

EPS = np.finfo(float).eps


def _order_key(v):
    """An int64 per float that orders like the float and steps by 1 per ulp."""
    bits = np.abs(v).view(np.int64)
    return np.where(v < 0.0, -bits, bits)


def _from_order_key(k):
    """The float of an order key."""
    value = np.abs(k).view(np.float64)
    return np.where(k < 0, -value, value)


def bisection_root(b, scale, phi):
    """Per element, the order keys (klo, khi) of the two adjacent floats
    between which v + scale * phi(v) - b changes sign (both the same float
    where it is 0 there), found by bisecting the floats of [0, b] by order."""
    klo, khi = _order_key(np.minimum(b, 0.0)), _order_key(np.maximum(b, 0.0))
    with np.errstate(all="ignore"):
        for _ in range(64):
            mid = klo + (khi - klo) // 2
            v = _from_order_key(mid)
            residual = v + scale * phi(v)[0] - b
            open_ = khi - klo > 1
            klo = np.where(open_ & ~(residual > 0.0), mid, klo)
            khi = np.where(open_ & ~(residual < 0.0), mid, khi)
    return klo, khi


@functools.cache
def solve_phi(name):
    """The ``phi`` of a z-solve, the integrand of exponent 0 or 0.8, or of
    the s-solve: the benchmark gains' reaching term and its slope, as the
    step loop hands it to ``_solve_increasing``."""
    if name != "reach":
        exponent = {"integrand-0": 0.0, "integrand-0.8": 0.8}[name]
        return lambda v: sim._integrand_and_slope(v, exponent)
    handed = []
    solve = sim._solve_increasing

    def spy(b, scale, phi, start):
        handed.append(phi)
        return solve(b, scale, phi, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_solve_increasing", spy)
        simulate(pmsm_scenario(x0=[1e5, -1e5, 1e5], t_end=1e-4))
    return handed[0]


_magnitude = st.floats(-6.0, 18.0).map(lambda e: 10.0**e)
SOLVE_CASE = st.tuples(
    st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), _magnitude).map(math.prod)),
    st.one_of(st.just(0.0), st.floats(-20.0, 40.0).map(lambda e: 10.0**e)),
    st.sampled_from(["0", "b", "beyond b", "beyond 0"]),
)
SOLVE_STARTS = {
    "0": lambda b: 0.0,
    "b": lambda b: b,
    "beyond b": lambda b: math.copysign(1e300, b),
    "beyond 0": lambda b: -math.copysign(1e300, b),
}


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(["integrand-0", "integrand-0.8", "reach"]),
    cases=st.lists(SOLVE_CASE, min_size=3, max_size=3),
)
def test_solve_increasing_ends_within_a_few_ulps_of_the_float_root(name, cases):
    # A root away from 0 is found within 8 ulps. "Away from 0" means two things:
    # - the residual's rounding, about eps |b|, moves it by at most 2 eps |v|
    #   (|b| <= 2 |v| (1 + scale phi'(v))); a jump of phi at 0 makes roots
    #   next to 0 cancel b against scale * phi;
    # - bisection from [0, b] reaches its magnitude within SOLVE_ITERATIONS
    #   with 20 steps to spare (|v| >= 2^-80 |b|).
    # Where phi jumps at 0 and leaves no root, the answer is next to 0 on b's
    # side. Every answer is within 8 eps |b| of the float root.
    phi = solve_phi(name)
    b, scale, kinds = zip(*cases)
    b, scale = np.array(b), np.array(scale)
    start = np.array([SOLVE_STARTS[kind](b_i) for b_i, kind in zip(b, kinds)])
    with np.errstate(all="ignore"):
        v = sim._solve_increasing(b, scale, phi, start)
        klo, khi = bisection_root(b, scale, phi)
        root = _from_order_key(klo)
        conditioned = np.abs(b) <= 2.0 * np.abs(root) * (1.0 + scale * phi(root)[1])
    kv = _order_key(v)
    ulps = np.maximum(0, np.maximum(klo - kv, kv - khi))
    no_root = (b != 0.0) & ((klo == 0) | (khi == 0))
    away = ~no_root & conditioned & (np.abs(root) >= 2.0**-80 * np.abs(b))
    assert (v[b == 0.0] == 0.0).all()
    assert (ulps[away] <= 8).all(), (ulps, v, root)
    assert (v[no_root] * b[no_root] >= 0.0).all()
    assert (np.abs(v[no_root]) <= 4.0 * EPS * np.abs(b[no_root])).all()
    assert (np.abs(v - root) <= 8.0 * EPS * np.abs(b)).all(), (v, root)


# --- operands that are exact identities -------------------------------------------


def assert_same_bits(fast, general, x0s):
    """``fast`` and ``general`` log the same numbers bit for bit: one run from
    each template's x0, and the block ``x0s`` stepped together."""
    traj, expected = simulate(fast), simulate(general)
    for name in ("x", "z", "s", "u"):
        assert getattr(traj, name).tobytes() == getattr(expected, name).tobytes(), name
    blocks = []
    for template in (fast, general):
        recorder = _RowRecorder()
        sim._step_loop(template, np.array(x0s, dtype=float), recorder)
        blocks.append(np.array(recorder.rows).tobytes())
    assert blocks[0] == blocks[1]


def identity_template(system=None, reference=None):
    """pmsm-known gains from [3, -3, 3], where the first steps substep."""
    return Scenario(
        system=system or make_pmsm(),
        reference=reference or zero_reference(3),
        params=standard_channels(),
        x0=np.array([3.0, -3.0, 3.0]),
        step=StepConfig(step_size=1e-3, t_end=1.0),
    )


IDENTITY_STARTS = [[3.0, -3.0, 3.0], [-4.5, 2.0, 0.5], [0.5, -0.25, 1.5], [1.0, 4.0, -4.0]]


def test_zero_reference_equals_a_time_dependent_zero_reference():
    # zero_reference skips x - x_d and - x_d'; a sinusoid of amplitude 0
    # depends on t, so it is subtracted every time.
    fast = identity_template()
    general = dataclasses.replace(
        fast, reference=sinusoid_reference(np.zeros(3), [3.0, 2.0, 1.0], [0.0, 0.3, 0.6])
    )
    assert_same_bits(fast, general, IDENTITY_STARTS)


def test_unperturbed_pmsm_equals_a_time_dependent_zero_perturbation():
    # The constant zero perturbation is read from the grid per step; one that
    # depends on t is read there as a (rows, n) array.
    pmsm = make_pmsm(perturbed=False)
    fast = identity_template(pmsm)
    general = dataclasses.replace(fast, system=dataclasses.replace(
        pmsm, perturbation=lambda t: np.zeros(np.shape(t) + (3,))
    ))
    assert_same_bits(fast, general, IDENTITY_STARTS)


def test_nan_reference_in_closed_loop_still_fails_the_guard():
    # In closed loop a NaN z makes s, the reaching term, u and dx NaN, so the
    # rate bound alone sends the step to the substep loop, which reports it.
    scenario = identity_template(reference=nan_reference(3))
    with pytest.raises(SimulationDivergedError) as excinfo:
        simulate(scenario)
    assert str(excinfo.value) == (
        "non-finite dynamics rate in channel 1 during substepping at t = 0"
    )


def test_batch_memory_does_not_scale_with_rows_times_runs():
    # A batch reduces its grid rows a chunk at a time, with the chunk sized
    # from a byte budget: it keeps no (rows, runs) array, which here would
    # be 8 * 2_001 * 1_000 bytes = 16 MB.
    template = pmsm_scenario(step_size=1e-3, t_end=2.0)
    tracemalloc.start()
    try:
        run_monte_carlo(template, [(-1.0, 1.0)] * 3, runs=1_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_monte_carlo_validates_arguments():
    template = pmsm_scenario(step_size=1e-3, t_end=0.01)
    with pytest.raises(ParameterError, match="runs"):
        run_monte_carlo(template, [(-1, 1)] * 3, runs=0, seed=1)
    with pytest.raises(ParameterError, match="ic_box"):
        run_monte_carlo(template, [(-1, 1)] * 2, runs=1, seed=1)
    with pytest.raises(ParameterError, match="ic_box"):
        run_monte_carlo(template, [(1, -1)] * 3, runs=1, seed=1)


def test_mc_result_serializes():
    template = pmsm_scenario(step_size=1e-3, t_end=0.3)
    result = run_monte_carlo(template, [(-1, 1)] * 3, runs=2, seed=7)
    doc = mc_result_to_dict(result, config={"k": 1})
    assert doc["seed"] == 7
    assert len(doc["runs"]) == 2
    assert doc["config"] == {"k": 1}
    json.dumps(doc)  # must be JSON-clean (no numpy scalars, no NaN)


# --- export ------------------------------------------------------------------------


def test_trajectory_csv_format(tmp_path):
    scenario = pmsm_scenario(step_size=1e-3, t_end=0.01)
    traj = simulate(scenario)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,x1,x2,x3,xd1,xd2,xd3,z1,z2,z3,s1,s2,s3,u1,u2,u3,d1,d2,d3"
    )
    assert len(lines) == 1 + scenario.step.n_steps + 1
    # 17 significant digits round-trip float64 exactly.
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, np.column_stack(traj.columns()))


def test_trajectory_csv_embeds_config(tmp_path):
    traj = simulate(pmsm_scenario(step_size=1e-3, t_end=0.01))
    path = tmp_path / "traj.csv"
    cfg = {"sim": {"step_size": 1e-3}, "system": {"builtin": "pmsm"}}
    write_trajectory_csv(traj, path, config=cfg)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    assert json.loads(first[len("# config: "):]) == cfg


def test_trajectory_csv_gp_columns(tmp_path):
    t = np.array([0.0, 0.1])
    col = np.zeros((2, 2))
    traj = Trajectory(
        t=t, x=col, x_d=col, z=col, s=col, u=col, d=col, f_hat=col + 0.5
    )
    path = tmp_path / "gp.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,xd1,xd2,z1,z2,s1,s2,u1,u2,d1,d2,fhat1,fhat2"
    assert lines[1].split(",")[-2:] == ["0.5", "0.5"]


# Values whose %.17g text is easy to get wrong: NaN, infinities, a signed
# zero, the smallest subnormal, and numbers at the edges of the e-notation
# switch and of the 17th digit.
AWKWARD_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e-5, 1e16, 1e17,
                  1.0000000000000002]


def awkward_trajectory(rows, n, f_hat):
    """A trajectory of ``rows`` rows whose first cells hold AWKWARD_VALUES and
    the others random numbers of random magnitudes."""
    rng = np.random.default_rng(rows)
    mixed = rng.normal(size=rows * n * 7) * 10.0 ** rng.integers(-300, 300, size=rows * n * 7)
    cells = np.resize(np.concatenate([AWKWARD_VALUES, mixed]), (7, rows, n))
    return Trajectory(t=cells[0, :, 0], x=cells[0], x_d=cells[1], z=cells[2], s=cells[3],
                      u=cells[4], d=cells[5], f_hat=cells[6] if f_hat else None)


@pytest.mark.parametrize("config", [None, {"sim": {"t_end": 8}}], ids=["bare", "config"])
@pytest.mark.parametrize("f_hat", [False, True], ids=["known", "f_hat"])
@pytest.mark.parametrize(
    "rows",
    [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1],
    ids=["1", "B-1", "B", "B+1", "2B+1"],
)
def test_trajectory_csv_bytes_equal_a_savetxt_reference(tmp_path, config, f_hat, rows):
    # B is the writer's block size
    traj = awkward_trajectory(rows, 3, f_hat)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, config=config)
    ref = io.StringIO()
    if config is not None:
        ref.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    ref.write(",".join(traj.column_names()) + "\n")
    np.savetxt(ref, np.column_stack(traj.columns()), fmt="%.17g", delimiter=",")
    assert path.read_bytes() == ref.getvalue().encode()


def test_summary_dict_drops_numpy_types():
    scenario = pmsm_scenario(step_size=1e-3, t_end=0.3, settle_threshold=0.05)
    summary = summarize_run(simulate(scenario), scenario, bounds=bound_report(scenario.channels))
    doc = summary_to_dict(summary)
    json.dumps(doc)
    assert set(doc) >= {
        "x0",
        "threshold",
        "settling_error",
        "settling_sliding",
        "settled",
        "settling_time",
        "max_abs_u",
        "chatter_amplitude",
        "bound_satisfied",
        "bounds",
    }

