import numpy as np
import pytest

from fxtsmc.controller import (
    BoundReport,
    ControllerParams,
    bound_report,
    lemma2_bound,
    lemma3_bound,
    theorem1_z_bound,
    theorem2_s_bound,
)
from fxtsmc.errors import GainTooSmallError, ParameterError
from fxtsmc.gp import GPDataset, KernelConfig, gp_fit
from fxtsmc.numerics import StepConfig
from fxtsmc.sim import Scenario, simulate
from fxtsmc.sliding import SlidingParams
from fxtsmc.system import ConstantGain, SystemModel, make_pmsm, zero_reference

from conftest import make_integrator_plant, standard_channels

SQRT_PI_HALF = np.sqrt(np.pi) / 2.0


# --- control law (evaluated by the simulation engine) --------------------------


def scalar_params(alpha2=4.0, d_bar=0.0, **kwargs):
    return ControllerParams(
        sliding=SlidingParams(alpha1=6.0, p=8, q=10), alpha2=alpha2, d_bar=d_bar, **kwargs
    )


def one_step_run(x0, params, model=None, mode="known-model", gp_models=None, t_end=1e-3):
    """Closed-loop run of a scalar plant (the integrator x' = u by default);
    row 0 of the result holds the law evaluated at x0, t = 0 on the empty
    integral."""
    scenario = Scenario(
        system=model or make_integrator_plant(),
        reference=zero_reference(1),
        params=params,
        x0=np.array([x0]),
        step=StepConfig(step_size=1e-3, t_end=t_end),
        mode=mode,
        gp_models=gp_models,
    )
    return simulate(scenario)


def test_control_known_zero_at_exact_tracking():
    assert one_step_run(0.0, scalar_params()).u[0, 0] == 0.0


def test_control_known_scalar_hand_value():
    # f=0, g=1, x_d=0, z=1 at t=0 (s=1): u = -(6e + (sqrt(pi)/2)*4*e) = -e(6+2*sqrt(pi))
    u = one_step_run(1.0, scalar_params()).u[0]
    expected = -np.e * (6.0 + 2.0 * np.sqrt(np.pi))
    assert u[0] == pytest.approx(expected, abs=1e-12)
    assert u[0] == pytest.approx(-25.94574916015171, abs=1e-11)


def test_control_known_gain_inverse_scaling():
    model = SystemModel(
        n=1,
        drift=lambda x: np.zeros(1),
        gain=ConstantGain(np.full(1, 2.0)),
        perturbation=lambda t: np.zeros(1),
        name="gain2",
    )
    u = one_step_run(1.0, scalar_params(), model=model).u[0]
    assert u[0] == pytest.approx(-np.e * (6.0 + 2.0 * np.sqrt(np.pi)) / 2.0, abs=1e-12)


def zero_trained_gp(n=1):
    # GP fitted to f == 0 data: the posterior mean is identically zero
    inputs = np.linspace(-2.0, 2.0, 7)[:, None]
    ds = GPDataset(inputs=inputs, targets=np.zeros(7), noise_std=0.0, seed=None)
    model = gp_fit(ds, KernelConfig(family="exponential", length_scale=1.0))
    return [model] * n


def test_control_gp_matches_known_when_drift_is_zero():
    # On the integrator plant (f = 0) a zero-trained GP must reproduce the
    # known-model run bitwise, integral accumulation included.
    params = scalar_params(include_sqrt_pi_factor=True)
    for xv in (-1.3, 0.0, 0.7):
        known = one_step_run(xv, params, t_end=0.05)
        learned = one_step_run(
            xv, params, mode="gp-based", gp_models=zero_trained_gp(), t_end=0.05
        )
        for field in ("x", "z", "s", "u"):
            np.testing.assert_array_equal(getattr(known, field), getattr(learned, field))


def test_control_gp_scalar_hand_value_printed_form():
    # Eq-as-printed (no sqrt(pi)/2 factor): u = -(6e + 4e) = -10e
    params = scalar_params(include_sqrt_pi_factor=False)
    u = one_step_run(1.0, params, mode="gp-based", gp_models=zero_trained_gp()).u[0]
    assert u[0] == pytest.approx(-10.0 * np.e, abs=1e-12)


def test_control_gp_pure_model_cancellation():
    # z=0, s=0, fhat(x)=c: u = -c
    c = 1.7
    inputs = np.array([[0.0]])
    ds = GPDataset(inputs=inputs, targets=np.array([c]), noise_std=0.0, seed=None)
    gp = [gp_fit(ds, KernelConfig(family="exponential", length_scale=1.0))]
    u = one_step_run(0.0, scalar_params(), mode="gp-based", gp_models=gp).u[0]
    assert u[0] == pytest.approx(-c, abs=1e-8)


def test_params_enforce_reaching_gain_condition():
    with pytest.raises(GainTooSmallError) as exc:
        ControllerParams(sliding=SlidingParams(alpha1=6.0, p=8, q=10), alpha2=1.0, d_bar=1.0)
    assert "2/sqrt(pi)" in str(exc.value)
    # alpha2 = 1.2 > 2/sqrt(pi) ~ 1.1284 is accepted
    ControllerParams(sliding=SlidingParams(alpha1=6.0, p=8, q=10), alpha2=1.2, d_bar=1.0)


# --- bound calculators ---------------------------------------------------------


def test_lemma2_bound_values():
    assert lemma2_bound(1.0, 0.0) == 1.0
    assert lemma2_bound(4.0, 1.0) == pytest.approx(0.3482353897636808, abs=1e-15)
    with pytest.raises(GainTooSmallError):
        lemma2_bound(1.0, 1.0)  # 1 < 2/sqrt(pi)


def test_theorem1_z_bound_values():
    assert theorem1_z_bound(6.0, 8, 10) == pytest.approx(0.92593, abs=1e-4)
    assert theorem1_z_bound(6.0, 8, 10) == pytest.approx(0.9259259259259262, abs=1e-15)
    assert theorem1_z_bound(2.0, 0, 1) == 1.0
    assert theorem1_z_bound(4.0, 1, 2) == pytest.approx(2.0 / 3.0, rel=1e-15)
    with pytest.raises(ParameterError):
        theorem1_z_bound(6.0, 10, 10)


def test_lemma3_bound_values():
    assert lemma3_bound(-1.0) == pytest.approx(1.9142135623730951, abs=1e-15)
    assert lemma3_bound(-0.5) == pytest.approx(3.8284271247461903, abs=1e-15)
    with pytest.raises(ParameterError):
        lemma3_bound(0.0)


def test_theorem2_s_bound_values():
    assert theorem2_s_bound(4.0, 1.0, 0.0) == pytest.approx(0.6380711874576984, abs=1e-15)
    assert theorem2_s_bound(4.0, 1.0, 0.0, mode="printed-t8") == pytest.approx(
        0.47140452079103173, abs=1e-15
    )
    with pytest.raises(GainTooSmallError):
        theorem2_s_bound(1.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        theorem2_s_bound(4.0, 1.0, 0.0, mode="theorem-9")


def test_bounds_monotone_in_gains_and_disturbance():
    alphas = (2.0, 3.0, 5.0, 9.0)
    assert all(
        lemma2_bound(a, 1.0) > lemma2_bound(b, 1.0) for a, b in zip(alphas, alphas[1:])
    )
    assert lemma2_bound(4.0, 1.0) > lemma2_bound(4.0, 0.5) > lemma2_bound(4.0, 0.0)
    assert theorem1_z_bound(2.0, 8, 10) > theorem1_z_bound(4.0, 8, 10)
    assert theorem2_s_bound(4.0, 1.0, 1.5) > theorem2_s_bound(4.0, 1.0, 0.5)
    assert theorem2_s_bound(3.0, 1.0, 0.5) > theorem2_s_bound(4.0, 1.0, 0.5)


def test_bound_report_known_model():
    report = bound_report(standard_channels())
    assert isinstance(report, BoundReport)
    assert report.mode == "known-model"
    assert report.t_z == pytest.approx(0.92593, abs=1e-4)
    assert report.t_s == pytest.approx(0.3482353897636808, abs=1e-12)
    assert report.t_max == pytest.approx(1.2741613156896068, abs=1e-12)
    assert report.t_max == report.t_s + report.t_z
    assert len(report.t_z_channels) == 3


def test_bound_report_trivial_composition():
    params = ControllerParams(sliding=SlidingParams(alpha1=2.0, p=0, q=1), alpha2=1.0, d_bar=0.0)
    report = bound_report([params])
    assert report.t_max == pytest.approx(2.0, rel=1e-15)


def test_bound_report_gp_mode():
    # theorem 2 takes the reaching gain the law applies, (sqrt(pi)/2) * 4
    # on these channels, which keep the factor
    report = bound_report(standard_channels(), delta_f_bars=np.zeros(3))
    assert report.mode == "gp-based"
    assert report.t_s == pytest.approx(0.75217406156258, abs=1e-12)
    printed = bound_report(
        standard_channels(), delta_f_bars=np.zeros(3), s_bound_mode="printed-t8"
    )
    assert printed.t_s == pytest.approx(0.5557032820352183, abs=1e-12)
    plain = bound_report(
        standard_channels(include_sqrt_pi_factor=False), delta_f_bars=np.zeros(3)
    )
    assert plain.t_s == pytest.approx(0.6380711874576984, abs=1e-12)


def test_bound_report_reports_offending_channel():
    # alpha2 = 4 beats the perturbation bound, but a model-error budget of 10
    # on the middle channel makes its sliding-phase bound infeasible.
    with pytest.raises(GainTooSmallError) as exc:
        bound_report(standard_channels(), delta_f_bars=np.array([0.0, 10.0, 0.0]))
    assert "channel 2" in str(exc.value)


# --- closed-loop law properties -----------------------------------------------


def test_exact_cancellation_in_discrete_loop():
    # with d == 0 the logged s-series must satisfy
    # (s_{k+1}-s_k)/h = -(sqrt(pi)/2) alpha2 e^{s^2} sign(s) to near round-off
    h = 1e-4
    scenario = Scenario(
        system=make_pmsm(perturbed=False),
        reference=zero_reference(3),
        params=standard_channels(d_bar=0.0)[0],
        x0=np.ones(3),
        step=StepConfig(step_size=h, t_end=0.2),
        settle_threshold=0.02,
    )
    traj = simulate(scenario)
    fd = (traj.s[1:] - traj.s[:-1]) / h
    sk = traj.s[:-1]
    target = -SQRT_PI_HALF * 4.0 * np.exp(sk * sk) * np.sign(sk)
    away = np.abs(sk) > 10.0 * h * np.abs(traj.u).max()
    assert np.max(np.abs(fd - target)[away]) < 1e-6


def test_lyapunov_decrease_above_chatter_floor():
    h = 1e-4
    scenario = Scenario(
        system=make_pmsm(),
        reference=zero_reference(3),
        params=standard_channels()[0],
        x0=np.ones(3),
        step=StepConfig(step_size=h, t_end=0.3),
        settle_threshold=0.02,
    )
    traj = simulate(scenario)
    floor = 10.0 * h * np.abs(traj.u).max()  # max |g| = 1 on this benchmark
    v = traj.v_s
    active = np.abs(traj.s[:-1]) > floor
    assert np.all((v[1:] - v[:-1])[active] <= 0.0)


def test_gain_scaling_leaves_state_bitwise_unchanged():
    def build(c):
        return SystemModel(
            n=1,
            drift=lambda x: np.sin(x),
            gain=ConstantGain(np.full(1, c)),
            perturbation=lambda t: np.zeros(1),
            name=f"gain{c}",
        )

    step = StepConfig(step_size=1e-4, t_end=0.2)
    runs = {}
    for c in (1.0, 2.0):
        scenario = Scenario(
            system=build(c),
            reference=zero_reference(1),
            params=scalar_params(),
            x0=np.array([0.8]),
            step=step,
            settle_threshold=0.01,
        )
        runs[c] = simulate(scenario)
    np.testing.assert_array_equal(runs[1.0].x, runs[2.0].x)
    np.testing.assert_array_equal(runs[1.0].s, runs[2.0].s)
    np.testing.assert_array_equal(runs[1.0].u / 2.0, runs[2.0].u)
