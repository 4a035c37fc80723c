import json

import numpy as np
import pytest

from fxtsmc.controller import ControllerParams, bound_decision, bound_report
from fxtsmc.errors import ParameterError
from fxtsmc.gp import GPDataset, KernelConfig, gp_fit
from fxtsmc.numerics import StepConfig
from fxtsmc.sim import Scenario, simulate
from fxtsmc.system import make_pmsm, zero_reference

from conftest import make_integrator_plant, make_unperturbed_pmsm, standard_gains

SQRT_PI_HALF = np.sqrt(np.pi) / 2.0


# --- control law (evaluated by the simulation engine) --------------------------


def scalar_params(alpha1=6.0, alpha2=4.0, p=8, q=10, d_bar=0.0, **kwargs):
    """One channel's gains, the benchmark set by default without d_bar."""
    return ControllerParams(1, alpha1=alpha1, alpha2=alpha2, p=p, q=q, d_bar=d_bar, **kwargs)


def one_step_run(x0, params, mode="known-model", gp_model=None, t_end=1e-3):
    """Closed-loop run of the scalar integrator x' = u; row 0 of the result
    holds the law evaluated at x0, t = 0 on the empty integral."""
    scenario = Scenario(
        system=make_integrator_plant(),
        reference=zero_reference(1),
        params=params,
        x0=np.array([x0]),
        step=StepConfig(step_size=1e-3, t_end=t_end),
        mode=mode,
        gp_model=gp_model,
    )
    return simulate(scenario)


def test_control_known_zero_at_exact_tracking():
    assert one_step_run(0.0, scalar_params()).u[0, 0] == 0.0


def test_control_known_scalar_hand_value():
    # f=0, x_d=0, z=1 at t=0 (s=1): u = -(6e + (sqrt(pi)/2)*4*e) = -e(6+2*sqrt(pi))
    u = one_step_run(1.0, scalar_params()).u[0]
    expected = -np.e * (6.0 + 2.0 * np.sqrt(np.pi))
    assert u[0] == pytest.approx(expected, abs=1e-12)
    assert u[0] == pytest.approx(-25.94574916015171, abs=1e-11)


def zero_trained_gp():
    # GP fitted to f == 0 data: the posterior mean is identically zero
    inputs = np.linspace(-2.0, 2.0, 7)[:, None]
    ds = GPDataset(inputs=inputs, targets=np.zeros(7), noise_std=0.0, seed=None)
    return gp_fit(ds, KernelConfig(family="exponential", length_scale=1.0))


def test_control_gp_matches_known_when_drift_is_zero():
    # On the integrator plant (f = 0) a zero-trained GP must reproduce the
    # known-model run bitwise, integral accumulation included.
    params = scalar_params(include_sqrt_pi_factor=True)
    for xv in (-1.3, 0.0, 0.7):
        known = one_step_run(xv, params, t_end=0.05)
        learned = one_step_run(
            xv, params, mode="gp-based", gp_model=zero_trained_gp(), t_end=0.05
        )
        for field in ("x", "z", "s", "u"):
            np.testing.assert_array_equal(getattr(known, field), getattr(learned, field))


def test_control_gp_scalar_hand_value_printed_form():
    # Eq-as-printed (no sqrt(pi)/2 factor): u = -(6e + 4e) = -10e
    params = scalar_params(include_sqrt_pi_factor=False)
    u = one_step_run(1.0, params, mode="gp-based", gp_model=zero_trained_gp()).u[0]
    assert u[0] == pytest.approx(-10.0 * np.e, abs=1e-12)


def test_control_gp_pure_model_cancellation():
    # z=0, s=0, fhat(x)=c: u = -c
    c = 1.7
    inputs = np.array([[0.0]])
    ds = GPDataset(inputs=inputs, targets=np.array([c]), noise_std=0.0, seed=None)
    gp = gp_fit(ds, KernelConfig(family="exponential", length_scale=1.0))
    u = one_step_run(0.0, scalar_params(), mode="gp-based", gp_model=gp).u[0]
    assert u[0] == pytest.approx(-c, abs=1e-8)


def test_params_enforce_reaching_gain_condition():
    with pytest.raises(ParameterError) as exc:
        scalar_params(alpha2=1.0, d_bar=1.0)
    assert "2/sqrt(pi)" in str(exc.value)
    # alpha2 = 1.2 > 2/sqrt(pi) ~ 1.1284 is accepted
    scalar_params(alpha2=1.2, d_bar=1.0)


def test_params_hold_read_only_arrays_of_every_channel():
    params = ControllerParams(
        3, alpha1=[5.0, 6.0, 7.0], alpha2=4.0, p=[6, 8, 0], q=10, d_bar=[1.0, 0.5, 0.0],
        include_sqrt_pi_factor=[True, False, True],
    )
    np.testing.assert_array_equal(params.alpha1, [5.0, 6.0, 7.0])
    np.testing.assert_array_equal(params.exponent, [6 / 10, 8 / 10, 0.0])
    np.testing.assert_array_equal(params.d_bar, [1.0, 0.5, 0.0])
    np.testing.assert_array_equal(params.reach_gain, [SQRT_PI_HALF * 4.0, 4.0, SQRT_PI_HALF * 4.0])
    for name in ("alpha1", "exponent", "alpha2", "d_bar", "reach_gain"):
        assert getattr(params, name).shape == (3,)
        assert not getattr(params, name).flags.writeable


# --- bound calculators, one channel at a time ----------------------------------


def one_channel_t_s(alpha2, d_bar=0.0, delta_f_bar=None, mode="lemma3"):
    """T_s of one channel: lemma 2 without ``delta_f_bar``, theorem 2 with it,
    on the plain reaching gain alpha2 (no sqrt(pi)/2 factor)."""
    params = scalar_params(alpha2=alpha2, d_bar=d_bar, include_sqrt_pi_factor=False)
    delta = None if delta_f_bar is None else np.array([delta_f_bar])
    return bound_report(params, delta_f_bars=delta, s_bound_mode=mode)["t_s"]


def test_lemma2_bound_values():
    assert one_channel_t_s(1.0) == 1.0
    assert one_channel_t_s(4.0, 1.0) == pytest.approx(0.3482353897636808, abs=1e-15)
    with pytest.raises(ParameterError):
        one_channel_t_s(1.0, 1.0)  # 1 < 2/sqrt(pi)


def test_theorem1_z_bound_values():
    t_z = bound_report(scalar_params())["t_z"]
    assert t_z == pytest.approx(0.92593, abs=1e-4)
    assert t_z == pytest.approx(0.9259259259259262, abs=1e-15)
    assert bound_report(scalar_params(alpha1=2.0, p=0, q=1))["t_z"] == 1.0
    assert bound_report(scalar_params(alpha1=4.0, p=1, q=2))["t_z"] == pytest.approx(
        2.0 / 3.0, rel=1e-15
    )
    with pytest.raises(ParameterError):
        scalar_params(p=10, q=10)


def test_lemma3_bound_values():
    # theorem 2's bound is lemma 3's at A = -(alpha2 - d_bar - delta_f_bar)
    assert one_channel_t_s(1.0, delta_f_bar=0.0) == pytest.approx(1.9142135623730951, abs=1e-15)
    assert one_channel_t_s(1.0, delta_f_bar=0.5) == pytest.approx(3.8284271247461903, abs=1e-15)
    with pytest.raises(ParameterError):
        one_channel_t_s(1.0, delta_f_bar=1.0)  # A = 0


def test_theorem2_s_bound_values():
    assert one_channel_t_s(4.0, 1.0, 0.0) == pytest.approx(0.6380711874576984, abs=1e-15)
    assert one_channel_t_s(4.0, 1.0, 0.0, mode="printed-t8") == pytest.approx(
        0.47140452079103173, abs=1e-15
    )
    with pytest.raises(ParameterError, match="T_s entries must be positive and finite"):
        one_channel_t_s(2.0, 1.0, 1.5)  # a margin of -0.5


def test_bounds_monotone_in_gains_and_disturbance():
    # one channel per gain or budget, in increasing order of it
    def t_s(alpha2, d_bar, delta=None):
        params = ControllerParams(len(alpha2), alpha1=6.0, alpha2=alpha2, p=8, q=10,
                                  d_bar=d_bar, include_sqrt_pi_factor=False)
        return np.array(bound_report(params, delta_f_bars=delta)["t_s_channels"])

    assert np.all(np.diff(t_s([2.0, 3.0, 5.0, 9.0], 1.0)) < 0.0)
    assert np.all(np.diff(t_s([4.0, 4.0, 4.0], [0.0, 0.5, 1.0])) > 0.0)
    params = ControllerParams(2, alpha1=[2.0, 4.0], alpha2=4.0, p=8, q=10)
    t_z = bound_report(params)["t_z_channels"]
    assert t_z[0] > t_z[1]
    assert np.all(np.diff(t_s([4.0, 4.0], 1.0, np.array([0.5, 1.5]))) > 0.0)
    assert np.all(np.diff(t_s([3.0, 4.0], 1.0, np.array([0.5, 0.5]))) < 0.0)


def test_bound_report_known_model():
    report = bound_report(standard_gains())
    # the record is the JSON a summary file holds, and reads back equal
    assert json.loads(json.dumps(report, allow_nan=False)) == report
    assert report["mode"] == "known-model"
    assert report["s_bound_mode"] == "lemma3"  # carried, though no known-model term uses it
    assert report["t_z"] == pytest.approx(0.92593, abs=1e-4)
    assert report["t_s"] == pytest.approx(0.3482353897636808, abs=1e-12)
    assert report["t_max"] == pytest.approx(1.2741613156896068, abs=1e-12)
    assert report["t_max"] == report["t_s"] + report["t_z"]
    assert report["t_z"] == max(report["t_z_channels"])
    assert report["t_s"] == max(report["t_s_channels"])
    assert len(report["t_z_channels"]) == len(report["t_s_channels"]) == 3


def test_bound_report_trivial_composition():
    report = bound_report(scalar_params(alpha1=2.0, alpha2=1.0, p=0, q=1))
    assert report["t_max"] == pytest.approx(2.0, rel=1e-15)


def test_bound_report_gp_mode():
    # theorem 2 takes the reaching gain the law applies, (sqrt(pi)/2) * 4
    # on these channels, which keep the factor
    report = bound_report(standard_gains(), delta_f_bars=np.zeros(3))
    assert report["mode"] == "gp-based"
    assert report["t_s"] == pytest.approx(0.75217406156258, abs=1e-12)
    printed = bound_report(
        standard_gains(), delta_f_bars=np.zeros(3), s_bound_mode="printed-t8"
    )
    assert printed["s_bound_mode"] == "printed-t8"
    assert printed["t_s"] == pytest.approx(0.5557032820352183, abs=1e-12)
    plain = bound_report(
        standard_gains(include_sqrt_pi_factor=False), delta_f_bars=np.zeros(3)
    )
    assert plain["t_s"] == pytest.approx(0.6380711874576984, abs=1e-12)


def test_bound_report_reports_offending_channel():
    # alpha2 = 4 beats the perturbation bound, but a model-error budget of 10
    # on the middle channel makes its sliding-phase bound infeasible: the
    # decision withholds the bound with a note that names that channel.
    budgets = np.array([0.0, 10.0, 0.0])
    assert bound_decision(standard_gains(), np.ones(3), lambda: budgets) == (
        None, "settling bound unavailable: channel 2: need reaching gain kappa*alpha2 > "
        "d_bar + delta_f_bar = 11, got kappa*alpha2 = 3.54491",
    )
    with pytest.raises(ParameterError, match="T_s entries must be positive and finite"):
        bound_report(standard_gains(), delta_f_bars=budgets)


@pytest.mark.parametrize("gp_based", [False, True], ids=["known-model", "gp-based"])
def test_d_bar_note_comes_before_a_t_z_refusal(gp_based):
    # alpha1 = 1e-320 makes T_z infinite, which alone is refused; but d_bar = 0
    # is below the perturbation bound 1, so the bound is withheld first, and
    # a gp-based decision never calls its audit
    def audit():
        raise AssertionError("audited a bound already withheld")

    params = ControllerParams(3, alpha1=1e-320, alpha2=4.0, p=8, q=10, d_bar=0.0)
    with pytest.raises(ParameterError, match="T_z entries must be positive and finite"):
        bound_decision(params, np.zeros(3), audit if gp_based else None)
    assert bound_decision(params, np.ones(3), audit if gp_based else None) == (
        None, "settling bound unavailable: channel 1: d_bar = 0 is below the plant's "
        "perturbation bound 1",
    )


# --- closed-loop law properties -----------------------------------------------


def test_exact_cancellation_in_discrete_loop():
    # with d == 0 the logged s-series must satisfy
    # (s_{k+1}-s_k)/h = -(sqrt(pi)/2) alpha2 e^{s^2} sign(s) to near round-off
    h = 1e-4
    scenario = Scenario(
        system=make_unperturbed_pmsm(),
        reference=zero_reference(3),
        params=standard_gains(d_bar=0.0),
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
        params=standard_gains(),
        x0=np.ones(3),
        step=StepConfig(step_size=h, t_end=0.3),
        settle_threshold=0.02,
    )
    traj = simulate(scenario)
    floor = 10.0 * h * np.abs(traj.u).max()
    v = 0.5 * traj.s * traj.s
    active = np.abs(traj.s[:-1]) > floor
    assert np.all((v[1:] - v[:-1])[active] <= 0.0)
