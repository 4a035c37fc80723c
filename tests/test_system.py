import json
from pathlib import Path

import numpy as np
import pytest

from fxtsmc import cli
from fxtsmc.controller import SQRT_PI_HALF
from fxtsmc.errors import ConfigError, ParameterError, SimulationDivergedError
from fxtsmc.numerics import StepConfig
from fxtsmc.sim import Scenario, simulate
from fxtsmc.system import (
    ConstantGain,
    SystemModel,
    constant_reference,
    make_lemma2_plant,
    make_pmsm,
    sinusoid_reference,
    zero_reference,
)

from conftest import make_integrator_plant, standard_gains

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def first_step(model, x0, u_mode="open-loop", h=2.0**-10):
    """One engine step from x0 at t = 0; returns the trajectory and the
    realized rate (x1 - x0) / h, i.e. the dynamics f + g*u + d at (x0, 0)."""
    scenario = Scenario(
        system=model,
        reference=zero_reference(model.n),
        params=standard_gains(model.n, d_bar=0.0) if u_mode != "open-loop" else None,
        x0=np.asarray(x0, dtype=float),
        step=StepConfig(step_size=h, t_end=h),
        mode=u_mode,
    )
    traj = simulate(scenario)
    return traj, (traj.x[1] - traj.x[0]) / h


def test_eval_dynamics_trivial_zero():
    model = make_integrator_plant(n=3)
    _, rate = first_step(model, [0.3, -1.0, 7.0])
    np.testing.assert_array_equal(rate, np.zeros(3))


def test_eval_dynamics_pmsm_hand_value(pmsm):
    # x = (1,1,1), u = 0, t = 0: (2.5*(1-1)+0, -1-1+25+1, -1+1+0) = (0, 24, 0)
    _, rate = first_step(pmsm, np.ones(3))
    np.testing.assert_allclose(rate, [0.0, 24.0, 0.0], atol=1e-14)


def test_eval_dynamics_linear_in_u():
    # the engine advances by f(x) + g(x)*u + d with the logged control u
    rng = np.random.default_rng(3)
    g = np.array([2.0, -0.5])
    model = SystemModel(
        n=2,
        drift=lambda x: np.sin(x),
        gain=ConstantGain(g),
        perturbation=lambda t: np.zeros(2),
        name="affine",
    )
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=2)
        traj, rate = first_step(model, x, u_mode="known-model", h=1e-4)
        u = traj.u[0]
        np.testing.assert_allclose(rate, np.sin(x) + g * u, rtol=1e-12, atol=1e-12)


def test_eval_dynamics_non_finite_drift():
    model = SystemModel(
        n=1,
        drift=lambda x: np.array([np.nan]),
        gain=ConstantGain(np.ones(1)),
        perturbation=lambda t: np.zeros(1),
        name="bad",
    )
    with pytest.raises(SimulationDivergedError) as exc:
        first_step(model, np.zeros(1))
    assert exc.value.channel == 0


@pytest.mark.parametrize(
    "value",
    [[1.0, 0.0], [1.0, np.nan], [np.inf, 1.0], [[1.0, 1.0]], [], 2.0],
    ids=["zero", "nan", "inf", "2-d", "empty", "scalar"],
)
def test_constant_gain_rejects_bad_values(value):
    with pytest.raises(ParameterError, match="^constant gain must"):
        ConstantGain(np.asarray(value))


def test_constant_gain_length_must_match_the_system():
    with pytest.raises(ParameterError, match=r"^gain must be a ConstantGain of shape \(3,\)"):
        SystemModel(
            n=3,
            drift=lambda x: np.zeros(3),
            gain=ConstantGain(np.ones(2)),
            perturbation=lambda t: np.zeros(3),
        )


def test_system_refuses_a_callable_gain():
    with pytest.raises(ParameterError, match=r"^gain must be a ConstantGain of shape \(2,\)"):
        SystemModel(
            n=2,
            drift=lambda x: np.zeros(2),
            gain=lambda x: np.ones(2),
            perturbation=lambda t: np.zeros(2),
        )


def test_constant_gain_holds_a_read_only_copy():
    source = np.array([2.0, -1.0])
    gain = ConstantGain(source)
    source[0] = 0.0
    np.testing.assert_array_equal(gain.value, [2.0, -1.0])
    assert not gain.value.flags.writeable


def test_shipped_plants_declare_constant_gains():
    for model in (make_pmsm(), make_pmsm(perturbed=False), make_lemma2_plant(1.0)):
        assert isinstance(model.gain, ConstantGain)
        np.testing.assert_array_equal(model.gain.value, np.ones(model.n))


def test_pmsm_definition(pmsm):
    np.testing.assert_array_equal(pmsm.drift(np.zeros(3)), np.zeros(3))
    np.testing.assert_allclose(pmsm.perturbation(0.0), [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(pmsm.perturbation_bounds, np.ones(3))
    assert pmsm.n == 3


def test_pmsm_drift_components(pmsm):
    x = np.array([0.5, -1.2, 2.0])
    f = pmsm.drift(x)
    assert f[0] == pytest.approx(2.5 * (-1.2 - 0.5))
    assert f[1] == pytest.approx(1.2 - 2.0 * 0.5 + 25 * 0.5)
    assert f[2] == pytest.approx(-2.0 + 0.5 * -1.2)


def test_pmsm_perturbation_bounded():
    # every shipped plant's perturbation, called once on an array of times,
    # meets the bound it declares
    t = np.linspace(0.0, 10.0, 5001)
    for model in (make_pmsm(), make_pmsm(perturbed=False), make_lemma2_plant(1.0)):
        d = np.broadcast_to(model.perturbation(t), (t.size, model.n))
        assert np.all(np.abs(d) <= model.perturbation_bounds), model.name
    np.testing.assert_array_equal(make_pmsm().perturbation_bounds, np.ones(3))


def test_pmsm_unperturbed_variant():
    model = make_pmsm(perturbed=False)
    np.testing.assert_array_equal(model.perturbation(0.37), np.zeros(3))
    np.testing.assert_array_equal(model.perturbation_bounds, np.zeros(3))
    # drift and gain are the same as the perturbed benchmark
    x = np.array([1.0, 2.0, -0.5])
    np.testing.assert_array_equal(model.drift(x), make_pmsm().drift(x))


def test_lemma2_plant_values():
    model = make_lemma2_plant(1.0)
    assert model.drift(np.zeros(1))[0] == 0.0
    assert model.drift(np.ones(1))[0] == pytest.approx(-SQRT_PI_HALF * np.e, abs=1e-12)


def test_lemma2_plant_odd():
    model = make_lemma2_plant(2.0)
    for x in (0.1, 0.7, 1.5, 3.0):
        assert model.drift(np.array([-x]))[0] == -model.drift(np.array([x]))[0]


def test_lemma2_plant_rejects_nonpositive_alpha():
    # the schema keeps the plant's alpha positive
    for alpha in (0.0, -1.0):
        cfg = json.loads((CONFIG_DIR / "lemma2.json").read_text())
        cfg["system"]["alpha"] = alpha
        with pytest.raises(ConfigError, match="at system"):
            cli.validate_config(cfg)


def test_zero_reference():
    ref = zero_reference(3)
    np.testing.assert_array_equal(ref.value(2.7), np.zeros(3))
    np.testing.assert_array_equal(ref.derivative(2.7), np.zeros(3))


def test_constant_reference():
    ref = constant_reference([0.7, -0.2])
    np.testing.assert_array_equal(ref.value(1.0), [0.7, -0.2])
    np.testing.assert_array_equal(ref.derivative(1.0), np.zeros(2))


def test_sinusoid_reference_derivative_is_analytic():
    ref = sinusoid_reference([1.0, 0.5], [2.0, 3.0], [0.0, 0.25])
    for t in (0.0, 0.3, 1.7):
        np.testing.assert_allclose(
            ref.value(t),
            [np.sin(2.0 * t), 0.5 * np.sin(3.0 * t + 0.25)],
            rtol=1e-14,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            ref.derivative(t),
            [2.0 * np.cos(2.0 * t), 1.5 * np.cos(3.0 * t + 0.25)],
            rtol=1e-14,
            atol=1e-14,
        )


def test_sinusoid_reference_shape_mismatch():
    with pytest.raises(ParameterError):
        sinusoid_reference([1.0, 2.0], [1.0])


@pytest.mark.parametrize("config", ["pmsm-known", "pmsm-gp", "lemma2"])
def test_time_signals_on_grid_equal_per_time_values(config):
    # The engine evaluates the time signals once over the grid; on each
    # shipped grid that must give every per-time value bit for bit.
    sim_cfg = json.loads((CONFIG_DIR / f"{config}.json").read_text())["sim"]
    step = StepConfig(step_size=sim_cfg["step_size"], t_end=sim_cfg["t_end"])
    t_grid = np.arange(step.n_steps + 1) * step.step_size
    ref = sinusoid_reference([1.0, 0.5, 0.2], [3.0, 2.0, 1.0], [0.0, 0.3, 0.6])
    for fn in (make_pmsm().perturbation, ref.value, ref.derivative):
        on_grid = fn(t_grid)
        per_time = np.array([fn(t) for t in t_grid.tolist()])
        assert on_grid.shape == per_time.shape == (t_grid.size, 3)
        assert on_grid.tobytes() == per_time.tobytes()
