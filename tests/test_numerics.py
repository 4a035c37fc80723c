import numpy as np
import pytest
from scipy.special import erf, erfinv

from fxtsmc.errors import ParameterError, SimulationDivergedError
from fxtsmc.numerics import EXP_CLAMP, StepConfig, safe_exp
from fxtsmc.sim import Scenario, simulate
from fxtsmc.system import ConstantGain, SystemModel, make_lemma2_plant, zero_reference


def test_safe_exp_values():
    assert safe_exp(0.0) == 1.0
    assert safe_exp(1.0) == pytest.approx(np.e, rel=1e-15)
    assert safe_exp(1000.0) == np.exp(EXP_CLAMP)


def test_safe_exp_always_finite():
    x = np.array([-1e308, -50.0, 0.0, 49.0, 50.0, 51.0, 700.0, 1e308])
    assert np.all(np.isfinite(safe_exp(x)))


def test_step_config_basics():
    cfg = StepConfig(step_size=1e-4, t_end=1.0)
    assert cfg.n_steps == 10000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step_size": 0.0, "t_end": 1.0},
        {"step_size": -1e-4, "t_end": 1.0},
        {"step_size": 1e-4, "t_end": -0.5},
        {"step_size": 1e-4, "t_end": float("nan")},
        {"step_size": 0.1, "t_end": 0.35},  # off the step grid
    ],
)
def test_step_config_rejects_bad_inputs(kwargs):
    with pytest.raises(ParameterError):
        StepConfig(**kwargs)


def test_step_config_accepts_rounded_grid():
    # 0.3 is not exactly representable; the grid check must tolerate that.
    cfg = StepConfig(step_size=0.1, t_end=0.3)
    assert cfg.n_steps == 3


# --- stepping (done by the simulation engine) ----------------------------------


def open_loop(drift, x0, step_size, t_end, perturbation=None):
    """Uncontrolled run of x' = drift(x) + perturbation(t) on the engine."""
    n = len(x0)
    zeros = np.zeros(n)
    model = SystemModel(
        n=n,
        drift=drift,
        gain=ConstantGain(np.ones(n)),
        perturbation=perturbation or (lambda t: zeros),
        name="open-loop",
    )
    scenario = Scenario(
        system=model,
        reference=zero_reference(n),
        params=None,
        x0=np.asarray(x0, dtype=float),
        step=StepConfig(step_size=step_size, t_end=t_end),
        mode="open-loop",
    )
    return simulate(scenario)


def test_integrate_step_zero_derivative():
    traj = open_loop(lambda x: np.zeros(1), [3.0], 0.5, 1.0)
    assert traj.x[1, 0] == 3.0


def test_integrate_step_euler_constant_rate():
    traj = open_loop(lambda x: np.ones(1), [0.0], 0.1, 1.0)
    assert traj.x[1, 0] == pytest.approx(0.1, abs=1e-15)


def test_convergence_order_on_the_lemma2_oracle():
    # Open loop from x0 = 1 the lemma2 plant has erf(x(t)) = erf(1) - t; up to
    # t = 0.4 x stays away from the sign switch at 0, so each halving of h
    # must cut the error at t = 0.4 by 2**order, order 1 for euler.
    drift = make_lemma2_plant(1.0).drift
    exact = erfinv(erf(1.0) - 0.4)
    errors = [
        abs(open_loop(drift, [1.0], h, 0.4).x[-1, 0] - exact)
        for h in 0.02 / 2.0 ** np.arange(5)
    ]
    observed = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((0.95 <= observed) & (observed <= 1.05)), observed


def test_integrate_step_reports_non_finite_channel():
    def perturbation(t):
        return np.where(np.asarray(t)[..., None] >= 0.25, [0.0, np.inf, 0.0], 0.0)

    with pytest.raises(SimulationDivergedError) as exc:
        open_loop(lambda x: np.zeros(3), np.zeros(3), 0.25, 1.0, perturbation=perturbation)
    assert exc.value.channel == 1
    assert exc.value.t == 0.25
