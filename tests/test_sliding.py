import numpy as np
import pytest

from fxtsmc import cli
from fxtsmc.controller import ControllerParams, bound_report
from fxtsmc.errors import ConfigError, ParameterError
from fxtsmc.numerics import EXP_CLAMP, StepConfig, safe_exp
from fxtsmc.sim import Scenario, simulate
from fxtsmc.sliding import integrand
from fxtsmc.system import make_pmsm, zero_reference

from conftest import make_integrator_plant


def surface_params(alpha1=6.0, p=8, q=10):
    """One channel's gains, with the surface's alpha1 and p/q as given."""
    return ControllerParams(1, alpha1=alpha1, alpha2=4.0, p=p, q=q)


def test_params_exponent():
    assert surface_params(alpha1=6.0, p=8, q=10).exponent[0] == pytest.approx(0.8)
    assert surface_params(alpha1=2.0, p=0, q=1).exponent[0] == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha1": 0.0, "p": 8, "q": 10},
        {"alpha1": -1.0, "p": 8, "q": 10},
        {"alpha1": 1.0, "p": 10, "q": 10},  # p/q = 1
        {"alpha1": 1.0, "p": 11, "q": 10},  # p/q > 1
        {"alpha1": 1.0, "p": -1, "q": 10},
        {"alpha1": 1.0, "p": 1, "q": 0},
    ],
)
def test_params_rejects_bad_domains(kwargs):
    # the config schema holds each gain's range, and ControllerParams p < q
    cfg = {"system": {"builtin": "lemma2"}, "sim": {"step_size": 1e-3, "t_end": 1.0},
           "controller": {"alpha2": 4.0, **kwargs}}
    with pytest.raises((ConfigError, ParameterError), match=r"alpha1|p/q|controller/[pq]"):
        cli.validate_config(cfg)
        cli.build_controller_params(cfg, 1)


def test_integrand_values():
    expo = 8 / 10
    assert integrand(0.0, expo) == 0.0
    assert integrand(1.0, expo) == pytest.approx(np.e, rel=1e-15)
    assert integrand(-1.0, expo) == pytest.approx(-np.e, rel=1e-15)


def test_integrand_odd():
    expo = 3 / 7
    for z in (0.1, 0.9, 2.3, 5.0):
        assert integrand(-z, expo) == -integrand(z, expo)


def test_integrand_odd_over_exponents():
    z = np.random.default_rng(0).uniform(-10.0, 10.0, size=200)
    for p, q in ((0, 1), (3, 10), (8, 10), (99, 100)):
        expo = p / q
        np.testing.assert_array_equal(integrand(-z, expo), -integrand(z, expo))


def test_integrand_increasing_in_z():
    # the backward-Euler z-solve needs an increasing integrand
    z = np.sort(np.random.default_rng(1).uniform(-5.0, 5.0, size=500))
    for p, q in ((0, 1), (3, 10), (8, 10), (99, 100)):
        y = integrand(z, p / q)
        assert np.all(np.diff(y) >= 0.0)


@pytest.mark.parametrize("exponent", [0.0, 0.8])
def test_integrand_equals_its_expression_form_and_keeps_its_input(exponent):
    # The integrand fills its arrays in place; the expression form takes a
    # new array per operation. Bit for bit at signed zeros, subnormals, past
    # sqrt(EXP_CLAMP), at infinities and at NaNs of either sign, for a scalar
    # exponent and for one per element as the step loop passes it.
    tiny = np.finfo(float).smallest_subnormal
    edge = np.sqrt(EXP_CLAMP)
    z = np.array([
        0.0, -0.0, tiny, -tiny, 3e-310, -2.2e-308, 0.5, -1.0, edge, -np.nextafter(edge, 10.0),
        7.5, -30.0, 1e154, -1e200, np.inf, -np.inf, np.nan, -np.nan,
    ])
    before = z.tobytes()
    for e in (exponent, np.full(z.shape, exponent)):
        with np.errstate(over="ignore"):
            expected = np.exp(np.minimum(z * z, EXP_CLAMP)) * (np.abs(z) ** e * np.sign(z))
            got = integrand(z, e)
        assert got.tobytes() == expected.tobytes()
        assert z.tobytes() == before


def surface_run(z0, params, step_size, t_end, plain=True):
    """Closed-loop run of the integrator plant x' = u from z0; with ``plain``,
    every step of it must be the plain step x += h * u."""
    traj = simulate(Scenario(
        system=make_integrator_plant(),
        reference=zero_reference(1),
        params=params,
        x0=np.array([z0]),
        step=StepConfig(step_size=step_size, t_end=t_end),
    ))
    if plain:
        assert np.array_equal(traj.x[1:], traj.x[:-1] + step_size * traj.u[:-1])
    return traj


def test_advance_accumulates_one_euler_step():
    params = surface_params()
    traj = surface_run(1.0, params, 1e-3, 1e-3)
    integral = 1e-3 * integrand(traj.z[0], params.exponent)
    assert traj.s[1, 0] == traj.z[1, 0] + params.alpha1[0] * integral[0]

    traj = surface_run(0.0, params, 0.1, 0.1)
    assert traj.s[1, 0] == 0.0


def test_sliding_value_examples():
    # s = z + alpha1 * integral, with the integral one Euler increment of the
    # integrand at the z of the row before
    params = surface_params()
    assert surface_run(0.0, params, 0.1, 0.1).s[0, 0] == 0.0
    traj = surface_run(2.0, params, 1e-3, 1e-3)
    assert traj.s[1, 0] == traj.z[1, 0] + 6.0 * (1e-3 * integrand(np.array([2.0]), 0.8)[0])


def test_sliding_equals_error_at_time_zero():
    # the integral starts empty, so s(0) = z for any z and gains
    for alpha1, p, q in ((6.0, 8, 10), (2.0, 0, 1), (0.5, 1, 3)):
        params = surface_params(alpha1=alpha1, p=p, q=q)
        for z in (-4.0, -0.3, 0.0, 1.7):
            assert surface_run(z, params, 1e-3, 1e-3, plain=False).s[0, 0] == z


def test_surface_is_z_plus_alpha1_times_the_summed_integrand():
    # on every plain-step row, s = z + alpha1 * I bit for bit, where I sums
    # h * integrand(z) over the rows before, in order
    h = 1e-4
    params = surface_params()
    for z0 in (-1.5, 0.7, 2.0):
        traj = surface_run(z0, params, h, 0.5)
        increments = h * integrand(traj.z[:-1], params.exponent)
        summed = np.concatenate([np.zeros((1, 1)), np.cumsum(increments, axis=0)])
        assert np.array_equal(traj.s, traj.z + params.alpha1 * summed)


def test_accumulator_matches_trapezoid_quadrature():
    # independent recomputation: the incremental integral reconstructed from
    # (s - z)/alpha1 at t_end must agree with trapezoidal quadrature of the
    # logged z-series to within O(h)
    h, t_end = 1e-3, 0.5
    scenario = Scenario(
        system=make_pmsm(),
        reference=zero_reference(3),
        params=ControllerParams(3, alpha1=6.0, alpha2=4.0, p=8, q=10, d_bar=1.0),
        x0=np.ones(3),
        step=StepConfig(step_size=h, t_end=t_end),
        settle_threshold=0.02,
    )
    traj = simulate(scenario)
    values = integrand(traj.z, scenario.params.exponent)
    quad = np.trapezoid(values, traj.t, axis=0)
    incremental = (traj.s[-1] - traj.z[-1]) / 6.0
    tol = 10.0 * h * t_end * np.max(np.abs(values))
    np.testing.assert_allclose(incremental, quad, atol=tol)


def test_on_manifold_error_dynamics_settle_within_bound():
    # On s = 0 the error obeys z' = -alpha1 e^{z^2} |z|^{p/q} sign(z); a
    # rate-guarded Euler loop must drive |z| below 1e-3 within the z-phase
    # settling bound, including from far-field starts.
    alpha1, expo = 6.0, 0.8
    bound = bound_report(surface_params(alpha1=alpha1))["t_z"]
    h = 1e-4
    for z0 in (0.1, 1.0, 10.0):
        z, t = z0, 0.0
        while t < bound and abs(z) >= 1e-3:
            rate = alpha1 * float(safe_exp(z * z)) * abs(z) ** expo
            h_sub = min(h, 0.5 * (abs(z) + 1.0) / rate)
            z -= h_sub * rate * np.sign(z)
            t += h_sub
        assert abs(z) < 1e-3, f"z0={z0} did not settle within {bound}"
