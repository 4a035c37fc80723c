"""End-to-end acceptance gate.

Eight independent checks, each printing one PASS/FAIL line through pytest's
terminal reporter so the whole gate is readable straight from the -v output.
The heavyweight Monte-Carlo batches are shared module fixtures.
"""

import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_unperturbed_pmsm, standard_gains
from fxtsmc.cli import main
from fxtsmc.controller import bound_report
from fxtsmc.gp import (
    GPDataset,
    KernelConfig,
    DriftEstimator,
    generate_training_data,
    gp_fit,
    variance_many,
)
from fxtsmc.numerics import StepConfig
from fxtsmc.sim import Scenario, run_monte_carlo, simulate, summarize_run
from fxtsmc.system import make_lemma2_plant, make_pmsm, zero_reference

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

QUOTED_T_MAX = 3.7544
IC_BOXES = ([(-1.0, 1.0)] * 3, [(-10.0, 10.0)] * 3, [(-100.0, 100.0)] * 3)
RUNS_PER_BOX = 30
BATCH_SEED = 42
SETTLE_THRESHOLD = 0.02


def report(request, number: int, slug: str, ok: bool, detail: str) -> None:
    """One PASS/FAIL line per criterion, visible in the live terminal output."""
    line = f"criterion {number} ({slug}): {'PASS' if ok else 'FAIL'} — {detail}"
    tr = request.config.pluginmanager.getplugin("terminalreporter")
    if tr is not None:
        tr.write_line(line)
    print(line)


def batch_template() -> Scenario:
    return Scenario(
        system=make_pmsm(),
        reference=zero_reference(3),
        params=standard_gains(),
        x0=np.ones(3),
        step=StepConfig(step_size=1e-4, t_end=1.0),
        settle_threshold=SETTLE_THRESHOLD,
    )


@pytest.fixture(scope="module")
def mc_batches():
    """Criterion-3 experiment: one 30-run batch per initial-condition box."""
    template = batch_template()
    start = time.perf_counter()
    results = [
        run_monte_carlo(template, box, runs=RUNS_PER_BOX, seed=BATCH_SEED)
        for box in IC_BOXES
    ]
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def replayed_batches(mc_batches):
    """Re-simulated trajectories of every batch run, with V_s bookkeeping.

    Replaying from the stored initial states must reproduce the batch
    bitwise (checked against the recorded settling times); the per-run
    Lyapunov scan happens stream-wise so no trajectory is kept around.
    """
    results, _ = mc_batches
    template = batch_template()
    h = template.step.step_size
    per_run = []
    settling_matches = True
    for x0s, doc in results:
        for i, summary in enumerate(doc["runs"]):
            scenario = dataclasses.replace(template, x0=x0s[i])
            traj = simulate(scenario)
            if summarize_run(traj, scenario)["settling_error"] != summary["settling_error"]:
                settling_matches = False
            floor = 10.0 * h * float(np.max(np.abs(traj.u)))
            v = 0.5 * traj.s * traj.s
            dv = np.diff(v, axis=0)
            active = np.abs(traj.s[:-1]) > floor
            per_run.append(
                {
                    "floor": floor,
                    "active": int(active.sum()),
                    "violations": int((dv[active] > 0.0).sum()),
                }
            )
    return per_run, settling_matches


# --- 1. settling-time bound table ---------------------------------------------------


def test_criterion_1_bound_table(request, capsys):
    start = time.perf_counter()
    code = main(["bounds", str(CONFIG_DIR / "pmsm-known.json")])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0

    row = next(line for line in out.splitlines() if line.strip().startswith("1 "))
    t_z, t_s = (float(v) for v in row.split()[1:3])
    note = next(line for line in out.splitlines() if line.startswith("note:"))

    ok = (
        abs(t_z - 0.92593) < 1e-4
        and abs(t_s - 0.34825) < 1e-4
        and "2.8284" in note
        and "0.57364" in note
        and elapsed < 1.0
    )
    report(
        request, 1, "bound table", ok,
        f"T_z = {t_z}, T_s = {t_s}, discrepancy note present, {elapsed:.2f} s",
    )
    assert abs(t_z - 0.92593) < 1e-4
    assert abs(t_s - 0.34825) < 1e-4
    assert "2.8284" in note and "0.57364" in note
    assert elapsed < 1.0


# --- 2. analytic settling oracle ----------------------------------------------------


def test_criterion_2_settling_oracle(request):
    start = time.perf_counter()
    measured = {}
    for x0 in (0.5, 1.0, 2.0):
        scenario = Scenario(
            system=make_lemma2_plant(1.0),
            reference=zero_reference(1),
            params=None,
            x0=np.array([x0]),
            step=StepConfig(step_size=1e-5, t_end=1.2),
            mode="open-loop",
            settle_threshold=1e-3,
        )
        measured[x0] = summarize_run(simulate(scenario), scenario)["settling_error"][0]
    elapsed = time.perf_counter() - start

    rel_errs = {x0: abs(t / math.erf(x0) - 1.0) for x0, t in measured.items()}
    ok = max(rel_errs.values()) < 0.02 and max(measured.values()) <= 1.0 and elapsed < 10.0
    report(
        request, 2, "settling oracle", ok,
        f"worst oracle error {max(rel_errs.values()):.2%}, "
        f"max settling {max(measured.values()):.4f} <= 1, {elapsed:.1f} s",
    )
    for x0, t in measured.items():
        assert t == pytest.approx(math.erf(x0), rel=0.02)
        assert t <= 1.0
    assert elapsed < 10.0


# --- 3. settling time independent of the initial-condition box ----------------------


def test_criterion_3_fixed_time_settling(request, mc_batches):
    results, elapsed = mc_batches
    maxima = [doc["aggregate"]["max_settling_error"] for _, doc in results]
    all_settled = all(doc["aggregate"]["n_settled"] == RUNS_PER_BOX for _, doc in results)

    # Within [-1,1]^3 the settling time still grows with |z0| (it only
    # saturates once erf(|z0|) ~ 1), so the 10%-flatness comparison is made
    # between the two saturated boxes; the small box is reported alongside.
    saturated_flat = maxima[2] <= 1.1 * maxima[1]
    under_bound = all_settled and max(maxima) <= QUOTED_T_MAX

    ok = under_bound and saturated_flat and elapsed < 120.0
    report(
        request, 3, "fixed-time settling", ok,
        f"box maxima {maxima[0]:.4f}/{maxima[1]:.4f}/{maxima[2]:.4f} "
        f"all <= {QUOTED_T_MAX}; 10x box widening adds "
        f"{100.0 * (maxima[2] / maxima[1] - 1.0):+.1f}%; {elapsed:.0f} s",
    )
    assert all_settled
    assert max(maxima) <= QUOTED_T_MAX
    assert saturated_flat
    assert elapsed < 120.0


# --- 4. discrete Lyapunov decrease ---------------------------------------------------


def test_criterion_4_lyapunov_decrease(request, replayed_batches):
    per_run, settling_matches = replayed_batches
    violations = sum(r["violations"] for r in per_run)
    active = sum(r["active"] for r in per_run)

    ok = violations == 0 and settling_matches
    report(
        request, 4, "Lyapunov decrease", ok,
        f"{violations} violations over {active} active samples "
        f"in {len(per_run)} replayed runs; replay matches batch: {settling_matches}",
    )
    assert settling_matches
    assert violations == 0


# --- 5. GP regression properties -----------------------------------------------------


def test_criterion_5_gp_regression(request):
    start = time.perf_counter()
    pmsm = make_pmsm()
    kernel = KernelConfig(family="exponential", length_scale=1.0)
    region = [(-3.0, 3.0)] * 3

    models = {}
    residuals = {}
    for n in (5, 50):
        models[n] = gp_fit(generate_training_data(pmsm, n, region, sigma_f=0.0, seed=7), kernel)
        dataset = models[n].dataset
        estimate = DriftEstimator(models[n])(dataset.inputs)
        residuals[n] = float(np.max(np.abs(estimate - dataset.targets)))

    # (b) variance on a 20^3 grid, before and after one extra observation.
    axis = np.linspace(-2.0, 2.0, 20)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    base = models[50]
    var_before = variance_many(base, grid)
    x_new = np.array([0.5, 0.5, 0.5])
    appended = GPDataset(
        inputs=np.vstack([base.dataset.inputs, x_new]),
        targets=np.vstack([base.dataset.targets, pmsm.drift(x_new)]),
        noise_std=0.0,
        seed=base.dataset.seed,
    )
    var_after = variance_many(gp_fit(appended, kernel), grid)

    # (c) held-out drift RMS over a closed-loop trajectory's visited states.
    traj = simulate(
        dataclasses.replace(
            batch_template(), step=StepConfig(step_size=1e-3, t_end=1.0)
        )
    )
    rms = {}
    for n, model in models.items():
        estimator = DriftEstimator(model)
        err = np.stack([estimator(x) - pmsm.drift(x) for x in traj.x])
        rms[n] = float(np.sqrt(np.mean(err**2)))
    elapsed = time.perf_counter() - start

    ok = (
        max(residuals.values()) < 1e-8
        and var_before.min() >= 0.0
        and var_after.min() >= 0.0
        and np.all(var_after <= var_before)
        and rms[50] < rms[5]
        and elapsed < 30.0
    )
    report(
        request, 5, "GP regression", ok,
        f"residual {max(residuals.values()):.1e} < 1e-8; grid variance >= 0, "
        f"max change after append {np.max(var_after - var_before):+.1e}; "
        f"held-out RMS {rms[5]:.3f} -> {rms[50]:.3f}; {elapsed:.1f} s",
    )
    assert max(residuals.values()) < 1e-8
    assert var_before.min() >= 0.0 and var_after.min() >= 0.0
    assert np.all(var_after <= var_before)
    assert rms[50] < rms[5]
    assert elapsed < 30.0


# --- 6. learned-model closed loop -----------------------------------------------------


def test_criterion_6_gp_closed_loop(request):
    start = time.perf_counter()
    pmsm = make_pmsm()
    kernel = KernelConfig(family="exponential", length_scale=1.0)
    dataset = generate_training_data(pmsm, 50, [(-3.0, 3.0)] * 3, sigma_f=0.01, seed=11)
    model = gp_fit(dataset, kernel)
    chi = 2.0
    step = StepConfig(step_size=1e-4, t_end=1.5)
    d_bar = 1.0

    def gp_scenario(x0, alpha2):
        return Scenario(
            system=pmsm,
            reference=zero_reference(3),
            params=standard_gains(alpha2=alpha2, d_bar=d_bar),
            x0=x0,
            step=step,
            mode="gp-based",
            gp_model=model,
            settle_threshold=0.05,
        )

    def max_chi_sigma(traj):
        states = traj.x[:: max(1, traj.x.shape[0] // 1000)]
        # one posterior variance serves every channel
        return np.full(3, chi * float(np.sqrt(variance_many(model, states)).max()))

    # Pilot run from the box corner sizes the model-error budget, then the
    # reaching gain is raised clear of d_bar + max chi*sigma with margin.
    pilot = simulate(gp_scenario(np.array([2.0, 2.0, 2.0]), alpha2=4.0))
    pilot_budget = float(max_chi_sigma(pilot).max())
    alpha2 = d_bar + pilot_budget + 1.5

    rng = np.random.default_rng(2026)
    x0s = rng.uniform(-2.0, 2.0, size=(20, 3))
    settling = np.empty(20)
    budgets = np.zeros(3)
    for i, x0 in enumerate(x0s):
        scenario = gp_scenario(x0, alpha2)
        traj = simulate(scenario)
        settling[i] = np.max(np.array(summarize_run(traj, scenario)["settling_error"], dtype=float))
        budgets = np.maximum(budgets, max_chi_sigma(traj))

    params = standard_gains(alpha2=alpha2, d_bar=d_bar)
    bounds = bound_report(params, delta_f_bars=budgets)
    elapsed = time.perf_counter() - start

    # theorem 2's gain condition on the reaching gain the law applies
    reach_gain = params.reach_gain.min()
    gain_ok = reach_gain > d_bar + budgets.max()
    settle_ok = np.all(np.isfinite(settling)) and settling.max() <= bounds["t_max"]
    ok = gain_ok and settle_ok and elapsed < 120.0
    report(
        request, 6, "learned-model loop", ok,
        f"kappa*alpha2 = {reach_gain:.3f} > {d_bar + budgets.max():.3f}; "
        f"max settling {settling.max():.4f} <= T_max {bounds['t_max']:.4f} "
        f"over 20 starts; {elapsed:.0f} s",
    )
    assert gain_ok
    assert settle_ok
    assert elapsed < 120.0


# --- 7. discrete reaching-law cancellation --------------------------------------------


def test_criterion_7_exact_cancellation(request):
    start = time.perf_counter()
    alpha2 = 4.0
    h = 1e-4
    scenario = Scenario(
        system=make_unperturbed_pmsm(),
        reference=zero_reference(3),
        params=standard_gains(alpha2=alpha2, d_bar=0.0),
        x0=np.ones(3),
        step=StepConfig(step_size=h, t_end=0.5),
    )
    traj = simulate(scenario)
    s = traj.s
    fd = np.diff(s, axis=0) / h
    target = -(math.sqrt(math.pi) / 2.0) * alpha2 * np.exp(s[:-1] ** 2) * np.sign(s[:-1])
    floor = 10.0 * h * float(np.max(np.abs(traj.u)))
    keep = np.abs(s[:-1]) > floor
    rel_err = np.abs(fd[keep] - target[keep]) / np.abs(target[keep])
    elapsed = time.perf_counter() - start

    ok = keep.sum() > 0 and rel_err.max() < 1e-3 and elapsed < 10.0
    report(
        request, 7, "reaching-law cancellation", ok,
        f"max relative error {rel_err.max():.2e} over {int(keep.sum())} samples "
        f"outside the chatter band; {elapsed:.1f} s",
    )
    assert keep.sum() > 0
    assert rel_err.max() < 1e-3
    assert elapsed < 10.0


# --- 8. byte-identical artifacts -------------------------------------------------------


def test_criterion_8_deterministic_artifacts(request, tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "pmsm-known.json").read_text())
    cfg["sim"]["t_end"] = 1.0
    config_path = tmp_path / "batch.json"
    config_path.write_text(json.dumps(cfg))

    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            assert main(
                ["montecarlo", str(config_path),
                 "--runs", str(RUNS_PER_BOX), "--ic-box", "-1,1",
                 "--seed", str(BATCH_SEED)]
            ) == 0
            assert main(["run", str(config_path)]) == 0
        finally:
            os.chdir(cwd)
    capsys.readouterr()

    names = ("batch-runs.jsonl", "batch-mc.json", "batch-trajectory.csv", "batch-summary.json")
    identical = {
        name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    }
    ok = all(identical.values())
    report(
        request, 8, "deterministic artifacts", ok,
        "byte-identical: " + ", ".join(f"{n}={v}" for n, v in identical.items()),
    )
    for name in names:
        assert identical[name], f"{name} differs between repeated invocations"
