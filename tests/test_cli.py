"""Command-line front end: config validation, overrides, artifacts, exit codes."""

import dataclasses
import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import assert_no_child_left, fail_helper_blocks, set_csv_cpus
from fxtsmc import cli
from fxtsmc.cli import CONFIG_SCHEMA, _gp_delta_f_bars, apply_override, build_gp_model, main
from fxtsmc.controller import bound_report
from fxtsmc.errors import (
    IllConditionedDataError,
    NumericError,
    SimulationDivergedError,
)
from fxtsmc.gp import GPDataset, KernelConfig, generate_training_data, gp_fit, variance_many
from fxtsmc.system import make_pmsm

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KNOWN = CONFIG_DIR / "pmsm-known.json"
GP = CONFIG_DIR / "pmsm-gp.json"
LEMMA2 = CONFIG_DIR / "lemma2.json"

FAST = ["--set", "sim.step_size=1e-3", "--set", "sim.t_end=0.3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ----------------------------------------------------------------------


@pytest.mark.parametrize("config", [KNOWN, GP, LEMMA2], ids=lambda p: p.stem)
def test_validate_accepts_shipped_configs(capsys, config):
    code, out, _ = run_cli(capsys, "validate", str(config))
    assert code == 0
    assert out.strip().endswith("ok")


def test_validate_rejects_unknown_keys(capsys, tmp_path):
    cfg = json.loads(KNOWN.read_text())
    cfg["extras"] = {"typo": True}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "extras" in err


RK4 = ("sim", "method", "rk4", ["'rk4' was removed", "first order"])
LAYER_WHY = ["boundary layer was removed", "true sign(s)"]
KAPPA_WHY = ["the mode sets kappa", "scale alpha2 instead"]


@pytest.mark.parametrize(
    "command, retired",
    [("validate", RK4), ("run", RK4), ("montecarlo", RK4),
     # any value is refused, 0 too, which kept the true sign
     ("validate", ("controller", "sign_boundary_layer", 0, LAYER_WHY)),
     ("run", ("controller", "sign_boundary_layer", [0, 0.01, 0], LAYER_WHY)),
     # true too, which was the known-model default
     ("validate", ("controller", "include_sqrt_pi_factor", True, KAPPA_WHY)),
     ("run", ("controller", "include_sqrt_pi_factor", [True, False, True], KAPPA_WHY))],
    ids=["validate", "run", "montecarlo", "sign_boundary_layer-validate",
         "sign_boundary_layer-run", "include_sqrt_pi_factor-validate",
         "include_sqrt_pi_factor-run"],
)
def test_removed_rk4_method_is_a_config_error_that_says_why(
    capsys, tmp_path, monkeypatch, command, retired
):
    # Under the switching law the closed loop is first order whatever the
    # plant stepper, so rk4 was removed; the settling theorems assume the
    # true sign(s), so the tanh(s/eps) boundary layer was removed; the mode
    # sets kappa, so the per-channel sqrt(pi)/2 switch was removed. A config
    # that asks for any of them is refused with that reason, by validate too.
    section, key, value, reason = retired
    monkeypatch.chdir(tmp_path)
    cfg = json.loads(KNOWN.read_text())
    cfg[section][key] = value
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(cfg))
    extra = {"validate": [], "run": FAST, "montecarlo": [*FAST, "--runs", "2", "--ic-box=-1,1"]}
    code, _, err = run_cli(capsys, command, str(path), *extra[command])
    assert code == 2
    assert f"config invalid at {section}/{key}: " in err
    assert all(words in err for words in reason)
    assert list(tmp_path.iterdir()) == [path]


def test_config_schema_is_a_valid_schema():
    # validate_config builds its validator once, without checking the schema
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("method", ["euler", "explicit-euler"])
def test_sim_method_names_the_one_stepper(capsys, tmp_path, monkeypatch, method):
    # sim.method may name euler, the one stepper, and then changes nothing
    # but the embedded config
    monkeypatch.chdir(tmp_path)
    rows = []
    for extra in ([], ["--set", f"sim.method={method}"]):
        code, _, _ = run_cli(capsys, "run", str(KNOWN), *FAST, *extra)
        assert code == 0
        lines = (tmp_path / "pmsm-known-trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert ('"method": ' in lines[0]) == bool(extra)
        rows.append(lines[1:])
    assert rows[0] == rows[1]


def test_sim_method_other_than_euler_is_a_config_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", str(KNOWN), *FAST, "--set", "sim.method=rk45")
    assert code == 2
    assert "config invalid at sim/method" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("how", ["validate", "set"])
def test_integer_literal_too_long_to_convert_is_a_config_error(
    capsys, tmp_path, monkeypatch, how
):
    # Python refuses to convert an integer literal of more than 4300 digits
    monkeypatch.chdir(tmp_path)
    digits = "1" * 4301
    if how == "validate":
        cfg = json.loads(KNOWN.read_text())
        cfg["sim"]["t_end"] = "DIGITS"
        path = tmp_path / "long.json"
        path.write_text(json.dumps(cfg).replace('"DIGITS"', digits))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert "not valid JSON" in err
    else:
        code, _, err = run_cli(capsys, "run", str(KNOWN), "--set", f"sim.t_end={digits}")
        assert "config invalid at sim/t_end" in err
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "assignment, where",
    [
        (f"sim.t_end={10**400}", "sim/t_end"),
        (f"controller.alpha1={10**400}", "controller/alpha1"),
        (f"sim.x0=[1, {-10**400}, 1]", "sim/x0/1"),
    ],
    ids=["t_end", "alpha1", "x0-element"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_integer_beyond_the_float_range_in_a_number_field_is_a_config_error(
    capsys, tmp_path, monkeypatch, command, assignment, where
):
    # the schema's "number" admits integers of any size; float() would overflow
    monkeypatch.chdir(tmp_path)
    if command == "validate":
        cfg = json.loads(KNOWN.read_text())
        apply_override(cfg, assignment)
        config = tmp_path / "big.json"
        config.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "validate", str(config))
        written = [config]
    else:
        code, _, err = run_cli(capsys, "run", str(KNOWN), "--set", assignment)
        written = []
    assert code == 2
    assert f"config invalid at {where}: integer beyond the float range" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == written


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("gp.chi=NaN", "config invalid at gp/chi: nan is not of type 'number'"),
        ("sim.settle_threshold=NaN",
         "config invalid at sim/settle_threshold: nan is not of type 'number'"),
        ("sim.step_size=NaN", "config invalid at sim/step_size: nan is not of type 'number'"),
        ("gp.kernel.length_scale=NaN",
         "config invalid at gp/kernel/length_scale: nan is not of type 'number'"),
        ("gp.generate.sigma_f=NaN",
         "config invalid at gp/generate/sigma_f: nan is not of type 'number'"),
    ],
    ids=["chi", "settle_threshold", "step_size", "length_scale", "sigma_f"],
)
def test_nan_in_a_bounded_number_field_is_a_parameter_error(
    capsys, tmp_path, monkeypatch, assignment, message
):
    # minimum and exclusiveMinimum admit NaN (NaN <= 0 is false), but the
    # schema's "number" is a finite one
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", str(GP), *FAST, "--set", assignment)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("chi", ["0", "-1"])
def test_chi_that_is_not_positive_is_a_config_error(capsys, tmp_path, monkeypatch, chi):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", str(GP), *FAST, "--set", f"gp.chi={chi}")
    assert code == 2
    assert err == ("config error: config invalid at gp/chi: "
                   f"{chi} is less than or equal to the minimum of 0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config, assignment, message",
    [
        (GP, 'reference={"kind":"constant","value":[NaN,0,0]}',
         "config invalid at reference/value/0: nan is not of type 'number'"),
        (GP, 'reference={"kind":"sinusoid","amplitude":[1,NaN,1],"frequency":[1,1,1]}',
         "config invalid at reference/amplitude/1: nan is not of type 'number'"),
        (GP, 'reference={"kind":"sinusoid","amplitude":[1,1,1],"frequency":[NaN,1,1]}',
         "config invalid at reference/frequency/0: nan is not of type 'number'"),
        (GP, 'reference={"kind":"sinusoid","amplitude":[1,1,1],"frequency":[1,1,1],'
             '"phase":[0,0,Infinity]}',
         "config invalid at reference/phase/2: inf is not of type 'number'"),
        (LEMMA2, "system.alpha=Infinity",
         "config invalid at system/alpha: inf is not of type 'number'"),
        (GP, "sim.settle_threshold=Infinity",
         "config invalid at sim/settle_threshold: inf is not of type 'number'"),
        (GP, "gp.chi=Infinity", "config invalid at gp/chi: inf is not of type 'number'"),
    ],
    ids=["constant", "amplitude", "frequency", "phase", "lemma2-alpha",
         "settle_threshold", "chi"],
)
def test_non_finite_input_is_a_parameter_error(
    capsys, tmp_path, monkeypatch, config, assignment, message
):
    # a non-finite reference or plant gain once ended in exit 4 at t = 0, and
    # an infinite threshold or chi ran to exit 0
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", str(config), *FAST, "--set", assignment)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("x0, where, value", [("nan,1,1", 0, "nan"), ("1,inf,1", 1, "inf")])
def test_non_finite_x0_is_a_config_error(capsys, tmp_path, monkeypatch, x0, where, value):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", str(KNOWN), *FAST, f"--x0={x0}")
    assert code == 2
    assert err == (f"config error: config invalid at sim/x0/{where}: "
                   f"{value} is not of type 'number'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_exponent_numerator_beyond_the_float_range_is_a_parameter_error(
    capsys, tmp_path, monkeypatch, command
):
    # p / q overflows a float for p = 10**400: p < q is checked in integers
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, command, str(KNOWN), *FAST, "--set", f"controller.p={10**400}")
    assert code == 2
    assert "parameter error" in err and "p/q" in err
    assert list(tmp_path.iterdir()) == []


def test_malformed_json_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "config error" in err


def test_missing_config_is_an_io_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", "no-such-file.json")
    assert code == 3
    assert "i/o error" in err
    assert list(tmp_path.iterdir()) == []  # nothing partially written


def test_a_failing_csv_helper_is_an_io_error(capsys, tmp_path, monkeypatch):
    # 301 rows: the helper process formats both blocks while the run steps,
    # and fails on the first
    monkeypatch.chdir(tmp_path)
    forks = set_csv_cpus(monkeypatch, 2)
    fail_helper_blocks(monkeypatch)
    code, _, err = run_cli(capsys, "run", str(KNOWN), *FAST)
    assert code == 3
    assert err == ("i/o error: pmsm-known-trajectory.csv: the CSV format helper stopped "
                   "before its last block\n")
    assert len(forks) == 1
    assert_no_child_left()


def diverge_mid_run(monkeypatch):
    """Make ``run``'s plant drift NaN from its 281st evaluation on, so a run
    of FAST's 301 rows fails after the helper has been sent its first block."""
    build_scenario = cli.build_scenario

    def build_diverging(cfg):
        scenario = build_scenario(cfg)
        drift, calls = scenario.system.drift, []

        def late_nan(x):
            calls.append(1)
            return drift(x) * (np.nan if len(calls) > 280 else 1.0)

        system = dataclasses.replace(scenario.system, drift=late_nan)
        return dataclasses.replace(scenario, system=system)

    monkeypatch.setattr(cli, "build_scenario", build_diverging)


@pytest.mark.parametrize(
    "case, config, argv, code, err",
    [
        ("diverging", KNOWN, [], 4, "numeric error: SimulationDivergedError: "),
        ("gp-bound-refused", GP, ["--set", "controller.alpha1=1e-320"], 2,
         "parameter error: T_z entries must be positive and finite"),
        ("unwritable-csv", KNOWN, ["--set", "output.trajectory_csv=missing/t.csv"], 3,
         "i/o error: [Errno 2] No such file or directory"),
        ("failed-write", KNOWN, ["--set", "output.trajectory_csv=/dev/full"], 3,
         "i/o error: [Errno 28] No space left on device"),
    ],
    ids=["diverging", "gp-bound-refused", "unwritable-csv", "failed-write"],
)
def test_the_csv_helper_is_reaped_whatever_ends_the_run(capsys, tmp_path, monkeypatch, case,
                                                        config, argv, code, err):
    # The helper is forked before the first step: the run diverges, the CSV
    # cannot be opened, or writing it fails. A gp run whose T_z is refused
    # ends before that step, so it forks none. Each exits with its code,
    # writes no CSV, and leaves no process.
    if case == "failed-write" and not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    monkeypatch.chdir(tmp_path)
    forks = set_csv_cpus(monkeypatch, 2)
    if case == "diverging":
        diverge_mid_run(monkeypatch)
    got, _, stderr = run_cli(capsys, "run", str(config), *FAST, *argv)
    assert (got, stderr.count("\n")) == (code, 1)
    assert stderr.startswith(err)
    assert len(forks) == (0 if case == "gp-bound-refused" else 1)
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left()


# --- bounds ------------------------------------------------------------------------


def test_bounds_table_for_benchmark_gains(capsys):
    code, out, _ = run_cli(capsys, "bounds", str(KNOWN))
    assert code == 0
    row = next(line for line in out.splitlines() if line.strip().startswith("1 "))
    cells = row.split()
    assert float(cells[1]) == pytest.approx(0.92593, abs=1e-5)
    assert float(cells[2]) == pytest.approx(0.34824, abs=1e-5)
    agg = next(line for line in out.splitlines() if "aggregate known-model" in line)
    assert "T_max = 1.27416" in agg
    note = next(line for line in out.splitlines() if line.startswith("note:"))
    for quoted in ("2.8284", "0.57364", "3.7544"):
        assert quoted in note


def test_bounds_set_override_can_violate_gain_condition(capsys):
    # alpha2 = 1 < (2/sqrt(pi)) * d_bar: the table's known-model T_s is negative
    code, out, err = run_cli(
        capsys, "bounds", str(KNOWN), "--set", "controller.alpha2=1.0"
    )
    assert code == 2
    assert (out, err) == ("", "parameter error: T_s entries must be positive and finite: "
                              "(-7.789425828382358, -7.789425828382358, -7.789425828382358)\n")


def test_bounds_rejects_equal_exponents(capsys):
    code, _, err = run_cli(capsys, "bounds", str(KNOWN), "--set", "controller.p=10")
    assert code == 2
    assert "p" in err


@pytest.mark.parametrize("command", ["run", "bounds"])
@pytest.mark.parametrize(
    "assignment, message",
    [
        # a gain out of its range is a schema error at the channel's index
        ("controller.alpha1=[6, -1, 6]", "config error: config invalid at controller/alpha1/1: "
         "-1 is less than or equal to the minimum of 0"),
        ("controller.alpha2=[4, 0, 4]", "config error: config invalid at controller/alpha2/1: "
         "0 is less than or equal to the minimum of 0"),
        ("controller.d_bar=[1, -1, 1]", "config error: config invalid at controller/d_bar/1: "
         "-1 is less than the minimum of 0"),
        # p < q is the one gain check the schema cannot make
        ("controller.p=[8, 10, 8]",
         "parameter error: channel 2: exponent p/q must satisfy 0 <= p/q < 1, got 10/10"),
    ],
    ids=["alpha1", "alpha2", "d_bar", "p"],
)
def test_a_bad_gain_names_its_channel(capsys, tmp_path, monkeypatch, command, assignment, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, str(KNOWN), *FAST, "--set", assignment)
    assert code == 2
    assert (out, err) == ("", f"{message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gain", ["alpha1", "alpha2", "p", "q", "d_bar"])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_open_loop_takes_no_gains(capsys, tmp_path, monkeypatch, command, gain):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, str(LEMMA2), "--set", f"controller.{gain}=1")
    assert code == 2
    assert (out, err) == ("", f"config error: open-loop mode takes no gains, got "
                              f"controller.{gain}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_known_model_margin_short_of_d_bar_withholds_the_bound(capsys, tmp_path,
                                                                 monkeypatch):
    # (sqrt(pi)/2) * 1.1 < d_bar = 1: theorem 1's margin fails, so the run is
    # stepped and written without a bound, and a batch cannot pass the gate
    monkeypatch.chdir(tmp_path)
    short = ["--set", "controller.alpha2=1.1", *FAST]
    note = ("settling bound unavailable: channel 1: need alpha2 > (2/sqrt(pi))*d_bar = "
            "1.12838, got alpha2 = 1.1")
    code, out, err = run_cli(capsys, "run", str(KNOWN), *short)
    assert (code, err) == (0, "")
    assert note in out.splitlines() and "T_max" not in out
    assert "bounds" not in json.loads((tmp_path / "pmsm-known-summary.json").read_text())
    code, _, err = run_cli(capsys, "montecarlo", str(KNOWN), "--runs", "2", "--ic-box=-1,1",
                           "--require-bound", *short)
    assert code == 5
    assert err == f"{note}\nacceptance violation: settling bound not satisfied on every run\n"


def test_a_gain_list_of_the_wrong_length_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "bounds", str(KNOWN), "--set", "controller.alpha1=[6, 6]")
    assert code == 2
    assert err == "config error: controller.alpha1 needs 1 or 3 entries, got 2\n"


def test_a_bound_beyond_the_float_range_is_a_parameter_error(capsys):
    # 2 / alpha1 overflows: the bound is refused with no warning printed
    code, out, err = run_cli(capsys, "bounds", str(KNOWN), "--set", "controller.alpha1=1e-320")
    assert code == 2
    assert (out, err) == ("", "parameter error: T_z entries must be positive and finite: "
                              "(inf, inf, inf)\n")


def test_bounds_note_follows_the_exponent_not_its_terms(capsys):
    # p/q = 4/5 is the benchmark's 8/10
    code, out, _ = run_cli(capsys, "bounds", str(KNOWN), "--set", "controller.p=4",
                           "--set", "controller.q=5")
    assert code == 0
    assert "T_max = 1.27416" in out
    assert any(line.startswith("note: commonly quoted values") for line in out.splitlines())


# --- run ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command", [["run"], ["montecarlo", "--runs", "2", "--ic-box=-1,1"]],
    ids=["run", "montecarlo"],
)
@pytest.mark.parametrize("config", [KNOWN, GP], ids=["pmsm-known", "pmsm-gp"])
def test_run_refuses_a_bound_before_it_steps(capsys, tmp_path, monkeypatch, config, command):
    # T_z needs no drift-error bound, so a gp-based run or pilot is not
    # stepped to size one before T_z is refused
    def no_simulate(scenario):
        raise AssertionError("run stepped before it decided its bound")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "simulate", no_simulate)
    code, out, err = run_cli(capsys, command[0], str(config), *command[1:],
                             "--set", "controller.alpha1=1e-320")
    assert code == 2
    assert (out, err) == ("", "parameter error: T_z entries must be positive and finite: "
                              "(inf, inf, inf)\n")
    assert list(tmp_path.iterdir()) == []


def test_a_gp_run_is_stepped_once(capsys, tmp_path, monkeypatch):
    # the run that sizes the gp-based bound is the run that is written
    calls = []
    simulate = cli.simulate
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "simulate", lambda scenario: calls.append(1) or simulate(scenario))
    code, out, _ = run_cli(capsys, "run", str(GP), *FAST)
    assert code == 0
    assert "T_max" in out
    assert len(calls) == 1


def test_run_lemma2_writes_artifacts_and_matches_oracle(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "run", str(LEMMA2))
    assert code == 0
    worst = float(re.search(r"settling\(error\):.*worst=([0-9.]+)", out).group(1))
    assert worst == pytest.approx(math.erf(1.0), rel=0.02)

    csv_path = tmp_path / "lemma2-trajectory.csv"
    json_path = tmp_path / "lemma2-summary.json"
    assert f"wrote {csv_path.name}" in out
    assert csv_path.exists() and json_path.exists()
    first = csv_path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    doc = json.loads(json_path.read_text())
    assert doc["config"]["system"]["builtin"] == "lemma2"
    assert doc["settled"] is True


def test_run_from_1e8_settles_within_printed_t_max(capsys, tmp_path, monkeypatch):
    # Fixed-time stability bounds the settling time whatever the start. From
    # 1e8 explicit substeps used up their budget at t = 0; backward-Euler
    # substeps drain the clamped reaching phase in a few dozen.
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "run", str(KNOWN), "--x0=1e8,-1e8,1e8", "--set", "sim.t_end=1.0"
    )
    assert code == 0
    t_max = float(re.search(r"T_max = ([0-9.]+)", out).group(1))
    worst = float(re.search(r"settling\(error\):.*worst=([0-9.]+)", out).group(1))
    assert worst <= t_max


def test_run_from_1e100_reports_the_error_not_settled(capsys, tmp_path, monkeypatch):
    # From 1e100 the z-solve's right side must not be formed as s' - alpha1 * I:
    # both terms are about 1e100, their difference rounds to 0, and z would
    # read as settled while s stays near 1e100.
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "run", str(KNOWN), "--x0=1e100,-1e100,1e100", "--set", "sim.t_end=0.1"
    )
    assert code == 0
    assert "settling(error): ch1=not-settled ch2=not-settled ch3=not-settled" in out
    assert json.loads((tmp_path / "pmsm-known-summary.json").read_text())["settled"] is False


def test_run_x0_override(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "run", str(LEMMA2), "--x0", "0.5")
    assert code == 0
    doc = json.loads((tmp_path / "lemma2-summary.json").read_text())
    assert doc["x0"] == [0.5]
    assert doc["config"]["sim"]["x0"] == [0.5]


def test_run_respects_output_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = json.loads(KNOWN.read_text())
    cfg["sim"]["step_size"] = 1e-3
    cfg["sim"]["t_end"] = 0.3
    cfg["output"] = {
        "trajectory_csv": str(tmp_path / "out" / "t.csv"),
        "summary_json": str(tmp_path / "out" / "s.json"),
    }
    (tmp_path / "out").mkdir()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert (tmp_path / "out" / "t.csv").exists()
    assert (tmp_path / "out" / "s.json").exists()
    assert not (tmp_path / "cfg-trajectory.csv").exists()


def test_run_gp_mode_logs_drift_estimate(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "run", str(GP), "--set", "sim.t_end=0.2")
    assert code == 0
    header = (tmp_path / "pmsm-gp-trajectory.csv").read_text().splitlines()[1]
    assert header.endswith("fhat1,fhat2,fhat3")
    assert "mode=gp-based" in out


def gp_section(sigma_f):
    return {"gp": {
        "kernel": {"family": "exponential", "length_scale": 1.0},
        "generate": {"n_samples": 60, "region": [[-3.0, 3.0]] * 3,
                     "sigma_f": sigma_f, "seed": 11},
    }}


@pytest.mark.parametrize("sigma_f", [0.01, 0.0])
def test_gp_channels_share_one_factorization_equal_to_own_fits(sigma_f):
    # One solve of all target columns equals one fit per column, bit for bit.
    model = build_gp_model(gp_section(sigma_f), make_pmsm())
    dataset = generate_training_data(make_pmsm(), 60, [(-3.0, 3.0)] * 3, sigma_f=sigma_f, seed=11)
    np.testing.assert_array_equal(model.dataset.targets, dataset.targets)
    assert model.weights.shape == (60, 3)
    for i in range(3):
        own = gp_fit(GPDataset(dataset.inputs, dataset.targets[:, i], sigma_f), KernelConfig())
        assert model.jitter == own.jitter == (1e-10 if sigma_f == 0.0 else 0.0)
        np.testing.assert_array_equal(model.chol_lower, own.chol_lower)
        np.testing.assert_array_equal(model.weights[:, i], own.weights[:, 0])


def test_gp_delta_f_bars_equals_per_channel_audit():
    # The audit before the shared factorization: one fit and one solve per channel.
    dataset = generate_training_data(make_pmsm(), 60, [(-3.0, 3.0)] * 3, sigma_f=0.01, seed=11)
    own_fits = [
        gp_fit(GPDataset(dataset.inputs, y, 0.01), KernelConfig()) for y in dataset.targets.T
    ]
    states = np.random.default_rng(3).uniform(-4.0, 4.0, size=(2500, 3))
    states[2498] = 6.0  # the largest sigma, on the stride-2 subsample only
    traj = type("Trajectory", (), {"x": states})
    expected = [
        2.5 * float(np.max(np.sqrt(variance_many(m, states[::2])))) for m in own_fits
    ]
    model = build_gp_model(gp_section(0.01), make_pmsm())
    np.testing.assert_array_equal(_gp_delta_f_bars(model, traj, 2.5), expected)


# --- gp-train ----------------------------------------------------------------------


def parse_gp_train(out: str):
    residuals = [
        float(m.group(1))
        for m in re.finditer(r"interpolation residual max = ([0-9.e+-]+)", out)
    ]
    rms = float(re.search(r"held-out drift RMS over \d+ fresh states: ([0-9.e+-]+)", out).group(1))
    return residuals, rms


def test_gp_train_interpolates_and_improves_with_data(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    noise_free = ["--set", "gp.generate.sigma_f=0.0"]
    code, out5, _ = run_cli(capsys, "gp-train", str(GP), "-n", "5", *noise_free)
    assert code == 0
    code, out50, _ = run_cli(capsys, "gp-train", str(GP), "-n", "50", *noise_free)
    assert code == 0

    res5, rms5 = parse_gp_train(out5)
    res50, rms50 = parse_gp_train(out50)
    assert len(res50) == 3
    assert max(res5 + res50) < 1e-8  # noise-free fits interpolate
    assert rms50 < rms5  # more data, better held-out drift estimate
    assert (tmp_path / "pmsm-gp-dataset.csv").exists()


def test_gp_train_dataset_roundtrip_matches_config(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "gp-train", str(GP))
    assert code == 0
    assert "50 samples, 3 channels" in out
    sidecar = json.loads((tmp_path / "pmsm-gp-dataset.csv.meta.json").read_text())
    assert sidecar["config"]["gp"]["generate"]["seed"] == 11

    # -n and --seed are overrides of gp.generate, validated with the config:
    # beside a dataset they make a gp.generate without its region
    dataset = '--set=gp={"dataset": "pmsm-gp-dataset.csv"}'
    code, _, err = run_cli(capsys, "gp-train", str(GP), dataset, "-n", "20")
    assert code == 2
    assert err == "config error: config invalid at gp/generate: 'region' is a required property\n"
    # and they complete a gp.generate that lacks them
    cfg = json.loads(GP.read_text())
    del cfg["gp"]["generate"]["n_samples"], cfg["gp"]["generate"]["seed"]
    config = tmp_path / "no-count.json"
    config.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "gp-train", str(config), "-n", "20", "--seed", "11")
    assert code == 0
    assert "20 samples, 3 channels" in out
    sidecar = json.loads((tmp_path / "no-count-dataset.csv.meta.json").read_text())
    assert sidecar["config"]["gp"]["generate"]["n_samples"] == 20


def test_run_from_a_saved_dataset_equals_the_run_that_generated_it(capsys, tmp_path,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    short = ["--set", "sim.t_end=0.3"]
    assert run_cli(capsys, "gp-train", str(GP))[0] == 0
    code, generated, _ = run_cli(capsys, "run", str(GP), *short)
    assert code == 0
    rows = (tmp_path / "pmsm-gp-trajectory.csv").read_text().splitlines()
    kernel = json.loads(GP.read_text())["gp"]["kernel"]
    saved = {"dataset": "pmsm-gp-dataset.csv", "chi": 2.0, "kernel": kernel}
    code, loaded, _ = run_cli(capsys, "run", str(GP), *short, f"--set=gp={json.dumps(saved)}")
    assert code == 0
    rows_loaded = (tmp_path / "pmsm-gp-trajectory.csv").read_text().splitlines()
    assert rows[0].startswith("# config: ") and rows_loaded[0].startswith("# config: ")
    assert rows_loaded[0] != rows[0]
    assert rows_loaded[1:] == rows[1:]

    def printed(out):
        return [line for line in out.splitlines() if not line.startswith("wrote ")]

    assert printed(loaded) == printed(generated)
    assert "T_max = 2.06432" in generated


# --- montecarlo --------------------------------------------------------------------


def test_montecarlo_rejects_zero_runs(capsys):
    code, _, err = run_cli(
        capsys, "montecarlo", str(KNOWN), "--runs", "0", "--ic-box", "-1,1"
    )
    assert code == 2
    assert "must be >= 1" in err


def test_montecarlo_rejects_malformed_box(capsys):
    code, _, err = run_cli(
        capsys, "montecarlo", str(KNOWN), "--runs", "1", "--ic-box", "1;2;3", *FAST
    )
    assert code == 2
    assert "lo,hi" in err


BAD_BOXES = ["0,inf", "nan,nan", "-inf,0", "-1e308,1e308"]


@pytest.mark.parametrize(
    "config, box",
    [pytest.param(KNOWN, box, id=box) for box in BAD_BOXES]
    + [pytest.param(GP, box, id=f"{box}-pmsm-gp") for box in BAD_BOXES],
)
def test_montecarlo_rejects_non_finite_box_or_width(capsys, config, box):
    # -1e308,1e308 has finite bounds, but its width overflows; the gp-based
    # pilot run from the box corner must not run before the box is checked
    code, _, err = run_cli(
        capsys, "montecarlo", str(config), "--runs", "1", f"--ic-box={box}", *FAST
    )
    assert code == 2
    assert "ic_box bounds and widths high - low must be finite" in err


def test_montecarlo_artifacts(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "montecarlo", str(KNOWN),
        "--runs", "3", "--ic-box", "-1,1", "--seed", "5",
        *FAST,
    )
    assert code == 0
    assert "montecarlo: 3 runs, seed 5" in out

    lines = (tmp_path / "pmsm-known-runs.jsonl").read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["run"] == 0 and len(rec["x0"]) == 3

    doc = json.loads((tmp_path / "pmsm-known-mc.json").read_text())
    assert doc["config"]["montecarlo"] == {
        "runs": 3,
        "seed": 5,
        "ic_box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    }
    assert doc["aggregate"]["runs"] == 3
    assert doc["bounds"]["t_max"] == pytest.approx(1.2741613156896068)


def test_written_summaries_are_the_records_summarize_run_builds(capsys, tmp_path, monkeypatch):
    # A run's record is built once and written as it is: each runs.jsonl line
    # holds the record mc.json lists for that run, and run's summary JSON is
    # summarize_run's record with the config added.
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "montecarlo", str(KNOWN), "--runs", "3", "--ic-box=-3,3",
                         "--seed", "5", *FAST)
    assert code == 0
    doc = json.loads((tmp_path / "pmsm-known-mc.json").read_text())
    lines = (tmp_path / "pmsm-known-runs.jsonl").read_text().splitlines()
    assert [json.loads(line)["summary"] for line in lines] == doc["runs"]

    made = []
    summarize_run = cli.summarize_run

    def keep_record(*args, **kwargs):
        made.append(summarize_run(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "summarize_run", keep_record)
    code, _, _ = run_cli(capsys, "run", str(KNOWN), *FAST)
    assert code == 0
    written = json.loads((tmp_path / "pmsm-known-summary.json").read_text())
    del written["config"]
    assert written == json.loads(json.dumps(made[0], allow_nan=False))


BOUND_KEYS = {"mode", "s_bound_mode", "t_z_channels", "t_s_channels", "t_z", "t_s", "t_max"}


def test_written_bounds_are_the_record_bound_report_builds(capsys, tmp_path, monkeypatch):
    # known-model: every bounds object a command writes is bound_report of
    # the config's gains, key for key
    monkeypatch.chdir(tmp_path)
    cfg = cli.load_config(KNOWN)
    expected = bound_report(cli.build_controller_params(cfg, 3))
    assert set(expected) == BOUND_KEYS
    code, _, _ = run_cli(capsys, "run", str(KNOWN), *FAST)
    assert code == 0
    assert json.loads((tmp_path / "pmsm-known-summary.json").read_text())["bounds"] == expected
    code, _, _ = run_cli(capsys, "montecarlo", str(KNOWN), "--runs", "3", "--ic-box=-1,1",
                         *FAST)
    assert code == 0
    assert json.loads((tmp_path / "pmsm-known-mc.json").read_text())["bounds"] == expected
    lines = (tmp_path / "pmsm-known-runs.jsonl").read_text().splitlines()
    assert [json.loads(line)["summary"]["bounds"] for line in lines] == [expected] * 3


def test_a_written_gp_bound_is_the_full_record(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "run", str(GP), *FAST)
    assert code == 0
    bounds = json.loads((tmp_path / "pmsm-gp-summary.json").read_text())["bounds"]
    assert set(bounds) == BOUND_KEYS
    assert (bounds["mode"], bounds["s_bound_mode"]) == ("gp-based", "lemma3")
    assert len(bounds["t_z_channels"]) == len(bounds["t_s_channels"]) == 3
    assert bounds["t_max"] == bounds["t_s"] + bounds["t_z"]


def test_montecarlo_settling_bound_holds_from_1_to_1e15(capsys, tmp_path, monkeypatch):
    # The fixed-time claim across scale: from the boxes +-10^k every run
    # settles within the printed T_max, and once the reaching term saturates
    # (k = 6 and 15) the worst settling time no longer depends on the start.
    monkeypatch.chdir(tmp_path)
    worst = {}
    for k in (0, 6, 15):
        code, out, _ = run_cli(
            capsys, "montecarlo", str(KNOWN), "--runs", "4", "--seed", "7",
            f"--ic-box=-1e{k},1e{k}", "--set", "sim.t_end=1.5",
        )
        assert code == 0
        t_max = float(re.search(r"bound T_max = (\S+);", out).group(1))
        doc = json.loads((tmp_path / "pmsm-known-mc.json").read_text())
        assert doc["aggregate"]["n_failed"] == 0
        assert all(run["settled"] and run["settling_time"] <= t_max for run in doc["runs"]), k
        worst[k] = doc["aggregate"]["max_settling_error"]
    assert worst[15] == pytest.approx(worst[6], rel=0.01)


def test_montecarlo_require_settled_gate(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # 0.05 s is far too short for anything to settle: the gate must trip.
    code, _, err = run_cli(
        capsys,
        "montecarlo", str(KNOWN),
        "--runs", "2", "--ic-box", "-1,1",
        "--require-settled",
        "--set", "sim.step_size=1e-3", "--set", "sim.t_end=0.05",
    )
    assert code == 5
    assert "not every run settled" in err


def test_montecarlo_require_settled_passes_when_settled(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        capsys,
        "montecarlo", str(KNOWN),
        "--runs", "2", "--ic-box", "-0.5,0.5",
        "--require-settled", "--require-bound",
        "--set", "sim.step_size=1e-3", "--set", "sim.t_end=1.4",
    )
    assert code == 0


def test_bound_is_withheld_when_d_bar_is_below_the_perturbation_bound(
    capsys, tmp_path, monkeypatch
):
    # pmsm's perturbation reaches 1 in every channel, and both theorems assume
    # d_bar covers it: below that no settling bound is printed or audited
    monkeypatch.chdir(tmp_path)
    low = ["--set", "controller.d_bar=0.5", "--set", "sim.step_size=1e-3"]
    note = ("settling bound unavailable: channel 1: d_bar = 0.5 is below the plant's "
            "perturbation bound 1")
    for config in (KNOWN, GP):
        code, out, _ = run_cli(capsys, "run", str(config), *low, "--set", "sim.t_end=0.3")
        assert code == 0
        assert note in out and "T_max" not in out
        doc = json.loads((tmp_path / f"{config.stem}-summary.json").read_text())
        assert doc["bound_satisfied"] is None and "bounds" not in doc
    # the same batch passes the gate with d_bar = 1
    code, _, err = run_cli(
        capsys, "montecarlo", str(KNOWN), "--runs", "2", "--ic-box", "-0.5,0.5",
        "--require-bound", *low, "--set", "sim.t_end=1.4",
    )
    assert code == 5
    assert note in err and "settling bound not satisfied" in err
    doc = json.loads((tmp_path / "pmsm-known-mc.json").read_text())
    assert doc["aggregate"]["fraction_bound_satisfied"] is None and "bounds" not in doc


@pytest.mark.parametrize("config", [KNOWN, GP], ids=lambda p: p.stem)
def test_a_batch_whose_every_run_fails_writes_both_files_and_exits_4(capsys, tmp_path,
                                                                    monkeypatch, config):
    # From +-1e300 every run fails at its first step, and so does the
    # gp-based pilot run from the box corner: its bound is withheld with a
    # note, and the batch records both failures as the known-model one does
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "montecarlo", str(config), "--runs", "2",
                             "--ic-box=-1e300,1e300", "--set", "sim.t_end=0.01",
                             "--set", "sim.step_size=1e-3")
    assert code == 4
    assert "montecarlo: 2 runs, seed 0, 2 failed, 0 settled" in out
    if config == GP:
        assert err == (
            "settling bound unavailable: the pilot run from the box corner failed: "
            "SimulationDivergedError: non-finite dynamics rate in channel 2 during "
            "substepping at t = 0\nevery run failed\n"
        )
    else:
        assert err == "every run failed\n"
    doc = json.loads((tmp_path / f"{config.stem}-mc.json").read_text())
    assert doc["aggregate"]["n_failed"] == 2 and len(doc["failures"]) == 2
    assert len((tmp_path / f"{config.stem}-runs.jsonl").read_text().splitlines()) == 2


# --- argument plumbing --------------------------------------------------------------


def test_set_override_parses_json_values(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        capsys, "run", str(LEMMA2),
        "--set", "sim.x0=[0.25]",
        "--set", "sim.t_end=0.6",
    )
    assert code == 0
    doc = json.loads((tmp_path / "lemma2-summary.json").read_text())
    assert doc["x0"] == [0.25]


def test_set_override_rejects_unknown_path(capsys):
    code, _, err = run_cli(capsys, "bounds", str(KNOWN), "--set", "controller.expo=3")
    assert code == 2
    assert "expo" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run_cli(capsys, "frobnicate", str(KNOWN))[0] == 2


# --- bad inputs end in documented exit codes ------------------------------------------


@pytest.mark.parametrize("command", ["run", "montecarlo"])
@pytest.mark.parametrize(
    "reference",
    [
        '{"kind":"constant","value":[1,2]}',
        '{"kind":"constant","value":[]}',
        '{"kind":"sinusoid","amplitude":[1,1],"frequency":[1,1]}',
    ],
    ids=["constant-2", "constant-empty", "sinusoid-2"],
)
def test_reference_length_mismatch_is_a_config_error(capsys, tmp_path, monkeypatch,
                                                     command, reference):
    monkeypatch.chdir(tmp_path)
    extra = ["--runs", "1", "--ic-box", "-1,1"] if command == "montecarlo" else []
    code, _, err = run_cli(
        capsys, command, str(KNOWN), "--set", f"reference={reference}", *extra, *FAST
    )
    assert code == 2
    assert "reference value must have shape (3,)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", KNOWN, "--x0=a,b,c"],
         "config error: --x0 must be comma-separated numbers, got 'a,b,c'"),
        (["montecarlo", KNOWN, "--runs", "2", "--ic-box=a,b"],
         "config error: --ic-box must be numbers, got 'a,b'"),
        (["montecarlo", KNOWN, "--runs", "2", "--ic-box=-1,1;-1,1"],
         "config error: --ic-box needs 1 or 3 pairs, got 2"),
        (["montecarlo", KNOWN, "--runs", "2", "--ic-box=1,-1"],
         "parameter error: ic_box must be 3 ordered (low, high) pairs, "
         "got [[1.0, -1.0], [1.0, -1.0], [1.0, -1.0]]"),
        (["run", KNOWN, "--set", "sim"],
         "config error: override must look like section.key=value, got 'sim'"),
        (["run", KNOWN, "--set", "sim.t_end.x=1"],
         "config error: override path 'sim.t_end.x' crosses non-object key 't_end'"),
        (["run", "list.json"], "config error: list.json: top level must be a JSON object"),
        (["run", KNOWN, "--set", 'reference={"kind":"constant"}'],
         "config error: reference kind 'constant' requires 'value'"),
        (["run", KNOWN, "--set", 'reference={"kind":"sinusoid","amplitude":[1,1,1]}'],
         "config error: reference kind 'sinusoid' requires 'frequency'"),
        (["run", KNOWN, "--set", 'controller={"mode":"known-model"}'],
         "config error: controller.alpha1 is required for mode 'known-model'"),
        (["run", KNOWN, "--set", "controller.mode=gp-based"],
         "config error: a 'gp' section is required for gp-based mode / gp-train"),
        (["run", GP, "--set", 'gp={"chi":2}'],
         "config error: gp section needs either 'dataset' (path) or 'generate' (parameters)"),
        (["run", KNOWN, "--set", "sim.x0=[1,2]"],
         "parameter error: x0 must have shape (3,), got (2,)"),
        (["bounds", LEMMA2], "config error: bounds requires a controller section with gains"),
    ],
    ids=["x0-not-numbers", "ic-box-not-numbers", "ic-box-pairs", "ic-box-unordered",
         "set-without-value", "set-through-a-number", "config-not-an-object",
         "constant-without-value", "sinusoid-without-frequency", "controller-without-gains",
         "gp-mode-without-gp", "gp-without-data", "x0-length", "bounds-open-loop"],
)
def test_an_input_error_exits_2_with_one_line(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1]")
    code, out, err = run_cli(capsys, *[str(a) for a in argv])
    assert code == 2
    assert (out, err) == ("", f"{message}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["list.json"]


def write_dataset(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")
    return path


def test_gp_dataset_with_wrong_input_width_is_a_config_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [[0.1 * i, -0.2 * i, i, 2 * i, 3 * i] for i in range(4)]
    data = write_dataset(tmp_path / "d.csv", ["x1", "x2", "y1", "y2", "y3"], rows)
    code, _, err = run_cli(capsys, "run", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}")
    assert code == 2
    assert "2 input columns" in err


def test_gp_dataset_without_rows_is_a_config_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = write_dataset(tmp_path / "d.csv", ["x1", "x2", "x3", "y1", "y2", "y3"], [])
    code, _, err = run_cli(capsys, "gp-train", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}")
    assert code == 2
    assert "no data rows" in err


DATASET_HEADER = ["x1", "x2", "x3", "y1", "y2", "y3"]
DATASET_ROWS = [[0.1 * i, -0.2 * i, 0.3 * i, i, 2 * i, 3 * i] for i in range(4)]


def test_gp_dataset_with_non_numeric_cell_is_a_config_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [list(r) for r in DATASET_ROWS]
    rows[2][4] = "abc"
    data = write_dataset(tmp_path / "d.csv", DATASET_HEADER, rows)
    code, _, err = run_cli(capsys, "run", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}")
    assert code == 2
    assert f"{data}, line 4" in err and "abc" in err
    assert "Traceback" not in err


def test_gp_dataset_with_short_row_is_a_config_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [list(r) for r in DATASET_ROWS]
    rows[1] = rows[1][:3]
    data = write_dataset(tmp_path / "d.csv", DATASET_HEADER, rows)
    code, _, err = run_cli(capsys, "run", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}")
    assert code == 2
    assert f"{data}, line 3: 3 cells, but the header has 6" in err


def test_gp_dataset_with_unreadable_sidecar_is_a_config_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = write_dataset(tmp_path / "d.csv", DATASET_HEADER, DATASET_ROWS)
    sidecar = tmp_path / "d.csv.meta.json"
    sidecar.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}")
    assert code == 2
    assert f"{sidecar}: not valid JSON" in err


@pytest.mark.parametrize("source", ["config", "sidecar"])
def test_noise_std_whose_square_overflows_is_a_parameter_error(
    capsys, tmp_path, monkeypatch, source
):
    # the GP fit adds sigma_f**2 to the Gram diagonal; past about 1.34e154
    # that square is not a float
    monkeypatch.chdir(tmp_path)
    if source == "config":
        argv = ["gp-train", str(GP), "--set", "gp.generate.sigma_f=1.4e154"]
    else:
        data = write_dataset(tmp_path / "d.csv", DATASET_HEADER, DATASET_ROWS)
        (tmp_path / "d.csv.meta.json").write_text('{"sigma_f": 1e200}')
        argv = ["run", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}", *FAST]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "noise_std must have a finite square" in err
    assert "Traceback" not in err


def test_gp_dataset_with_columns_out_of_order_is_a_config_error(capsys, tmp_path, monkeypatch):
    # columns taken by position would read the inputs from y1, x1 and x2
    monkeypatch.chdir(tmp_path)
    header = ["y1", "x1", "x2", "x3", "y2", "y3"]
    data = write_dataset(tmp_path / "d.csv", header, DATASET_ROWS)
    code, _, err = run_cli(
        capsys, "run", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}", *FAST
    )
    assert code == 2
    assert f"{data}: the header must be x1..xd, y1..yc, got {header}" in err


def test_gp_train_rejects_a_data_span_of_non_finite_width(capsys, tmp_path, monkeypatch):
    # the held-out states are drawn from the data's span, here -1e308..1e308
    # in x1, a width that overflows; no artifact is written before the check
    monkeypatch.chdir(tmp_path)
    rows = [list(r) for r in DATASET_ROWS]
    rows[0][0], rows[1][0] = -1e308, 1e308
    data = write_dataset(tmp_path / "d.csv", DATASET_HEADER, rows)
    code, _, err = run_cli(capsys, "gp-train", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}")
    assert code == 2
    assert "held-out region bounds and widths high - low must be finite, got [[-1e+308" in err
    assert "Traceback" not in err
    assert not (tmp_path / "pmsm-gp-dataset.csv").exists()


@pytest.mark.parametrize("command", ["run", "gp-train"])
def test_gp_region_of_non_finite_width_is_a_parameter_error(
    capsys, tmp_path, monkeypatch, command
):
    # finite bounds whose width overflows; the region prints as one short list
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, command, str(GP), "--set", "gp.generate.region=[[-1e308,1e308],[0,1],[0,1]]"
    )
    assert code == 2
    assert (
        "region bounds and widths high - low must be finite, "
        "got [[-1e+308, 1e+308], [0.0, 1.0], [0.0, 1.0]]\n"
    ) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("length_scale", ["1e300", "1e-200"])
def test_squared_exponential_length_scale_out_of_range_is_a_parameter_error(
    capsys, tmp_path, monkeypatch, length_scale
):
    # 2 l^2 overflows at 1e300 and rounds to 0.0 at 1e-200
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "run", str(GP), "--set", "gp.kernel.family=squared-exponential",
        "--set", f"gp.kernel.length_scale={length_scale}", *FAST,
    )
    assert code == 2
    assert "squared-exponential 2 * length_scale**2 must be positive and finite" in err


@pytest.mark.parametrize("seed", [-5, "abc", 1.5])
def test_gp_dataset_sidecar_with_bad_seed_is_a_config_error(capsys, tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    data = write_dataset(tmp_path / "d.csv", DATASET_HEADER, DATASET_ROWS)
    sidecar = tmp_path / "d.csv.meta.json"
    sidecar.write_text(json.dumps({"seed": seed}))
    code, _, err = run_cli(capsys, "gp-train", str(GP), "--set", f"gp={{\"dataset\": \"{data}\"}}")
    assert code == 2
    assert f"{sidecar}: seed must be a non-negative integer, got {seed!r}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["montecarlo", str(KNOWN), "--runs", "1", "--ic-box", "-1,1", "--seed", "-1"],
         "argument --seed: must be >= 0, got -1"),
        (["gp-train", str(GP), "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["run", str(GP), "--set", "gp.generate.seed=-1"],
         "gp/generate/seed: -1 is less than the minimum of 0"),
    ],
    ids=["montecarlo", "gp-train", "run-config"],
)
def test_negative_seed_is_an_argument_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--runs", "--seed"])
def test_non_integer_count_is_an_argument_error(capsys, tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    argv = {"--runs": "1", "--seed": "0", flag: "abc"}
    code, _, err = run_cli(
        capsys, "montecarlo", str(KNOWN), "--ic-box=-1,1",
        "--runs", argv["--runs"], "--seed", argv["--seed"],
    )
    assert code == 2
    assert f"argument {flag}: must be an integer, got 'abc'" in err
    assert "_positive_int" not in err and "_non_negative_int" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "montecarlo"])
def test_infeasible_gp_bound_is_not_replaced(capsys, tmp_path, monkeypatch, command):
    # alpha2 = 2 cannot cover d_bar plus the GP error budget: no bound may be
    # reported, and the runs are not audited against the known-model one.
    monkeypatch.chdir(tmp_path)
    infeasible = ["--set", "controller.alpha2=2.0", *FAST]
    if command == "run":
        code, out, _ = run_cli(capsys, "run", str(GP), *infeasible)
        assert code == 0
        assert "settling bound unavailable" in out
        doc = json.loads((tmp_path / "pmsm-gp-summary.json").read_text())
        assert doc.get("bounds") is None
        assert doc["bound_satisfied"] is None
    else:
        code, _, err = run_cli(capsys, "montecarlo", str(GP), "--runs", "2",
                               "--ic-box", "-1,1", "--require-bound", *infeasible)
        assert code == 5
        assert "settling bound unavailable" in err
        doc = json.loads((tmp_path / "pmsm-gp-mc.json").read_text())
        assert "bounds" not in doc
        assert doc["aggregate"]["fraction_bound_satisfied"] is None
        assert all(run["bound_satisfied"] is None for run in doc["runs"])


def test_gp_bound_takes_the_reaching_gain_the_law_applies(capsys, tmp_path, monkeypatch):
    # The gp-based law applies alpha2 itself (kappa = 1), and theorem 2 needs
    # only alpha2 > d_bar + delta_f_bar: 11.25 covers d_bar = 10 and a
    # 1000-point GP's error budget, though it is short of lemma 2's
    # (2/sqrt(pi)) * 10 = 11.28, which a known-model law would need.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", str(GP), "--set", "controller.d_bar=10",
                             "--set", "controller.alpha2=11.25",
                             "--set", "gp.generate.n_samples=1000", *FAST)
    assert (code, err) == (0, "")
    assert "settling bound unavailable" not in out
    bounds = json.loads((tmp_path / "pmsm-gp-summary.json").read_text())["bounds"]
    assert bounds["mode"] == "gp-based"
    assert f"T_max = {bounds['t_max']:.5f}" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(KNOWN), "--set", "sim.step_size=1e-12", "--set", "sim.t_end=1000"],
        ["montecarlo", str(KNOWN), "--set", "sim.step_size=1e-12", "--set", "sim.t_end=1000",
         "--runs", "2", "--ic-box", "-1,1"],
        ["montecarlo", str(KNOWN), "--runs", "1000000000000000", "--ic-box", "-1,1"],
        # beyond numpy's index range, which numpy reports as a ValueError
        ["run", str(KNOWN), "--set", "sim.step_size=1e-300", "--set", "sim.t_end=1"],
        ["run", str(KNOWN), "--set", "sim.step_size=1e-18", "--set", "sim.t_end=0.5"],
        ["montecarlo", str(KNOWN), "--set", "sim.step_size=1e-18", "--set", "sim.t_end=5",
         "--runs", "2", "--ic-box", "-1,1"],
        ["montecarlo", str(KNOWN), "--runs", str(10**20), "--ic-box", "-1,1"],
        ["gp-train", str(GP), "-n", str(10**20)],
        ["run", str(GP), "--set", f"gp.generate.n_samples={10**20}"],
    ],
    ids=["run-grid", "montecarlo-grid", "montecarlo-runs", "run-grid-dimension",
         "run-grid-size", "montecarlo-grid-size", "montecarlo-runs-dimension",
         "gp-train-samples-dimension", "run-gp-samples-dimension"],
)
def test_grid_or_batch_too_large_to_allocate_is_a_parameter_error(
    capsys, tmp_path, monkeypatch, argv
):
    # Petabytes, beyond any address space: the allocation fails at once and
    # touches no memory.
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("parameter error: too large to allocate: ")
    assert err.count("\n") == 1


def test_step_count_that_overflows_is_a_parameter_error(capsys, tmp_path, monkeypatch):
    # t_end / step_size = 1 / 5e-324 overflows to inf
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", str(KNOWN), "--set", "sim.step_size=5e-324",
                           "--set", "sim.t_end=1")
    assert code == 2
    assert err == "parameter error: t_end / step_size is not finite: 1.0 / 5e-324\n"


# --- the failure contract --------------------------------------------------------


@pytest.mark.parametrize(
    "error",
    [SimulationDivergedError, IllConditionedDataError],
)
def test_numeric_failures_share_one_base(error):
    assert issubclass(error, NumericError)
    assert not issubclass(error, ValueError)


def test_any_numeric_error_exits_4(capsys, tmp_path, monkeypatch):
    # exit 4 covers the base class, so a numeric error added later is covered too
    class FreshNumericError(NumericError):
        pass

    def fail(cfg):
        raise FreshNumericError("made up at t = 0.5")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_scenario", fail)
    code, _, err = run_cli(capsys, "run", str(KNOWN))
    assert code == 4
    assert err == "numeric error: FreshNumericError: made up at t = 0.5\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [KNOWN, GP], ids=lambda p: p.stem)
def test_overflowing_first_evaluation_exits_4_without_warnings(capsys, tmp_path, monkeypatch,
                                                                config):
    # The first law evaluation from 1e308 overflows in the drift, the
    # integrand and the GP estimate; the step loop's own checks report it,
    # and numpy prints nothing (the suite turns any warning into an error).
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "run", str(config), "--set", "sim.x0=[1e308,0,0]")
    assert code == 4
    assert err == (
        "numeric error: SimulationDivergedError: non-finite dynamics rate in channel 1 "
        "during substepping at t = 0\n"
    )


def test_other_runtime_errors_are_not_numeric_failures(tmp_path, monkeypatch):
    # a RuntimeError outside the contract is a bug, and surfaces as one
    def fail(cfg):
        raise NotImplementedError("not a numeric failure")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_scenario", fail)
    with pytest.raises(NotImplementedError):
        main(["run", str(KNOWN)])
