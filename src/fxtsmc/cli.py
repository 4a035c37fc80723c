"""Command-line front end.

Commands: ``run`` (single closed-loop simulation), ``bounds`` (settling-time
bound table), ``gp-train`` (dataset generation + GP fit report),
``montecarlo`` (seeded batch over an initial-condition box), ``validate``
(config schema check only).

Exit codes
----------
0  success
2  configuration or argument error (schema violation, bad gains, bad CLI args,
   a time grid or batch too large to allocate)
3  I/O error (missing or unreadable/unwritable files)
4  numeric failure: any ``errors.NumericError`` (SimulationDivergedError,
   IllConditionedDataError)
5  acceptance-threshold violation (montecarlo aggregate checks)

Every artifact embeds the fully resolved configuration (after ``--x0`` /
``--set`` overrides), so re-running a written artifact's config reproduces it
byte-for-byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from .controller import ControllerParams, bound_decision, bound_report
from .errors import ConfigError, NumericError, ParameterError
from .gp import (
    DriftEstimator,
    GPModel,
    KernelConfig,
    generate_training_data,
    gp_fit,
    load_datasets,
    save_datasets,
    variance_many,
)
from .numerics import CsvStream, StepConfig, check_ic_box
from .sim import (
    DEFAULT_SETTLE_THRESHOLD,
    Scenario,
    run_monte_carlo,
    simulate,
    summarize_run,
    write_summary_json,
    write_trajectory_csv,
)
from .system import (
    PMSM_QUOTED_BOUNDS,
    PMSM_STANDARD_GAINS,
    constant_reference,
    make_lemma2_plant,
    make_pmsm,
    sinusoid_reference,
    zero_reference,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_ACCEPTANCE = 5


def _one_or_list(kind: str, **limits) -> dict:
    """One value of JSON type ``kind`` within ``limits``, or a non-empty list
    of them."""
    one = {"type": kind, **limits}
    return {"oneOf": [one, {"type": "array", "items": one, "minItems": 1}]}


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["system", "sim"],
    "properties": {
        "system": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["builtin"],
                    "properties": {"builtin": {"const": "pmsm"}},
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["builtin"],
                    "properties": {
                        "builtin": {"const": "lemma2"},
                        "alpha": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            ]
        },
        "reference": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["zero", "constant", "sinusoid"]},
                "value": {"type": "array", "items": {"type": "number"}},
                "amplitude": {"type": "array", "items": {"type": "number"}},
                "frequency": {"type": "array", "items": {"type": "number"}},
                "phase": {"type": "array", "items": {"type": "number"}},
            },
        },
        "controller": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["known-model", "gp-based", "open-loop"]},
                "alpha1": _one_or_list("number", exclusiveMinimum=0),
                "alpha2": _one_or_list("number", exclusiveMinimum=0),
                "p": _one_or_list("integer", minimum=0),
                "q": _one_or_list("integer", minimum=1),
                "d_bar": _one_or_list("number", minimum=0),
            },
        },
        "gp": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kernel": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "family": {"enum": ["exponential", "squared-exponential"]},
                        "length_scale": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "dataset": {"type": "string"},
                "generate": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["n_samples", "region"],
                    "properties": {
                        "n_samples": {"type": "integer", "minimum": 1},
                        "region": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                            "minItems": 1,
                        },
                        "sigma_f": {"type": "number", "minimum": 0},
                        "seed": {"type": "integer", "minimum": 0},
                    },
                },
                "chi": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "required": ["step_size", "t_end"],
            "properties": {
                "step_size": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "method": {"enum": ["euler", "explicit-euler"]},
                "settle_threshold": {"type": "number", "exclusiveMinimum": 0},
                "x0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trajectory_csv": {"type": "string"},
                "summary_json": {"type": "string"},
                "dataset_csv": {"type": "string"},
                "runs_jsonl": {"type": "string"},
                "mc_summary_json": {"type": "string"},
            },
        },
    },
}

_BASE_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)


def _is_finite_number(checker, instance) -> bool:
    """A "number" is a JSON number whose float() is finite: no NaN, no
    Infinity, no integer beyond the float range."""
    try:
        return _BASE_VALIDATOR.TYPE_CHECKER.is_type(instance, "number") and math.isfinite(instance)
    except OverflowError:
        return False


# Built once: jsonschema.validate would check the constant schema against the
# metaschema on every call.
_CONFIG_VALIDATOR = jsonschema.validators.extend(
    _BASE_VALIDATOR,
    type_checker=_BASE_VALIDATOR.TYPE_CHECKER.redefine("number", _is_finite_number),
)(CONFIG_SCHEMA)

# Removed options, refused with the reason: (section, key, the value refused,
# or None for any value the key is given, reason).
_RETIRED = (
    ("sim", "method", "rk4", "'rk4' was removed, as under the switching law the closed "
     "loop is first order whatever the plant stepper"),
    ("controller", "sign_boundary_layer", None, "the boundary layer was removed, as the "
     "settling theorems assume the true sign(s) and tanh(s/eps) only holds s in an "
     "eps-sized band, so a printed bound need not be met"),
    ("controller", "include_sqrt_pi_factor", None, "the factor was removed, as the mode "
     "sets kappa (sqrt(pi)/2 in known-model mode, 1 in gp-based mode); scale alpha2 instead"),
)


# --- config handling ---------------------------------------------------------


def load_config(path) -> dict:
    """Read and parse a JSON config. OSError passes through (I/O exit code).
    Invalid JSON and an integer literal too long to convert are ConfigErrors."""
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except ValueError as err:
        raise ConfigError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def validate_config(cfg: dict) -> None:
    for section, key, value, reason in _RETIRED:
        given = cfg.get(section)
        if isinstance(given, dict) and key in given and (value is None or given[key] == value):
            raise ConfigError(f"config invalid at {section}/{key}: {reason}")
    # the error jsonschema.validate raises
    err = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if err is not None:
        where = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        raise ConfigError(f"config invalid at {where}: {_message(err)}") from err


def _message(err) -> str:
    """The error's message, but not the digits of an integer beyond the float
    range in a "number" field; "integer" fields such as p and q keep any size."""
    options = err.schema.get("oneOf", [err.schema])
    if isinstance(err.instance, int) and any(o.get("type") == "number" for o in options):
        try:
            float(err.instance)
        except OverflowError:
            return "integer beyond the float range"
    return err.message


def apply_override(cfg: dict, assignment: str) -> None:
    """Apply one ``--set section.key=value`` override (value parsed as JSON,
    falling back to a bare string, also for an integer too long to convert)."""
    path, sep, raw = assignment.partition("=")
    if not sep or not path.strip():
        raise ConfigError(f"override must look like section.key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    node = cfg
    keys = path.strip().split(".")
    for key in keys[:-1]:
        nxt = node.setdefault(key, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override path {path!r} crosses non-object key {key!r}")
        node = nxt
    node[keys[-1]] = value


def resolve_config(args) -> dict:
    cfg = load_config(args.config)
    for assignment in getattr(args, "set", None) or []:
        apply_override(cfg, assignment)
    if getattr(args, "x0", None) is not None:
        try:
            x0 = [float(v) for v in args.x0.split(",")]
        except ValueError as err:
            raise ConfigError(f"--x0 must be comma-separated numbers, got {args.x0!r}") from err
        cfg.setdefault("sim", {})["x0"] = x0
    validate_config(cfg)
    return cfg


# --- scenario construction -----------------------------------------------------


def build_system(cfg: dict):
    sys_cfg = cfg["system"]
    if sys_cfg["builtin"] == "pmsm":
        return make_pmsm()
    return make_lemma2_plant(float(sys_cfg.get("alpha", 1.0)))


def build_reference(cfg: dict, n: int):
    ref_cfg = cfg.get("reference", {"kind": "zero"})
    kind = ref_cfg["kind"]
    if kind == "zero":
        return zero_reference(n)
    if kind == "constant":
        if "value" not in ref_cfg:
            raise ConfigError("reference kind 'constant' requires 'value'")
        return constant_reference(ref_cfg["value"])
    for key in ("amplitude", "frequency"):
        if key not in ref_cfg:
            raise ConfigError(f"reference kind 'sinusoid' requires {key!r}")
    return sinusoid_reference(
        ref_cfg["amplitude"], ref_cfg["frequency"], ref_cfg.get("phase")
    )


def build_controller_params(cfg: dict, n: int) -> Optional[ControllerParams]:
    """The gains of the controller section, None in open loop, which takes none."""
    ctl = dict(cfg.get("controller", {}))
    mode = ctl.pop("mode", "known-model")
    if mode == "open-loop":
        if ctl:
            raise ConfigError(f"open-loop mode takes no gains, got controller.{next(iter(ctl))}")
        return None
    for key in ("alpha1", "alpha2", "p", "q"):
        if key not in ctl:
            raise ConfigError(f"controller.{key} is required for mode {mode!r}")
    return ControllerParams(n, **ctl, mode=mode)


def build_step(cfg: dict) -> StepConfig:
    sim_cfg = cfg["sim"]
    return StepConfig(step_size=float(sim_cfg["step_size"]), t_end=float(sim_cfg["t_end"]))


def build_gp_model(cfg: dict, system) -> GPModel:
    gp_cfg = cfg.get("gp")
    if not gp_cfg:
        raise ConfigError("a 'gp' section is required for gp-based mode / gp-train")
    kcfg = gp_cfg.get("kernel", {})
    kernel = KernelConfig(
        family=kcfg.get("family", "exponential"),
        length_scale=float(kcfg.get("length_scale", 1.0)),
    )
    if "dataset" in gp_cfg:
        dataset, _meta = load_datasets(gp_cfg["dataset"])
    elif "generate" in gp_cfg:
        gen = gp_cfg["generate"]
        dataset = generate_training_data(
            system,
            int(gen["n_samples"]),
            gen["region"],
            sigma_f=float(gen.get("sigma_f", 0.0)),
            seed=int(gen.get("seed", 0)),
        )
    else:
        raise ConfigError("gp section needs either 'dataset' (path) or 'generate' (parameters)")
    dim, n_channels = dataset.inputs.shape[1], dataset.targets.shape[1]
    if n_channels != system.n or dim != system.n:
        raise ConfigError(
            f"gp dataset has {dim} input columns and {n_channels} channels, "
            f"system has {system.n} states"
        )
    return gp_fit(dataset, kernel)


def build_scenario(cfg: dict) -> Scenario:
    """Config dict -> Scenario; gp-based mode fits its model here."""
    system = build_system(cfg)
    n = system.n
    reference = build_reference(cfg, n)
    mode = cfg.get("controller", {}).get("mode", "known-model")
    params = build_controller_params(cfg, n)
    model = build_gp_model(cfg, system) if mode == "gp-based" else None
    sim_cfg = cfg["sim"]
    x0 = sim_cfg.get("x0", [0.0] * n)
    return Scenario(
        system=system,
        reference=reference,
        params=params,
        x0=np.asarray(x0, dtype=float),
        step=build_step(cfg),
        mode=mode,
        gp_model=model,
        settle_threshold=float(sim_cfg.get("settle_threshold", DEFAULT_SETTLE_THRESHOLD)),
    )


def _output_path(cfg: dict, key: str, default: str) -> Path:
    return Path(cfg.get("output", {}).get(key, default))


# --- bound helpers --------------------------------------------------------------


def _gp_delta_f_bars(model, traj, chi: float) -> np.ndarray:
    """Per-channel max over the visited states of the GP error bound chi*sigma.

    Subsamples the trajectory to at most ~1000 states; sigma varies slowly so
    this loses nothing at the printed precision. The channels share one
    posterior variance, so one audit serves every channel.
    """
    stride = max(1, traj.x.shape[0] // 1000)
    sigma = np.sqrt(variance_many(model, traj.x[::stride]))
    return np.full(model.weights.shape[1], chi * float(np.max(sigma)))


def _settling_bounds(scenario, cfg: dict, pilot):
    """``controller.bound_decision``'s (bound record, note), neither in open
    loop; a gp-based decision audits the states of ``pilot()``."""
    if scenario.mode == "open-loop":
        return None, None
    audit = lambda: _gp_delta_f_bars(scenario.gp_model, pilot(), float(cfg["gp"].get("chi", 2.0)))
    return bound_decision(scenario.params, scenario.system.perturbation_bounds,
                          audit if scenario.mode == "gp-based" else None)


def _is_standard_pmsm_gains(params) -> bool:
    return all(
        (getattr(params, key) == value).all() for key, value in PMSM_STANDARD_GAINS.items()
    )


# --- commands --------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = resolve_config(args)
    # The run formats its CSV while it steps, on a helper process that
    # leaving the block reaps, whatever ends the run.
    with CsvStream() as stream:
        scenario = dataclasses.replace(build_scenario(cfg), csv_stream=stream)
        # the bound is decided before the run is stepped; a gp-based bound
        # sizes it over the run itself, which is then kept, not stepped again
        run = functools.cache(lambda: simulate(scenario))
        bounds, bound_note = _settling_bounds(scenario, cfg, run)
        traj = run()
        summary = summarize_run(traj, scenario, bounds=bounds)

        stem = Path(args.config).stem
        csv_path = _output_path(cfg, "trajectory_csv", f"{stem}-trajectory.csv")
        json_path = _output_path(cfg, "summary_json", f"{stem}-summary.json")
        write_trajectory_csv(traj, csv_path, config=cfg)
    write_summary_json(summary, json_path, config=cfg)

    print(f"run: system={scenario.system.name} mode={scenario.mode} "
          f"h={scenario.step.step_size:g} t_end={scenario.step.t_end:g}")
    if bounds is not None:
        print(f"bounds[{bounds['mode']}/{bounds['s_bound_mode']}]: T_z = {bounds['t_z']:.5f}  "
              f"T_s = {bounds['t_s']:.5f}  T_max = {bounds['t_max']:.5f}")
    if bound_note:
        print(bound_note)
    _print_settling("settling(error)", summary["settling_error"])
    _print_settling("settling(sliding)", summary["settling_sliding"])
    print(f"max |u| = {summary['max_abs_u']:.6g}")
    if summary["chatter_amplitude"] is not None:
        print(f"chatter amplitude = {summary['chatter_amplitude']:.6g}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _print_settling(label: str, values) -> None:
    """Settling times of a summary record, None where not settled."""
    parts = [
        f"ch{i + 1}=not-settled" if v is None else f"ch{i + 1}={v:.6g}"
        for i, v in enumerate(values)
    ]
    worst = "not-settled" if None in values else f"{max(values):.6g}"
    print(f"{label}: {' '.join(parts)}  worst={worst}")


def cmd_bounds(args) -> int:
    cfg = resolve_config(args)
    system = build_system(cfg)
    params = build_controller_params(cfg, system.n)
    if params is None:
        raise ConfigError("bounds requires a controller section with gains")

    known = bound_report(params)
    zero_delta = np.zeros(system.n)
    gp_l3 = bound_report(params, delta_f_bars=zero_delta, s_bound_mode="lemma3")
    gp_t8 = bound_report(params, delta_f_bars=zero_delta, s_bound_mode="printed-t8")

    print("settling-time bounds per channel (s-phase shown in every mode):")
    print("channel      T_z   T_s[known]  T_s[gp-lemma3]  T_s[gp-printed-t8]")
    for i in range(system.n):
        print(
            f"  {i + 1}     {known['t_z_channels'][i]:8.5f}  {known['t_s_channels'][i]:9.5f}"
            f"  {gp_l3['t_s_channels'][i]:13.5f}  {gp_t8['t_s_channels'][i]:17.5f}"
        )
    for label, rep in (("known-model", known), ("gp-lemma3", gp_l3), ("gp-printed-t8", gp_t8)):
        print(f"aggregate {label + ':':<16}T_z = {rep['t_z']:.5f}  T_s = {rep['t_s']:.5f}  "
              f"T_max = {rep['t_max']:.5f}")
    if _is_standard_pmsm_gains(params):
        q = PMSM_QUOTED_BOUNDS
        print(
            "note: commonly quoted values for this benchmark gain set — "
            f"T_s_channel = {q['t_s_channel']}, T_s = {q['t_s']}, T_max = {q['t_max']} — "
            "are not reproduced by any formula above; they are reported here as known "
            "discrepancies, not as targets."
        )
    return EXIT_OK


def cmd_gp_train(args) -> int:
    # -n and --seed are overrides, applied after --set and checked with them
    args.set = (args.set or []) + [
        f"gp.generate.{key}={value}"
        for key, value in (("n_samples", args.n_samples), ("seed", args.seed))
        if value is not None
    ]
    cfg = resolve_config(args)
    system = build_system(cfg)
    model = build_gp_model(cfg, system)
    dataset = model.dataset
    # the held-out states are drawn from the training region, or the data's span
    inputs = dataset.inputs
    span = np.stack([inputs.min(axis=0), inputs.max(axis=0)], axis=1)
    region = cfg["gp"].get("generate", {}).get("region", span)
    region = check_ic_box(region, system.n, "held-out region")

    stem = Path(args.config).stem
    csv_path = _output_path(cfg, "dataset_csv", f"{stem}-dataset.csv")
    save_datasets(dataset, csv_path, metadata={"config": cfg, "kernel": {
        "family": model.kernel.family, "length_scale": model.kernel.length_scale}})
    print(f"wrote {csv_path} ({dataset.n_samples} samples, {system.n} channels)")

    estimate = DriftEstimator(model)
    resid = np.max(np.abs(estimate(inputs) - dataset.targets), axis=0)
    for i, r in enumerate(resid):
        print(f"channel {i + 1}: interpolation residual max = {r:.3e} (jitter {model.jitter:g})")

    rng = np.random.default_rng((dataset.seed or 0) + 1)
    held = rng.uniform(region[:, 0], region[:, 1], size=(256, system.n))
    rms = float(np.sqrt(np.mean((system.drift(held) - estimate(held)) ** 2)))
    print(f"held-out drift RMS over {held.shape[0]} fresh states: {rms:.6g}")
    return EXIT_OK


def _parse_ic_box(text: str, n: int) -> np.ndarray:
    """'lo,hi' (shared) or 'lo,hi;lo,hi;...' (per dimension), as an (n, 2)
    array that ``check_ic_box`` accepts."""
    try:
        pairs = [[float(v) for v in part.split(",")] for part in text.split(";")]
    except ValueError as err:
        raise ConfigError(f"--ic-box must be numbers, got {text!r}") from err
    if any(len(p) != 2 for p in pairs):
        raise ConfigError(f"--ic-box needs lo,hi pairs, got {text!r}")
    if len(pairs) == 1:
        pairs = pairs * n
    if len(pairs) != n:
        raise ConfigError(f"--ic-box needs 1 or {n} pairs, got {len(pairs)}")
    return check_ic_box(pairs, n)


def cmd_montecarlo(args) -> int:
    cfg = resolve_config(args)
    scenario = build_scenario(cfg)
    box = _parse_ic_box(args.ic_box, scenario.system.n)

    # gp-based: a pilot run from the box's corner sizes the drift-error bound;
    # a pilot that fails withholds the bound, and the batch records its runs
    try:
        bounds, bound_note = _settling_bounds(
            scenario, cfg, lambda: simulate(dataclasses.replace(scenario, x0=box[:, 1]))
        )
    except NumericError as err:
        bounds, bound_note = None, (f"settling bound unavailable: the pilot run from the "
                                    f"box corner failed: {type(err).__name__}: {err}")
    if bound_note:
        print(bound_note, file=sys.stderr)

    x0s, doc = run_monte_carlo(scenario, box, args.runs, args.seed, bounds=bounds)

    resolved = dict(cfg)
    resolved["montecarlo"] = {
        "runs": args.runs,
        "seed": args.seed,
        "ic_box": box.tolist(),
    }

    stem = Path(args.config).stem
    jsonl_path = _output_path(cfg, "runs_jsonl", f"{stem}-runs.jsonl")
    summary_path = _output_path(cfg, "mc_summary_json", f"{stem}-mc.json")
    with jsonl_path.open("w") as fh:
        for i, record in enumerate(doc["runs"]):
            line = {"run": i, "x0": x0s[i].tolist(), "summary": record}
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    write_summary_json(doc, summary_path, config=resolved)

    agg = doc["aggregate"]
    print(f"montecarlo: {args.runs} runs, seed {args.seed}, "
          f"{agg['n_failed']} failed, {agg['n_settled']} settled")
    if agg["max_settling_error"] is not None:
        print(f"max settling time (error): {agg['max_settling_error']:.6g}")
    if bounds is not None:
        print(f"bound T_max = {bounds['t_max']:.5f}; "
              f"fraction satisfying: {agg['fraction_bound_satisfied']}")
    if agg["max_chatter_amplitude"] is not None:
        print(f"max chatter amplitude: {agg['max_chatter_amplitude']:.6g}")
    print(f"wrote {jsonl_path}")
    print(f"wrote {summary_path}")

    if agg["n_failed"] == args.runs:
        print("every run failed", file=sys.stderr)
        return EXIT_NUMERIC
    if args.require_settled and agg["fraction_settled"] < 1.0:
        print("acceptance violation: not every run settled", file=sys.stderr)
        return EXIT_ACCEPTANCE
    if args.require_bound and (
        agg["fraction_bound_satisfied"] is None or agg["fraction_bound_satisfied"] < 1.0
    ):
        print("acceptance violation: settling bound not satisfied on every run",
              file=sys.stderr)
        return EXIT_ACCEPTANCE
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    validate_config(cfg)
    print(f"{args.config}: ok")
    return EXIT_OK


# --- parser / dispatch -------------------------------------------------------------


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


_positive_int = functools.partial(_int_at_least, low=1)
_non_negative_int = functools.partial(_int_at_least, low=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxtsmc",
        description="Fixed-time integral sliding mode control toolkit",
        epilog="exit codes: 0 ok, 2 config/argument, 3 I/O, 4 numeric, 5 acceptance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config entry, e.g. --set controller.alpha2=5")

    p_run = sub.add_parser("run", help="simulate one closed-loop run")
    add_common(p_run)
    p_run.add_argument("--x0", help="override the initial state, e.g. --x0 1,1,1")
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="print the settling-time bound table")
    add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_gp = sub.add_parser("gp-train", help="generate data, fit the GP of every channel")
    add_common(p_gp)
    p_gp.add_argument("-n", "--n-samples", type=_positive_int, default=None,
                      help="training points, shared by every channel (overrides gp.generate)")
    p_gp.add_argument("--seed", type=_non_negative_int, default=None, help="dataset RNG seed")
    p_gp.set_defaults(func=cmd_gp_train)

    p_mc = sub.add_parser("montecarlo", help="batch of runs over an IC box")
    # Boxes usually have negative lows; widen argparse's negative-number
    # heuristic so `--ic-box -1,1` parses without the `=` form.
    p_mc._negative_number_matcher = re.compile(r"^-\d")
    add_common(p_mc)
    p_mc.add_argument("--runs", type=_positive_int, required=True)
    p_mc.add_argument("--ic-box", required=True,
                      help="'lo,hi' shared or 'lo,hi;lo,hi;...' per dimension")
    p_mc.add_argument("--seed", type=_non_negative_int, default=0)
    p_mc.add_argument("--require-settled", action="store_true",
                      help="exit 5 unless every run settles")
    p_mc.add_argument("--require-bound", action="store_true",
                      help="exit 5 unless every run settles within the bound")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_val = sub.add_parser("validate", help="schema-check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        print(f"parameter error: too large to allocate: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as err:
        print(f"numeric error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
