"""Command-line front end.

Commands: ``run`` (single closed-loop simulation), ``bounds`` (settling-time
bound table), ``gp-train`` (dataset generation + per-channel GP fit report),
``montecarlo`` (seeded batch over an initial-condition box), ``validate``
(config schema check only).

Exit codes
----------
0  success
2  configuration or argument error (schema violation, bad gains, bad CLI args,
   a time grid or batch too large to allocate)
3  I/O error (missing or unreadable/unwritable files)
4  numeric failure: any ``errors.NumericError`` (SimulationDivergedError,
   IllConditionedDataError, UnfitGPError)
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
import re
import sys
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from .controller import ControllerParams, bound_report
from .errors import ConfigError, GainTooSmallError, NumericError, ParameterError
from .gp import (
    DriftEstimator,
    ErrorBoundConfig,
    KernelConfig,
    generate_training_data,
    gp_fit,
    gp_fit_shared,
    load_datasets,
    save_datasets,
    variance_many,
)
from .numerics import StepConfig, check_ic_box
from .sim import (
    DEFAULT_SETTLE_THRESHOLD,
    Scenario,
    bound_report_to_dict,
    mc_result_to_dict,
    run_monte_carlo,
    simulate,
    summarize_run,
    summary_to_dict,
    write_summary_json,
    write_trajectory_csv,
)
from .sliding import SlidingParams
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


def _one_or_list(kind: str) -> dict:
    """One value of JSON type ``kind``, or a non-empty list of them."""
    return {"oneOf": [{"type": kind}, {"type": "array", "items": {"type": kind}, "minItems": 1}]}


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
                "alpha1": _one_or_list("number"),
                "alpha2": _one_or_list("number"),
                "p": _one_or_list("integer"),
                "q": _one_or_list("integer"),
                "d_bar": _one_or_list("number"),
                "include_sqrt_pi_factor": _one_or_list("boolean"),
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

# Built once: jsonschema.validate would check the constant schema against the
# metaschema on every call.
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

# Removed options, refused with the reason: (section, key, the value refused,
# or None for any value the key is given, reason).
_RETIRED = (
    ("sim", "method", "rk4", "'rk4' was removed, as under the switching law the closed "
     "loop is first order whatever the plant stepper"),
    ("controller", "sign_boundary_layer", None, "the boundary layer was removed, as the "
     "settling theorems assume the true sign(s) and tanh(s/eps) only holds s in an "
     "eps-sized band, so a printed bound need not be met"),
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
        raise ConfigError(f"config invalid at {where}: {err.message}") from err
    _check_float_range(cfg, CONFIG_SCHEMA)


def _check_float_range(value, schema, where=()) -> None:
    """ConfigError for an integer beyond the float range in a "number" field,
    which is built with float(); "integer" fields such as p and q keep any size."""
    options = schema.get("oneOf", [schema])
    if isinstance(value, dict):
        props = {key: sub for o in options for key, sub in o.get("properties", {}).items()}
        for key, item in value.items():
            _check_float_range(item, props.get(key, {}), where + (key,))
    elif isinstance(value, list):
        items = next((o["items"] for o in options if "items" in o), {})
        for i, item in enumerate(value):
            _check_float_range(item, items, where + (str(i),))
    elif isinstance(value, int) and any(o.get("type") == "number" for o in options):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"config invalid at {'/'.join(where)}: "
                              "integer beyond the float range") from None


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


def _per_channel(value, n: int, name: str) -> list:
    if isinstance(value, list):
        if len(value) != n:
            raise ConfigError(f"controller.{name} needs 1 or {n} entries, got {len(value)}")
        return value
    return [value] * n


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


def build_controller_params(cfg: dict, n: int) -> Optional[list[ControllerParams]]:
    ctl = cfg.get("controller", {})
    mode = ctl.get("mode", "known-model")
    if mode == "open-loop" and "alpha1" not in ctl:
        return None
    for key in ("alpha1", "alpha2", "p", "q"):
        if key not in ctl:
            raise ConfigError(f"controller.{key} is required for mode {mode!r}")
    alpha1 = _per_channel(ctl["alpha1"], n, "alpha1")
    alpha2 = _per_channel(ctl["alpha2"], n, "alpha2")
    p = _per_channel(ctl["p"], n, "p")
    q = _per_channel(ctl["q"], n, "q")
    d_bar = _per_channel(ctl.get("d_bar", 0.0), n, "d_bar")
    include = _per_channel(
        ctl.get("include_sqrt_pi_factor", mode != "gp-based"), n, "include_sqrt_pi_factor"
    )
    out = []
    for i in range(n):
        sliding = SlidingParams(alpha1=float(alpha1[i]), p=int(p[i]), q=int(q[i]))
        out.append(
            ControllerParams(
                sliding=sliding,
                alpha2=float(alpha2[i]),
                d_bar=float(d_bar[i]),
                include_sqrt_pi_factor=bool(include[i]),
            )
        )
    return out


def build_step(cfg: dict) -> StepConfig:
    sim_cfg = cfg["sim"]
    return StepConfig(step_size=float(sim_cfg["step_size"]), t_end=float(sim_cfg["t_end"]))


def build_gp_models(cfg: dict, system) -> list:
    gp_cfg = cfg.get("gp")
    if not gp_cfg:
        raise ConfigError("a 'gp' section is required for gp-based mode / gp-train")
    kcfg = gp_cfg.get("kernel", {})
    kernel = KernelConfig(
        family=kcfg.get("family", "exponential"),
        length_scale=float(kcfg.get("length_scale", 1.0)),
    )
    if "dataset" in gp_cfg:
        datasets, _meta = load_datasets(gp_cfg["dataset"])
    elif "generate" in gp_cfg:
        gen = gp_cfg["generate"]
        datasets = generate_training_data(
            system,
            int(gen["n_samples"]),
            gen["region"],
            sigma_f=float(gen.get("sigma_f", 0.0)),
            seed=int(gen.get("seed", 0)),
        )
    else:
        raise ConfigError("gp section needs either 'dataset' (path) or 'generate' (parameters)")
    dim = datasets[0].inputs.shape[1]
    if len(datasets) != system.n or dim != system.n:
        raise ConfigError(
            f"gp dataset has {dim} input columns and {len(datasets)} channels, "
            f"system has {system.n} states"
        )
    # The channels share inputs, kernel and sigma_F: one factorization serves all.
    base = gp_fit(datasets[0], kernel)
    return [base] + [gp_fit_shared(base, ds, kernel) for ds in datasets[1:]]


def build_scenario(cfg: dict) -> Scenario:
    """Config dict -> Scenario; gp-based mode fits its models here."""
    system = build_system(cfg)
    n = system.n
    reference = build_reference(cfg, n)
    mode = cfg.get("controller", {}).get("mode", "known-model")
    params = build_controller_params(cfg, n)
    models = build_gp_models(cfg, system) if mode == "gp-based" else None
    sim_cfg = cfg["sim"]
    x0 = sim_cfg.get("x0", [0.0] * n)
    return Scenario(
        system=system,
        reference=reference,
        params=params,
        x0=np.asarray(x0, dtype=float),
        step=build_step(cfg),
        mode=mode,
        gp_models=models,
        settle_threshold=float(sim_cfg.get("settle_threshold", DEFAULT_SETTLE_THRESHOLD)),
    )


def _output_path(cfg: dict, key: str, default: str) -> Path:
    return Path(cfg.get("output", {}).get(key, default))


# --- bound helpers --------------------------------------------------------------


def _gp_delta_f_bars(models, traj, chi: float) -> np.ndarray:
    """Per-channel max over the visited states of the GP error bound chi*sigma.

    Subsamples the trajectory to at most ~1000 states; sigma varies slowly so
    this loses nothing at the printed precision. The channels of
    ``build_gp_models`` share inputs, kernel and factorization, hence one
    posterior variance, so one audit serves every channel.
    """
    stride = max(1, traj.x.shape[0] // 1000)
    sigma = np.sqrt(variance_many(models[0], traj.x[::stride]))
    return np.full(len(models), ErrorBoundConfig(chi=chi).chi * float(np.max(sigma)))


def _settling_bounds(scenario, cfg: dict, pilot):
    """(bound report, note): the known-model bound, or the gp-based one sized
    over the states of ``pilot()`` (a trajectory made in gp-based mode only);
    neither in open loop. The bound is withheld, with a note, when a
    channel's d_bar is below the plant's perturbation bound, which both
    theorems assume it covers, or when the gains cannot meet the gp-based
    condition."""
    if scenario.mode == "open-loop":
        return None, None
    d_bounds = scenario.system.perturbation_bounds
    for i, c in enumerate(scenario.channels):
        if d_bounds is not None and c.d_bar < d_bounds[i]:
            return None, (
                f"settling bound unavailable: channel {i + 1}: d_bar = {c.d_bar:g} is "
                f"below the plant's perturbation bound {d_bounds[i]:g}"
            )
    if scenario.mode == "known-model":
        return bound_report(scenario.channels), None
    chi = float(cfg.get("gp", {}).get("chi", 2.0))
    delta = _gp_delta_f_bars(scenario.gp_models, pilot(), chi)
    try:
        return bound_report(scenario.channels, delta_f_bars=delta), None
    except GainTooSmallError as err:
        return None, f"settling bound unavailable: {err}"


def _is_standard_pmsm_gains(channels) -> bool:
    g = PMSM_STANDARD_GAINS
    return all(
        c.sliding.alpha1 == g["alpha1"]
        and c.alpha2 == g["alpha2"]
        and c.sliding.p == g["p"]
        and c.sliding.q == g["q"]
        and c.d_bar == g["d_bar"]
        for c in channels
    )


# --- commands --------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = resolve_config(args)
    scenario = build_scenario(cfg)
    traj = simulate(scenario)
    bounds, bound_note = _settling_bounds(scenario, cfg, lambda: traj)
    summary = summarize_run(traj, scenario, bounds=bounds)

    stem = Path(args.config).stem
    csv_path = _output_path(cfg, "trajectory_csv", f"{stem}-trajectory.csv")
    json_path = _output_path(cfg, "summary_json", f"{stem}-summary.json")
    write_trajectory_csv(traj, csv_path, config=cfg)
    write_summary_json(summary, json_path, config=cfg)

    print(f"run: system={scenario.system.name} mode={scenario.mode} "
          f"h={scenario.step.step_size:g} t_end={scenario.step.t_end:g}")
    if bounds is not None:
        print(f"bounds[{bounds.mode}/{bounds.s_bound_mode}]: T_z = {bounds.t_z:.5f}  "
              f"T_s = {bounds.t_s:.5f}  T_max = {bounds.t_max:.5f}")
    if bound_note:
        print(bound_note)
    _print_settling("settling(error)", summary.settling_error)
    _print_settling("settling(sliding)", summary.settling_sliding)
    print(f"max |u| = {summary.max_abs_u:.6g}")
    if np.isfinite(summary.chatter_amplitude):
        print(f"chatter amplitude = {summary.chatter_amplitude:.6g}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _print_settling(label: str, values) -> None:
    parts = [
        f"ch{i + 1}={v:.6g}" if np.isfinite(v) else f"ch{i + 1}=not-settled"
        for i, v in enumerate(values)
    ]
    arr = np.asarray(values, dtype=float)
    worst = f"{np.max(arr):.6g}" if np.all(np.isfinite(arr)) else "not-settled"
    print(f"{label}: {' '.join(parts)}  worst={worst}")


def cmd_bounds(args) -> int:
    cfg = resolve_config(args)
    system = build_system(cfg)
    channels = build_controller_params(cfg, system.n)
    if channels is None:
        raise ConfigError("bounds requires a controller section with gains")

    known = bound_report(channels)
    zero_delta = np.zeros(len(channels))
    gp_l3 = bound_report(channels, delta_f_bars=zero_delta, s_bound_mode="lemma3")
    gp_t8 = bound_report(channels, delta_f_bars=zero_delta, s_bound_mode="printed-t8")

    print("settling-time bounds per channel (s-phase shown in every mode):")
    print("channel      T_z   T_s[known]  T_s[gp-lemma3]  T_s[gp-printed-t8]")
    for i in range(len(channels)):
        print(
            f"  {i + 1}     {known.t_z_channels[i]:8.5f}  {known.t_s_channels[i]:9.5f}"
            f"  {gp_l3.t_s_channels[i]:13.5f}  {gp_t8.t_s_channels[i]:17.5f}"
        )
    for label, rep in (("known-model", known), ("gp-lemma3", gp_l3), ("gp-printed-t8", gp_t8)):
        print(f"aggregate {label + ':':<16}T_z = {rep.t_z:.5f}  T_s = {rep.t_s:.5f}  "
              f"T_max = {rep.t_max:.5f}")
    if _is_standard_pmsm_gains(channels):
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
    models = build_gp_models(cfg, system)
    datasets = [m.dataset for m in models]
    # the held-out states are drawn from the training region, or the data's span
    inputs = datasets[0].inputs
    span = np.stack([inputs.min(axis=0), inputs.max(axis=0)], axis=1)
    region = cfg["gp"].get("generate", {}).get("region", span)
    region = check_ic_box(region, system.n, "held-out region")

    stem = Path(args.config).stem
    csv_path = _output_path(cfg, "dataset_csv", f"{stem}-dataset.csv")
    save_datasets(datasets, csv_path, metadata={"config": cfg, "kernel": {
        "family": models[0].kernel.family, "length_scale": models[0].kernel.length_scale}})
    print(f"wrote {csv_path} ({datasets[0].n_samples} samples, {len(datasets)} channels)")

    estimate = DriftEstimator(models)
    fitted = estimate(datasets[0].inputs)
    for i, m in enumerate(models):
        resid = float(np.max(np.abs(fitted[:, i] - m.dataset.targets)))
        print(f"channel {i + 1}: interpolation residual max = {resid:.3e} "
              f"(jitter {m.jitter:g})")

    rng = np.random.default_rng((datasets[0].seed or 0) + 1)
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

    # gp-based: a pilot run from the box's corner sizes the drift-error bound
    bounds, bound_note = _settling_bounds(
        scenario, cfg, lambda: simulate(dataclasses.replace(scenario, x0=box[:, 1]))
    )
    if bound_note:
        print(bound_note, file=sys.stderr)

    result = run_monte_carlo(scenario, box, args.runs, args.seed, bounds=bounds)

    resolved = dict(cfg)
    resolved["montecarlo"] = {
        "runs": args.runs,
        "seed": args.seed,
        "ic_box": [[float(a), float(b)] for a, b in box],
    }
    doc = mc_result_to_dict(result, config=resolved)
    if bounds is not None:
        doc["bounds"] = bound_report_to_dict(bounds)

    stem = Path(args.config).stem
    jsonl_path = _output_path(cfg, "runs_jsonl", f"{stem}-runs.jsonl")
    summary_path = _output_path(cfg, "mc_summary_json", f"{stem}-mc.json")
    with jsonl_path.open("w") as fh:
        for i, s in enumerate(result.summaries):
            line = {"run": i, "x0": [float(v) for v in result.x0s[i]]}
            line["summary"] = summary_to_dict(s) if s is not None else None
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    summary_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    agg = result.aggregate
    print(f"montecarlo: {args.runs} runs, seed {args.seed}, "
          f"{agg['n_failed']} failed, {agg['n_settled']} settled")
    if agg["max_settling_error"] is not None:
        print(f"max settling time (error): {agg['max_settling_error']:.6g}")
    if bounds is not None:
        print(f"bound T_max = {bounds.t_max:.5f}; "
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

    p_gp = sub.add_parser("gp-train", help="generate data, fit the per-channel GPs")
    add_common(p_gp)
    p_gp.add_argument("-n", "--n-samples", type=_positive_int, default=None,
                      help="training points per channel (overrides gp.generate)")
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
