"""Scenario-driven command line front end.

Parses a flat INI-style scenario file (degrees and engineering-suffixed units
accepted at the boundary, converted once at parse time), dispatches to the
beampattern engines, and writes plot-ready CSV/binary artifacts plus a
manifest of content hashes.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import presets as presets_mod
from .array_model import (
    ArrayConfig,
    FrequencyPlan,
    TabulatedPlan,
    TimeModulatedPlan,
    UniformPlan,
    WeightVector,
    random_unimodular_weights,
    reference_wavelength,
    steered_weights,
    uniform_weights,
)
from .beampattern_instant import (
    grid_to_binary,
    grid_to_csv,
    legacy_grid,
    sweep_grid,
    theta_grid,
    write_csv,
    zero_time_cut,
)
from .beampattern_integral import (
    compare_fgtb_mimo,
    covariance,
    covariance_to_csv,
    curve_to_csv,
    default_quadrature_samples,
    fgtb,
)
from .scan_analytics import (
    build_scan_report,
    design_phase_schedule,
    measure_peak_trajectory,
    scan_report_to_text,
    schedule_playback_grid,
    trajectory_to_csv,
)
from .waveform import FoCoding, generate_offsets, make_chirp_bank, rect_pulse

OUT_ENV = "FDABEAM_OUT"

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

MAX_CELLS = 1 << 24  # 268 MB as complex128
"Cell budget of each array a scenario allocates: M, N_t*N_theta, N_t*M, M*N_theta, M*N_q."


class ScenarioParseError(Exception):
    "Structural problem: unreadable file, missing section/key, unparseable value."


class ScenarioValidationError(Exception):
    "Semantic problem: values parse but contradict the model or the environment."


_UNIT_SCALE = {
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "m": 1.0, "km": 1e3, "cm": 1e-2, "mm": 1e-3,
}

_QTY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$")


def _split_number(text: str, where: str, what: str) -> tuple[float, str]:
    "Finite leading number and unit suffix; the pattern also admits non-numbers like '1e'."
    match = _QTY_RE.match(text)
    if match:
        try:
            value = float(match.group(1))
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value, match.group(2)
    raise ScenarioParseError(f"{where}: cannot parse {what} {text!r}")


def parse_quantity(text: str, where: str) -> float:
    "Number with optional engineering unit suffix, normalized to SI."
    value, suffix = _split_number(text, where, "quantity")
    unit = suffix.replace("µ", "u").lower()
    if unit and unit not in _UNIT_SCALE:
        raise ScenarioParseError(f"{where}: unknown unit {suffix!r}")
    value *= _UNIT_SCALE.get(unit, 1.0)
    if not math.isfinite(value):
        raise ScenarioParseError(f"{where}: quantity {text!r} overflows")
    return value


def parse_angle(text: str, where: str) -> float:
    "Angle in radians; bare numbers and 'deg' suffixes are degrees, 'rad' is radians."
    value, suffix = _split_number(text, where, "angle")
    unit = suffix.lower()
    if unit in ("", "deg"):
        return np.radians(value)
    if unit == "rad":
        return value
    raise ScenarioParseError(f"{where}: unknown angle unit {suffix!r}")


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _get(sec: configparser.SectionProxy, key: str, fallback, kind: str = "int"):
    "sec.getint/getfloat/getboolean, reporting an unparseable or non-finite value as a parse error."
    try:
        value = getattr(sec, f"get{kind}")(key, fallback=fallback)
    except ValueError as exc:
        raise ScenarioParseError(f"{sec.name}.{key}: {exc}") from None
    if kind == "float" and not math.isfinite(value):
        raise ScenarioParseError(f"{sec.name}.{key}: {value} is not a finite number")
    return value


def _check_cells(where: str, what: str, cells: int) -> None:
    if cells > MAX_CELLS:
        raise ScenarioValidationError(
            f"{where}: {what} need {cells} cells, over the budget of {MAX_CELLS}")


def _samples(sec: configparser.SectionProxy, key: str, fallback: int, *rows: int) -> int:
    """A grid sample count; every grid axis needs at least two samples.

    Arrays of this many columns times each of rows cells are allocated; each must fit MAX_CELLS.
    """
    n = _get(sec, key, fallback)
    if n < 2:
        raise ScenarioValidationError(f"{sec.name}.{key}: need at least 2 samples, got {n}")
    _check_cells(f"{sec.name}.{key}", f"{n} samples", n * max(rows, default=1))
    return n


@dataclass
class Scenario:
    "Fully resolved scenario: parsed values only, SI units and radians throughout."

    name: str
    config: ArrayConfig
    plan: FrequencyPlan
    weights: WeightVector
    waveforms: list
    evaluations: list[tuple[str, dict]] = field(default_factory=list)
    formats: tuple[str, ...] = ("csv",)
    out_dir: str = "out"


_WAVELENGTHS = {"half-wavelength": 0.5, "lambda0/2": 0.5, "wavelength": 1.0, "lambda0": 1.0}


def _resolve_spacing(token: str, config: ArrayConfig, plan: FrequencyPlan, where: str) -> float:
    "A length, or a multiple of lambda_0: the reference wavelength, c/f_c for non-uniform plans."
    token = token.strip().lower()
    if token not in _WAVELENGTHS:
        return parse_quantity(token, where)
    if isinstance(plan, UniformPlan):
        return _WAVELENGTHS[token] * reference_wavelength(config, plan)
    return _WAVELENGTHS[token] * (config.wave_speed / config.carrier_freq)


def _preset_text(name: str) -> str:
    try:
        return presets_mod.preset_text(name)
    except KeyError as exc:
        raise ScenarioValidationError(exc.args[0]) from exc


def _parse_plan(parser: configparser.ConfigParser, num_elements: int,
                default_seed: int | None) -> FrequencyPlan:
    if not parser.has_section("plan"):
        return UniformPlan(0.0)
    sec = parser["plan"]
    kind = sec.get("type", "uniform").strip().lower()
    if kind == "uniform":
        return UniformPlan(parse_quantity(sec.get("offset", "0"), "plan.offset"))
    if kind == "coded":
        coding_name = sec.get("coding", "").strip().lower()
        scale = parse_quantity(sec.get("offset", "0"), "plan.offset")
        seed = _get(sec, "seed", default_seed)
        if coding_name == "random" and seed is None:
            raise ScenarioValidationError("plan: random coding requires a seed")
        try:
            coding = FoCoding(scheme=coding_name, scale=scale, seed=seed)
            offsets = generate_offsets(coding, num_elements)
        except ValueError as exc:
            raise ScenarioValidationError(f"plan: {exc}") from exc
        return TabulatedPlan(offsets=tuple(offsets))
    if kind == "tabulated":
        offsets = [parse_quantity(v, "plan.offsets") for v in _parse_list(sec.get("offsets", ""))]
        if len(offsets) != num_elements:
            raise ScenarioValidationError(
                f"plan: {len(offsets)} tabulated offsets for {num_elements} elements")
        return TabulatedPlan(offsets=tuple(offsets))
    if kind == "time-modulated":
        try:
            return TimeModulatedPlan(
                form=sec.get("form", "sqrt").strip().lower(),
                rate=parse_quantity(sec.get("rate", "0"), "plan.rate"),
                time_scale=parse_quantity(sec.get("time_scale", "1 us"), "plan.time_scale"),
            )
        except ValueError as exc:
            raise ScenarioValidationError(f"plan: {exc}") from exc
    raise ScenarioParseError(f"plan: unknown type {kind!r}")


def _parse_weights(parser: configparser.ConfigParser, config: ArrayConfig,
                   plan: FrequencyPlan, default_seed: int | None) -> WeightVector:
    if not parser.has_section("weights"):
        return uniform_weights(config.num_elements)
    sec = parser["weights"]
    kind = sec.get("type", "uniform").strip().lower()
    if kind == "uniform":
        return uniform_weights(config.num_elements)
    if kind == "steered":
        if "angle" not in sec:
            raise ScenarioParseError("weights: steered weights need an angle")
        angle = parse_angle(sec["angle"], "weights.angle")
        try:
            return steered_weights(config, plan, angle)
        except ValueError as exc:
            raise ScenarioValidationError(f"weights: {exc}") from exc
    if kind == "random":
        seed = _get(sec, "seed", default_seed)
        if seed is None:
            raise ScenarioValidationError("weights: random weights require a seed")
        try:
            return random_unimodular_weights(config.num_elements, seed)
        except ValueError as exc:
            raise ScenarioValidationError(f"weights: {exc}") from exc
    raise ScenarioParseError(f"weights: unknown type {kind!r}")


def _parse_waveforms(parser: configparser.ConfigParser, config: ArrayConfig) -> list:
    if not parser.has_section("waveforms"):
        return [rect_pulse(config.pulse_duration)] * config.num_elements
    sec = parser["waveforms"]
    kind = sec.get("kind", "rect").strip().lower()
    if kind == "rect":
        bw = sec.get("bandwidth")
        bandwidth = parse_quantity(bw, "waveforms.bandwidth") if bw else None
        return [rect_pulse(config.pulse_duration, bandwidth)] * config.num_elements
    if kind == "chirp-bank":
        return make_chirp_bank(
            config,
            base_rate_num=_get(sec, "base_rate", 100.0, "float"),
            rate_step=_get(sec, "rate_step", 10.0, "float"),
        )
    raise ScenarioParseError(f"waveforms: unknown kind {kind!r}")


def _write_grid(grid, out: Path, stem: str, formats) -> list[Path]:
    written = []
    if "csv" in formats:
        written.append(grid_to_csv(grid, out / f"{stem}.csv"))
    if "binary" in formats:
        path = out / f"{stem}.bin"
        grid_to_binary(grid, path)
        written.append(path)
    return written


def _unique_tags(where: str, texts: list[str], tags: list[str], stem: str) -> list[str]:
    "The artifact tags of a section's list values; two values sharing one would overwrite a file."
    first: dict[str, str] = {}
    for text, tag in zip(texts, tags):
        if tag in first:
            raise ScenarioValidationError(
                f"{where}: {first[tag]!r} and {text!r} both write {stem.format(tag)}")
        first[tag] = text
    return tags


# Evaluation sections: a parser (section, scenario so far) -> params, called at
# load time, and a runner (scenario, params, out) -> written paths. Both look
# the engine functions up as module globals at call time, so that wrappers set
# on this module's attributes (timing instrumentation) see every call.

def _parse_fitb_grid(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    engine = sec.get("engine", "exact").strip().lower().replace("-", "_")
    if engine not in ("exact", "closed_form"):
        raise ScenarioParseError(f"fitb_grid: unknown engine {engine!r}")
    if engine == "closed_form" and not isinstance(sc.plan, UniformPlan):
        raise ScenarioValidationError("fitb_grid: the closed-form engine needs a uniform plan")
    n_time = _samples(sec, "time_samples", 512, sc.config.num_elements)
    return {
        "n_time": n_time,
        "n_theta": _samples(sec, "angle_samples", 1024, n_time, sc.config.num_elements),
        "engine": engine,
        "trajectory": _get(sec, "trajectory", False, "boolean"),
    }


def _run_fitb_grid(sc: Scenario, params: dict, out: Path) -> list[Path]:
    grid = sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms,
                      n_time=params["n_time"], n_theta=params["n_theta"],
                      engine=params["engine"])
    written = _write_grid(grid.to_db(), out, "fitb_grid_db", sc.formats)
    written += _write_grid(grid, out, "fitb_grid", sc.formats)
    if params["trajectory"]:
        written.append(trajectory_to_csv(measure_peak_trajectory(grid), out / "trajectory.csv"))
    return written


def _parse_zero_time_cut(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    tokens = (_parse_list(sec.get("spacings", ""))
              or [sec.parser["array"].get("spacing", "half-wavelength")])
    return {
        "n_theta": _samples(sec, "angle_samples", 4096, sc.config.num_elements),
        "spacings": [_resolve_spacing(tok, sc.config, sc.plan, "zero_time_cut.spacings")
                     for tok in tokens],
        "tags": _unique_tags(
            "zero_time_cut.spacings", tokens,
            [re.sub(r"[^a-z0-9]+", "_", tok.lower()).strip("_") for tok in tokens],
            "zero_time_cut_{}.csv"),
    }


def _run_zero_time_cut(sc: Scenario, params: dict, out: Path) -> list[Path]:
    written = []
    theta = theta_grid(params["n_theta"])
    for tag, spacing in zip(params["tags"], params["spacings"]):
        values = zero_time_cut(replace(sc.config, spacing=spacing), sc.plan.delta_f, theta)
        written.append(write_csv(out / f"zero_time_cut_{tag}.csv", "theta_deg,value",
                                 np.degrees(theta), values))
    return written


def _parse_legacy_grid(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    texts = _parse_list(sec.get("ranges", ""))
    if not texts:
        raise ScenarioParseError("legacy_grid: needs a ranges list")
    ranges = [parse_quantity(v, "legacy_grid.ranges") for v in texts]
    n_time = _samples(sec, "time_samples", 256, sc.config.num_elements)
    return {
        "ranges": ranges,
        "tags": _unique_tags("legacy_grid.ranges", texts, [f"{r / 1e3:g}km" for r in ranges],
                             "legacy_r{}"),
        "n_time": n_time,
        "n_theta": _samples(sec, "angle_samples", 1024, n_time, sc.config.num_elements),
    }


def _run_legacy_grid(sc: Scenario, params: dict, out: Path) -> list[Path]:
    written = []
    # matched absolute instants: shared axis anchored at the furthest range
    r_ref = max(params["ranges"])
    t_axis = r_ref / sc.config.wave_speed + np.linspace(0.0, sc.config.pulse_duration,
                                                        params["n_time"])
    # the retarded-time grid does not depend on range: one grid, written per range
    fitb = sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms,
                      n_time=params["n_time"], n_theta=params["n_theta"])
    for r, tag in zip(params["ranges"], params["tags"]):
        written += _write_grid(fitb, out, f"fitb_r{tag}", sc.formats)
        legacy = legacy_grid(sc.config, sc.plan.delta_f, r, t_axis, params["n_theta"])
        written += _write_grid(legacy, out, f"legacy_r{tag}", sc.formats)
    return written


def _parse_offsets(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    "The offsets list, their tags and the angle count shared by [fgtb_curve] and [mimo_compare]."
    texts = _parse_list(sec.get("offsets", "0"))
    offsets = [parse_quantity(v, f"{sec.name}.offsets") for v in texts]
    for text, off in zip(texts, offsets):  # each covariance samples M waveforms N_q times
        n_q = default_quadrature_samples(sc.config, sc.waveforms, UniformPlan(off))
        _check_cells(f"{sec.name}.offsets", f"{text!r} and {n_q} quadrature samples",
                     sc.config.num_elements * n_q)
    stem = "fgtb_df{}.csv" if sec.name == "fgtb_curve" else "mimo_compare_df{}.csv"
    return {
        "offsets": offsets,
        "tags": _unique_tags(f"{sec.name}.offsets", texts, [f"{f / 1e3:g}kHz" for f in offsets],
                             stem),
        "n_theta": _samples(sec, "angle_samples", 721, sc.config.num_elements),
    }


def _parse_fgtb_curve(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    return {**_parse_offsets(sec, sc),
            "covariance_csv": _get(sec, "covariance_csv", False, "boolean")}


def _run_fgtb_curve(sc: Scenario, params: dict, out: Path) -> list[Path]:
    written = []
    theta = theta_grid(params["n_theta"])
    for off, tag in zip(params["offsets"], params["tags"]):
        plan = UniformPlan(off)
        n_q = default_quadrature_samples(sc.config, sc.waveforms, plan)
        r = covariance(sc.waveforms, plan, "fda", n_q)
        values = fgtb(r, sc.config, plan, sc.weights, theta)
        written.append(curve_to_csv(theta, values, out / f"fgtb_df{tag}.csv"))
        if params["covariance_csv"]:
            written.append(covariance_to_csv(r, out / f"covariance_df{tag}.csv"))
    return written


def _run_mimo_compare(sc: Scenario, params: dict, out: Path) -> list[Path]:
    written = []
    theta = theta_grid(params["n_theta"])
    report_lines = []
    for off, tag in zip(params["offsets"], params["tags"]):
        cmp = compare_fgtb_mimo(sc.config, UniformPlan(off), sc.waveforms, sc.weights, theta)
        written.append(write_csv(out / f"mimo_compare_df{tag}.csv",
                                 "theta_deg,fgtb_norm,mimo_norm", np.degrees(theta),
                                 cmp.fgtb_normalized, cmp.mimo_normalized))
        status = "ok" if cmp.max_deviation < 0.05 else "DISCREPANCY"
        report_lines.append(
            f"offset_hz = {off:.10g} : max_deviation = {cmp.max_deviation:.6e} ({status}), "
            f"fgtb_peak = {cmp.fgtb_peak:.6e}, mimo_peak = {cmp.mimo_peak:.6e}"
        )
    path = out / "mimo_compare_report.txt"
    path.write_text("\n".join(report_lines) + "\n")
    written.append(path)
    return written


def _parse_scan_report(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    return {"t_eval": parse_quantity(sec.get("time", "0"), "scan_report.time"),
            "k": _get(sec, "k", 0)}


def _run_scan_report(sc: Scenario, params: dict, out: Path) -> list[Path]:
    report = build_scan_report(sc.config, sc.plan.delta_f, params["t_eval"], params["k"])
    path = out / "scan_report.txt"
    scan_report_to_text(report, path)
    return [path]


def _parse_segments(sec: configparser.SectionProxy) -> list:
    segments = []
    for key in sorted(k for k in sec.keys() if k.startswith("segment")):
        parts = _parse_list(sec[key])
        if len(parts) != 4:
            raise ScenarioParseError(
                f"schedule.{key}: expected 't_a, t_b, theta_a, theta_b', got {sec[key]!r}")
        t_a = parse_quantity(parts[0], f"schedule.{key}")
        t_b = parse_quantity(parts[1], f"schedule.{key}")
        th_a = parse_angle(parts[2], f"schedule.{key}")
        th_b = parse_angle(parts[3], f"schedule.{key}")
        segments.append(((t_a, t_b), (th_a, th_b)))
    if not segments:
        raise ScenarioParseError("schedule: needs at least one segmentN key")
    return segments


def _parse_schedule(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    segments = _parse_segments(sec)
    n_time = _samples(sec, "time_samples", 512, sc.config.num_elements)
    n_theta = _samples(sec, "angle_samples", 1024, n_time, sc.config.num_elements)
    try:
        schedule = design_phase_schedule(sc.config, sc.plan.delta_f, segments, n_time)
    except ValueError as exc:
        raise ScenarioValidationError(f"schedule: {exc}") from exc
    return {"schedule": schedule, "n_theta": n_theta}


def _run_schedule(sc: Scenario, params: dict, out: Path) -> list[Path]:
    schedule = params["schedule"]
    grid = schedule_playback_grid(sc.config, sc.plan.delta_f, schedule,
                                  sc.waveforms[0], sc.weights, params["n_theta"])
    written = _write_grid(grid, out, "schedule_grid", sc.formats)
    written.append(trajectory_to_csv(measure_peak_trajectory(grid),
                                     out / "schedule_trajectory.csv"))
    written.append(write_csv(out / "schedule_phase.csv", "t_us,phi_cycles,target_theta_deg",
                             schedule.t_grid * 1e6, schedule.phi,
                             np.degrees(schedule.target_theta)))
    return written


@dataclass(frozen=True)
class _Section:
    "One evaluation section: the keys it reads, its parser and runner, and its plan needs."

    keys: tuple[str, ...]  # a trailing N stands for any decimal number
    parse: Callable[[configparser.SectionProxy, Scenario], dict]
    run: Callable[[Scenario, dict, Path], list[Path]]
    uniform: bool = False  # needs a uniform-offset plan


# in evaluation order
_SECTIONS: dict[str, _Section] = {
    "fitb_grid": _Section(("time_samples", "angle_samples", "engine", "trajectory"),
                          _parse_fitb_grid, _run_fitb_grid),
    "zero_time_cut": _Section(("angle_samples", "spacings"),
                              _parse_zero_time_cut, _run_zero_time_cut, uniform=True),
    "legacy_grid": _Section(("ranges", "time_samples", "angle_samples"),
                            _parse_legacy_grid, _run_legacy_grid, uniform=True),
    "fgtb_curve": _Section(("offsets", "angle_samples", "covariance_csv"),
                           _parse_fgtb_curve, _run_fgtb_curve),
    "mimo_compare": _Section(("offsets", "angle_samples"), _parse_offsets, _run_mimo_compare),
    "scan_report": _Section(("time", "k"), _parse_scan_report, _run_scan_report, uniform=True),
    "schedule": _Section(("segmentN", "time_samples", "angle_samples"),
                         _parse_schedule, _run_schedule, uniform=True),
}
_SETUP_SECTIONS = ("scenario", "array", "plan", "weights", "waveforms", "outputs")


def load_scenario(text: str, base_dir: Path | None = None) -> Scenario:
    "Parse and semantically validate a scenario file body."
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(f"not a scenario file: {exc}") from exc

    if parser.has_section("scenario") and parser["scenario"].get("preset"):
        base_text = _preset_text(parser["scenario"]["preset"].strip())
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(base_text)
        parser.read_string(text)

    for section in parser.sections():
        if section not in _SECTIONS and section not in _SETUP_SECTIONS:
            raise ScenarioParseError(f"unknown section [{section}]")
    if not parser.has_section("array"):
        raise ScenarioParseError("missing required [array] section")
    arr = parser["array"]
    for key in ("elements", "carrier", "pulse"):
        if key not in arr:
            raise ScenarioParseError(f"array: missing required key {key!r}")

    seed = None
    name = "scenario"
    if parser.has_section("scenario"):
        name = parser["scenario"].get("name", name)
        seed = _get(parser["scenario"], "seed", None)

    num_elements = _get(arr, "elements", None)
    _check_cells("array.elements", f"{num_elements} elements", num_elements)
    try:
        config = ArrayConfig(
            num_elements=num_elements,
            carrier_freq=parse_quantity(arr["carrier"], "array.carrier"),
            spacing=1.0,  # resolved below, once the plan is known
            pulse_duration=parse_quantity(arr["pulse"], "array.pulse"),
            wave_speed=parse_quantity(arr.get("wave_speed", "3e8"), "array.wave_speed"),
        )
        plan = _parse_plan(parser, num_elements, seed)
        if isinstance(plan, UniformPlan) and \
                config.carrier_freq + (num_elements - 1) * plan.delta_f <= 0:
            raise ValueError("every element frequency f_c + m*offset must be positive")
        config = replace(config, spacing=_resolve_spacing(
            arr.get("spacing", "half-wavelength"), config, plan, "array.spacing"))
    except ValueError as exc:
        raise ScenarioValidationError(f"array: {exc}") from exc

    weights = _parse_weights(parser, config, plan, seed)
    waveforms = _parse_waveforms(parser, config)

    formats = ("csv",)
    out_dir = "out"
    if parser.has_section("outputs"):
        sec = parser["outputs"]
        out_dir = sec.get("directory", out_dir)
        fmts = tuple(v.lower() for v in _parse_list(sec.get("formats", "csv")))
        for fmt in fmts:
            if fmt not in ("csv", "binary"):
                raise ScenarioParseError(f"outputs: unknown format {fmt!r}")
        formats = fmts
    if base_dir is not None and not os.path.isabs(out_dir):
        out_dir = str(base_dir / out_dir)

    sc = Scenario(name=name, config=config, plan=plan, weights=weights,
                  waveforms=waveforms, formats=formats, out_dir=out_dir)
    for kind, spec in _SECTIONS.items():
        if not parser.has_section(kind):
            continue
        sec = parser[kind]
        for key in sec:
            if re.sub(r"\d+$", "N", key) not in spec.keys:
                raise ScenarioParseError(f"{kind}: unknown key {key!r}")
        if spec.uniform and not isinstance(plan, UniformPlan):
            raise ScenarioValidationError(f"{kind}: requires a uniform plan")
        sc.evaluations.append((kind, spec.parse(sec, sc)))
    if not sc.evaluations:
        raise ScenarioParseError("scenario requests no evaluations "
                                 f"(add one of {', '.join(_SECTIONS)})")
    return sc


def execute_scenario(sc: Scenario, out_dir: str | Path | None = None) -> Path:
    "Run every evaluation, write artifacts and the hash manifest; returns the output dir."
    out = Path(os.environ.get(OUT_ENV) or out_dir or sc.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ScenarioValidationError(f"output directory {out} is not writable: {exc}") from exc

    written: list[Path] = []
    for kind, params in sc.evaluations:
        written.extend(_SECTIONS[kind].run(sc, params, out))

    manifest = {
        "scenario": sc.name,
        "artifacts": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(written)
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def _load_checked(source: str, read: Callable[[], str],
                  base_dir: Path | None = None) -> Scenario | int:
    "The scenario read() returns, or the exit code after a one-line report of why it failed."
    try:
        return load_scenario(read(), base_dir=base_dir)
    except OSError as exc:
        print(f"error: cannot read {source}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioParseError as exc:
        print(f"parse error in {source}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print(f"validation error in {source}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _execute_checked(sc: Scenario, out_dir: str | None, label: str) -> int:
    try:
        out = execute_scenario(sc, out_dir)
    except ScenarioValidationError as exc:
        print(f"validation error in {label}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error running {label}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{sc.name}: artifacts written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdabeam",
        description="Frequency-diverse-array transmit beampattern simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_preset = sub.add_parser("preset", help="run a bundled preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None, help="output directory override")
    p_preset.add_argument("--show", action="store_true", help="print the scenario text and exit")

    sub.add_parser("list-presets", help="list bundled presets")

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("file")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name, desc in presets_mod.preset_descriptions():
            print(f"{name:10s} {desc}")
        return 0

    if args.command == "preset":
        source = f"preset {args.name}"
        sc = _load_checked(source, lambda: _preset_text(args.name))
        if isinstance(sc, int):
            return sc
        if args.show:
            print(_preset_text(args.name), end="")
            return 0
        return _execute_checked(sc, args.out or os.path.join("out", args.name), label=source)

    path = Path(args.file)
    sc = _load_checked(str(path), path.read_text, base_dir=path.parent)
    if isinstance(sc, int):
        return sc
    if args.command == "validate":
        print(f"{path}: ok")
        return 0
    return _execute_checked(sc, args.out, label=str(path))

if __name__ == "__main__":
    sys.exit(main())
