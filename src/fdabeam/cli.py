"""Scenario-driven command line front end.

Parses a flat INI-style scenario file (degrees and engineering-suffixed units
accepted at the boundary, converted once at parse time), dispatches to the
beampattern engines, and writes plot-ready CSV/binary artifacts plus a
manifest of content hashes.

Exit codes: 0 success, 2 parse error, 3 validation error (also an artifact that cannot be
written), 4 numerical error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import functools
import json
import math
import re
import shutil
import sys
import threading
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
    local_time_ends,
    plan_offsets,
    random_unimodular_weights,
    reference_wavelength,
    steered_weights,
    uniform_weights,
)
from .beampattern_instant import (
    BeampatternGrid,
    grid_to_binary,
    grid_to_csv,
    legacy_grid,
    sweep_grid,
    theta_grid,
    write_chunks,
    write_csv,
    zero_time_cut,
)
from .beampattern_integral import (
    compare_fgtb_mimo,
    covariance,
    curve_to_csv,
    default_quadrature_samples,
    fgtb,
)
from .scan_analytics import (
    build_scan_report,
    design_phase_schedule,
    measure_peak_trajectory,
    schedule_playback_grid,
    trajectory_to_csv,
)
from .waveform import FoCoding, generate_offsets, make_chirp_bank, rect_pulse

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

MAX_CELLS = 1 << 24  # 268 MB as complex128
"Cell budget of each array a scenario allocates: M, N_t*N_theta, N_t*M, M*N_theta, M*N_q."


class ScenarioParseError(Exception):
    "Structural problem: unreadable file, missing section/key, unparseable value."


class ScenarioValidationError(Exception):
    "Semantic problem: values parse but contradict the model or the environment."


@contextlib.contextmanager
def _invalid(where: str):
    "Report a ValueError the block raises as a validation error of where."
    try:
        yield
    except ValueError as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from exc


# Unit suffixes, matched exactly, and their scales: to SI for quantities, to radians for
# angles (pi/180 is np.radians bit for bit), and none for dimensionless numbers.
_QUANTITY_UNITS = {"": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "s": 1.0,
                   "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "m": 1.0, "km": 1e3, "cm": 1e-2, "mm": 1e-3}
_ANGLE_UNITS = {"": math.pi / 180, "deg": math.pi / 180, "rad": 1.0}
_NO_UNITS = {"": 1.0}

_NUMBER_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([^\W\d_]*)\s*$")


def _parse_number(text: str, where: str, what: str, units: dict[str, float]) -> float:
    "A finite number times the scale of its unit suffix in units; the result must be finite."
    match = _NUMBER_RE.match(text)
    try:  # the pattern also admits non-numbers like '1e'
        value = float(match.group(1)) if match else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioParseError(f"{where}: cannot parse {what} {text!r}")
    suffix = match.group(2)
    if suffix not in units:
        raise ScenarioParseError(f"{where}: unknown {what} unit {suffix!r} "
                                 f"(accepted: {', '.join(filter(None, units)) or 'none'})")
    value *= units[suffix]
    if not math.isfinite(value):
        raise ScenarioParseError(f"{where}: {what} {text!r} overflows")
    return value


def parse_quantity(text: str, where: str) -> float:
    "Number with optional engineering unit suffix, normalized to SI."
    return _parse_number(text, where, "quantity", _QUANTITY_UNITS)


def parse_angle(text: str, where: str) -> float:
    "Angle in radians; bare numbers and 'deg' suffixes are degrees, 'rad' is radians."
    return _parse_number(text, where, "angle", _ANGLE_UNITS)


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _get(sec: configparser.SectionProxy, key: str, fallback, kind: str = "int"):
    "sec.getint/getboolean, reporting an unparseable value as a parse error."
    try:
        return getattr(sec, f"get{kind}")(key, fallback=fallback)
    except ValueError as exc:
        raise ScenarioParseError(f"{sec.name}.{key}: {exc}") from None


def _check_cells(where: str, what: str, cells: int) -> None:
    if cells > MAX_CELLS:
        raise ScenarioValidationError(
            f"{where}: {what} need {cells} cells, over the budget of {MAX_CELLS}")


def _check_element_frequencies(where: str, config: ArrayConfig, plan: FrequencyPlan) -> None:
    "Every element frequency f_c + offset_m of a static plan must be positive."
    if config.carrier_freq + plan_offsets(plan, config.num_elements).min() <= 0:
        raise ScenarioValidationError(
            f"{where}: every element frequency f_c + offset_m must be positive")


MAX_PHASE_CYCLES = 2.0 ** 52
"Phase magnitude in cycles from which float64 holds no fraction of a cycle."


def _check_time_modulated(config: ArrayConfig, plan: TimeModulatedPlan) -> None:
    """Every element's phase must be finite and below MAX_PHASE_CYCLES, its frequency positive.

    Both read chi_{M-1} at the outer element-local times of the pulse's rows,
    -(M-1)d/c and T_p + (M-1)d/c, which bound every tau the engine evaluates.
    The analytic forms have chi_m = m*rate*g(x), x = tau/time_scale, with g
    monotone, so there the last element has the lowest frequency f_c + chi_m(tau)
    and the largest phase |chi_m(tau)*tau| = |m*rate|*|g(x)*x|*time_scale, which
    does not fall as |tau| or m grows.
    """
    m = config.num_elements - 1
    tau = np.ravel(local_time_ends(config, (0.0, config.pulse_duration)))
    with np.errstate(all="ignore"):
        chi = plan.chi(m, tau)
        cycles = np.abs(chi * tau).max()
        lowest = config.carrier_freq + chi.min()
    if not cycles < MAX_PHASE_CYCLES:
        raise ScenarioValidationError(
            f"plan: element {m}'s time-modulated phase reaches {cycles:g} cycles within "
            f"the pulse; it must be finite and below 2**52 cycles")
    if not lowest > 0:
        raise ScenarioValidationError(
            f"plan: element frequency f_c + chi_m(tau) reaches {lowest:g} Hz within the "
            f"pulse; every element frequency must be positive")


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
    weights: np.ndarray
    waveforms: list
    evaluations: list[tuple[str, dict]] = field(default_factory=list)
    formats: tuple[str, ...] = ("csv",)


_WAVELENGTHS = {"half-wavelength": 0.5, "wavelength": 1.0}


def _resolve_spacing(token: str, config: ArrayConfig, plan: FrequencyPlan, where: str) -> float:
    "A length, or a multiple of the reference wavelength lambda_0."
    if token not in _WAVELENGTHS:
        return parse_quantity(token, where)
    return _WAVELENGTHS[token] * reference_wavelength(config, plan)


def _preset_text(name: str) -> str:
    if name not in presets_mod.PRESETS:
        raise ScenarioValidationError(f"unknown preset {name!r}")
    return presets_mod.PRESETS[name][1]


# setup sections that select a kind: (selecting key, default kind, {kind: other keys it reads})
_KINDS: dict[str, tuple[str, str, dict[str, tuple[str, ...]]]] = {
    "plan": ("type", "uniform", {"uniform": ("offset",), "coded": ("coding", "offset", "seed"),
                                 "tabulated": ("offsets",),
                                 "time-modulated": ("form", "rate", "time_scale")}),
    "weights": ("type", "uniform", {"uniform": (), "steered": ("angle",), "random": ("seed",)}),
    "waveforms": ("kind", "rect", {"rect": (), "chirp-bank": ("base_rate", "rate_step")}),
}


def _kind(sec: configparser.SectionProxy) -> str:
    "The kind a setup section selects; a key that kind does not read is a validation error."
    selector, default, reads = _KINDS[sec.name]
    kind = sec.get(selector, default)
    if kind not in reads:
        raise ScenarioParseError(f"{sec.name}: unknown {selector} {kind!r}")
    for key in sec:
        if key != selector and key not in reads[kind]:
            raise ScenarioValidationError(f"{sec.name}: {selector} = {kind} does not read {key!r}")
    return kind


def _parse_plan(sec: configparser.SectionProxy, num_elements: int) -> FrequencyPlan:
    kind = _kind(sec)
    if kind == "uniform":
        return UniformPlan(parse_quantity(sec.get("offset", "0"), "plan.offset"))
    if kind == "coded":
        scale = parse_quantity(sec.get("offset", "0"), "plan.offset")
        seed = _get(sec, "seed", None)
        with _invalid("plan"):
            offsets = generate_offsets(FoCoding(scheme=sec.get("coding", ""), scale=scale,
                                                seed=seed), num_elements)
        return TabulatedPlan(offsets=tuple(offsets))
    if kind == "tabulated":
        offsets = [parse_quantity(v, "plan.offsets") for v in _parse_list(sec.get("offsets", ""))]
        if len(offsets) != num_elements:
            raise ScenarioValidationError(
                f"plan: {len(offsets)} tabulated offsets for {num_elements} elements")
        return TabulatedPlan(offsets=tuple(offsets))
    with _invalid("plan"):
        return TimeModulatedPlan(
            form=sec.get("form", "sqrt"),
            rate=parse_quantity(sec.get("rate", "0"), "plan.rate"),
            time_scale=parse_quantity(sec.get("time_scale", "1 us"), "plan.time_scale"),
        )


def _parse_weights(sec: configparser.SectionProxy, config: ArrayConfig,
                   plan: FrequencyPlan) -> np.ndarray:
    kind = _kind(sec)
    if kind == "uniform":
        return uniform_weights(config.num_elements)
    if kind == "steered":
        if "angle" not in sec:
            raise ScenarioParseError("weights: steered weights need an angle")
        angle = parse_angle(sec["angle"], "weights.angle")
        with _invalid("weights"):
            return steered_weights(config, plan, angle)
    seed = _get(sec, "seed", None)
    if seed is None:
        raise ScenarioValidationError("weights: random weights require a seed")
    with _invalid("weights"):
        return random_unimodular_weights(config.num_elements, seed)


def _parse_waveforms(sec: configparser.SectionProxy, config: ArrayConfig) -> list:
    if _kind(sec) == "rect":
        return [rect_pulse(config.pulse_duration)] * config.num_elements
    with _invalid("waveforms"):  # finite rate numbers can still overflow once divided by T_p^2
        return make_chirp_bank(
            config,
            base_rate_num=_parse_number(sec.get("base_rate", "100"), "waveforms.base_rate",
                                        "number", _NO_UNITS),
            rate_step=_parse_number(sec.get("rate_step", "10"), "waveforms.rate_step", "number",
                                    _NO_UNITS),
        )


def _write_grids(grids: list[tuple[BeampatternGrid, str]], out: Path, formats) -> dict[str, str]:
    """Write each (grid, stem) of one section in every requested format; returns the digests.

    One worker thread writes and hashes every other file, CSVs first, and this thread the rest;
    formatting, SHA-256 and writes release the GIL. Both end before this returns or raises.
    """
    files = [(write, grid, out / f"{stem}.{ext}") for fmt, ext, write in
             (("csv", "csv", grid_to_csv), ("binary", "bin", grid_to_binary))
             if fmt in formats for grid, stem in grids]
    digests, failed = {}, []

    def write_share(share: int) -> None:
        try:
            for write, grid, path in files[share::2]:
                digests[path.name] = write(grid, path)
        except BaseException as exc:  # raised below, once the worker is joined
            failed.append(exc)

    worker = threading.Thread(target=write_share, args=(1,))
    worker.start()
    write_share(0)
    worker.join()
    if failed:
        raise failed[0]
    return digests


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
# load time, and a runner (scenario, params, out) -> {artifact name: SHA-256}. Both look
# the engine functions up as module globals at call time, so that wrappers set
# on this module's attributes (timing instrumentation) see every call.

def _parse_fitb_grid(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    engine = sec.get("engine", "exact")
    if engine not in ("exact", "closed-form"):
        raise ScenarioParseError(f"fitb_grid: unknown engine {engine!r}")
    if engine == "closed-form":
        # the Dirichlet form assumes a uniform plan, unit weights and rect pulses
        if not isinstance(sc.plan, UniformPlan):
            raise ScenarioValidationError("fitb_grid: the closed-form engine needs a uniform plan")
        setup = sec.parser
        if (setup["weights"].get("type", "uniform") != "uniform"
                or setup["waveforms"].get("kind", "rect") != "rect"):
            raise ScenarioValidationError("fitb_grid: the closed-form engine needs "
                                          "[weights] type = uniform and [waveforms] kind = rect")
    n_time = _samples(sec, "time_samples", 512, sc.config.num_elements)
    return {
        "n_time": n_time,
        "n_theta": _samples(sec, "angle_samples", 1024, n_time, sc.config.num_elements),
        "engine": engine.replace("-", "_"),  # sweep_grid's spelling
        "trajectory": _get(sec, "trajectory", False, "boolean"),
    }


def _run_fitb_grid(sc: Scenario, params: dict, out: Path) -> dict[str, str]:
    grid = sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms,
                      n_time=params["n_time"], n_theta=params["n_theta"],
                      engine=params["engine"])
    written = _write_grids([(grid.to_db(), "fitb_grid_db"), (grid, "fitb_grid")], out,
                           sc.formats)
    if params["trajectory"]:
        written["trajectory.csv"] = trajectory_to_csv(measure_peak_trajectory(grid),
                                                      out / "trajectory.csv")
    return written


def _parse_zero_time_cut(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    tokens = (_parse_list(sec.get("spacings", ""))
              or [sec.parser["array"].get("spacing", "half-wavelength")])
    configs = []
    for tok in tokens:
        spacing = _resolve_spacing(tok, sc.config, sc.plan, "zero_time_cut.spacings")
        with _invalid(f"zero_time_cut.spacings: {tok!r}"):
            configs.append(replace(sc.config, spacing=spacing))
    return {
        "n_theta": _samples(sec, "angle_samples", 4096, sc.config.num_elements),
        "configs": configs,
        "tags": _unique_tags(
            "zero_time_cut.spacings", tokens,
            [re.sub(r"[^a-z0-9]+", "_", tok.lower()).strip("_") for tok in tokens],
            "zero_time_cut_{}.csv"),
    }


def _run_zero_time_cut(sc: Scenario, params: dict, out: Path) -> dict[str, str]:
    written = {}
    theta = theta_grid(params["n_theta"])
    for tag, config in zip(params["tags"], params["configs"]):
        values = zero_time_cut(config, sc.plan.delta_f, theta)
        name = f"zero_time_cut_{tag}.csv"
        written[name] = write_csv(out / name, "theta_deg,value", np.degrees(theta), values)
    return written


def _parse_legacy_grid(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    texts = _parse_list(sec.get("ranges", ""))
    if not texts:
        raise ScenarioParseError("legacy_grid: needs a ranges list")
    ranges = [parse_quantity(v, "legacy_grid.ranges") for v in texts]
    for text, r in zip(texts, ranges):
        if r <= 0:
            raise ScenarioValidationError(f"legacy_grid.ranges: {text!r} is not a positive range")
    n_time = _samples(sec, "time_samples", 256, sc.config.num_elements)
    # matched absolute instants: shared axis anchored at the furthest range
    far = ranges.index(max(ranges))
    t_axis = ranges[far] / sc.config.wave_speed + np.linspace(0.0, sc.config.pulse_duration,
                                                              n_time)
    if np.any(np.diff(t_axis) <= 0):
        raise ScenarioValidationError(
            f"legacy_grid.ranges: at {texts[far]!r}, r/c + t takes fewer than {n_time} "
            "distinct float64 values over the pulse")
    return {
        "ranges": ranges,
        "tags": _unique_tags("legacy_grid.ranges", texts, [f"{r / 1e3:g}km" for r in ranges],
                             "legacy_r{}"),
        "t_axis": t_axis,
        "n_theta": _samples(sec, "angle_samples", 1024, n_time, sc.config.num_elements),
    }


def _run_legacy_grid(sc: Scenario, params: dict, out: Path) -> dict[str, str]:
    t_axis = params["t_axis"]
    first, *others = params["tags"]
    # the retarded-time grid does not depend on range: written once, copied for each other range
    fitb = sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms,
                      n_time=t_axis.size, n_theta=params["n_theta"])
    grids = [(fitb, f"fitb_r{first}")]
    for r, tag in zip(params["ranges"], params["tags"]):
        grids.append((legacy_grid(sc.config, sc.plan.delta_f, r, t_axis, params["n_theta"]),
                      f"legacy_r{tag}"))
    written = _write_grids(grids, out, sc.formats)
    return written | {shutil.copyfile(out / name, out / f"fitb_r{tag}{Path(name).suffix}").name:
                      digest for name, digest in written.items()
                      if Path(name).stem == f"fitb_r{first}" for tag in others}


def _parse_offsets(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    "The offsets list, their tags and the angle count shared by [fgtb_curve] and [mimo_compare]."
    texts = _parse_list(sec.get("offsets", "0"))
    offsets = [parse_quantity(v, f"{sec.name}.offsets") for v in texts]
    for text, off in zip(texts, offsets):  # each covariance samples M waveforms N_q times
        _check_element_frequencies(f"{sec.name}.offsets {text!r}", sc.config, UniformPlan(off))
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


def _run_fgtb_curve(sc: Scenario, params: dict, out: Path) -> dict[str, str]:
    written = {}
    theta = theta_grid(params["n_theta"])
    for off, tag in zip(params["offsets"], params["tags"]):
        plan = UniformPlan(off)
        values = fgtb(covariance(sc.waveforms, plan), sc.config, plan, sc.weights, theta)
        written[f"fgtb_df{tag}.csv"] = curve_to_csv(theta, values, out / f"fgtb_df{tag}.csv")
    return written


def _run_mimo_compare(sc: Scenario, params: dict, out: Path) -> dict[str, str]:
    written = {}
    theta = theta_grid(params["n_theta"])
    report_lines = []
    for off, tag in zip(params["offsets"], params["tags"]):
        cmp = compare_fgtb_mimo(sc.config, UniformPlan(off), sc.waveforms, sc.weights, theta)
        name = f"mimo_compare_df{tag}.csv"
        written[name] = write_csv(out / name, "theta_deg,fgtb_norm,mimo_norm", np.degrees(theta),
                                  cmp.fgtb_normalized, cmp.mimo_normalized)
        status = "ok" if cmp.max_deviation < 0.05 else "DISCREPANCY"
        report_lines.append(
            f"offset_hz = {off:.10g} : max_deviation = {cmp.max_deviation:.6e} ({status}), "
            f"fgtb_peak = {cmp.fgtb_peak:.6e}, mimo_peak = {cmp.mimo_peak:.6e}"
        )
    name = "mimo_compare_report.txt"
    return written | {name: write_chunks(out / name, ["\n".join(report_lines).encode() + b"\n"])}


def _parse_scan_report(sec: configparser.SectionProxy, sc: Scenario) -> dict:
    return {"t_eval": parse_quantity(sec.get("time", "0"), "scan_report.time"),
            "k": _get(sec, "k", 0)}


def _run_scan_report(sc: Scenario, params: dict, out: Path) -> dict[str, str]:
    report = build_scan_report(sc.config, sc.plan.delta_f, params["t_eval"], params["k"])
    return {"scan_report.txt": write_chunks(out / "scan_report.txt", [report.as_text().encode()])}


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
    with _invalid("schedule"):
        schedule = design_phase_schedule(sc.config, sc.plan.delta_f, segments, n_time)
    return {"schedule": schedule, "n_theta": n_theta}


def _run_schedule(sc: Scenario, params: dict, out: Path) -> dict[str, str]:
    schedule = params["schedule"]
    grid = schedule_playback_grid(sc.config, sc.plan.delta_f, schedule,
                                  sc.waveforms, sc.weights, params["n_theta"])
    written = _write_grids([(grid, "schedule_grid")], out, sc.formats)
    written["schedule_trajectory.csv"] = trajectory_to_csv(measure_peak_trajectory(grid),
                                                           out / "schedule_trajectory.csv")
    written["schedule_phase.csv"] = write_csv(
        out / "schedule_phase.csv", "t_us,phi_cycles,target_theta_deg", schedule.t_grid * 1e6,
        schedule.phi, np.degrees(schedule.target_theta))
    return written


@dataclass(frozen=True)
class _Section:
    "One evaluation section: the keys it reads, its parser and runner, and its plan needs."

    keys: tuple[str, ...]  # a trailing N stands for any decimal number
    parse: Callable[[configparser.SectionProxy, Scenario], dict]
    run: Callable[[Scenario, dict, Path], dict[str, str]]  # {artifact name: SHA-256}
    uniform: bool = False  # needs a uniform-offset plan


# in evaluation order
_SECTIONS: dict[str, _Section] = {
    "fitb_grid": _Section(("time_samples", "angle_samples", "engine", "trajectory"),
                          _parse_fitb_grid, _run_fitb_grid),
    "zero_time_cut": _Section(("angle_samples", "spacings"),
                              _parse_zero_time_cut, _run_zero_time_cut, uniform=True),
    "legacy_grid": _Section(("ranges", "time_samples", "angle_samples"),
                            _parse_legacy_grid, _run_legacy_grid, uniform=True),
    "fgtb_curve": _Section(("offsets", "angle_samples"), _parse_offsets, _run_fgtb_curve),
    "mimo_compare": _Section(("offsets", "angle_samples"), _parse_offsets, _run_mimo_compare),
    "scan_report": _Section(("time", "k"), _parse_scan_report, _run_scan_report, uniform=True),
    "schedule": _Section(("segmentN", "time_samples", "angle_samples"),
                         _parse_schedule, _run_schedule, uniform=True),
}
# setup sections and the keys each reads
_SETUP_SECTIONS: dict[str, tuple[str, ...]] = {
    "scenario": ("preset", "name"),
    "array": ("elements", "carrier", "pulse", "spacing", "wave_speed"),
    **{name: (selector, *sum(reads.values(), ())) for name, (selector, _, reads) in _KINDS.items()},
    "outputs": ("formats",),
}


def load_scenario(text: str) -> Scenario:
    "Parse and semantically validate a scenario file body."
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(f"not a scenario file: {exc}") from exc

    if parser.has_section("scenario") and parser["scenario"].get("preset"):
        base_text = _preset_text(parser["scenario"]["preset"])
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(base_text)
        parser.read_string(text)

    known = {**_SETUP_SECTIONS, **{kind: spec.keys for kind, spec in _SECTIONS.items()}}
    for section in parser.sections():
        if section not in known:
            raise ScenarioParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if re.sub(r"\d+$", "N", key) not in known[section]:
                raise ScenarioParseError(f"{section}: unknown key {key!r}")
    for section in ("plan", "weights", "waveforms"):  # an absent section reads as an empty one
        if not parser.has_section(section):
            parser.add_section(section)
    if not parser.has_section("array"):
        raise ScenarioParseError("missing required [array] section")
    arr = parser["array"]
    for key in ("elements", "carrier", "pulse"):
        if key not in arr:
            raise ScenarioParseError(f"array: missing required key {key!r}")

    name = parser.get("scenario", "name", fallback="scenario")

    num_elements = _get(arr, "elements", None)
    _check_cells("array.elements", f"{num_elements} elements", num_elements)
    with _invalid("array"):
        config = ArrayConfig(
            num_elements=num_elements,
            carrier_freq=parse_quantity(arr["carrier"], "array.carrier"),
            spacing=1.0,  # resolved below, once the plan is known
            pulse_duration=parse_quantity(arr["pulse"], "array.pulse"),
            wave_speed=parse_quantity(arr.get("wave_speed", "3e8"), "array.wave_speed"),
        )
        plan = _parse_plan(parser["plan"], num_elements)
        if not isinstance(plan, TimeModulatedPlan):
            _check_element_frequencies("array", config, plan)
        config = replace(config, spacing=_resolve_spacing(
            arr.get("spacing", "half-wavelength"), config, plan, "array.spacing"))
    if isinstance(plan, TimeModulatedPlan):
        _check_time_modulated(config, plan)

    weights = _parse_weights(parser["weights"], config, plan)
    waveforms = _parse_waveforms(parser["waveforms"], config)

    formats = ("csv",)
    if parser.has_section("outputs"):
        formats = tuple(_parse_list(parser["outputs"].get("formats", "csv")))
        if not formats:
            raise ScenarioParseError("outputs: formats lists no format (csv, binary)")
        for fmt in formats:
            if fmt not in ("csv", "binary"):
                raise ScenarioParseError(f"outputs: unknown format {fmt!r}")

    sc = Scenario(name=name, config=config, plan=plan, weights=weights,
                  waveforms=waveforms, formats=formats)
    for kind, spec in _SECTIONS.items():
        if not parser.has_section(kind):
            continue
        if spec.uniform and not isinstance(plan, UniformPlan):
            raise ScenarioValidationError(f"{kind}: requires a uniform plan")
        sc.evaluations.append((kind, spec.parse(parser[kind], sc)))
    if not sc.evaluations:
        raise ScenarioParseError("scenario requests no evaluations "
                                 f"(add one of {', '.join(_SECTIONS)})")
    return sc


# get/set_num_threads symbol pairs in lookup order: numpy wheels' scipy-openblas,
# then OpenBLAS builds with and without the 64-bit integer interface
_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                            "openblas_{}_num_threads")


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    "The loaded OpenBLAS's get/set_num_threads, or None (not Linux, MKL, Accelerate)."
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    handles = []
    for lib in libs:
        with contextlib.suppress(OSError):
            handles.append(ctypes.CDLL(lib))
    for symbol in _OPENBLAS_THREAD_SYMBOLS:
        for handle in handles:
            get = getattr(handle, symbol.format("get"), None)
            set_ = getattr(handle, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block's BLAS on one thread, restoring the previous count on exit.

    The time-modulated kernel runs its row-block products side by side on a
    pool with one worker per CPU, and a threaded OpenBLAS under each would
    oversubscribe the CPUs.  After a threaded product OpenBLAS's helper thread
    also busy-waits for about 125 ms of CPU, which on two CPUs takes a whole
    core from the next grid.  The other products here are small enough that
    one thread loses little.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def execute_scenario(sc: Scenario, out_dir: str | Path) -> Path:
    "Run every evaluation, write artifacts and the hash manifest into out_dir; returns it."
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ScenarioValidationError(f"output directory {out} is not writable: {exc}") from exc

    digests: dict[str, str] = {}
    with _one_blas_thread():
        for kind, params in sc.evaluations:
            digests |= _SECTIONS[kind].run(sc, params, out)

    manifest = {"scenario": sc.name, "artifacts": digests}  # digests of the bytes as written
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def _load_checked(source: str, read: Callable[[], str]) -> Scenario | int:
    "The scenario read() returns, or the exit code after a one-line report of why it failed."
    try:
        return load_scenario(read())
    except OSError as exc:
        print(f"error: cannot read {source}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"parse error in {source}: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioParseError as exc:
        print(f"parse error in {source}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print(f"validation error in {source}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _execute_checked(sc: Scenario, out_dir: str | Path, label: str) -> int:
    try:
        out = execute_scenario(sc, out_dir)
    except ScenarioValidationError as exc:
        print(f"validation error in {label}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error running {label}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error writing the artifacts of {label}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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
    p_run.add_argument("--out", default=None,
                       help="output directory (default: out/ beside the file)")

    p_preset = sub.add_parser("preset", help="run a bundled preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None, help="output directory (default: out/<name>)")
    p_preset.add_argument("--show", action="store_true", help="print the scenario text and exit")

    sub.add_parser("list-presets", help="list bundled presets")

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("file")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name, (desc, _) in presets_mod.PRESETS.items():
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
        return _execute_checked(sc, args.out or Path("out", args.name), label=source)

    path = Path(args.file)
    sc = _load_checked(str(path), lambda: path.read_text(encoding="utf-8"))
    if isinstance(sc, int):
        return sc
    if args.command == "validate":
        print(f"{path}: ok")
        return 0
    return _execute_checked(sc, args.out or path.parent / "out", label=str(path))

if __name__ == "__main__":
    sys.exit(main())
