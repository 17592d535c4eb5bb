"""Spans around fdabeam's public functions, installed from outside ``src/``.

``Tracer.installed()`` replaces module attributes with wrappers for the
duration of one scenario and restores them afterwards, so untraced scenarios
run the program exactly as shipped. ``fdabeam.cli`` binds the engine names at
import, so the wrappers go on ``fdabeam.cli.<name>``; covariance is also
wrapped in ``beampattern_integral`` (reached from ``compare_fgtb_mimo``) and
``exact_field_matrix`` in ``scan_analytics`` (reached from schedule playback).

Spans stay in memory until ``dump`` writes them. Counts (cells, MACs, bytes)
are attached to the span of the call that did the work and are computed from
shapes and file sizes, not measured by hardware counters.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from fdabeam import beampattern_instant, beampattern_integral, cli, scan_analytics


@dataclass
class Span:
    id: int
    parent: int | None
    scenario: int
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


def _arguments(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _sweep_counts(a: dict, result) -> dict:
    cells = a["n_time"] * a["n_theta"]
    m = a["config"].num_elements
    key = repr((a["config"], a["plan"], np.asarray(a["w"]).tobytes(), a["waveforms"],
                a["n_time"], a["n_theta"], a["engine"]))
    return {"cells": cells, "complex_macs": cells * m if a["engine"] == "exact" else 0,
            "key": hashlib.sha256(key.encode()).hexdigest()}


def _file_counts(a: dict, result) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


def _covariance_counts(a: dict, result) -> dict:
    m, q = result.num_elements, result.n_quadrature
    return {"quadrature_samples": q, "complex_macs": m * m * q}


def _trajectory_counts(a: dict, result) -> dict:
    return {"rows": int(a["grid"].t_axis.size)}


# (owner, attribute, span name, counter)
TARGETS = (
    (cli, "sweep_grid", "beampattern_instant.sweep_grid", _sweep_counts),
    (cli, "legacy_grid", "beampattern_instant.legacy_grid", None),
    (cli, "zero_time_cut", "beampattern_instant.zero_time_cut", None),
    (beampattern_instant.BeampatternGrid, "to_db", "beampattern_instant.to_db", None),
    (cli, "grid_to_csv", "beampattern_instant.grid_to_csv", _file_counts),
    (cli, "grid_to_binary", "beampattern_instant.grid_to_binary", _file_counts),
    (cli, "covariance", "beampattern_integral.covariance", _covariance_counts),
    (beampattern_integral, "covariance", "beampattern_integral.covariance", _covariance_counts),
    (cli, "fgtb", "beampattern_integral.fgtb", None),
    (cli, "compare_fgtb_mimo", "beampattern_integral.compare_fgtb_mimo", None),
    (cli, "curve_to_csv", "beampattern_integral.curve_to_csv", _file_counts),
    (cli, "measure_peak_trajectory", "scan_analytics.measure_peak_trajectory", _trajectory_counts),
    (cli, "schedule_playback_grid", "scan_analytics.schedule_playback_grid", None),
    (scan_analytics, "exact_field_matrix", "beampattern_instant.exact_field_matrix", None),
    (cli, "design_phase_schedule", "scan_analytics.design_phase_schedule", None),
    (cli, "trajectory_to_csv", "scan_analytics.trajectory_to_csv", None),
    (cli, "build_scan_report", "scan_analytics.build_scan_report", None),
)


class Tracer:
    "Collects spans of every traced scenario in memory."

    def __init__(self):
        self.spans: list[Span] = []
        self.scenario = -1
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        "A span around the caller's own block (the benchmark's calls into cli)."
        sp = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                  self.scenario, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counter is not None:
                sp.counts = counter(_arguments(sig, args, kwargs), result)
            return result
        return wrapper

    @contextmanager
    def installed(self, scenario: int):
        "Wrap every target present in this fdabeam version while one scenario runs."
        self.scenario = scenario
        saved = []
        for owner, attr, name, counter in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([sp.__dict__ for sp in self.spans], fh)


# (metric, unit) in report order; "ms" is busy time per traced scenario, counts
# cover the first block of the seed's stream so that they repeat exactly.
PER_LAYER = (
    ("cli.load_scenario.ms", "ms"),
    ("cli.load_scenario.calls", "count"),
    ("cli.execute_scenario.self_ms", "ms"),
    ("cli.manifest.bytes_hashed", "bytes"),
    ("cli.errors", "count"),
    ("beampattern_instant.sweep_grid.ms", "ms"),
    ("beampattern_instant.sweep_grid.calls", "count"),
    ("beampattern_instant.sweep_grid.cells", "count"),
    ("beampattern_instant.sweep_grid.complex_macs", "count"),
    ("beampattern_instant.sweep_grid.distinct_ratio", "ratio"),
    ("beampattern_instant.legacy_grid.ms", "ms"),
    ("beampattern_instant.zero_time_cut.ms", "ms"),
    ("beampattern_instant.to_db.ms", "ms"),
    ("beampattern_instant.grid_to_csv.ms", "ms"),
    ("beampattern_instant.grid_to_csv.bytes", "bytes"),
    ("beampattern_instant.grid_to_binary.ms", "ms"),
    ("beampattern_instant.grid_to_binary.bytes", "bytes"),
    ("beampattern_instant.errors", "count"),
    ("beampattern_integral.covariance.ms", "ms"),
    ("beampattern_integral.covariance.calls", "count"),
    ("beampattern_integral.covariance.quadrature_samples", "count"),
    ("beampattern_integral.covariance.complex_macs", "count"),
    ("beampattern_integral.fgtb.ms", "ms"),
    ("beampattern_integral.compare_fgtb_mimo.self_ms", "ms"),
    ("beampattern_integral.curve_to_csv.ms", "ms"),
    ("beampattern_integral.curve_to_csv.bytes", "bytes"),
    ("beampattern_integral.errors", "count"),
    ("scan_analytics.measure_peak_trajectory.ms", "ms"),
    ("scan_analytics.measure_peak_trajectory.rows", "count"),
    ("scan_analytics.schedule_playback_grid.self_ms", "ms"),
    ("scan_analytics.schedule_playback_grid.engine_calls", "count"),
    ("scan_analytics.design_phase_schedule.ms", "ms"),
    ("scan_analytics.trajectory_to_csv.ms", "ms"),
    ("scan_analytics.build_scan_report.ms", "ms"),
    ("scan_analytics.errors", "count"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(spans: list[Span], traced: int, block: int, bytes_hashed: int,
                  overhead_pct: float) -> dict:
    """Per-layer metrics from the spans of `traced` scenarios.

    Busy times are averaged over every traced scenario; counts sum the spans of
    scenarios 0..block-1 only; errors count, over every traced scenario, the
    deepest failing span of each layer (cli counts failed loads and executions).
    """
    by_id = {sp.id: sp for sp in spans}
    child_s: dict[int, float] = {}
    errored_child: set[int] = set()
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] = child_s.get(sp.parent, 0.0) + sp.end - sp.start
            if sp.error:
                errored_child.add(sp.parent)
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    keys: dict[int, set] = {}
    errors: dict[str, int] = {}
    engine_calls = 0
    for sp in spans:
        dur = sp.end - sp.start
        total_ms[sp.name] = total_ms.get(sp.name, 0.0) + 1e3 * dur
        self_ms[sp.name] = self_ms.get(sp.name, 0.0) + 1e3 * (dur - child_s.get(sp.id, 0.0))
        layer = sp.name.split(".")[0]
        if sp.error and (layer == "cli" or sp.id not in errored_child):
            errors[layer] = errors.get(layer, 0) + 1
        if sp.scenario >= block:
            continue
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for k, v in sp.counts.items():
            if k == "key":
                keys.setdefault(sp.scenario, set()).add(v)
            else:
                counts[f"{sp.name}.{k}"] = counts.get(f"{sp.name}.{k}", 0) + v
        parent = by_id.get(sp.parent)
        if (sp.name == "beampattern_instant.exact_field_matrix" and parent is not None
                and parent.name == "scan_analytics.schedule_playback_grid"):
            engine_calls += 1
    sweeps = calls.get("beampattern_instant.sweep_grid", 0)
    special = {
        "cli.manifest.bytes_hashed": bytes_hashed,
        "beampattern_instant.sweep_grid.distinct_ratio":
            sum(len(v) for v in keys.values()) / sweeps if sweeps else 0.0,
        "scan_analytics.schedule_playback_grid.engine_calls": engine_calls,
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for metric, unit in PER_LAYER:
        base, _, last = metric.rpartition(".")
        if metric in special:
            value = special[metric]
        elif last == "errors":
            value = errors.get(base, 0)
        elif last == "ms":
            value = total_ms.get(base, 0.0) / traced
        elif last == "self_ms":
            value = self_ms.get(base, 0.0) / traced
        elif last == "calls":
            value = calls.get(base, 0)
        else:
            value = counts.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
