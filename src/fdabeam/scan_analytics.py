"""Closed-form auto-scan predictions and their measured counterparts.

The uniform-offset array sweeps its mainlobe through azimuth during the pulse;
this module predicts where the peak sits, how fast it moves, how wide it is
and how much sector it covers, extracts the same quantities from sampled
grids, and designs per-element phase schedules that steer the sweep along an
arbitrary itinerary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    UniformPlan,
    WeightVector,
    as_weight_array,
)
from .beampattern_instant import BeampatternGrid, exact_field_matrix, theta_grid, write_csv
from .waveform import BasebandWaveform

ENDFIRE_GUARD = 1e-6
"How close to +-pi/2 the speed/beamwidth formulas are allowed to get."


class EndfireSingularityError(ValueError):
    "Raised when an analytic form is evaluated too close to +-90 degrees."


def predict_peak_direction(config: ArrayConfig, delta_f: float, t_prime: float,
                           k: int = 0) -> float | None:
    """Predicted mainlobe direction at t' for grating index k, or None.

    theta = asin((c*k - c*delta_f*t') / ((f_c+delta_f)*d)); None when the
    argument falls outside [-1, 1] (that grating order is not visible).
    """
    arg = (config.wave_speed * k - config.wave_speed * delta_f * t_prime) / (
        (config.carrier_freq + delta_f) * config.spacing
    )
    if abs(arg) > 1.0:
        return None
    return math.asin(arg)


def scan_speed(config: ArrayConfig, delta_f: float, theta: float) -> float:
    """Mainlobe angular velocity d(theta)/dt' in rad/s at azimuth theta.

    Exact form -c*delta_f / ((f_c+delta_f)*d*cos(theta)); negative for positive
    offsets, and growing in magnitude away from boresight.
    """
    if abs(theta) >= np.pi / 2 - ENDFIRE_GUARD:
        raise EndfireSingularityError(f"scan speed diverges at theta={theta} rad")
    return -config.wave_speed * delta_f / (
        (config.carrier_freq + delta_f) * config.spacing * math.cos(theta)
    )


def beamwidth(config: ArrayConfig, delta_f: float, theta_peak: float = 0.0) -> tuple[float, float]:
    """4-dB beamwidth in sine units and the azimuth resolution in radians.

    The sine-domain width Theta = c/(M*(f_c+delta_f)*d) is independent of time;
    the azimuth resolution is Theta / cos(theta_peak).
    """
    if abs(theta_peak) >= np.pi / 2 - ENDFIRE_GUARD:
        raise EndfireSingularityError(f"beamwidth diverges at theta={theta_peak} rad")
    width_sine = config.wave_speed / (
        config.num_elements * (config.carrier_freq + delta_f) * config.spacing
    )
    return width_sine, width_sine / math.cos(theta_peak)


def scan_volume(config: ArrayConfig, delta_f: float) -> tuple[float, float]:
    """Sine-domain sector coverage over one pulse: (exact, 2*delta_f*T_p shortcut).

    Exact form c*delta_f*T_p / ((f_c+delta_f)*d).  A value of 2.0 means the
    whole visible sector is swept exactly once.
    """
    exact = config.wave_speed * delta_f * config.pulse_duration / (
        (config.carrier_freq + delta_f) * config.spacing
    )
    return exact, 2.0 * delta_f * config.pulse_duration


def first_null(config: ArrayConfig, delta_f: float) -> float | None:
    "First null of the zero-time cut, asin(c/(M*(f_c+delta_f)*d)), or None if none is visible."
    arg = config.wave_speed / (config.num_elements * (config.carrier_freq + delta_f) * config.spacing)
    if arg > 1.0:
        return None
    return math.asin(arg)


def zero_time_peaks(config: ArrayConfig, delta_f: float) -> tuple[float, ...]:
    "All visible zero-time peak directions asin(k*c/((f_c+delta_f)*d)), sorted."
    unit = config.wave_speed / ((config.carrier_freq + delta_f) * config.spacing)
    k_max = int(math.floor(1.0 / unit))
    return tuple(math.asin(k * unit) for k in range(-k_max, k_max + 1))


@dataclass(frozen=True)
class ScanReport:
    "Bundle of the closed-form scan analytics at one (t', k) of interest."

    peak_direction_pred: float | None
    scan_speed: float | None
    beamwidth_sine: float
    azimuth_resolution: float | None
    scan_volume_exact: float
    scan_volume_approx: float
    first_null: float | None
    zero_time_peaks: tuple[float, ...]
    grating_index: int

    def as_text(self) -> str:
        "Flat key = value table, angles in degrees."
        def deg(x):
            return "none" if x is None else f"{math.degrees(x):.6f}"
        lines = [
            f"peak_direction_pred_deg = {deg(self.peak_direction_pred)}",
            "scan_speed_deg_per_us = "
            + ("none" if self.scan_speed is None else f"{math.degrees(self.scan_speed) * 1e-6:.6f}"),
            f"beamwidth_sine = {self.beamwidth_sine:.8f}",
            f"azimuth_resolution_deg = {deg(self.azimuth_resolution)}",
            f"scan_volume_exact = {self.scan_volume_exact:.8f}",
            f"scan_volume_approx = {self.scan_volume_approx:.8f}",
            f"first_null_deg = {deg(self.first_null)}",
            "zero_time_peaks_deg = " + ",".join(f"{math.degrees(v):.6f}" for v in self.zero_time_peaks),
            f"grating_index = {self.grating_index}",
        ]
        return "\n".join(lines) + "\n"


def build_scan_report(config: ArrayConfig, delta_f: float,
                      t_eval: float = 0.0, k: int = 0) -> ScanReport:
    "Assemble every closed-form prediction for one uniform offset."
    theta_pred = predict_peak_direction(config, delta_f, t_eval, k)
    speed = res = None
    width_sine, _ = beamwidth(config, delta_f, 0.0)
    if theta_pred is not None and abs(theta_pred) < np.pi / 2 - ENDFIRE_GUARD:
        speed = scan_speed(config, delta_f, theta_pred)
        res = beamwidth(config, delta_f, theta_pred)[1]
    vol_exact, vol_approx = scan_volume(config, delta_f)
    peaks = zero_time_peaks(config, delta_f)
    return ScanReport(
        peak_direction_pred=theta_pred,
        scan_speed=speed,
        beamwidth_sine=width_sine,
        azimuth_resolution=res,
        scan_volume_exact=vol_exact,
        scan_volume_approx=vol_approx,
        first_null=first_null(config, delta_f),
        zero_time_peaks=peaks,
        grating_index=(len(peaks) - 1) // 2,
    )


@dataclass(frozen=True, eq=False)
class PeakTrajectory:
    """Per-time-row mainlobe location extracted from a grid.

    theta holds the parabolic-interpolated peak azimuth per row; rows whose
    maximum falls below half the grid maximum are flagged ambiguous (the
    mainlobe is transitioning across the +-90 degree wrap or absent).
    """

    t: np.ndarray
    theta: np.ndarray
    ambiguous: np.ndarray

    def __post_init__(self):
        for name in ("t", "theta", "ambiguous"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def measure_peak_trajectory(grid: BeampatternGrid) -> PeakTrajectory:
    """Extract the mainlobe azimuth of every time row of a linear grid.

    Uses the row argmax refined by a 3-point parabolic fit in sin(theta), where
    the kernel is uniform.  Rows whose maximum is below half the grid maximum
    are flagged ambiguous.
    """
    if grid.normalization != "linear-magnitude":
        raise ValueError("trajectory extraction needs a linear-magnitude grid")
    sin_th = np.sin(grid.theta_axis)
    ref = grid.values.max()
    n_t = grid.t_axis.size
    theta = np.empty(n_t)
    ambiguous = np.zeros(n_t, dtype=bool)
    for i in range(n_t):
        row = grid.values[i]
        j = int(np.argmax(row))
        if ref <= 0.0 or row[j] < 0.5 * ref:
            ambiguous[i] = True
        if 0 < j < row.size - 1:
            # vertex of the parabola through the three neighbouring
            # (sin(theta), value) points; spacing in sine is not uniform
            x0, x1, x2 = sin_th[j - 1], sin_th[j], sin_th[j + 1]
            y0, y1, y2 = row[j - 1], row[j], row[j + 1]
            denom = 2.0 * (x0 * (y1 - y2) + x1 * (y2 - y0) + x2 * (y0 - y1))
            if denom != 0.0:
                s_peak = (x0 * x0 * (y1 - y2) + x1 * x1 * (y2 - y0)
                          + x2 * x2 * (y0 - y1)) / denom
                if x0 <= s_peak <= x2:
                    theta[i] = math.asin(min(1.0, max(-1.0, s_peak)))
                    continue
        theta[i] = grid.theta_axis[j]
    return PeakTrajectory(t=grid.t_axis.copy(), theta=theta, ambiguous=ambiguous)


def unwrap_sine_track(traj: PeakTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Unwrapped sin(theta) of the unambiguous rows and their times.

    Jumps larger than 1 in magnitude between consecutive kept rows are treated
    as +-90 degree wraps and removed, so the returned track is continuous and
    its total excursion measures the swept sector.
    """
    keep = ~traj.ambiguous
    t = traj.t[keep]
    s = np.sin(traj.theta[keep])
    if s.size == 0:
        return t, s
    steps = np.diff(s)
    corrections = np.zeros_like(steps)
    corrections[steps > 1.0] = -2.0
    corrections[steps < -1.0] = 2.0
    return t, np.concatenate([[s[0]], s[1:] + np.cumsum(corrections)])


def measured_scan_volume(traj: PeakTrajectory, pulse_duration: float) -> float:
    "Swept sine-domain sector over the pulse, from a least-squares slope fit."
    t, s = unwrap_sine_track(traj)
    if t.size < 2:
        return 0.0
    slope = np.polyfit(t, s, 1)[0]
    return abs(slope) * pulse_duration


@dataclass(frozen=True)
class ScheduleSegment:
    "One steering leg: hold or sweep the mainlobe across [theta_a, theta_b] during [t_a, t_b]."

    t_a: float
    t_b: float
    theta_a: float
    theta_b: float


@dataclass(frozen=True, eq=False)
class PhaseSchedule:
    """Sampled per-element phase plan phi(t') in cycles on a time grid.

    Element m applies the extra phase m*phi(t') (on top of its offset phase),
    which relocates the instantaneous mainlobe; target_theta records the
    itinerary the schedule was built for.
    """

    segments: tuple[ScheduleSegment, ...]
    t_grid: np.ndarray
    phi: np.ndarray
    target_theta: np.ndarray

    def __post_init__(self):
        for name in ("t_grid", "phi", "target_theta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def design_phase_schedule(config: ArrayConfig, delta_f: float,
                          segments: Sequence[tuple[tuple[float, float], tuple[float, float]]],
                          n_time: int = 512) -> PhaseSchedule:
    """Phase plan steering the beam along a piecewise-linear azimuth itinerary.

    Each segment ((t_a, t_b), (theta_a, theta_b)) sweeps the mainlobe linearly
    from theta_a to theta_b; within it
    phi(t') = -delta_f*t' - (f_c/c)*d*sin(itinerary(t')).  Before the first
    segment the beam holds the first start angle, after a segment it holds that
    segment's end angle until the next one begins.
    """
    segs = []
    for (t_a, t_b), (th_a, th_b) in segments:
        if not (0.0 <= t_a < t_b <= config.pulse_duration):
            raise ValueError(f"segment times ({t_a}, {t_b}) must satisfy 0 <= t_a < t_b <= T_p")
        if max(abs(th_a), abs(th_b)) >= np.pi / 2:
            raise ValueError("segment angles must lie inside (-pi/2, pi/2)")
        segs.append(ScheduleSegment(t_a, t_b, th_a, th_b))
    segs.sort(key=lambda s: s.t_a)
    for prev, nxt in zip(segs, segs[1:]):
        if nxt.t_a < prev.t_b:
            raise ValueError(
                f"segments overlap: [{prev.t_a}, {prev.t_b}] and [{nxt.t_a}, {nxt.t_b}]"
            )
    if not segs:
        raise ValueError("need at least one segment")

    t_grid = np.linspace(0.0, config.pulse_duration, n_time)
    target = np.empty(n_time)
    for i, t in enumerate(t_grid):
        angle = segs[0].theta_a
        for seg in segs:
            if t < seg.t_a:
                break
            if t <= seg.t_b:
                frac = (t - seg.t_a) / (seg.t_b - seg.t_a)
                angle = seg.theta_a + frac * (seg.theta_b - seg.theta_a)
                break
            angle = seg.theta_b  # past this segment: hold its end angle
        target[i] = angle
    # phi in cycles: cancels the offset sweep and repoints the carrier phase slope
    phi = -delta_f * t_grid - (config.carrier_freq / config.wave_speed) \
        * config.spacing * np.sin(target)
    return PhaseSchedule(segments=tuple(segs), t_grid=t_grid, phi=phi, target_theta=target)


def schedule_playback_grid(config: ArrayConfig, delta_f: float,
                           schedule: PhaseSchedule,
                           waveform: BasebandWaveform,
                           w: WeightVector | np.ndarray | None = None,
                           n_theta: int = 1024) -> BeampatternGrid:
    """Exact field magnitudes under the schedule's time-variant weights.

    At each schedule sample the static weights are rotated by the extra phases
    exp(-j*2*pi*m*phi(t')); with the engine's conjugate-weight convention the
    element phases become m*(delta_f*t' + phi(t') + f_c*d*sin(theta)/c) plus the
    quadratic offset term, so the mainlobe follows the designed itinerary.
    """
    m = config.element_index
    base = np.ones(config.num_elements, dtype=complex) if w is None \
        else as_weight_array(w, config.num_elements)
    th_axis = theta_grid(n_theta)
    w_t = base * np.exp(-2j * np.pi * m[None, :] * schedule.phi[:, None])  # (N_t, M)
    values = np.abs(exact_field_matrix(config, UniformPlan(delta_f), w_t, waveform,
                                       schedule.t_grid, th_axis))
    return BeampatternGrid(schedule.t_grid, th_axis, values, "linear-magnitude")


def trajectory_to_csv(traj: PeakTrajectory, path: str | Path) -> Path:
    "Two-column CSV (t_us, theta_deg); ambiguous rows are skipped."
    keep = ~traj.ambiguous
    return write_csv(path, "t_us,theta_deg", traj.t[keep] * 1e6, np.degrees(traj.theta[keep]))


def scan_report_to_text(report: ScanReport, path: str | Path) -> None:
    "Write the flat key = value table."
    Path(path).write_text(report.as_text())
