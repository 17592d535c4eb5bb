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

from .array_model import ArrayConfig, UniformPlan, as_weight_array
from .beampattern_instant import BeampatternGrid, exact_field_matrix, theta_grid, write_csv
from .waveform import BasebandWaveform

ENDFIRE_GUARD = 1e-6
"How close to +-pi/2 the speed/beamwidth formulas are allowed to get."


class EndfireSingularityError(ValueError):
    "Raised when an analytic form is evaluated too close to +-90 degrees."


def _grating_step(config: ArrayConfig, delta_f: float) -> float:
    "Sine-domain step between grating orders, c/((f_c+delta_f)*d); every law below scales it."
    return config.wave_speed / ((config.carrier_freq + delta_f) * config.spacing)


def predict_peak_direction(config: ArrayConfig, delta_f: float, t_prime: float,
                           k: int = 0) -> float | None:
    """Predicted mainlobe direction at t' for grating index k, or None.

    theta = asin((c*k - c*delta_f*t') / ((f_c+delta_f)*d)); None when the
    argument falls outside [-1, 1] (that grating order is not visible).
    """
    arg = (k - delta_f * t_prime) * _grating_step(config, delta_f)
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
    return -delta_f * _grating_step(config, delta_f) / math.cos(theta)


def beamwidth(config: ArrayConfig, delta_f: float, theta_peak: float = 0.0) -> tuple[float, float]:
    """4-dB beamwidth in sine units and the azimuth resolution in radians.

    The sine-domain width Theta = c/(M*(f_c+delta_f)*d) is independent of time;
    the azimuth resolution is Theta / cos(theta_peak).
    """
    if abs(theta_peak) >= np.pi / 2 - ENDFIRE_GUARD:
        raise EndfireSingularityError(f"beamwidth diverges at theta={theta_peak} rad")
    width_sine = _grating_step(config, delta_f) / config.num_elements
    return width_sine, width_sine / math.cos(theta_peak)


def scan_volume(config: ArrayConfig, delta_f: float) -> tuple[float, float]:
    """Sine-domain sector coverage over one pulse: (exact, 2*delta_f*T_p shortcut).

    Exact form c*delta_f*T_p / ((f_c+delta_f)*d).  A value of 2.0 means the
    whole visible sector is swept exactly once.
    """
    exact = delta_f * config.pulse_duration * _grating_step(config, delta_f)
    return exact, 2.0 * delta_f * config.pulse_duration


def first_null(config: ArrayConfig, delta_f: float) -> float | None:
    "First null of the zero-time cut, asin(c/(M*(f_c+delta_f)*d)), or None if none is visible."
    arg = _grating_step(config, delta_f) / config.num_elements
    if arg > 1.0:
        return None
    return math.asin(arg)


def zero_time_peaks(config: ArrayConfig, delta_f: float) -> tuple[float, ...]:
    "All visible zero-time peak directions asin(k*c/((f_c+delta_f)*d)), sorted."
    unit = _grating_step(config, delta_f)
    k_max = int(math.floor(1.0 / unit))
    return tuple(math.asin(k * unit) for k in range(-k_max, k_max + 1))


def build_scan_report(config: ArrayConfig, delta_f: float,
                      t_eval: float = 0.0, k: int = 0) -> str:
    """Every closed-form prediction for one uniform offset at (t_eval, k), as text.

    One `key = value` line each, angles in degrees; a prediction with no visible
    direction reads none.
    """
    def deg(x):
        return "none" if x is None else f"{math.degrees(x):.6f}"
    theta_pred = predict_peak_direction(config, delta_f, t_eval, k)
    speed, res = "none", None
    if theta_pred is not None and abs(theta_pred) < np.pi / 2 - ENDFIRE_GUARD:
        speed = f"{math.degrees(scan_speed(config, delta_f, theta_pred)) * 1e-6:.6f}"
        res = beamwidth(config, delta_f, theta_pred)[1]
    vol_exact, vol_approx = scan_volume(config, delta_f)
    peaks = zero_time_peaks(config, delta_f)
    lines = [
        f"peak_direction_pred_deg = {deg(theta_pred)}",
        f"scan_speed_deg_per_us = {speed}",
        f"beamwidth_sine = {beamwidth(config, delta_f, 0.0)[0]:.8f}",
        f"azimuth_resolution_deg = {deg(res)}",
        f"scan_volume_exact = {vol_exact:.8f}",
        f"scan_volume_approx = {vol_approx:.8f}",
        f"first_null_deg = {deg(first_null(config, delta_f))}",
        "zero_time_peaks_deg = " + ",".join(f"{math.degrees(v):.6f}" for v in peaks),
        f"grating_index = {k}",
    ]
    return "\n".join(lines) + "\n"


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
    values = grid.values
    sin_th = np.sin(grid.theta_axis)
    ref = values.max()
    rows = np.arange(grid.t_axis.size)
    j = values.argmax(axis=1)
    ambiguous = (values[rows, j] < 0.5 * ref) | (ref <= 0.0)
    theta = grid.theta_axis[j]
    # vertex of the parabola through the three neighbouring (sin(theta), value)
    # points of each interior peak; spacing in sine is not uniform
    inner = np.flatnonzero((j > 0) & (j < sin_th.size - 1))
    jm = j[inner]
    x0, x1, x2 = sin_th[jm - 1], sin_th[jm], sin_th[jm + 1]
    y0, y1, y2 = values[inner, jm - 1], values[inner, jm], values[inner, jm + 1]
    denom = 2.0 * (x0 * (y1 - y2) + x1 * (y2 - y0) + x2 * (y0 - y1))
    with np.errstate(divide="ignore", invalid="ignore"):  # denom == 0 rows are not refined
        s_peak = (x0 * x0 * (y1 - y2) + x1 * x1 * (y2 - y0) + x2 * x2 * (y0 - y1)) / denom
    fit = (denom != 0.0) & (x0 <= s_peak) & (s_peak <= x2)
    # math.asin per refined row: np.arcsin may differ from it by an ulp
    theta[inner[fit]] = [math.asin(min(1.0, max(-1.0, s))) for s in s_peak[fit].tolist()]
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


@dataclass(frozen=True, eq=False)
class PhaseSchedule:
    """Sampled per-element phase plan phi(t') in cycles on a time grid.

    Element m applies the extra phase m*phi(t') (on top of its offset phase),
    which relocates the instantaneous mainlobe; target_theta records the
    itinerary the schedule was built for.
    """

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
    segs = []  # (t_a, t_b, theta_a, theta_b), sorted by start time below
    for (t_a, t_b), (th_a, th_b) in segments:
        if not (0.0 <= t_a < t_b <= config.pulse_duration):
            raise ValueError(f"segment times ({t_a}, {t_b}) must satisfy 0 <= t_a < t_b <= T_p")
        if max(abs(th_a), abs(th_b)) >= np.pi / 2:
            raise ValueError("segment angles must lie inside (-pi/2, pi/2)")
        segs.append((t_a, t_b, th_a, th_b))
    segs.sort(key=lambda seg: seg[0])
    for prev, nxt in zip(segs, segs[1:]):
        if nxt[0] < prev[1]:
            raise ValueError(f"segments overlap: [{prev[0]}, {prev[1]}] and [{nxt[0]}, {nxt[1]}]")
    if not segs:
        raise ValueError("need at least one segment")

    t_a, t_b, th_a, th_b = np.array(segs).T
    t_grid = np.linspace(0.0, config.pulse_duration, n_time)
    i = np.searchsorted(t_b, t_grid)  # the first segment that ends at or after each sample
    j = np.minimum(i, t_b.size - 1)
    frac = (t_grid - t_a[j]) / (t_b[j] - t_a[j])
    held = np.where(i > 0, th_b[i - 1], th_a[0])  # outside a segment: the last end angle
    target = np.where((i < t_b.size) & (t_grid >= t_a[j]), th_a[j] + frac * (th_b[j] - th_a[j]),
                      held)
    # phi in cycles: cancels the offset sweep and repoints the carrier phase slope
    phi = -delta_f * t_grid - (config.carrier_freq / config.wave_speed) \
        * config.spacing * np.sin(target)
    return PhaseSchedule(t_grid=t_grid, phi=phi, target_theta=target)


def schedule_playback_grid(config: ArrayConfig, delta_f: float,
                           schedule: PhaseSchedule,
                           waveforms: BasebandWaveform | Sequence[BasebandWaveform],
                           w: np.ndarray, n_theta: int = 1024) -> BeampatternGrid:
    """Exact field magnitudes under the schedule's time-variant weights.

    At each schedule sample the static weights are rotated by the extra phases
    exp(-j*2*pi*m*phi(t')); with the engine's conjugate-weight convention the
    element phases become m*(delta_f*t' + phi(t') + f_c*d*sin(theta)/c) plus the
    quadratic offset term, so the mainlobe follows the designed itinerary.
    waveforms is one envelope for every element or one per element.
    """
    m = config.element_index
    base = as_weight_array(w, config.num_elements)
    th_axis = theta_grid(n_theta)
    w_t = base * np.exp(-2j * np.pi * m[None, :] * schedule.phi[:, None])  # (N_t, M)
    values = np.abs(exact_field_matrix(config, UniformPlan(delta_f), w_t, waveforms,
                                       schedule.t_grid, th_axis))
    return BeampatternGrid(schedule.t_grid, th_axis, values, "linear-magnitude")


def trajectory_to_csv(traj: PeakTrajectory, path: str | Path) -> str:
    "Two-column CSV (t_us, theta_deg); ambiguous rows are skipped. Returns write_csv's digest."
    keep = ~traj.ambiguous
    return write_csv(path, "t_us,theta_deg", traj.t[keep] * 1e6, np.degrees(traj.theta[keep]))
