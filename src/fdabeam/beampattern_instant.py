"""Instantaneous transmit beampattern engines.

Three evaluators of the transmit array factor as a function of retarded time
t' = t - r/c and azimuth theta:

* ``field_exact`` sums the exact per-element phases (the oracle all closed
  forms are judged against),
* ``fitb_closed_form`` is the Dirichlet-kernel closed form valid for uniform
  frequency offsets,
* ``legacy_array_factor`` is the older range-and-time form kept only to
  demonstrate its range dependence is an artifact of ignoring the pulse
  window.

Element m's phases have one definition, shared with the integral pattern:
2*pi*delta_f_m*t' (``array_model.steering_time``) plus
2*pi*(f_c+delta_f_m)*m*d*sin(theta)/c (``array_model.combined_angle_steering``).
Time-modulated plans alone replace the offset terms, inside the exact engine.
Carrier and 1/r factors are constant-modulus and excluded throughout; pattern
values are field magnitudes up to a positive constant.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    EvalPoint,
    FrequencyPlan,
    TimeModulatedPlan,
    UniformPlan,
    UnsupportedPlanError,
    WeightVector,
    combined_angle_steering,
    steering_time,
)
from .waveform import BasebandWaveform

SIN_EPS = 1e-12
"Denominator threshold below which the Dirichlet kernel takes its limit value M."

DB_FLOOR = -60.0
"Export floor for dB-scaled grids."

GRID_MAGIC = b"FDABGRID"

BLOCK_CELLS = 1 << 15
"Cells per row block of the time-modulated element sum (32 rows at 1024 angles)."


@dataclass(frozen=True, eq=False)
class BeampatternGrid:
    """Sampled |pattern| over a time axis and an azimuth axis.

    values[i, j] is the magnitude at (t_axis[i], theta_axis[j]).  The
    normalization tag is "linear-magnitude" or "dB-rel-peak"; dB grids have
    their maximum at 0 dB.
    """

    t_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray
    normalization: str = "linear-magnitude"

    def __post_init__(self):
        t = np.asarray(self.t_axis, dtype=float)
        th = np.asarray(self.theta_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if np.any(np.diff(t) <= 0) or np.any(np.diff(th) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if v.shape != (t.size, th.size):
            raise ValueError(f"values shape {v.shape} does not match axes ({t.size}, {th.size})")
        if self.normalization == "linear-magnitude":
            if v.size and v.min() < 0:
                raise ValueError("linear-magnitude grid must be nonnegative")
        elif self.normalization == "dB-rel-peak":
            if v.size and not np.isclose(v.max(), 0.0, atol=1e-9):
                raise ValueError("dB grid must peak at 0 dB")
        else:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        for name, arr in (("t_axis", t), ("theta_axis", th), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_db(self) -> "BeampatternGrid":
        "20*log10 relative to the grid peak, floored."
        if self.normalization == "dB-rel-peak":
            return self
        peak = self.values.max()
        if peak <= 0:
            raise ValueError("cannot scale an all-zero grid to dB")
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(self.values / peak)
        return BeampatternGrid(self.t_axis, self.theta_axis,
                               np.maximum(db, DB_FLOOR), "dB-rel-peak")


def theta_grid(n_theta: int) -> np.ndarray:
    "Uniform azimuth samples strictly inside (-pi/2, pi/2): cell centers."
    if n_theta < 2:
        raise ValueError("need at least 2 azimuth samples")
    step = np.pi / n_theta
    return -np.pi / 2 + (np.arange(n_theta) + 0.5) * step


def _waveform_list(waveforms, num_elements: int) -> list[BasebandWaveform]:
    if isinstance(waveforms, BasebandWaveform):
        return [waveforms] * num_elements
    wl = list(waveforms)
    if len(wl) != num_elements:
        raise ValueError(f"got {len(wl)} waveforms for {num_elements} elements")
    return wl


def _time_modulated_field(config: ArrayConfig, plan: TimeModulatedPlan, columns: np.ndarray,
                          t_prime: np.ndarray, delay: np.ndarray) -> np.ndarray:
    """Element sum for time-modulated offsets, filled in row blocks.

    columns[i, m] is element m's envelope times conjugate weight at t_i, and
    delay[m, j] = m*d*sin(theta_j)/c.  Each block reuses its own buffers, and
    every cell's arithmetic is independent of the block size and of the
    thread that fills it.
    """
    n_t, n_theta = t_prime.size, delay.shape[1]
    rows = max(1, BLOCK_CELLS // n_theta)
    carrier_delay = config.carrier_freq * delay
    field = np.zeros((n_t, n_theta), dtype=complex)

    def fill(start: int) -> None:
        t = t_prime[start:start + rows, None]
        acc = field[start:start + rows]
        tau = np.empty(acc.shape)
        phase = np.empty(acc.shape)
        term = np.empty(acc.shape, dtype=complex)
        for mi in range(delay.shape[0]):
            np.add(t, delay[mi], out=tau)
            np.multiply(plan.chi(mi, tau), tau, out=phase)
            phase += carrier_delay[mi]
            phase *= 2.0 * np.pi
            np.cos(phase, out=term.real)
            np.sin(phase, out=term.imag)
            term *= columns[start:start + rows, mi, None]
            acc += term

    starts = range(0, n_t, rows)
    # the CPUs this process may run on; only Linux has an affinity set
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(starts))
    if workers <= 1:
        for start in starts:
            fill(start)
    else:
        # numpy ufuncs release the GIL; imported here to keep it off the CLI's start-up path
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for done in [pool.submit(fill, start) for start in starts]:
                done.result()
    return field


def exact_field_matrix(config: ArrayConfig, plan: FrequencyPlan,
                       w: WeightVector | np.ndarray,
                       waveforms: BasebandWaveform | Sequence[BasebandWaveform],
                       t_prime: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Exact complex field on the outer product of time and azimuth samples.

    Row i, column j holds sum_m conj(w_m) * s_m(t_i) * steering_time(t_i)[m] *
    combined_angle_steering(theta_j)[m]; time-modulated plans replace the offset phases by
    chi_m(tau)*tau evaluated at the element-local time tau = t_i + m*d*sin(theta_j)/c.
    Weights are one length-M vector for all times, or an (N_t, M) array whose
    row i weights time sample t_i (time-variant beamforming).
    """
    t_prime = np.atleast_1d(np.asarray(t_prime, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    wc = np.conj(np.asarray(w, dtype=complex))
    if wc.shape not in ((config.num_elements,), (t_prime.size, config.num_elements)):
        raise ValueError(f"weights have shape {wc.shape}, expected ({config.num_elements},) "
                         f"or ({t_prime.size}, {config.num_elements})")
    wc = np.atleast_2d(wc)  # (1, M) or (N_t, M): row i weights time t_i
    wfs = _waveform_list(waveforms, config.num_elements)
    # envelope times conjugate weight, (N_t, M)
    columns = np.stack([wf.sample(t_prime) for wf in wfs], axis=1) * wc

    if isinstance(plan, TimeModulatedPlan):
        if plan.form == "table" and len(plan.table_chi) != config.num_elements:
            raise ValueError(f"time-modulated table has {len(plan.table_chi)} rows, "
                             f"array has {config.num_elements} elements")
        delay = np.outer(config.element_index * (config.spacing / config.wave_speed),
                         np.sin(theta))
        return _time_modulated_field(config, plan, columns, t_prime, delay)

    return (steering_time(config, plan, t_prime) * columns) \
        @ combined_angle_steering(config, plan, theta).T


def field_exact(config: ArrayConfig, plan: FrequencyPlan,
                w: WeightVector | np.ndarray,
                waveforms: BasebandWaveform | Sequence[BasebandWaveform],
                point: EvalPoint) -> complex:
    """Exact complex field at one evaluation point.

    Returns array factor times the baseband envelope; zero outside the pulse
    because the envelope support is [0, T_p].  Range and absolute time enter
    only through t' = t - r/c.
    """
    val = exact_field_matrix(config, plan, w, waveforms,
                             np.asarray([point.t_prime]), np.asarray([point.theta]))
    return complex(val[0, 0])


def dirichlet_magnitude(ups: np.ndarray, num_elements: int) -> np.ndarray:
    "|sin(M*ups)/sin(ups)| with the removable singularity resolved to M."
    ups = np.asarray(ups, dtype=float)
    s = np.sin(ups)
    limit = np.abs(s) < SIN_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(np.sin(num_elements * ups) / s)
    return np.where(limit, float(num_elements), ratio)


def fitb_closed_form(config: ArrayConfig, delta_f: float, t_prime, theta) -> np.ndarray:
    """Closed-form instantaneous beampattern for a uniform frequency offset.

    |sin(M*Y)/sin(Y)| with Y = pi*(delta_f*t' + (f_c+delta_f)*d*sin(theta)/c).
    """
    t_prime = np.asarray(t_prime, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ups = np.pi * (
        delta_f * t_prime
        + (config.carrier_freq + delta_f) * config.spacing * np.sin(theta) / config.wave_speed
    )
    return dirichlet_magnitude(ups, config.num_elements)


def zero_time_cut(config: ArrayConfig, delta_f: float, theta) -> np.ndarray:
    "Closed-form pattern at the in-phase instant t' = 0."
    return fitb_closed_form(config, delta_f, 0.0, theta)


def legacy_array_factor(config: ArrayConfig, delta_f: float, t, r, theta) -> np.ndarray:
    """Range-and-time array factor from the older literature.

    |sin(M*pi*xi)/sin(pi*xi)| with
    xi = delta_f*t - delta_f*r/c + f_c*d*sin(theta)/c + delta_f*d*sin(theta)/c.
    Deliberately does not restrict t to the pulse window [r/c, r/c + T_p]; that
    omission is what makes the form look range dependent.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    xi = (
        delta_f * t
        - delta_f * r / config.wave_speed
        + (config.carrier_freq + delta_f) * config.spacing * np.sin(theta) / config.wave_speed
    )
    return dirichlet_magnitude(np.pi * xi, config.num_elements)


def sweep_grid(config: ArrayConfig, plan: FrequencyPlan,
               w: WeightVector | np.ndarray,
               waveforms: BasebandWaveform | Sequence[BasebandWaveform],
               n_time: int = 512, n_theta: int = 1024,
               engine: str = "exact") -> BeampatternGrid:
    """Dense magnitude grid over [0, T_p] x (-pi/2, pi/2).

    engine "exact" evaluates the element sum (any plan); "closed_form"
    evaluates the uniform-offset Dirichlet form and requires a UniformPlan.
    """
    if n_time < 2 or n_theta < 2:
        raise ValueError("need at least 2 samples per axis")
    t_axis = np.linspace(0.0, config.pulse_duration, n_time)
    th_axis = theta_grid(n_theta)

    if engine == "closed_form":
        if not isinstance(plan, UniformPlan):
            raise UnsupportedPlanError("closed-form engine requires a uniform plan")
        values = fitb_closed_form(config, plan.delta_f, t_axis[:, None], th_axis[None, :])
    elif engine == "exact":
        values = np.abs(exact_field_matrix(config, plan, w, waveforms, t_axis, th_axis))
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return BeampatternGrid(t_axis, th_axis, values, "linear-magnitude")


def legacy_grid(config: ArrayConfig, delta_f: float, r: float,
                t_axis: np.ndarray, n_theta: int = 1024) -> BeampatternGrid:
    "Legacy array-factor magnitudes over an absolute-time axis for a fixed range."
    th_axis = theta_grid(n_theta)
    t_axis = np.asarray(t_axis, dtype=float)
    values = legacy_array_factor(config, delta_f, t_axis[:, None], r, th_axis[None, :])
    return BeampatternGrid(t_axis, th_axis, values, "linear-magnitude")


def _row_format(n: int) -> str:
    "printf format of one CSV row of n numbers; every artifact cell is %.10g."
    return ",".join(["%.10g"] * n)


def write_csv(path: str | Path, header: str | None, *columns) -> Path:
    """Write 1-D columns and 2-D blocks side by side as CSV; returns the path.

    The header line is written when given; the file ends with a newline.
    """
    path = Path(path)
    table = np.column_stack(columns)
    fmt = _row_format(table.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        # row by row: a whole-table tolist() holds every cell as a Python float
        fh.writelines(fmt % tuple(row.tolist()) for row in table)
    return path


def grid_to_csv(grid: BeampatternGrid, path: str | Path) -> Path:
    """Write a grid as CSV: header row of theta in degrees, first column t in us.

    Cell values are dB or linear magnitudes according to the grid's
    normalization tag.
    """
    theta_deg = np.degrees(grid.theta_axis)
    header = "t_us," + _row_format(theta_deg.size) % tuple(theta_deg.tolist())
    return write_csv(path, header, grid.t_axis * 1e6, grid.values)


def grid_from_csv(path: str | Path, normalization: str = "linear-magnitude") -> BeampatternGrid:
    "Read back a grid written by grid_to_csv."
    lines = Path(path).read_text().strip().splitlines()
    theta = np.radians([float(v) for v in lines[0].split(",")[1:]])
    t_axis, rows = [], []
    for line in lines[1:]:
        cells = line.split(",")
        t_axis.append(float(cells[0]) * 1e-6)
        rows.append([float(v) for v in cells[1:]])
    return BeampatternGrid(np.asarray(t_axis), theta, np.asarray(rows), normalization)


def grid_to_binary(grid: BeampatternGrid, path: str | Path) -> None:
    """Row-major float64 dump with a fixed header.

    Header: 8-byte magic, uint32 N_t, uint32 N_theta, then float64 axis ranges
    (t0, t1, theta0, theta1); values follow in row-major order.
    """
    path = Path(path)
    header = GRID_MAGIC + struct.pack(
        "<II4d", grid.t_axis.size, grid.theta_axis.size,
        grid.t_axis[0], grid.t_axis[-1], grid.theta_axis[0], grid.theta_axis[-1],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def grid_from_binary(path: str | Path, normalization: str = "linear-magnitude") -> BeampatternGrid:
    "Read back a grid written by grid_to_binary."
    raw = Path(path).read_bytes()
    if raw[:8] != GRID_MAGIC:
        raise ValueError(f"{path} is not a beampattern grid dump")
    n_t, n_th, t0, t1, th0, th1 = struct.unpack("<II4d", raw[8:8 + 40])
    values = np.frombuffer(raw[48:], dtype="<f8").reshape(n_t, n_th)
    return BeampatternGrid(np.linspace(t0, t1, n_t), np.linspace(th0, th1, n_th),
                           values, normalization)
