"""Array geometry, frequency-offset plans, and steering/weight vectors.

Everything here is shared state for the beampattern engines: the physical
configuration of the uniform linear transmit array, the per-element frequency
offset plan, and the complex vectors built from them.  All containers are
frozen dataclasses and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

SPEED_OF_LIGHT = 3.0e8
"Default propagation speed in m/s (rounded; pass wave_speed=299792458.0 if you care)."


class UnsupportedPlanError(ValueError):
    "Raised when an operation does not support the given frequency plan variant."


class OutOfSectorError(ValueError):
    "Raised when a requested steering angle lies outside the visible sector."


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear transmit array.

    Attributes:
        num_elements: number of transmit elements M (>= 1)
        carrier_freq: reference carrier frequency in Hz
        spacing: inter-element spacing in meters
        pulse_duration: baseband pulse length in seconds
        wave_speed: propagation speed in m/s
    """

    num_elements: int
    carrier_freq: float
    spacing: float
    pulse_duration: float
    wave_speed: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")
        for name in ("carrier_freq", "spacing", "pulse_duration", "wave_speed"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")

    def narrowband_ratio(self, bandwidth: float) -> float:
        """Aperture transit time over inverse bandwidth: (M*d*B)/c.

        Must be << 1 for the shared-envelope approximation to hold for a
        waveform of the given baseband bandwidth.
        """
        return self.num_elements * self.spacing * bandwidth / self.wave_speed

    @property
    def element_index(self) -> np.ndarray:
        "Element indices m = 0..M-1."
        return np.arange(self.num_elements)


@dataclass(frozen=True)
class UniformPlan:
    "Linear frequency offsets: element m transmits at f_c + m*delta_f."

    delta_f: float


@dataclass(frozen=True)
class TabulatedPlan:
    "Arbitrary per-element frequency offsets in Hz (length must match M)."

    offsets: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(float(v) for v in self.offsets))


_TM_FORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sqrt": lambda x: np.sqrt(np.maximum(x, 0.0)),
    "cbrt": np.cbrt,
    "arctan": np.arctan,
    "sinh": np.sinh,
}


@dataclass(frozen=True)
class TimeModulatedPlan:
    """Time-modulated frequency offsets chi_m(t').

    Element m sees the instantaneous offset chi_m(tau) = m * rate * g(tau/time_scale)
    for a named analytic form g, or values interpolated from a per-element sampled
    table.  The exact field engine evaluates chi at the element-local retarded time.

    Attributes:
        form: one of "sqrt", "cbrt", "arctan", "sinh", or "table"
        rate: offset scale in Hz (per unit element index, at unit argument)
        time_scale: argument normalization in seconds
        table_t: sample times for form="table"
        table_chi: per-element offset samples, shape (M, len(table_t)), in Hz
    """

    form: str
    rate: float = 0.0
    time_scale: float = 1e-6
    table_t: tuple[float, ...] | None = None
    table_chi: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.form not in _TM_FORMS and self.form != "table":
            raise ValueError(f"unknown time-modulated form {self.form!r}")
        if self.form == "table":
            if self.table_t is None or self.table_chi is None:
                raise ValueError("form='table' requires table_t and table_chi")
            if np.any(np.diff(self.table_t) <= 0):
                raise ValueError("table_t must be strictly increasing")
            if any(len(row) != len(self.table_t) for row in self.table_chi):
                raise ValueError(f"every table_chi row needs {len(self.table_t)} samples, "
                                 "one per table_t entry")

    def chi(self, m: int, tau) -> np.ndarray:
        "Instantaneous frequency offset of element m at local time tau (Hz)."
        tau = np.asarray(tau, dtype=float)
        if self.form == "table":
            return np.interp(tau, np.asarray(self.table_t), np.asarray(self.table_chi[m]))
        return m * self.rate * _TM_FORMS[self.form](tau / self.time_scale)


FrequencyPlan = Union[UniformPlan, TabulatedPlan, TimeModulatedPlan]


def plan_offsets(plan: FrequencyPlan, num_elements: int) -> np.ndarray:
    """Static per-element offsets Delta-f_m in Hz for uniform or tabulated plans.

    Raises UnsupportedPlanError for time-modulated plans, whose offsets are
    functions of time and only exist inside the exact field engine.
    """
    if isinstance(plan, UniformPlan):
        return plan.delta_f * np.arange(num_elements)
    if isinstance(plan, TabulatedPlan):
        if len(plan.offsets) != num_elements:
            raise ValueError(
                f"tabulated plan has {len(plan.offsets)} offsets, array has {num_elements} elements"
            )
        return np.asarray(plan.offsets, dtype=float)
    raise UnsupportedPlanError("time-modulated plans have no static offset vector")


@dataclass(frozen=True, eq=False)
class WeightVector:
    "Complex beamformer weights."

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


@dataclass(frozen=True)
class EvalPoint:
    """Far-field evaluation point in retarded time t' = t - r/c and azimuth.

    The beampattern engines read only (t_prime, theta); the optional absolute
    pair (t_abs, r) is carried as metadata so callers can show that the field a
    pulse carries does not depend on how far it has travelled.
    """

    t_prime: float
    theta: float
    t_abs: float | None = None
    r: float | None = None

    @classmethod
    def from_absolute(cls, t: float, r: float, theta: float,
                      wave_speed: float = SPEED_OF_LIGHT) -> "EvalPoint":
        "Build a point from absolute time and range; t' = t - r/c."
        return cls(t_prime=t - r / wave_speed, theta=theta, t_abs=t, r=r)


def reference_wavelength(config: ArrayConfig, plan: FrequencyPlan) -> float:
    """Reference wavelength lambda_0 = c / (f_c + (M-1)*delta_f).

    Defined for uniform plans only; the highest element frequency sets the
    wavelength used for half-wavelength spacing.
    """
    if not isinstance(plan, UniformPlan):
        raise UnsupportedPlanError("reference wavelength is defined for uniform plans only")
    return config.wave_speed / (config.carrier_freq + (config.num_elements - 1) * plan.delta_f)


def steering_time(config: ArrayConfig, plan: FrequencyPlan, t_prime) -> np.ndarray:
    "Time steering vector: entry m = exp(j*2*pi*delta_f_m*t')."
    offsets = plan_offsets(plan, config.num_elements)
    return np.exp(2j * np.pi * np.multiply.outer(np.asarray(t_prime, dtype=float), offsets))


def combined_angle_steering(config: ArrayConfig, plan: FrequencyPlan, theta) -> np.ndarray:
    """Angle steering vector, entry m = exp(j*2*pi*(f_c+delta_f_m)*m*d*sin(theta)/c).

    The one definition of the element angle phases: the exact field engine,
    the integral beampattern, MIMO (zero offsets) and steered weights use it.
    """
    freq_m = (config.carrier_freq + plan_offsets(plan, config.num_elements)) * config.element_index
    return np.exp(2j * np.pi * (config.spacing / config.wave_speed)
                  * np.multiply.outer(np.sin(np.asarray(theta, dtype=float)), freq_m))


def steered_weights(config: ArrayConfig, plan: FrequencyPlan, theta0: float) -> WeightVector:
    """Weights that put the zero-time mainlobe of the exact field at theta0.

    Returns w = combined_angle_steering(theta0); the exact field engine applies
    weights conjugated (w^H), so this choice cancels every element phase at
    (t'=0, theta=theta0) and the weighted sum there equals exactly M.
    """
    if not isinstance(plan, UniformPlan):
        raise UnsupportedPlanError("steered weights are defined for uniform plans")
    if abs(theta0) >= np.pi / 2:
        raise OutOfSectorError(f"steering angle {theta0} rad is outside (-pi/2, pi/2)")
    return WeightVector(combined_angle_steering(config, plan, theta0))


def uniform_weights(num_elements: int) -> WeightVector:
    "All-ones weight vector."
    return WeightVector(np.ones(num_elements, dtype=complex))


def random_unimodular_weights(num_elements: int, seed: int) -> WeightVector:
    "Unit-modulus weights w_m = exp(j*2*pi*u_m) with u_m uniform on (0,1), seeded."
    rng = np.random.default_rng(seed)
    return WeightVector(np.exp(2j * np.pi * rng.random(num_elements)))


def as_weight_array(w: WeightVector | Sequence[complex] | np.ndarray,
                    num_elements: int) -> np.ndarray:
    "Coerce a weight argument to a length-M complex array."
    vals = np.asarray(w, dtype=complex)
    if vals.shape != (num_elements,):
        raise ValueError(f"weight vector has shape {vals.shape}, expected ({num_elements},)")
    return vals
