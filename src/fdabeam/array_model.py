"""Array geometry, frequency-offset plans, and steering/weight vectors.

Everything here is shared state for the beampattern engines: the physical
configuration of the uniform linear transmit array, the per-element frequency
offset plan, and the complex vectors built from them.  All containers are
frozen dataclasses and the weight constructors return read-only complex
arrays, so everything is safe to share across threads.
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


def _sqrt_clamped(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    "sqrt(max(x, 0)): the sqrt form is zero for negative arguments."
    return np.sqrt(np.maximum(x, 0.0, out=out), out=out)


# form: (g(x, out), writing into out, which may be x itself; the slope d(x*g(x))/dx;
# whether g is analytic at 0).  Every |slope| is monotone in |x| on either side of 0.
_TM_FORMS: dict[str, tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
                           Callable[[np.ndarray], np.ndarray], bool]] = {
    "sqrt": (_sqrt_clamped, lambda x: 1.5 * np.sqrt(np.maximum(x, 0.0)), False),
    "cbrt": (np.cbrt, lambda x: 4.0 / 3.0 * np.cbrt(x), False),
    "arctan": (np.arctan, lambda x: np.arctan(x) + x / (1.0 + x * x), True),
    "sinh": (np.sinh, lambda x: np.sinh(x) + x * np.cosh(x), True),
}


@dataclass(frozen=True)
class TimeModulatedPlan:
    """Time-modulated frequency offsets chi_m(t').

    Element m sees the instantaneous offset chi_m(tau) = m * rate * g(tau/time_scale)
    for a named analytic form g.  The exact field engine evaluates chi at the
    element-local retarded time.

    Attributes:
        form: one of "sqrt", "cbrt", "arctan", "sinh"
        rate: offset scale in Hz (per unit element index, at unit argument), finite
        time_scale: argument normalization in seconds, positive
    """

    form: str
    rate: float = 0.0
    time_scale: float = 1e-6

    def __post_init__(self):
        if self.form not in _TM_FORMS:
            raise ValueError(f"unknown time-modulated form {self.form!r}")
        if not np.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")
        if not 0 < self.time_scale < np.inf:
            raise ValueError(f"time_scale must be positive and finite, got {self.time_scale}")

    def chi(self, m, tau, out: np.ndarray | None = None) -> np.ndarray:
        """Instantaneous frequency offset of element m at local time tau (Hz).

        m is an element index, or an integer array that broadcasts to tau's
        shape.  With out, a float array of tau's shape, the offsets are written
        into it and out is returned; without it, a scalar tau gives a scalar.
        Computes m*rate*g(tau/time_scale) with no temporaries.
        """
        tau = np.asarray(tau, dtype=float)
        # without out, a fresh buffer: 0-d for a scalar tau, as in-place ufuncs need an array
        x = np.empty(tau.shape) if out is None else out
        np.divide(tau, self.time_scale, out=x)
        np.multiply(m * self.rate, _TM_FORMS[self.form][0](x, x), out=x)
        return x if out is not None else x[()]

    def phase_slope(self, tau) -> np.ndarray:
        """h'(tau) in Hz, where h(tau) = chi_1(tau)*tau and element m's offset phase is m*h(tau).

        |h'| is monotone in |tau| on either side of 0.
        """
        return self.rate * _TM_FORMS[self.form][1](np.asarray(tau, dtype=float) / self.time_scale)

    @property
    def smooth(self) -> bool:
        "Whether g is analytic at 0: the sqrt and cbrt forms have a kink there."
        return _TM_FORMS[self.form][2]


FrequencyPlan = Union[UniformPlan, TabulatedPlan, TimeModulatedPlan]


def local_time_ends(config: ArrayConfig, t_prime, radius=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Ends t' -+ radius*(M-1)*d/c of the element-local times tau = t' + m*d*sin(theta)/c.

    At radius 1 they bound tau over every element and azimuth at each retarded time t'.
    """
    reach = radius * ((config.num_elements - 1) * config.spacing / config.wave_speed)
    t_prime = np.asarray(t_prime, dtype=float)
    return t_prime - reach, t_prime + reach


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


def reference_wavelength(config: ArrayConfig, plan: FrequencyPlan) -> float:
    """Reference wavelength lambda_0 that half-wavelength spacing halves.

    For a uniform plan the highest element frequency sets it,
    c / (f_c + (M-1)*delta_f); for every other plan it is c / f_c.
    """
    top = (config.num_elements - 1) * plan.delta_f if isinstance(plan, UniformPlan) else 0.0
    return config.wave_speed / (config.carrier_freq + top)


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


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def steered_weights(config: ArrayConfig, plan: FrequencyPlan, theta0: float) -> np.ndarray:
    """Weights that put the zero-time mainlobe of the exact field at theta0.

    Returns w = combined_angle_steering(theta0); the exact field engine applies
    weights conjugated (w^H), so this choice cancels every element phase at
    (t'=0, theta=theta0) and the weighted sum there equals exactly M.
    """
    if not isinstance(plan, UniformPlan):
        raise UnsupportedPlanError("steered weights are defined for uniform plans")
    if abs(theta0) >= np.pi / 2:
        raise OutOfSectorError(f"steering angle {theta0} rad is outside (-pi/2, pi/2)")
    return _read_only(combined_angle_steering(config, plan, theta0))


def uniform_weights(num_elements: int) -> np.ndarray:
    "All-ones weight vector."
    return _read_only(np.ones(num_elements, dtype=complex))


def random_unimodular_weights(num_elements: int, seed: int) -> np.ndarray:
    "Unit-modulus weights w_m = exp(j*2*pi*u_m) with u_m uniform on (0,1), seeded."
    rng = np.random.default_rng(seed)
    return _read_only(np.exp(2j * np.pi * rng.random(num_elements)))


def as_weight_array(w: Sequence[complex] | np.ndarray, num_elements: int) -> np.ndarray:
    "Coerce a weight argument to a length-M complex array."
    vals = np.asarray(w, dtype=complex)
    if vals.shape != (num_elements,):
        raise ValueError(f"weight vector has shape {vals.shape}, expected ({num_elements},)")
    return vals
