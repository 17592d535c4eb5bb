"""Baseband pulse envelopes and frequency-offset coding schemes.

Waveforms are unit-energy complex envelopes supported on [0, T_p].  The only
kinds needed here are the rectangular pulse and the rectangular-envelope linear
chirp, optionally with a constant baseband frequency shift.  Shifting element
m's baseband by its offset df_m turns the offset array's covariance into the
co-located MIMO covariance of the shifted basebands, which is how the
covariance quadrature carries a frequency plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .array_model import ArrayConfig

# Welch-constructed Costas permutation of order 16 (powers of 3 modulo 17).
DEFAULT_COSTAS_16 = (3, 9, 10, 13, 5, 15, 11, 16, 14, 8, 7, 4, 12, 2, 6, 1)


@dataclass(frozen=True)
class BasebandWaveform:
    """Unit-energy rectangular-envelope waveform on [0, T_p].

    s(t) = exp(j*pi*chirp_rate*t^2) * exp(j*2*pi*freq_offset*t) / sqrt(T_p)
    for 0 <= t <= T_p and 0 elsewhere.  chirp_rate is in Hz/s; a plain
    rectangular pulse has chirp_rate == freq_offset == 0.  T_p must be positive
    and finite, the rate and offset finite.
    """

    pulse_duration: float
    chirp_rate: float = 0.0
    freq_offset: float = 0.0

    def __post_init__(self):
        if not 0 < self.pulse_duration < np.inf:
            raise ValueError(
                f"pulse_duration must be positive and finite, got {self.pulse_duration}")
        for name in ("chirp_rate", "freq_offset"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def amplitude(self) -> float:
        "Normalization making the pulse unit energy."
        return 1.0 / np.sqrt(self.pulse_duration)

    def sample(self, t) -> np.ndarray:
        "Complex envelope at time(s) t; exactly zero outside [0, T_p]."
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.pulse_duration)
        phase = np.pi * self.chirp_rate * t * t + 2.0 * np.pi * self.freq_offset * t
        out = np.where(inside, self.amplitude * np.exp(1j * phase), 0.0 + 0.0j)
        return out


def rect_pulse(pulse_duration: float) -> BasebandWaveform:
    "Unit-energy rectangular pulse."
    return BasebandWaveform(pulse_duration=pulse_duration)


def make_chirp_bank(config: ArrayConfig, base_rate_num: float = 100.0,
                    rate_step: float = 10.0) -> list[BasebandWaveform]:
    """One chirp per element with rate gamma_m = (base_rate_num + rate_step*m) / T_p^2.

    Element m sweeps |base_rate_num + rate_step*m|/T_p over the pulse, upward or
    downward.
    """
    tp = config.pulse_duration
    return [BasebandWaveform(pulse_duration=tp, chirp_rate=(base_rate_num + rate_step * m) / tp**2)
            for m in range(config.num_elements)]


def with_freq_offset(w: BasebandWaveform, freq_offset: float) -> BasebandWaveform:
    "Copy of w with an added constant baseband frequency shift."
    return replace(w, freq_offset=w.freq_offset + freq_offset)


@dataclass(frozen=True)
class FoCoding:
    """Frequency-offset coding scheme producing per-element offsets.

    Schemes: "random" (epsilon_m * scale, epsilon_m uniform on (0,1), seeded),
    "costas" (c_m * scale from DEFAULT_COSTAS_16, so at most 16 elements), "logarithmic"
    (ln(m+1) * scale), "square" (m^2 * scale).

    The logarithmic and square codings are monotone in m.  Their least-squares
    linear trend over m acts as a uniform offset of that slope, so their beams
    auto-scan like a uniform-offset array: at 16 elements, the 50 kHz
    logarithmic coding has a slope of 7.8 kHz and the 1 kHz square coding one
    of 15 kHz.
    """

    scheme: str
    scale: float
    seed: int | None = None

    def __post_init__(self):
        if self.scheme not in ("random", "costas", "logarithmic", "square"):
            raise ValueError(f"unknown FO coding scheme {self.scheme!r}")
        if self.scheme == "random" and self.seed is None:
            raise ValueError("random FO coding requires a seed")


def generate_offsets(coding: FoCoding, num_elements: int) -> np.ndarray:
    "Per-element frequency offsets in Hz, length M, deterministic given the coding."
    m = np.arange(num_elements)
    if coding.scheme == "square":
        return m.astype(float) ** 2 * coding.scale
    if coding.scheme == "logarithmic":
        return np.log(m + 1.0) * coding.scale
    if coding.scheme == "costas":
        if len(DEFAULT_COSTAS_16) < num_elements:
            raise ValueError(f"Costas table of length {len(DEFAULT_COSTAS_16)} "
                             f"cannot cover {num_elements} elements")
        return np.asarray(DEFAULT_COSTAS_16[:num_elements], dtype=float) * coding.scale
    rng = np.random.default_rng(coding.seed)
    return rng.random(num_elements) * coding.scale
