"""Pulse-integrated transmit beampattern, waveform covariance, and MIMO checks.

The integral beampattern measures the energy radiated toward each azimuth over
one pulse.  It reduces to a quadratic form in the transmitted-waveform
covariance matrix, which this module assembles by composite-trapezoid
quadrature with the per-element offset phases of a frequency plan inside the
integral.  The co-located MIMO pattern is the same construction at zero
offsets: its covariance is the UniformPlan(0.0) covariance of basebands that
carry the offsets themselves (Stoica, Li & Xie, IEEE TSP 2007, for the
covariance view a^H R a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    FrequencyPlan,
    UniformPlan,
    as_weight_array,
    combined_angle_steering,
    plan_offsets,
)
from .beampattern_instant import write_csv
from .waveform import BasebandWaveform, with_freq_offset

HERMITIAN_TOL = 1e-10
PSD_TOL_FACTOR = 1e-8  # eigenvalues above -factor*trace count as quadrature noise
MIN_QUADRATURE_SAMPLES = 4096
SAMPLES_PER_CYCLE = 8


class SamplingError(ValueError):
    "Raised when the quadrature grid undersamples the integrand."


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    "M x M Hermitian waveform covariance and the quadrature sample count behind it."

    entries: np.ndarray
    n_quadrature: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"covariance must be square, got shape {e.shape}")
        herm_err = np.abs(e - e.conj().T).max()
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"covariance is not Hermitian (max asymmetry {herm_err:.2e})")
        trace = float(np.real(np.trace(e)))
        min_eig = float(np.linalg.eigvalsh(e).min())
        if min_eig < -PSD_TOL_FACTOR * trace:
            raise ValueError(f"covariance is not PSD (min eigenvalue {min_eig:.2e})")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def num_elements(self) -> int:
        return self.entries.shape[0]

    def max_off_diagonal(self) -> float:
        "Largest off-diagonal magnitude; near 0 for orthogonal waveform sets."
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.abs(off).max()) if self.num_elements > 1 else 0.0


def _integrand_rate(waveforms: Sequence[BasebandWaveform],
                    plan: FrequencyPlan, num_elements: int) -> float:
    """Fastest frequency content of the covariance integrand in Hz.

    The widest baseband plus the extent of the offset set: M*delta_f for
    uniform plans, the offset range for tabulated plans.
    """
    b_max = max((wf.bandwidth + abs(wf.freq_offset) for wf in waveforms), default=0.0)
    if isinstance(plan, UniformPlan):
        span = num_elements * abs(plan.delta_f)
    else:
        offsets = plan_offsets(plan, num_elements)
        span = float(offsets.max() - offsets.min()) if offsets.size else 0.0
    return b_max + span


def _samples_for(pulse_duration: float, rate: float) -> int:
    "At least 8 samples per fastest integrand cycle over the pulse, floor 4096."
    return max(MIN_QUADRATURE_SAMPLES,
               int(math.ceil(SAMPLES_PER_CYCLE * pulse_duration * rate)))


def default_quadrature_samples(config: ArrayConfig,
                               waveforms: Sequence[BasebandWaveform],
                               plan: FrequencyPlan) -> int:
    "Trapezoid sample count: at least 8 samples per fastest integrand cycle, floor 4096."
    return _samples_for(config.pulse_duration,
                        _integrand_rate(waveforms, plan, config.num_elements))


def covariance(waveforms: Sequence[BasebandWaveform],
               plan: FrequencyPlan,
               n_quadrature: int | None = None) -> CovarianceMatrix:
    """Waveform covariance by composite trapezoid quadrature over [0, T_p].

    Entry (m, n) is the integral of s_m(t) * conj(s_n(t)) * exp(j*2*pi*(df_m - df_n)*t),
    with df_m the plan's offsets for the M waveforms; UniformPlan(0.0) gives the
    covariance of the bare basebands.  The matrix is assembled as a weighted Gram
    matrix, so it is Hermitian and positive semidefinite by construction.
    """
    waveforms = list(waveforms)
    m_count = len(waveforms)
    tp = waveforms[0].pulse_duration
    if any(wf.pulse_duration != tp for wf in waveforms):
        raise ValueError("all waveforms must share the pulse duration")

    offsets = plan_offsets(plan, m_count)
    rate = _integrand_rate(waveforms, plan, m_count)
    required = 2.0 * tp * rate
    if n_quadrature is None:
        n_quadrature = _samples_for(tp, rate)
    if n_quadrature < required:
        raise SamplingError(
            f"{n_quadrature} quadrature samples undersample an integrand with "
            f"{rate:.3g} Hz of content over {tp:.3g} s (need >= {required:.0f})"
        )

    t = np.linspace(0.0, tp, n_quadrature)
    signals = np.stack([wf.sample(t) for wf in waveforms])  # (M, N_q)
    signals = signals * np.exp(2j * np.pi * np.outer(offsets, t))
    weights = np.full(n_quadrature, t[1] - t[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    gram = (signals * weights) @ signals.conj().T
    gram = 0.5 * (gram + gram.conj().T)  # remove roundoff asymmetry
    return CovarianceMatrix(entries=gram, n_quadrature=n_quadrature)


def _steered_power(r: CovarianceMatrix, w: np.ndarray,
                   steer: np.ndarray) -> np.ndarray:
    "Re(v^H R v) for each row v = w * conj(a) of the (N, M) steering matrix."
    v = as_weight_array(w, r.num_elements)[None, :] * steer.conj()
    return np.real(np.einsum("nm,mk,nk->n", v.conj(), r.entries, v))


def fgtb(r: CovarianceMatrix, config: ArrayConfig, plan: FrequencyPlan,
         w: np.ndarray, theta) -> np.ndarray:
    """Pulse-integrated beampattern (1/T_p) * v^H R v at azimuth(s) theta.

    v pairs the conjugate weights with the full angle steering (carrier plus
    offset terms), matching the energy of the exactly summed element fields.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    steer = combined_angle_steering(config, plan, theta)
    return _steered_power(r, w, steer) / config.pulse_duration


def mimo_beampattern(r: CovarianceMatrix, config: ArrayConfig,
                     w: np.ndarray, theta) -> np.ndarray:
    """Co-located MIMO transmit beampattern v^H R v (no 1/T_p factor).

    v pairs the conjugate weights with the carrier-frequency steering only,
    the angle steering at zero offsets.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return _steered_power(r, w, combined_angle_steering(config, UniformPlan(0.0), theta))


def equivalence_fo_bounds(config: ArrayConfig, waveform_bandwidth: float) -> tuple[float, float]:
    """Offset range in which the offset steering term is negligible in the FGTB.

    Returns (lower, upper) with lower = max(0, (M*B - f_c)/(2M)) and
    upper = f_c/(4M^2 - M).
    """
    m = config.num_elements
    lower = (m * waveform_bandwidth - config.carrier_freq) / (2.0 * m)
    upper = config.carrier_freq / (4.0 * m * m - m)
    return max(0.0, lower), upper


@dataclass(frozen=True, eq=False)
class EquivalenceComparison:
    "Peak-normalized FGTB and MIMO curves with their maximum pointwise deviation."

    theta: np.ndarray
    fgtb_normalized: np.ndarray
    mimo_normalized: np.ndarray
    max_deviation: float
    fgtb_peak: float  # absolute, 1/T_p scaled
    mimo_peak: float  # absolute, unscaled


def compare_fgtb_mimo(config: ArrayConfig, plan: UniformPlan,
                      waveforms: Sequence[BasebandWaveform],
                      w: np.ndarray, theta,
                      n_quadrature: int | None = None) -> EquivalenceComparison:
    """Deviation between the integral beampattern and its MIMO construction.

    The MIMO side folds each element's offset into its baseband
    (s_m(t) * exp(j*2*pi*m*delta_f*t)) and steers with the carrier term only;
    the offset-array side keeps the bare basebands and carries the offset in
    the covariance and steering.  Both curves are peak-normalized before
    differencing, which cancels the 1/T_p convention mismatch; at delta_f = 0
    the two constructions coincide and the deviation is exactly zero.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    offsets = plan_offsets(plan, config.num_elements)
    mimo_wfs = [with_freq_offset(wf, off) for wf, off in zip(waveforms, offsets)]

    if n_quadrature is None:
        n_quadrature = default_quadrature_samples(config, list(waveforms), plan)

    # MIMO is the zero-offset case of the same quadratic form; leaving out fgtb()'s
    # 1/T_p before normalizing keeps the 0 Hz deviation exactly zero
    raw_fgtb, raw_mimo = (
        _steered_power(covariance(wfs, p, n_quadrature), w,
                       combined_angle_steering(config, p, theta))
        for wfs, p in ((waveforms, plan), (mimo_wfs, UniformPlan(0.0))))
    fgtb_norm = raw_fgtb / raw_fgtb.max()
    mimo_norm = raw_mimo / raw_mimo.max()
    return EquivalenceComparison(
        theta=theta,
        fgtb_normalized=fgtb_norm,
        mimo_normalized=mimo_norm,
        max_deviation=float(np.abs(fgtb_norm - mimo_norm).max()),
        fgtb_peak=float(raw_fgtb.max() / config.pulse_duration),
        mimo_peak=float(raw_mimo.max()),
    )


def curve_to_csv(theta: np.ndarray, values: np.ndarray, path: str | Path) -> Path:
    "Two-column CSV (theta_deg, value_dB) of a power-like azimuth curve, 10*log10 rel. peak."
    values = np.asarray(values, dtype=float)
    return write_csv(path, "theta_deg,value_db", np.degrees(theta),
                     10.0 * np.log10(values / values.max()))

