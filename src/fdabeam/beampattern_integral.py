"""Pulse-integrated transmit beampattern, waveform covariance, and MIMO checks.

The integral beampattern measures the energy radiated toward each azimuth over
one pulse.  It reduces to a quadratic form in the transmitted-waveform
covariance matrix, which this module assembles by composite Gauss-Legendre
quadrature (Golub & Welsch, Math. Comp. 1969) on panels of at most PANEL_CYCLES
integrand cycles, with the offsets of a frequency plan folded into each
waveform's frequency.  That folded covariance is also the co-located MIMO
covariance of the offset-shifted basebands (Stoica, Li & Xie, IEEE TSP 2007,
for the covariance view a^H R a), so the integral and MIMO patterns are one
covariance under two steerings: the full angle steering and the carrier term.
"""

from __future__ import annotations

import functools
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
# Composite Gauss-Legendre rule: PANEL_ORDER nodes per panel of at most PANEL_CYCLES
# integrand cycles.  On the Bernstein ellipse rho = e^u a quadratic-phase integrand of C
# cycles per panel has modulus at most g = exp(pi*C*sinh(u)*max(1, cosh(u)/2)), so by
# Trefethen (SIAM Review 2008, Thm 4.5) a 1/T_p-scaled entry is off by at most
# (32/15)*g*rho^(-2n)/(rho^2 - 1): 1.2e-15 at n = 32, C = 9.5 and cosh(u) = 2.
PANEL_ORDER = 32
PANEL_CYCLES = 9.5


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    "M x M Hermitian waveform covariance and the quadrature node count behind it."

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


def _integrand_rate(waveforms: Sequence[BasebandWaveform], offsets: np.ndarray) -> float:
    """Fastest frequency content of the covariance integrand in Hz.

    Entry (m, n) sweeps at f_m(t) - f_n(t), where f_m(t) = chirp_rate_m*t + freq_offset_m
    + df_m is linear in t, so no entry sweeps faster than the spread of the f_m at t = 0
    or at T_p.  Chirps of opposite sweep reach the sum of their swept widths there, and a
    bank of equal rates holds no chirp in any entry.
    """
    tp = waveforms[0].pulse_duration
    start = np.array([wf.freq_offset for wf in waveforms]) + offsets
    end = start + tp * np.array([wf.chirp_rate for wf in waveforms])
    return float(max(np.ptp(start), np.ptp(end)))


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    "Gauss-Legendre nodes and weights on [-1, 1], loading numpy.polynomial on first use."
    return np.polynomial.legendre.leggauss(PANEL_ORDER)


def _panels_for(pulse_duration: float, rate: float) -> int:
    "Fewest panels that hold at most PANEL_CYCLES integrand cycles each."
    return max(1, math.ceil(pulse_duration * rate / PANEL_CYCLES))


def default_quadrature_samples(config: ArrayConfig,
                               waveforms: Sequence[BasebandWaveform],
                               plan: FrequencyPlan) -> int:
    "Gauss-Legendre node count: PANEL_ORDER per panel of at most PANEL_CYCLES cycles."
    rate = _integrand_rate(list(waveforms), plan_offsets(plan, config.num_elements))
    return PANEL_ORDER * _panels_for(config.pulse_duration, rate)


def covariance(waveforms: Sequence[BasebandWaveform], plan: FrequencyPlan) -> CovarianceMatrix:
    """Waveform covariance by composite Gauss-Legendre quadrature over [0, T_p].

    Entry (m, n) is the integral of s_m(t) * conj(s_n(t)) * exp(j*2*pi*(df_m - df_n)*t),
    with df_m the plan's offsets for the M waveforms; UniformPlan(0.0) gives the
    covariance of the bare basebands.  The rule takes PANEL_ORDER nodes on each of the
    fewest equal panels that hold at most PANEL_CYCLES integrand cycles, the node count
    default_quadrature_samples gives.  The matrix is assembled as a Gram matrix with
    positive weights, so it is Hermitian and positive semidefinite by construction.
    """
    waveforms = list(waveforms)
    tp = waveforms[0].pulse_duration
    if any(wf.pulse_duration != tp for wf in waveforms):
        raise ValueError("all waveforms must share the pulse duration")

    offsets = plan_offsets(plan, len(waveforms))
    panels = _panels_for(tp, _integrand_rate(waveforms, offsets))
    nodes, node_weights = _panel_rule()
    width = tp / panels
    t = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) * width).ravel()
    weights = np.tile(0.5 * width * node_weights, panels)
    # the offsets ride in each waveform's frequency: one exponential per (m, node)
    signals = np.stack([with_freq_offset(wf, off).sample(t)
                        for wf, off in zip(waveforms, offsets)])  # (M, N_q)
    gram = (signals * weights) @ signals.conj().T
    gram = 0.5 * (gram + gram.conj().T)  # remove roundoff asymmetry
    return CovarianceMatrix(entries=gram, n_quadrature=PANEL_ORDER * panels)


def _steered_power(r: CovarianceMatrix, w: np.ndarray,
                   steer: np.ndarray) -> np.ndarray:
    "Re(v^H R v) for each row v = w * conj(a) of the (N, M) steering matrix."
    v = as_weight_array(w, r.num_elements)[None, :] * steer.conj()
    return np.real(np.einsum("nk,nk->n", v.conj() @ r.entries, v))


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
                      w: np.ndarray, theta) -> EquivalenceComparison:
    """Deviation between the integral beampattern and its MIMO construction.

    One covariance serves both sides: the offset covariance of the bare basebands
    is the MIMO covariance of basebands that carry the offsets
    (s_m(t) * exp(j*2*pi*m*delta_f*t)).  The integral side steers it with the full
    angle steering, the MIMO side with the carrier term only.  Both curves are
    peak-normalized before differencing, which cancels the 1/T_p convention
    mismatch; at delta_f = 0 the two steerings coincide and the deviation is
    exactly zero.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    r = covariance(waveforms, plan)
    # leaving out fgtb()'s 1/T_p before normalizing keeps the 0 Hz deviation exactly zero
    raw_fgtb = _steered_power(r, w, combined_angle_steering(config, plan, theta))
    raw_mimo = mimo_beampattern(r, config, w, theta)
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


def curve_to_csv(theta: np.ndarray, values: np.ndarray, path: str | Path) -> str:
    "CSV (theta_deg, value_dB): 10*log10 of a power-like curve rel. peak; returns the digest."
    values = np.asarray(values, dtype=float)
    return write_csv(path, "theta_deg,value_db", np.degrees(theta),
                     10.0 * np.log10(values / values.max()))

