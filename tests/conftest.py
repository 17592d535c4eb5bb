import numpy as np
import pytest

import fdabeam as fb


def make_config(delta_f: float, num_elements: int = 16, carrier: float = 1e10,
                pulse: float = 5e-6, spacing_factor: float = 0.5) -> fb.ArrayConfig:
    """Figure-style array: d = spacing_factor * lambda0 with lambda0 from the offset."""
    lam0 = 3e8 / (carrier + (num_elements - 1) * delta_f)
    return fb.ArrayConfig(
        num_elements=num_elements,
        carrier_freq=carrier,
        spacing=spacing_factor * lam0,
        pulse_duration=pulse,
    )


@pytest.fixture
def cfg200k():
    return make_config(200e3)


@pytest.fixture
def rect():
    return fb.rect_pulse(5e-6)


def field_oracle(config, offsets, weights, waveforms, t_prime, theta):
    """Plain per-element sum, independent of the engine's factorized path."""
    import cmath

    total = 0j
    w = np.asarray(weights)
    for m in range(config.num_elements):
        phase = 2.0 * np.pi * (
            offsets[m] * t_prime
            + (config.carrier_freq + offsets[m]) * m * config.spacing
            * np.sin(theta) / config.wave_speed
        )
        sample = complex(waveforms[m].sample(np.asarray(t_prime)))
        total += complex(w[m]).conjugate() * sample * cmath.exp(1j * phase)
    return config.element_pattern_gain * total


def time_modulated_oracle(config, plan, weights, waveforms, t_prime, theta):
    """Plain per-element sum for a time-modulated plan at one cell.

    Element m's offset phase is chi_m(tau)*tau at its local time
    tau = t' + m*d*sin(theta)/c; the carrier phase is f_c*m*d*sin(theta)/c.
    """
    import cmath

    total = 0j
    w = np.asarray(weights)
    d_over_c = config.spacing / config.wave_speed
    for m in range(config.num_elements):
        tau = t_prime + m * d_over_c * np.sin(theta)
        phase = 2.0 * np.pi * (config.carrier_freq * m * d_over_c * np.sin(theta)
                               + float(plan.chi(m, tau)) * tau)
        sample = complex(waveforms[m].sample(np.asarray(t_prime)))
        total += complex(w[m]).conjugate() * sample * cmath.exp(1j * phase)
    return config.element_pattern_gain * total
