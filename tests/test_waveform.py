import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdabeam as fb

from conftest import make_config


def trapezoid_energy(wf, n=4096):
    t = np.linspace(0.0, wf.pulse_duration, n)
    return np.trapezoid(np.abs(wf.sample(t)) ** 2, t)


class TestBasebandWaveform:
    def test_rect_sample_mid_pulse(self):
        wf = fb.rect_pulse(5e-6)
        assert wf.sample(2.5e-6) == pytest.approx(1 / np.sqrt(5e-6))

    def test_zero_outside_support(self):
        for wf in (fb.rect_pulse(5e-6),
                   fb.BasebandWaveform(pulse_duration=5e-6, chirp_rate=1e13)):
            assert wf.sample(-1e-9) == 0.0
            assert wf.sample(5.0001e-6) == 0.0

    def test_chirp_starts_at_phase_zero(self):
        wf = fb.BasebandWaveform(pulse_duration=5e-6, chirp_rate=4e13)
        assert wf.sample(0.0) == pytest.approx(1 / np.sqrt(5e-6))

    def test_chirp_unimodular_on_support(self):
        wf = fb.BasebandWaveform(pulse_duration=5e-6, chirp_rate=4e13)
        t = np.linspace(0, 5e-6, 101)
        assert np.allclose(np.abs(wf.sample(t)), 1 / np.sqrt(5e-6))

    @settings(deadline=None)
    @given(rate=st.floats(0, 5e13), t=st.floats(-1e-5, 1e-5))
    def test_support_property(self, rate, t):
        wf = fb.BasebandWaveform(pulse_duration=5e-6, chirp_rate=rate)
        val = complex(wf.sample(t))
        if 0 <= t <= 5e-6:
            assert abs(val) == pytest.approx(1 / np.sqrt(5e-6))
        else:
            assert val == 0.0

    def test_unit_energy_under_quadrature(self):
        cfg = make_config(0.0)
        for wf in fb.make_chirp_bank(cfg) + [fb.rect_pulse(5e-6)]:
            assert abs(trapezoid_energy(wf) - 1.0) < 1e-6


class TestChirpBank:
    def test_rates_follow_the_rule(self):
        cfg = make_config(0.0, num_elements=40)
        bank = fb.make_chirp_bank(cfg)
        tp = cfg.pulse_duration
        for m, wf in enumerate(bank):
            assert wf.chirp_rate == pytest.approx((100 + 10 * m) / tp**2)

    def test_single_element(self):
        cfg = fb.ArrayConfig(num_elements=1, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        bank = fb.make_chirp_bank(cfg)
        assert len(bank) == 1
        assert abs(trapezoid_energy(bank[0]) - 1.0) < 1e-6

    def test_pairwise_distinct(self):
        cfg = make_config(0.0)
        rates = [wf.chirp_rate for wf in fb.make_chirp_bank(cfg, rate_step=10)]
        assert len(set(rates)) == len(rates)

    def test_zero_step_collapses(self):
        cfg = make_config(0.0)
        rates = {wf.chirp_rate for wf in fb.make_chirp_bank(cfg, rate_step=0)}
        assert len(rates) == 1


class TestFoCoding:
    def test_square(self):
        offs = fb.generate_offsets(fb.FoCoding("square", 1e3), 16)
        assert offs[3] == pytest.approx(9e3)
        assert offs[0] == 0.0

    def test_logarithmic(self):
        offs = fb.generate_offsets(fb.FoCoding("logarithmic", 50e3), 16)
        assert offs[0] == 0.0
        assert offs[1] == pytest.approx(np.log(2) * 50e3)

    def test_random_reproducible(self):
        a = fb.generate_offsets(fb.FoCoding("random", 100e3, seed=7), 16)
        b = fb.generate_offsets(fb.FoCoding("random", 100e3, seed=7), 16)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 100e3))

    def test_random_needs_seed(self):
        with pytest.raises(ValueError):
            fb.FoCoding("random", 100e3)

    def test_costas_defaults(self):
        offs = fb.generate_offsets(fb.FoCoding("costas", 5e3), 16)
        assert np.array_equal(offs, np.array(fb.DEFAULT_COSTAS_16) * 5e3)

    def test_costas_table_too_short(self):
        # the default table covers 16 elements
        with pytest.raises(ValueError):
            fb.generate_offsets(fb.FoCoding("costas", 5e3), 17)

    def test_costas_property_of_default_table(self):
        # all displacement vectors distinct: Costas condition
        code = fb.DEFAULT_COSTAS_16
        n = len(code)
        seen = set()
        for dt in range(1, n):
            for i in range(n - dt):
                vec = (dt, code[i + dt] - code[i])
                assert vec not in seen
                seen.add(vec)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            fb.FoCoding("fibonacci", 1e3)

    @given(seed=st.integers(0, 2**31), m=st.integers(1, 16))
    def test_purity(self, seed, m):
        coding = fb.FoCoding("random", 1e3, seed=seed)
        assert np.array_equal(fb.generate_offsets(coding, m), fb.generate_offsets(coding, m))


class TestFreqOffsetFolding:
    def test_shift_preserves_energy(self):
        wf = fb.with_freq_offset(fb.BasebandWaveform(5e-6, chirp_rate=4e12), 1e7)
        assert abs(trapezoid_energy(wf, 8192) - 1.0) < 1e-6

    def test_shift_adds_linear_phase(self):
        base = fb.BasebandWaveform(5e-6, chirp_rate=4e12)
        shifted = fb.with_freq_offset(base, 1e6)
        t = 1.25e-6
        expected = complex(base.sample(t)) * np.exp(2j * np.pi * 1e6 * t)
        assert complex(shifted.sample(t)) == pytest.approx(expected)
