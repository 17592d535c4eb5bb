import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdabeam as fb

from conftest import make_config


class TestArrayConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            fb.ArrayConfig(num_elements=0, carrier_freq=1e10, spacing=0.015, pulse_duration=5e-6)
        with pytest.raises(ValueError):
            fb.ArrayConfig(num_elements=4, carrier_freq=-1, spacing=0.015, pulse_duration=5e-6)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                fb.ArrayConfig(num_elements=4, carrier_freq=1e10, spacing=bad, pulse_duration=5e-6)

    @pytest.mark.parametrize("make", [
        lambda bad: fb.BasebandWaveform(pulse_duration=bad),
        lambda bad: fb.BasebandWaveform(pulse_duration=5e-6, chirp_rate=bad),
        lambda bad: fb.BasebandWaveform(pulse_duration=5e-6, freq_offset=bad),
        lambda bad: fb.TimeModulatedPlan(form="arctan", rate=bad),
    ], ids=["pulse_duration", "chirp_rate", "freq_offset", "time_modulated_rate"])
    def test_waveform_and_plan_reject_non_finite(self, make):
        # the same rule as above for library callers, who bypass the CLI's parse-time check
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                make(bad)


class TestReferenceWavelength:
    def test_zero_offset_is_carrier_wavelength(self):
        cfg = make_config(0.0)
        assert fb.reference_wavelength(cfg, fb.UniformPlan(0.0)) == pytest.approx(0.03)

    def test_offset_shortens_wavelength(self):
        cfg = make_config(200e3)
        lam = fb.reference_wavelength(cfg, fb.UniformPlan(200e3))
        assert lam == pytest.approx(3e8 / 1.0003e10)
        assert lam == pytest.approx(0.03, rel=1e-3)

    def test_single_element_ignores_offset(self):
        cfg = fb.ArrayConfig(num_elements=1, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        assert fb.reference_wavelength(cfg, fb.UniformPlan(1e6)) == pytest.approx(0.03)

    @pytest.mark.parametrize("plan", [
        fb.TabulatedPlan(offsets=tuple(1e6 * np.arange(16.0))),
        fb.TimeModulatedPlan(form="sqrt", rate=1e6),
    ], ids=["tabulated", "time-modulated"])
    def test_non_uniform_plan_is_carrier_wavelength(self, plan):
        # only a uniform plan's top element frequency shortens lambda_0
        cfg = make_config(0.0)
        assert fb.reference_wavelength(cfg, plan) == 3e8 / 1e10


class TestSteeringVectors:
    ZERO = fb.UniformPlan(0.0)

    def test_broadside_all_ones(self):
        cfg = make_config(0.0)
        assert np.array_equal(fb.combined_angle_steering(cfg, self.ZERO, 0.0), np.ones(16))

    def test_half_wavelength_endfire(self):
        cfg = fb.ArrayConfig(num_elements=2, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        vec = fb.combined_angle_steering(cfg, self.ZERO, np.pi / 2)
        assert vec[0] == pytest.approx(1.0)
        assert vec[1] == pytest.approx(-1.0)  # exp(j*pi)

    def test_entry_one_phase_at_30deg(self):
        cfg = fb.ArrayConfig(num_elements=16, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        vec = fb.combined_angle_steering(cfg, self.ZERO, np.radians(30.0))
        # 2*pi*(1e10/3e8)*0.015*0.5 = 2*pi*0.25
        assert np.angle(vec[1]) == pytest.approx(2 * np.pi * 0.25, abs=1e-9)

    def test_fo_steering_zero_offset_all_ones(self):
        # zero offsets leave the carrier steering alone: the offset factor is all ones
        cfg = make_config(0.0)
        carrier = np.exp(2j * np.pi * 1e10 * np.arange(16) * cfg.spacing * np.sin(0.7) / 3e8)
        vec = fb.combined_angle_steering(cfg, self.ZERO, 0.7)
        assert np.allclose(vec / carrier, np.ones(16), rtol=0, atol=1e-9)

    def test_fo_steering_quadratic_phase(self):
        cfg = fb.ArrayConfig(num_elements=16, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        vec = fb.combined_angle_steering(cfg, fb.UniformPlan(10e6), np.pi / 2)
        carrier = fb.combined_angle_steering(cfg, self.ZERO, np.pi / 2)
        # m = 15: 2*pi * 10e6 * 225 * 0.015 / 3e8 = 2*pi*0.1125
        expected = np.exp(2j * np.pi * 0.1125)
        assert vec[15] / carrier[15] == pytest.approx(expected)

    def test_time_steering_half_cycle(self):
        cfg = make_config(200e3)
        vec = fb.steering_time(cfg, fb.UniformPlan(200e3), 2.5e-6)
        assert vec[1] == pytest.approx(np.exp(1j * np.pi))  # phase 2*pi*0.5

    def test_time_steering_full_cycle_wrap(self):
        cfg = make_config(200e3)
        vec = fb.steering_time(cfg, fb.UniformPlan(1 / 5e-6), 5e-6)
        assert np.allclose(vec, 1.0, atol=1e-9)

    def test_fo_steering_tabulated_uses_per_element_offsets(self):
        cfg = fb.ArrayConfig(num_elements=4, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        offsets = (0.0, 3e3, 1e3, 7e3)
        vec = fb.combined_angle_steering(cfg, fb.TabulatedPlan(offsets=offsets), 0.5)
        for m, off in enumerate(offsets):
            expected = np.exp(2j * np.pi * (1e10 + off) * m * 0.015 * np.sin(0.5) / 3e8)
            assert vec[m] == pytest.approx(expected)

    def test_time_modulated_plan_rejected(self):
        cfg = make_config(0.0)
        plan = fb.TimeModulatedPlan(form="sqrt", rate=1e3)
        with pytest.raises(fb.UnsupportedPlanError):
            fb.combined_angle_steering(cfg, plan, 0.1)
        with pytest.raises(fb.UnsupportedPlanError):
            fb.steering_time(cfg, plan, 1e-6)

    @settings(deadline=None)
    @given(theta=st.floats(-1.5, 1.5), delta_f=st.floats(0, 1e6))
    def test_unit_modulus_and_first_entry(self, theta, delta_f):
        cfg = make_config(delta_f)
        plan = fb.UniformPlan(delta_f)
        for vec in (fb.combined_angle_steering(cfg, self.ZERO, theta),
                    fb.combined_angle_steering(cfg, plan, theta),
                    fb.steering_time(cfg, plan, 1.3e-6)):
            assert np.allclose(np.abs(vec), 1.0, atol=1e-12)
            assert vec[0] == 1.0 + 0.0j


class TestSteeredWeights:
    def test_boresight_is_uniform(self):
        cfg = make_config(40e3)
        w = fb.steered_weights(cfg, fb.UniformPlan(40e3), 0.0)
        assert np.array_equal(np.asarray(w), np.ones(16, dtype=complex))

    def test_single_element(self):
        cfg = fb.ArrayConfig(num_elements=1, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        w = fb.steered_weights(cfg, fb.UniformPlan(1e3), 0.3)
        assert np.array_equal(np.asarray(w), np.ones(1, dtype=complex))

    def test_out_of_sector_rejected(self):
        cfg = make_config(40e3)
        with pytest.raises(fb.OutOfSectorError):
            fb.steered_weights(cfg, fb.UniformPlan(40e3), np.pi / 2)

    def test_non_uniform_plan_rejected(self):
        cfg = make_config(0.0)
        with pytest.raises(fb.UnsupportedPlanError):
            fb.steered_weights(cfg, fb.TabulatedPlan(offsets=(0.0,) * 16), 0.1)

    @pytest.mark.parametrize("theta0_deg", [-60, -30, 0, 30, 60])
    def test_conjugation_identity_exact_m(self, theta0_deg):
        # engine-convention weighted sum at (t'=0, theta0) is exactly M, real
        cfg = make_config(40e3)
        plan = fb.UniformPlan(40e3)
        theta0 = np.radians(theta0_deg)
        w = fb.steered_weights(cfg, plan, theta0)
        total = np.vdot(np.asarray(w), fb.combined_angle_steering(cfg, plan, theta0))
        assert total.real == pytest.approx(16.0, abs=1e-12)
        assert total.imag == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta0_deg", [-60, -30, 0, 30, 60])
    def test_exact_engine_zero_time_peak(self, theta0_deg):
        cfg = make_config(40e3)
        plan = fb.UniformPlan(40e3)
        w = fb.steered_weights(cfg, plan, np.radians(theta0_deg))
        wf = fb.rect_pulse(cfg.pulse_duration)
        theta = fb.theta_grid(1024)
        row = np.abs(fb.beampattern_instant.exact_field_matrix(
            cfg, plan, w, wf, np.asarray([0.0]), theta))[0]
        peak = np.degrees(theta[np.argmax(row)])
        assert abs(peak - theta0_deg) <= np.degrees(np.pi / 1024) + 1e-9


@pytest.mark.parametrize("make", [
    fb.uniform_weights,
    lambda m: fb.random_unimodular_weights(m, seed=3),
    lambda m: fb.steered_weights(make_config(40e3, num_elements=m), fb.UniformPlan(40e3), 0.2),
], ids=["uniform", "random", "steered"])
def test_weight_constructors_return_read_only_complex_arrays(make):
    # the time-modulated kernel reads the weights from worker threads
    w = make(5)
    assert type(w) is np.ndarray and w.dtype == complex and w.shape == (5,)
    with pytest.raises(ValueError):
        w[0] = 2.0


class TestPlanOffsets:
    def test_uniform(self):
        offs = fb.plan_offsets(fb.UniformPlan(1e3), 4)
        assert np.array_equal(offs, [0.0, 1e3, 2e3, 3e3])

    def test_tabulated_length_mismatch(self):
        with pytest.raises(ValueError):
            fb.plan_offsets(fb.TabulatedPlan(offsets=(0.0, 1.0)), 3)

    def test_time_modulated_chi_forms(self):
        for form in ("sqrt", "cbrt", "arctan", "sinh"):
            plan = fb.TimeModulatedPlan(form=form, rate=1e3, time_scale=1e-6)
            assert plan.chi(0, 1e-6) == 0.0
            assert plan.chi(2, 1e-6) == pytest.approx(2 * 1e3 * {"sqrt": 1.0, "cbrt": 1.0,
                                                                 "arctan": np.arctan(1.0),
                                                                 "sinh": np.sinh(1.0)}[form])

    @pytest.mark.parametrize("plan", [
        fb.TimeModulatedPlan(form="sqrt", rate=37e3, time_scale=0.7e-6),
        fb.TimeModulatedPlan(form="cbrt", rate=37e3, time_scale=0.7e-6),
        fb.TimeModulatedPlan(form="arctan", rate=37e3, time_scale=0.7e-6),
        fb.TimeModulatedPlan(form="sinh", rate=37e3, time_scale=0.7e-6),
    ], ids=["sqrt", "cbrt", "arctan", "sinh"])
    def test_time_modulated_chi_into_buffer(self, plan):
        tau = np.random.default_rng(3).uniform(-2e-6, 7e-6, (4, 9))
        forms = {"sqrt": lambda x: np.sqrt(np.maximum(x, 0.0)), "cbrt": np.cbrt,
                 "arctan": np.arctan, "sinh": np.sinh}
        for m in (0, 1):
            buf = np.empty(tau.shape)
            got = plan.chi(m, tau, out=buf)
            assert got is buf
            assert np.array_equal(got, plan.chi(m, tau))
            # the defining expression, bit for bit
            assert np.array_equal(got, m * plan.rate * forms[plan.form](tau / plan.time_scale))
            # a scalar tau still gives a scalar
            scalar = plan.chi(m, float(tau[2, 3]))
            assert np.ndim(scalar) == 0 and scalar == got[2, 3]

    def test_time_modulated_table(self):
        # a sampled table is not a time-modulated form: the plan takes analytic forms only
        with pytest.raises(ValueError, match="unknown time-modulated form 'table'"):
            fb.TimeModulatedPlan(form="table")
