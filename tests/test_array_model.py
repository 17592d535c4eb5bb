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

    def test_narrowband_ratio(self):
        cfg = make_config(0.0)
        # M*d*B/c with B = 10 MHz
        expected = 16 * cfg.spacing * 10e6 / 3e8
        assert cfg.narrowband_ratio(10e6) == pytest.approx(expected)
        assert cfg.narrowband_ratio(10e6) < 1e-2


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

    def test_non_uniform_plan_rejected(self):
        cfg = make_config(0.0)
        with pytest.raises(fb.UnsupportedPlanError):
            fb.reference_wavelength(cfg, fb.TabulatedPlan(offsets=tuple(range(16))))


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


class TestEvalPoint:
    def test_from_absolute(self):
        pt = fb.EvalPoint.from_absolute(t=60e-6, r=15e3, theta=0.1)
        assert pt.t_prime == pytest.approx(60e-6 - 15e3 / 3e8)
        assert pt.t_abs == 60e-6
        assert pt.r == 15e3


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

    def test_time_modulated_table(self):
        plan = fb.TimeModulatedPlan(
            form="table",
            table_t=(0.0, 1e-6),
            table_chi=((0.0, 10.0), (0.0, 20.0)),
        )
        assert plan.chi(1, 0.5e-6) == pytest.approx(10.0)

    @pytest.mark.parametrize("table_t, table_chi", [
        ((0.0, 1e-6), ((0.0, 10.0), (0.0, 20.0, 30.0))),
        ((0.0, 1e-6), ((0.0,), (0.0,))),
        ((0.0, 1e-6, 1e-6), ((0.0, 1.0, 2.0), (0.0, 2.0, 4.0))),
        ((1e-6, 0.0), ((0.0, 10.0), (0.0, 20.0))),
    ], ids=["ragged", "short-rows", "repeated-time", "decreasing-time"])
    def test_time_modulated_table_rejected(self, table_t, table_chi):
        with pytest.raises(ValueError):
            fb.TimeModulatedPlan(form="table", table_t=table_t, table_chi=table_chi)

    @pytest.mark.parametrize("rows", [3, 5])
    def test_time_modulated_table_row_count(self, rows):
        # one table row per element, checked before the element sum starts
        cfg = fb.ArrayConfig(num_elements=4, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        plan = fb.TimeModulatedPlan(form="table", table_t=(0.0, 5e-6),
                                    table_chi=((0.0, 1e3),) * rows)
        with pytest.raises(ValueError, match=f"{rows} rows, array has 4 elements"):
            fb.sweep_grid(cfg, plan, fb.uniform_weights(4), fb.rect_pulse(5e-6), 8, 16)
