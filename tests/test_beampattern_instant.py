import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdabeam as fb
from fdabeam.beampattern_instant import (
    BLOCK_CELLS,
    exact_field_matrix,
    grid_from_binary,
    grid_from_csv,
    grid_to_binary,
    grid_to_csv,
)

from conftest import field_oracle, make_config, time_modulated_oracle

M = 16
SQRT_TP = np.sqrt(5e-6)
CFG200K = make_config(200e3)
N_THETA = 1024
# time samples crossing two row blocks of the time-modulated sum, with a remainder
N_BLOCKS_T = 2 * (BLOCK_CELLS // N_THETA) + 5


class TestFieldExact:
    def test_in_phase_maximum(self, cfg200k, rect):
        w = fb.uniform_weights(M)
        val = fb.field_exact(cfg200k, fb.UniformPlan(200e3), w, rect,
                             fb.EvalPoint(0.0, 0.0))
        assert abs(val) == pytest.approx(M / SQRT_TP)

    def test_half_cycle_cancellation(self, cfg200k, rect):
        # t' = 2.5 us puts adjacent elements in antiphase: sum over e^{j*pi*m} = 0
        w = fb.uniform_weights(M)
        val = fb.field_exact(cfg200k, fb.UniformPlan(200e3), w, rect,
                             fb.EvalPoint(2.5e-6, 0.0))
        assert abs(val) < 1e-9

    def test_outside_pulse_is_zero(self, cfg200k, rect):
        w = fb.uniform_weights(M)
        for tp in (-1e-9, 5.1e-6):
            val = fb.field_exact(cfg200k, fb.UniformPlan(200e3), w, rect,
                                 fb.EvalPoint(tp, 0.3))
            assert val == 0.0

    def test_grid_peak_matches_prediction(self, cfg200k, rect):
        # frozen from the brute-force grid search; the asin peak formula gives -30.009 deg
        w = fb.uniform_weights(M)
        theta = fb.theta_grid(4096)
        row = np.abs(exact_field_matrix(cfg200k, fb.UniformPlan(200e3), w, rect,
                                        np.asarray([1.25e-6]), theta))[0]
        peak_deg = np.degrees(theta[np.argmax(row)])
        assert peak_deg == pytest.approx(-30.009, abs=np.degrees(np.pi / 4096) + 1e-6)

    @pytest.mark.parametrize("plan", [
        fb.UniformPlan(200e3),
        fb.TabulatedPlan(offsets=tuple(np.log(np.arange(16) + 1.0) * 50e3)),
    ])
    def test_against_per_element_oracle(self, plan, cfg200k, rect):
        w = fb.random_unimodular_weights(M, seed=3)
        offsets = fb.plan_offsets(plan, M)
        for t, th in [(0.0, 0.0), (1.1e-6, 0.4), (3.7e-6, -1.2), (5e-6, 1.5)]:
            got = fb.field_exact(cfg200k, plan, w, rect, fb.EvalPoint(t, th))
            want = field_oracle(cfg200k, offsets, w, [rect] * M, t, th)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_per_element_waveforms(self, cfg200k):
        bank = fb.make_chirp_bank(cfg200k)
        w = fb.uniform_weights(M)
        plan = fb.UniformPlan(200e3)
        offsets = fb.plan_offsets(plan, M)
        got = fb.field_exact(cfg200k, plan, w, bank, fb.EvalPoint(2.2e-6, 0.9))
        want = field_oracle(cfg200k, offsets, w, bank, 2.2e-6, 0.9)
        assert got == pytest.approx(want, rel=1e-10)

    def test_time_modulated_against_loop(self, cfg200k, rect):
        plan = fb.TimeModulatedPlan(form="arctan", rate=20e3, time_scale=1e-6)
        w = fb.uniform_weights(M)
        t, th = 2.0e-6, 0.6
        got = fb.field_exact(cfg200k, plan, w, rect, fb.EvalPoint(t, th))
        want = time_modulated_oracle(cfg200k, plan, w, [rect] * M, t, th)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("plan", [
        fb.TimeModulatedPlan(form="sqrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="cbrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="arctan", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="sinh", rate=20e3, time_scale=1e-6),
        fb.TimeModulatedPlan(
            form="table", table_t=tuple(np.linspace(0.0, 5e-6, 11)),
            table_chi=tuple(tuple(row) for row in
                            np.random.default_rng(5).uniform(-1e6, 1e6, (M, 11)))),
    ], ids=["sqrt", "cbrt", "arctan", "sinh", "table"])
    def test_time_modulated_grid_against_oracle(self, plan, cfg200k):
        # a grid of several row blocks, per-element chirps and per-time weights
        bank = fb.make_chirp_bank(cfg200k)
        t = np.linspace(0.0, 5e-6, N_BLOCKS_T)
        theta = fb.theta_grid(N_THETA)
        w_t = fb.random_unimodular_weights(t.size * M, seed=6).values.reshape(t.size, M)
        got = exact_field_matrix(cfg200k, plan, w_t, bank, t, theta)
        rng = np.random.default_rng(7)
        for i, j in zip(rng.integers(0, t.size, 24), rng.integers(0, theta.size, 24)):
            want = time_modulated_oracle(cfg200k, plan, w_t[i], bank, t[i], theta[j])
            assert got[i, j] == pytest.approx(want, rel=1e-10), (i, j)

    def test_absolute_metadata_is_inert(self, cfg200k, rect):
        # range and absolute time enter only through t': identical bits out
        w = fb.uniform_weights(M)
        for r in (18e3, 27e3, 1.0):
            plain = fb.field_exact(cfg200k, fb.UniformPlan(200e3), w, rect,
                                   fb.EvalPoint(1.25e-6, 0.5))
            tagged = fb.field_exact(cfg200k, fb.UniformPlan(200e3), w, rect,
                                    fb.EvalPoint(1.25e-6, 0.5, t_abs=1.25e-6 + r / 3e8, r=r))
            assert plain == tagged

    @pytest.mark.parametrize("plan", [
        fb.UniformPlan(200e3),
        fb.TabulatedPlan(offsets=tuple(np.log(np.arange(16) + 1.0) * 50e3)),
        fb.TimeModulatedPlan(form="arctan", rate=20e3, time_scale=1e-6),
    ])
    def test_per_time_weights_match_row_calls(self, plan, cfg200k, rect):
        t = np.linspace(0.0, 5e-6, N_BLOCKS_T)
        theta = fb.theta_grid(N_THETA)
        w_t = fb.random_unimodular_weights(t.size * M, seed=4).values.reshape(t.size, M)
        got = exact_field_matrix(cfg200k, plan, w_t, rect, t, theta)
        rows = np.stack([exact_field_matrix(cfg200k, plan, w_t[i], rect, t[i:i + 1], theta)[0]
                         for i in range(t.size)])
        # one matmul against per-row products: summation order may differ
        assert np.allclose(got, rows, rtol=0, atol=1e-12 * M / SQRT_TP)
        if isinstance(plan, fb.TimeModulatedPlan):
            # the row-block sum does the same arithmetic per cell for any block
            assert np.array_equal(got, rows)

    @pytest.mark.parametrize("plan", [
        fb.UniformPlan(200e3),
        fb.TimeModulatedPlan(form="arctan", rate=20e3, time_scale=1e-6),
    ])
    def test_weights_of_other_shapes_rejected(self, plan, cfg200k, rect):
        t = np.linspace(0.0, 5e-6, 9)
        for shape in ((t.size + 1, M), (t.size, M + 1), (M + 1,)):
            with pytest.raises(ValueError):
                exact_field_matrix(cfg200k, plan, np.ones(shape), rect, t, fb.theta_grid(8))


class TestClosedForm:
    def test_limit_at_origin(self, cfg200k):
        assert fb.fitb_closed_form(cfg200k, 200e3, 0.0, 0.0) == M

    def test_half_cycle_zero(self, cfg200k):
        assert fb.fitb_closed_form(cfg200k, 200e3, 2.5e-6, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_peak_track_matches_exact(self, cfg200k, rect):
        theta = fb.theta_grid(4096)
        vals = fb.fitb_closed_form(cfg200k, 200e3, 1.25e-6, theta)
        peak_deg = np.degrees(theta[np.argmax(vals)])
        assert vals.max() == pytest.approx(M, rel=1e-4)
        assert peak_deg == pytest.approx(-30.009, abs=np.degrees(np.pi / 4096) + 1e-6)

    @settings(deadline=None)
    @given(t=st.floats(0, 5e-6), th=st.floats(-1.5, 1.5))
    def test_bounded_by_m(self, t, th):
        val = fb.fitb_closed_form(CFG200K, 200e3, t, th)
        assert 0.0 <= val <= M * (1 + 1e-9)

    @settings(deadline=None)
    @given(t=st.floats(0, 5e-6 - 1 / 200e3), th=st.floats(-1.5, 1.5))
    def test_periodic_in_time(self, t, th):
        a = fb.fitb_closed_form(CFG200K, 200e3, t, th)
        b = fb.fitb_closed_form(CFG200K, 200e3, t + 1 / 200e3, th)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-6)

    def test_oracle_agreement_small_offset_regime(self, rect):
        # delta_f * M^2 * d / c < 1e-3: closed form tracks the exact sum within 2% of M
        delta_f = 10e3
        cfg = make_config(delta_f)
        assert delta_f * M**2 * cfg.spacing / 3e8 < 1e-3
        t = np.linspace(0, 5e-6, 256)
        theta = fb.theta_grid(512)
        exact = np.abs(exact_field_matrix(cfg, fb.UniformPlan(delta_f),
                                          fb.uniform_weights(M), rect, t, theta)) * SQRT_TP
        closed = fb.fitb_closed_form(cfg, delta_f, t[:, None], theta[None, :])
        assert np.max(np.abs(exact - closed)) / M < 0.02

    def test_report_deviation_growth(self, rect):
        # larger offsets leave the approximation regime; report, don't assert
        t = np.linspace(0, 5e-6, 64)
        theta = fb.theta_grid(256)
        for delta_f in (10e3, 100e3, 400e3, 2e6):
            cfg = make_config(delta_f)
            exact = np.abs(exact_field_matrix(cfg, fb.UniformPlan(delta_f),
                                              fb.uniform_weights(M), rect, t, theta)) * SQRT_TP
            closed = fb.fitb_closed_form(cfg, delta_f, t[:, None], theta[None, :])
            dev = np.max(np.abs(exact - closed)) / M
            print(f"closed-form deviation at delta_f={delta_f:g} Hz: {dev:.4f}")


class TestZeroTimeCut:
    def test_boresight_value(self, cfg200k):
        assert fb.zero_time_cut(cfg200k, 200e3, 0.0) == M

    def test_first_null_against_root_find(self):
        from scipy.optimize import brentq

        delta_f = 100.0
        cfg = make_config(delta_f)
        # independent oracle: root of the pattern numerator after the peak
        ups = lambda th: np.pi * (cfg.carrier_freq + delta_f) * cfg.spacing \
            * np.sin(th) / cfg.wave_speed
        null = brentq(lambda th: np.sin(M * ups(th)), np.radians(2), np.radians(12))
        assert np.degrees(null) == pytest.approx(7.1808, abs=1e-3)
        cut = fb.zero_time_cut(cfg, delta_f, null)
        assert cut < 1e-6

    def test_symmetry(self, cfg200k):
        theta = np.linspace(0.01, 1.5, 200)
        assert np.allclose(fb.zero_time_cut(cfg200k, 200e3, theta),
                           fb.zero_time_cut(cfg200k, 200e3, -theta), rtol=1e-9)

    def test_double_spacing_grating_lobes(self):
        cfg = make_config(100.0, spacing_factor=1.0)
        theta = np.radians(np.linspace(60.01, 89.99, 20000))
        assert fb.zero_time_cut(cfg, 100.0, theta).max() >= 0.95 * M


class TestLegacyArrayFactor:
    def test_wavefront_arrival_peak(self, cfg200k):
        r = 15e3
        assert fb.legacy_array_factor(cfg200k, 10e3, r / 3e8, r, 0.0) == M

    def test_depends_only_on_retarded_time(self, cfg200k):
        # parameterized by t', range drops out algebraically
        t_prime, theta = 2.1e-6, 0.7
        a = fb.legacy_array_factor(cfg200k, 10e3, t_prime + 18e3 / 3e8, 18e3, theta)
        b = fb.legacy_array_factor(cfg200k, 10e3, t_prime + 27e3 / 3e8, 27e3, theta)
        assert a == pytest.approx(b, rel=1e-9)

    def test_fixed_absolute_time_shifts_mainlobe(self, cfg200k):
        # the literature form: same instant, different ranges, different peak
        theta = fb.theta_grid(2048)
        t = 95e-6
        peak18 = theta[np.argmax(fb.legacy_array_factor(cfg200k, 10e3, t, 18e3, theta))]
        peak27 = theta[np.argmax(fb.legacy_array_factor(cfg200k, 10e3, t, 27e3, theta))]
        width_sine = fb.beamwidth(cfg200k, 10e3)[0]
        assert abs(np.sin(peak18) - np.sin(peak27)) > width_sine


class TestSweepGrid:
    def test_static_field_at_zero_offset(self, rect):
        cfg = make_config(0.0)
        grid = fb.sweep_grid(cfg, fb.UniformPlan(0.0), fb.uniform_weights(M), rect,
                             n_time=32, n_theta=256)
        inside = grid.values[:-1]  # last row sits at t = T_p where the envelope still holds
        assert np.allclose(inside, inside[0])

    def test_closed_form_needs_uniform_plan(self, rect):
        cfg = make_config(0.0)
        plan = fb.TabulatedPlan(offsets=(0.0,) * 16)
        with pytest.raises(fb.UnsupportedPlanError):
            fb.sweep_grid(cfg, plan, fb.uniform_weights(M), rect, 16, 16, engine="closed_form")

    def test_engines_agree_at_zero_offset(self, rect):
        cfg = make_config(0.0)
        exact = fb.sweep_grid(cfg, fb.UniformPlan(0.0), fb.uniform_weights(M), rect,
                              n_time=16, n_theta=128, engine="exact")
        closed = fb.sweep_grid(cfg, fb.UniformPlan(0.0), fb.uniform_weights(M), rect,
                               n_time=16, n_theta=128, engine="closed_form")
        assert np.allclose(exact.values * SQRT_TP, closed.values, atol=1e-9)

    def test_magnitude_bound(self, cfg200k, rect):
        grid = fb.sweep_grid(cfg200k, fb.UniformPlan(200e3), fb.uniform_weights(M), rect,
                             n_time=64, n_theta=256)
        assert grid.values.min() >= 0.0
        assert grid.values.max() <= M / SQRT_TP * (1 + 1e-9)


class TestBeampatternGrid:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            fb.BeampatternGrid(np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.zeros((2, 2)))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            fb.BeampatternGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                               np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_db_conversion_floors(self, cfg200k, rect):
        grid = fb.sweep_grid(cfg200k, fb.UniformPlan(200e3), fb.uniform_weights(M), rect,
                             n_time=16, n_theta=64)
        db = grid.to_db()
        assert db.normalization == "dB-rel-peak"
        assert db.values.max() == pytest.approx(0.0)
        assert db.values.min() >= -60.0

    def test_csv_round_trip(self, tmp_path, cfg200k, rect):
        grid = fb.sweep_grid(cfg200k, fb.UniformPlan(200e3), fb.uniform_weights(M), rect,
                             n_time=8, n_theta=16)
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, path)
        back = grid_from_csv(path)
        assert np.allclose(back.values, grid.values, rtol=1e-9)
        assert np.allclose(back.theta_axis, grid.theta_axis, atol=1e-9)

    def test_binary_round_trip(self, tmp_path, cfg200k, rect):
        grid = fb.sweep_grid(cfg200k, fb.UniformPlan(200e3), fb.uniform_weights(M), rect,
                             n_time=8, n_theta=16)
        path = tmp_path / "grid.bin"
        grid_to_binary(grid, path)
        back = grid_from_binary(path)
        assert np.array_equal(back.values, grid.values)
        assert back.t_axis[0] == grid.t_axis[0]
        assert back.theta_axis[-1] == grid.theta_axis[-1]


def test_csv_artifact_text(tmp_path):
    "Exact text of every CSV writer: %.10g cells, one header line, trailing newline."
    from fdabeam.beampattern_integral import covariance_to_csv, curve_to_csv
    from fdabeam.scan_analytics import trajectory_to_csv

    grid = fb.BeampatternGrid(np.array([0.0, 2.5e-6]), np.radians([-45.0, 0.0, 60.0]),
                              np.array([[1 / 3, 1e-20, 12345678901.0], [-0.0, 0.5, 2.0]]))
    theta = np.radians([-30.0, 0.0, 30.0])
    values = np.array([0.5, 2.0, 1 / 3])
    traj = fb.PeakTrajectory(t=np.array([0.0, 1e-6, 2e-6]), theta=np.radians([10.0, 20.0, -5.5]),
                             ambiguous=np.array([False, True, False]))
    cov = fb.CovarianceMatrix(np.array([[1.0, 0.25 + 1j / 3], [0.25 - 1j / 3, 1.0]]), "mimo", 8)
    writers = {
        "grid": (lambda p: grid_to_csv(grid, p),
                 "t_us,-45,0,60\n0,0.3333333333,1e-20,1.23456789e+10\n2.5,-0,0.5,2\n"),
        "curve_db": (lambda p: curve_to_csv(theta, values, p),
                     "theta_deg,value_db\n-30,-6.020599913\n0,0\n30,-7.781512504\n"),
        "trajectory": (lambda p: trajectory_to_csv(traj, p), "t_us,theta_deg\n0,10\n2,-5.5\n"),
        "covariance": (lambda p: covariance_to_csv(cov, p),
                       "1,0,0.25,0.3333333333\n0.25,-0.3333333333,1,0\n"),
    }
    for name, (write, expected) in writers.items():
        path = tmp_path / f"{name}.csv"
        write(path)
        assert path.read_text() == expected, name
