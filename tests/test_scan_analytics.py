import numpy as np
import pytest

import fdabeam as fb
from fdabeam.scan_analytics import EndfireSingularityError, first_null, zero_time_peaks

from conftest import field_oracle, make_config

M = 16


def measured_4db_width(theta_axis, row):
    "Sine-domain width of the -4 dB region around the row peak, linear interpolation."
    sin_th = np.sin(theta_axis)
    j = int(np.argmax(row))
    level = row[j] * 10 ** (-4 / 20)

    def cross(direction):
        i = j
        while 0 < i < row.size - 1 and row[i] > level:
            i += direction
        a, b = sorted((i, i - direction))
        frac = (level - row[a]) / (row[b] - row[a])
        return sin_th[a] + frac * (sin_th[b] - sin_th[a])

    return cross(+1) - cross(-1)


class TestPredictPeakDirection:
    def test_initial_boresight(self):
        cfg = make_config(200e3)
        assert fb.predict_peak_direction(cfg, 200e3, 0.0, 0) == 0.0

    def test_phased_array_static(self):
        cfg = make_config(0.0)
        for t in (0.0, 1e-6, 5e-6):
            assert fb.predict_peak_direction(cfg, 0.0, t, 0) == 0.0

    def test_quarter_pulse_direction(self):
        cfg = make_config(200e3)
        pred = fb.predict_peak_direction(cfg, 200e3, 1.25e-6, 0)
        assert np.degrees(pred) == pytest.approx(-30.009, abs=1e-3)

    def test_off_sector_returns_none(self):
        cfg = make_config(200e3)
        assert fb.predict_peak_direction(cfg, 200e3, 3.0e-6, 0) is None
        assert fb.predict_peak_direction(cfg, 200e3, 3.0e-6, 1) is not None

    def test_grating_index_selection(self):
        cfg = make_config(400e3)
        for t in np.linspace(0, 5e-6, 23):
            k = round(400e3 * t)
            assert fb.predict_peak_direction(cfg, 400e3, t, k) is not None


class TestScanSpeed:
    def test_zero_offset(self):
        cfg = make_config(0.0)
        assert fb.scan_speed(cfg, 0.0, 0.0) == 0.0

    def test_boresight_magnitude(self):
        # ~ -1.6e5 rad/s, i.e. about 13.7 degrees per 1.5 us
        cfg = make_config(80e3)
        speed = fb.scan_speed(cfg, 80e3, 0.0)
        assert speed == pytest.approx(-1.6e5, rel=1e-3)
        assert np.degrees(abs(speed) * 1.5e-6) == pytest.approx(13.75, abs=0.1)

    def test_finite_difference_consistency(self):
        # central difference of the predicted direction (1 ns step) vs the formula;
        # positive angles are reached on the k = 1 branch after the wrap
        delta_f = 400e3
        cfg = make_config(delta_f)
        checked = 0
        for theta_deg in (-60, -40, -20, 0.0, 20, 40, 60):
            s = np.sin(np.radians(theta_deg))
            k = 0 if theta_deg < 0 else 1
            # invert the itinerary: time at which branch k passes theta
            t = (k - s * (cfg.carrier_freq + delta_f) * cfg.spacing / 3e8) / delta_f
            assert 1e-9 <= t <= cfg.pulse_duration - 1e-9
            dt = 1e-9
            fd = (fb.predict_peak_direction(cfg, delta_f, t + dt, k)
                  - fb.predict_peak_direction(cfg, delta_f, t - dt, k)) / (2 * dt)
            assert fd == pytest.approx(fb.scan_speed(cfg, delta_f, np.radians(theta_deg)),
                                       rel=5e-3)
            checked += 1
        assert checked == 7

    def test_endfire_singularity(self):
        cfg = make_config(80e3)
        with pytest.raises(EndfireSingularityError):
            fb.scan_speed(cfg, 80e3, np.pi / 2)


class TestBeamwidth:
    def test_half_wavelength_values(self):
        cfg = make_config(100.0)
        width_sine, res = fb.beamwidth(cfg, 100.0, 0.0)
        assert width_sine == pytest.approx(2 / M, rel=1e-4)
        assert np.degrees(res) == pytest.approx(7.16, abs=0.01)

    def test_cosine_broadening_at_60deg(self):
        cfg = make_config(100.0)
        _, res0 = fb.beamwidth(cfg, 100.0, 0.0)
        _, res60 = fb.beamwidth(cfg, 100.0, np.radians(60.0))
        assert res60 == pytest.approx(2 * res0)

    def test_large_array_limit(self):
        cfg = make_config(0.0, num_elements=4096)
        assert fb.beamwidth(cfg, 0.0)[0] < 1e-3

    def test_matches_measured_4db_width(self):
        cfg = make_config(100.0)
        theta = fb.theta_grid(16384)
        row = fb.zero_time_cut(cfg, 100.0, theta)
        measured = measured_4db_width(theta, row)
        assert measured == pytest.approx(fb.beamwidth(cfg, 100.0)[0], rel=0.02)

    def test_time_invariance_measured(self):
        # 4-dB width in sine constant over the pulse within 10%
        delta_f = 80e3
        cfg = make_config(delta_f)
        grid = fb.sweep_grid(cfg, fb.UniformPlan(delta_f), fb.uniform_weights(M),
                             fb.rect_pulse(5e-6), n_time=513, n_theta=4096)
        widths = []
        for t_target in (0.0, cfg.pulse_duration / 4, cfg.pulse_duration / 2):
            i = int(np.argmin(np.abs(grid.t_axis - t_target)))
            widths.append(measured_4db_width(grid.theta_axis, grid.values[i]))
        ref = widths[0]
        for w in widths[1:]:
            assert w == pytest.approx(ref, rel=0.10)


class TestScanVolume:
    @pytest.mark.parametrize("delta_f,expected", [(200e3, 2.0), (0.0, 0.0), (400e3, 4.0)])
    def test_examples(self, delta_f, expected):
        cfg = make_config(delta_f)
        exact, approx = fb.scan_volume(cfg, delta_f)
        assert approx == pytest.approx(expected)
        assert exact == pytest.approx(expected, rel=1e-3)


class TestNullsAndPeaks:
    def test_first_null(self):
        cfg = make_config(100.0)
        assert np.degrees(first_null(cfg, 100.0)) == pytest.approx(7.1808, abs=1e-3)

    def test_no_null_single_element(self):
        cfg = fb.ArrayConfig(num_elements=1, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=5e-6)
        assert first_null(cfg, 0.0) is None

    def test_zero_time_peaks_half_wavelength(self):
        cfg = make_config(100.0)
        assert zero_time_peaks(cfg, 100.0) == (0.0,)

    def test_zero_time_peaks_double_spacing(self):
        cfg = make_config(100.0, spacing_factor=1.0)
        peaks = zero_time_peaks(cfg, 100.0)
        assert len(peaks) == 1  # k = +-1 sits just past the visible edge
        assert peaks == (0.0,)


class TestTrajectory:
    def test_static_grid_constant_trajectory(self):
        cfg = make_config(0.0)
        w = fb.steered_weights(cfg, fb.UniformPlan(0.0), np.radians(25.0))
        grid = fb.sweep_grid(cfg, fb.UniformPlan(0.0), w, fb.rect_pulse(5e-6),
                             n_time=32, n_theta=1024)
        traj = fb.measure_peak_trajectory(grid)
        assert not traj.ambiguous.any()
        assert np.degrees(np.abs(traj.theta - np.radians(25.0))).max() < np.degrees(np.pi / 1024)

    def test_rows_below_half_the_peak_are_ambiguous(self):
        # one lobe per row at 1.0, 0.4, 0.5 and 0.6 of the grid peak
        theta = fb.theta_grid(64)
        lobe = np.exp(-0.5 * ((theta - 0.3) / 0.05) ** 2)
        grid = fb.BeampatternGrid(np.arange(4.0), theta,
                                  np.outer([1.0, 0.4, 0.5, 0.6], lobe))
        traj = fb.measure_peak_trajectory(grid)
        assert traj.ambiguous.tolist() == [False, True, False, False]

    def test_slope_matches_speed_law(self):
        delta_f = 200e3
        cfg = make_config(delta_f)
        grid = fb.sweep_grid(cfg, fb.UniformPlan(delta_f), fb.uniform_weights(M),
                             fb.rect_pulse(5e-6), n_time=512, n_theta=1024)
        traj = fb.measure_peak_trajectory(grid)
        t, s = fb.unwrap_sine_track(traj)
        slope = np.polyfit(t, s, 1)[0]
        assert slope == pytest.approx(-2 * delta_f, rel=5e-3)

    @pytest.mark.parametrize("delta_f", [10e3, 30e3, 80e3, 200e3])
    def test_prediction_measurement_agreement(self, delta_f):
        cfg = make_config(delta_f)
        grid = fb.sweep_grid(cfg, fb.UniformPlan(delta_f), fb.uniform_weights(M),
                             fb.rect_pulse(5e-6), n_time=256, n_theta=1024)
        traj = fb.measure_peak_trajectory(grid)
        step = np.pi / 1024
        hits = total = 0
        for t, theta, amb in zip(traj.t, traj.theta, traj.ambiguous):
            if amb:
                continue
            k = round(delta_f * t)
            pred = fb.predict_peak_direction(cfg, delta_f, t, k)
            if pred is None:
                continue
            total += 1
            hits += abs(theta - pred) < step
        assert total > 0
        assert hits / total >= 0.95

    def test_steered_start(self):
        cfg = make_config(40e3)
        w = fb.steered_weights(cfg, fb.UniformPlan(40e3), np.radians(60.0))
        grid = fb.sweep_grid(cfg, fb.UniformPlan(40e3), w, fb.rect_pulse(5e-6),
                             n_time=64, n_theta=1024)
        traj = fb.measure_peak_trajectory(grid)
        assert np.degrees(traj.theta[0]) == pytest.approx(60.0, abs=1.0)

    def test_measured_volume_matches_formula(self):
        delta_f = 400e3
        cfg = make_config(delta_f)
        grid = fb.sweep_grid(cfg, fb.UniformPlan(delta_f), fb.uniform_weights(M),
                             fb.rect_pulse(5e-6), n_time=512, n_theta=1024)
        traj = fb.measure_peak_trajectory(grid)
        measured = fb.measured_scan_volume(traj, cfg.pulse_duration)
        assert measured == pytest.approx(fb.scan_volume(cfg, delta_f)[0], rel=0.05)


class TestPhaseSchedule:
    def test_overlapping_segments_rejected(self):
        cfg = make_config(200e3)
        with pytest.raises(ValueError):
            fb.design_phase_schedule(cfg, 200e3, [
                ((0.0, 3e-6), (0.0, 0.5)),
                ((2e-6, 5e-6), (0.5, 0.0)),
            ])

    def test_bad_times_rejected(self):
        cfg = make_config(200e3)
        with pytest.raises(ValueError):
            fb.design_phase_schedule(cfg, 200e3, [((1e-6, 1e-6), (0.0, 0.1))])
        with pytest.raises(ValueError):
            fb.design_phase_schedule(cfg, 200e3, [((0.0, 6e-6), (0.0, 0.1))])

    def test_hold_segment_keeps_beam_fixed(self):
        delta_f = 200e3
        cfg = make_config(delta_f)
        theta_hold = np.radians(20.0)
        sched = fb.design_phase_schedule(cfg, delta_f,
                                         [((0.0, 5e-6), (theta_hold, theta_hold))],
                                         n_time=64)
        grid = fb.schedule_playback_grid(cfg, delta_f, sched, fb.rect_pulse(5e-6),
                                         fb.uniform_weights(M), n_theta=1024)
        traj = fb.measure_peak_trajectory(grid)
        assert np.degrees(np.abs(traj.theta - theta_hold)).max() < 1.0

    def test_sweep_tracks_itinerary(self):
        delta_f = 200e3
        cfg = make_config(delta_f)
        sched = fb.design_phase_schedule(
            cfg, delta_f, [((0.0, 5e-6), (np.radians(-45.0), np.radians(45.0)))],
            n_time=128)
        grid = fb.schedule_playback_grid(cfg, delta_f, sched, fb.rect_pulse(5e-6),
                                         fb.uniform_weights(M), n_theta=2048)
        traj = fb.measure_peak_trajectory(grid)
        err = np.degrees(np.abs(traj.theta - sched.target_theta))
        assert err.max() < 1.0

    def test_zero_offset_constant_phase_is_static_steering(self):
        cfg = make_config(0.0)
        theta0 = np.radians(-35.0)
        sched = fb.design_phase_schedule(cfg, 0.0, [((0.0, 5e-6), (theta0, theta0))],
                                         n_time=32)
        # with delta_f = 0 the schedule reduces to a constant phased-array phase
        assert np.allclose(sched.phi, -(cfg.carrier_freq / 3e8) * cfg.spacing * np.sin(theta0))
        grid = fb.schedule_playback_grid(cfg, 0.0, sched, fb.rect_pulse(5e-6),
                                         fb.uniform_weights(M), n_theta=1024)
        traj = fb.measure_peak_trajectory(grid)
        assert np.degrees(np.abs(traj.theta - theta0)).max() < 0.5

    def test_playback_matches_per_element_oracle(self):
        delta_f = 200e3
        cfg = make_config(delta_f)
        rect = fb.rect_pulse(5e-6)
        sched = fb.design_phase_schedule(
            cfg, delta_f, [((0.0, 5e-6), (np.radians(-45.0), np.radians(45.0)))], n_time=64)
        w = fb.random_unimodular_weights(M, seed=5)
        grid = fb.schedule_playback_grid(cfg, delta_f, sched, rect, w, n_theta=256)
        offsets = fb.plan_offsets(fb.UniformPlan(delta_f), M)
        m = np.arange(M)
        rng = np.random.default_rng(24)
        for i, j in zip(rng.integers(0, 64, 24), rng.integers(0, 256, 24)):
            w_i = np.asarray(w) * np.exp(-2j * np.pi * m * sched.phi[i])
            want = abs(field_oracle(cfg, offsets, w_i, [rect] * M,
                                    sched.t_grid[i], grid.theta_axis[j]))
            assert grid.values[i, j] == pytest.approx(want, rel=0, abs=1e-9 * M / np.sqrt(5e-6))

    @staticmethod
    def itinerary_by_loop(segs, t_grid):
        """The itinerary rule sample by sample: inside a segment, its linear angle; else
        the end angle of the last segment passed, or the first start angle before any."""
        segs, target = sorted(segs), []
        for t in t_grid:
            angle = segs[0][1][0]
            for (t_a, t_b), (th_a, th_b) in segs:
                if t < t_a:
                    break
                if t <= t_b:
                    angle = th_a + (t - t_a) / (t_b - t_a) * (th_b - th_a)
                    break
                angle = th_b
            target.append(angle)
        return np.array(target)

    def test_itinerary_matches_the_sample_loop(self):
        # segment ends on samples, between samples, adjacent and with gaps, in any order
        cfg = make_config(100e3)
        rng = np.random.default_rng(32)
        for _ in range(300):
            n_time = int(rng.integers(2, 40))
            t_grid = np.linspace(0.0, cfg.pulse_duration, n_time)
            ends = np.concatenate([t_grid[rng.integers(0, n_time, 4)],
                                   rng.uniform(0.0, cfg.pulse_duration, 4)])
            ends = np.unique(ends[rng.random(ends.size) < 0.7])
            if ends.size < 2:
                continue
            pairs = [(a, b) for a, b in zip(ends, ends[1:]) if rng.random() < 0.7] \
                or [(ends[0], ends[1])]
            segs = [((a, b), tuple(rng.uniform(-1.5, 1.5, 2))) for a, b in pairs]
            rng.shuffle(segs)
            sched = fb.design_phase_schedule(cfg, 100e3, segs, n_time=n_time)
            want = self.itinerary_by_loop(segs, sched.t_grid)
            assert sched.target_theta.tobytes() == want.tobytes()

    def test_gap_holds_previous_end_angle(self):
        delta_f = 100e3
        cfg = make_config(delta_f)
        sched = fb.design_phase_schedule(cfg, delta_f, [
            ((0.0, 1e-6), (0.0, np.radians(30.0))),
            ((4e-6, 5e-6), (np.radians(-30.0), np.radians(-30.0))),
        ], n_time=101)
        mid = (sched.t_grid > 1e-6) & (sched.t_grid < 4e-6)
        assert np.allclose(sched.target_theta[mid], np.radians(30.0))


def report_fields(text):
    "The scan report's `key = value` lines as a dict of strings."
    return dict(line.split(" = ") for line in text.splitlines())


class TestScanReport:
    def test_round_trip_fields(self):
        cfg = make_config(200e3)
        text = fb.build_scan_report(cfg, 200e3, t_eval=1.25e-6, k=0)
        fields = report_fields(text)
        assert float(fields["peak_direction_pred_deg"]) == pytest.approx(-30.009, abs=1e-3)
        assert float(fields["scan_volume_approx"]) == pytest.approx(2.0)
        assert fields["grating_index"] == "0"
        assert "scan_volume_exact" in fields
        assert text.endswith("\n")

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_grating_index_is_the_requested_order(self, k):
        # at d = 3 cm, one wavelength, orders -1, 0 and 1 are visible at t' = 0: the report
        # records the order it was built for, not the highest visible one
        cfg = fb.ArrayConfig(num_elements=16, carrier_freq=1e10, spacing=0.03,
                             pulse_duration=5e-6)
        text = fb.build_scan_report(cfg, 100e3, 0.0, k)
        fields = report_fields(text)
        assert len(fields["zero_time_peaks_deg"].split(",")) == 3
        assert fields["grating_index"] == str(k)
        assert f"grating_index = {k}\n" in text

    def test_off_sector_prediction_reported_as_none(self):
        cfg = make_config(200e3)
        fields = report_fields(fb.build_scan_report(cfg, 200e3, t_eval=3e-6, k=0))
        assert fields["peak_direction_pred_deg"] == "none"
        assert fields["scan_speed_deg_per_us"] == "none"
        assert fields["azimuth_resolution_deg"] == "none"


class TestLargeOffsetRatio:
    """The (f_c + delta_f) scan laws against an exact grid at delta_f/f_c = 0.2.

    Two elements on a 4 MHz carrier with delta_f = 800 kHz and T_p = 1 us
    (delta_f*T_p = 0.8). With two elements the laws are exact: the one element
    pair's phase difference is 2*pi*(delta_f*t' + (f_c + delta_f)*d*sin(theta)/c),
    so each row is 2|cos(a*(sin(theta) - s*))|, a = pi*(f_c + delta_f)*d/c, peaking
    where the laws put s*. With f_c alone they would be 20% off here, where the
    other tests' 10 GHz carrier and offsets up to 400 kHz leave 4e-5.

    Tolerances come from the sine spacing h <= pi/N_theta of the azimuth samples.
    The three-point parabola of measure_peak_trajectory is exact for a quadratic,
    and the cosine's quartic term moves its vertex by at most a^2*h^3/24; the
    checks allow a^2*h^3 for a refined peak, and h^2 for a peak left on the edge
    sample, whose sine lies within h^2/8 of 1.
    """

    DELTA_F, N_THETA = 800e3, 1024
    H = np.pi / N_THETA

    def config(self, spacing_factor):
        return make_config(self.DELTA_F, num_elements=2, carrier=4e6, pulse=1e-6,
                           spacing_factor=spacing_factor)

    def peak_tolerance(self, cfg):
        a = np.pi * (cfg.carrier_freq + self.DELTA_F) * cfg.spacing / cfg.wave_speed
        return a * a * self.H ** 3

    def trajectory(self):
        # half a wavelength at f_c + delta_f: the peaks repeat every 2 in sine, so each
        # row has one peak in view and the track wraps once over the pulse
        cfg = self.config(0.5)
        grid = fb.sweep_grid(cfg, fb.UniformPlan(self.DELTA_F), fb.uniform_weights(2),
                             fb.rect_pulse(cfg.pulse_duration), n_time=256, n_theta=self.N_THETA)
        traj = fb.measure_peak_trajectory(grid)
        assert not traj.ambiguous.any()
        pred = np.array([fb.predict_peak_direction(cfg, self.DELTA_F, t, round(self.DELTA_F * t))
                         for t in traj.t])
        return cfg, traj, pred, np.abs(pred) <= np.radians(60.0)

    def test_peak_direction(self):
        cfg, traj, pred, inner = self.trajectory()
        assert inner.sum() > 200
        err = np.abs(np.sin(traj.theta) - np.sin(pred))[inner]
        assert err.max() <= self.peak_tolerance(cfg)

    def test_scan_speed(self):
        # central differences of the measured track: the truncation term
        # (v*dt)^2*(1 + 2s^2)/(6(1 - s^2)^2) of the rate, v = |ds/dt'|, plus the peak
        # error over v*dt; twice their sum leaves room for higher orders
        cfg, traj, _, inner = self.trajectory()
        i = np.flatnonzero(inner[:-2] & inner[1:-1] & inner[2:]) + 1
        dt = traj.t[1] - traj.t[0]
        rate = (traj.theta[i + 1] - traj.theta[i - 1]) / (2 * dt)
        speed = np.array([fb.scan_speed(cfg, self.DELTA_F, th) for th in traj.theta[i]])
        s2 = np.sin(traj.theta[i]) ** 2
        v_dt = cfg.wave_speed * self.DELTA_F / ((cfg.carrier_freq + self.DELTA_F)
                                                * cfg.spacing) * dt
        bound = v_dt ** 2 * (1 + 2 * s2) / (6 * (1 - s2) ** 2) + self.peak_tolerance(cfg) / v_dt
        assert np.all(np.abs(rate / speed - 1) <= 2 * bound)

    def test_scan_volume(self):
        # every row's sine lies within h^2 of the straight unwrapped track, and a
        # least-squares slope over the pulse moves by at most 3x that per T_p
        cfg, traj, _, _ = self.trajectory()
        measured = fb.measured_scan_volume(traj, cfg.pulse_duration)
        assert abs(measured - fb.scan_volume(cfg, self.DELTA_F)[0]) <= 3 * self.H ** 2

    def test_zero_time_peaks(self):
        # 1.2 wavelengths at f_c + delta_f: the zero-time row shows the k = -1, 0, 1 peaks
        cfg = self.config(1.2)
        grid = fb.sweep_grid(cfg, fb.UniformPlan(self.DELTA_F), fb.uniform_weights(2),
                             fb.rect_pulse(cfg.pulse_duration), n_time=2, n_theta=self.N_THETA)
        row = grid.values[0]
        measured = []
        for j in range(1, self.N_THETA - 1):
            if row[j - 1] < row[j] >= row[j + 1]:
                cut = fb.BeampatternGrid(grid.t_axis[:1], grid.theta_axis[j - 1:j + 2],
                                         grid.values[:1, j - 1:j + 2])
                measured.append(fb.measure_peak_trajectory(cut).theta[0])
        peaks = zero_time_peaks(cfg, self.DELTA_F)
        assert len(peaks) == len(measured) == 3
        assert np.abs(np.sin(measured) - np.sin(peaks)).max() <= self.peak_tolerance(cfg)
