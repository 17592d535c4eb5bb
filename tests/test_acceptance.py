"""Acceptance suite: one test per criterion, printing one pass line each.

Every tolerance is pinned here; independent oracles (root finds, brute-force
field sums, direct double integration) are computed in-test rather than
trusting the library paths they check.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import fdabeam as fb
from fdabeam import cli
from fdabeam.beampattern_instant import exact_field_matrix
from fdabeam.beampattern_integral import default_quadrature_samples

from conftest import make_config
from test_beampattern_integral import fgtb_direct_oracle

M = 16
TP = 5e-6
RECT = fb.rect_pulse(TP)


def report(num, text):
    print(f"criterion {num:02d} PASS: {text}")


def trajectory_for(delta_f, weights=None, n_time=512, n_theta=1024):
    cfg = make_config(delta_f)
    plan = fb.UniformPlan(delta_f)
    w = weights if weights is not None else fb.uniform_weights(M)
    grid = fb.sweep_grid(cfg, plan, w, RECT, n_time=n_time, n_theta=n_theta)
    return cfg, fb.measure_peak_trajectory(grid)


def test_criterion_01_zero_time_cut():
    start = time.perf_counter()
    delta_f = 100.0
    cfg = make_config(delta_f)  # d = lambda0/2

    # peak M at boresight
    assert fb.zero_time_cut(cfg, delta_f, 0.0) == M

    # independent root-find oracle on the cut's numerator
    ups = lambda th: np.pi * (cfg.carrier_freq + delta_f) * cfg.spacing \
        * np.sin(th) / cfg.wave_speed
    null_oracle = brentq(lambda th: np.sin(M * ups(th)), np.radians(1.0), np.radians(12.0))
    assert fb.zero_time_cut(cfg, delta_f, null_oracle) < 1e-6
    assert np.degrees(null_oracle) == pytest.approx(7.18, abs=0.1)

    # doubled spacing: grating lobes of height >= 0.95 M beyond +-60 degrees
    cfg_wide = make_config(delta_f, spacing_factor=1.0)
    theta = fb.theta_grid(16384)
    cut = fb.zero_time_cut(cfg_wide, delta_f, theta)
    beyond_pos = cut[np.degrees(theta) > 60.0]
    beyond_neg = cut[np.degrees(theta) < -60.0]
    assert beyond_pos.max() >= 0.95 * M
    assert beyond_neg.max() >= 0.95 * M

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"zero-time cut: null at {np.degrees(null_oracle):.3f} deg, "
              f"grating lobes {beyond_pos.max():.2f} >= {0.95 * M}, {elapsed:.2f} s")


def test_criterion_02_scan_volume():
    start = time.perf_counter()
    for delta_f, sweeps in ((10e3, None), (30e3, None), (200e3, 1), (400e3, 2)):
        cfg, traj = trajectory_for(delta_f)
        measured = fb.measured_scan_volume(traj, cfg.pulse_duration)
        expected = fb.scan_volume(cfg, delta_f)[0]
        assert measured == pytest.approx(expected, rel=0.05), f"delta_f={delta_f}"
        if sweeps is not None:
            # full sector = 2 sine units per sweep; also count the wrap events
            assert measured == pytest.approx(2.0 * sweeps, rel=0.05)
            t, s = fb.unwrap_sine_track(traj)
            wraps = int(np.sum(np.abs(np.diff(np.sin(traj.theta[~traj.ambiguous]))) > 1.0))
            assert wraps == sweeps

    cfg, traj = trajectory_for(0.0)
    assert np.abs(traj.theta - traj.theta[0]).max() < np.pi / 1024

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"scan volume matches the closed form within 5% for 10/30/200/400 kHz, "
              f"static at 0 Hz, {elapsed:.1f} s")


def test_criterion_03_scan_speed_nonlinearity():
    delta_f = 80e3
    cfg, traj = trajectory_for(delta_f)
    theta_deg = np.degrees(traj.theta)

    first = abs(np.interp(1.5e-6, traj.t, theta_deg) - theta_deg[0])
    last = abs(theta_deg[-1] - np.interp(TP - 1.5e-6, traj.t, theta_deg))
    assert first == pytest.approx(14.0, abs=2.0)
    assert last == pytest.approx(20.0, abs=2.0)

    # stride finite differences of the measured track against the closed form
    stride = 16
    dt = traj.t[1] - traj.t[0]
    checked = 0
    for i in range(stride, traj.t.size - stride):
        th = traj.theta[i]
        if abs(th) > np.radians(60.0):
            continue
        fd = (traj.theta[i + stride] - traj.theta[i - stride]) / (2 * stride * dt)
        assert fd == pytest.approx(fb.scan_speed(cfg, delta_f, th), rel=0.05)
        checked += 1
    assert checked > 100
    report(3, f"windows {first:.1f}/{last:.1f} deg vs 14/20, slope matches the "
              f"cosine law within 5% at {checked} samples")


def test_criterion_04_initial_mainlobe_direction():
    delta_f = 40e3
    _, traj_uniform = trajectory_for(delta_f)
    assert np.degrees(traj_uniform.theta[0]) == pytest.approx(0.0, abs=0.5)

    cfg = make_config(delta_f)
    steered = fb.steered_weights(cfg, fb.UniformPlan(delta_f), np.radians(60.0))
    _, traj_steered = trajectory_for(delta_f, weights=steered)
    assert np.degrees(traj_steered.theta[0]) == pytest.approx(60.0, abs=1.0)
    report(4, f"start angles {np.degrees(traj_uniform.theta[0]):.3f} and "
              f"{np.degrees(traj_steered.theta[0]):.3f} deg")


def test_criterion_05_range_independence(tmp_path):
    sc = cli.load_scenario(cli.presets_mod.preset_text("fig6"))
    out = cli.execute_scenario(sc, tmp_path)

    # retarded-time grids carry no range dependence: byte-identical artifacts
    fitb18 = (out / "fitb_r18km.csv").read_bytes()
    fitb27 = (out / "fitb_r27km.csv").read_bytes()
    assert fitb18 == fitb27
    # the CLI computes that grid once and writes it per range, so also check the
    # engine itself: the field at absolute time r/c + t' is the same at both ranges
    rng = np.random.default_rng(5)
    c = sc.config.wave_speed
    bound = sc.config.num_elements / np.sqrt(sc.config.pulse_duration)
    for t_ret, th in zip(rng.uniform(0.05 * TP, 0.95 * TP, 6), rng.uniform(-1.5, 1.5, 6)):
        f18, f27 = (fb.field_exact(sc.config, sc.plan, sc.weights, sc.waveforms,
                                   fb.EvalPoint.from_absolute(r / c + t_ret, r, th, c))
                    for r in (18e3, 27e3))
        assert abs(f18 - f27) <= 1e-9 * bound

    # the legacy form at matched absolute instants moves the mainlobe with range
    from fdabeam.beampattern_instant import grid_from_csv

    legacy18 = grid_from_csv(out / "legacy_r18km.csv")
    legacy27 = grid_from_csv(out / "legacy_r27km.csv")
    assert np.array_equal(legacy18.t_axis, legacy27.t_axis)
    cfg = make_config(10e3)
    width_sine = fb.beamwidth(cfg, 10e3)[0]
    shifts = []
    for row18, row27 in zip(legacy18.values, legacy27.values):
        s18 = np.sin(legacy18.theta_axis[np.argmax(row18)])
        s27 = np.sin(legacy27.theta_axis[np.argmax(row27)])
        shifts.append(abs(s18 - s27))
    shifts = np.asarray(shifts)
    assert (shifts > width_sine).all()
    mid = len(shifts) // 2
    shift_deg = np.degrees(np.arcsin(min(1.0, shifts[mid]))) if shifts[mid] <= 1 else float("nan")
    report(5, f"retarded-time grids byte-identical; legacy mainlobe shift "
              f"{shifts[mid]:.3f} sine units (~{shift_deg:.1f} deg) > beamwidth {width_sine:.3f}")


def test_criterion_06_oracle_equivalence_small_offset():
    delta_f = 10e3
    cfg = make_config(delta_f)
    t = np.linspace(0.0, TP, 256)
    theta = fb.theta_grid(512)
    exact = np.abs(exact_field_matrix(cfg, fb.UniformPlan(delta_f),
                                      fb.uniform_weights(M), RECT, t, theta)) * np.sqrt(TP)
    closed = fb.fitb_closed_form(cfg, delta_f, t[:, None], theta[None, :])
    deviation = np.max(np.abs(exact - closed)) / M
    assert deviation < 0.02
    report(6, f"closed form within {100 * deviation:.3f}% of the exact oracle (< 2%)")


@pytest.mark.parametrize("name,plan_offsets", [
    ("logarithmic 50 kHz", fb.generate_offsets(fb.FoCoding("logarithmic", 50e3), M)),
    ("square 1 kHz", fb.generate_offsets(fb.FoCoding("square", 1e3), M)),
    ("costas 5 kHz", fb.generate_offsets(fb.FoCoding("costas", 5e3), M)),
    ("random 100 kHz", fb.generate_offsets(fb.FoCoding("random", 100e3, seed=20230301), M)),
])
def test_criterion_07_focused_nonlinear_fo(name, plan_offsets):
    cfg = make_config(0.0)
    plan = fb.TabulatedPlan(offsets=tuple(plan_offsets))
    grid = fb.sweep_grid(cfg, plan, fb.uniform_weights(M), RECT, n_time=256, n_theta=513)

    # global peak in the first time row, at the boresight cell
    i_t, i_th = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert i_t == 0
    assert grid.theta_axis[i_th] == pytest.approx(0.0, abs=np.pi / 513)

    # A coding df_m = a + b*m + r_m scans like a uniform offset b, its
    # least-squares slope over m: the common part a only rotates the phase,
    # and the residual r_m, which has no linear trend, reshapes the beam but
    # does not scan it.  The monotone codings (logarithmic, square) carry a
    # large slope (7.8 kHz and 15 kHz), so by the paper's scan law their beams
    # leave boresight during the pulse (-4.5 and -8.6 deg at pulse end) and
    # their time averages sit at -2.1 and -3.9 deg.  Costas and random codings
    # carry a small slope and stay focused.  So, for every coding:
    #   (a) the measured track follows predict_peak_direction at the slope,
    #       within 0.5 deg (about 1.5 azimuth cells of this grid);
    #   (b) the time-averaged peak lies within the 2-degree budget of the
    #       pulse-averaged closed form at the slope;
    #   (c) where the predicted sweep is below 1/M sine units, the time average
    #       stays within 2 deg of boresight: it sits near the middle of the
    #       sweep, so it is then within about asin(1/(2M)) = 1.8 deg of it.
    m = np.arange(M)
    delta_f_eff = np.polyfit(m, plan_offsets, 1)[0]
    sweep = abs(fb.scan_volume(cfg, delta_f_eff)[0])
    head = f"{name}: delta_f_eff {delta_f_eff:.1f} Hz, predicted sweep {sweep:.4f} sine units"

    traj = fb.measure_peak_trajectory(grid)
    keep = ~traj.ambiguous
    assert keep.any(), head
    predicted = np.array([fb.predict_peak_direction(cfg, delta_f_eff, t) for t in traj.t])
    track_err_deg = np.degrees(np.abs(traj.theta - predicted))[keep]
    worst = int(np.flatnonzero(keep)[np.argmax(track_err_deg)])
    assert track_err_deg.max() < 0.5, (
        f"{head}; at t' = {traj.t[worst] * 1e6:.2f} us the peak is at "
        f"{np.degrees(traj.theta[worst]):.2f} deg, predicted {np.degrees(predicted[worst]):.2f} deg")

    mean_pattern = grid.values.mean(axis=0)
    peak_deg = np.degrees(grid.theta_axis[np.argmax(mean_pattern)])
    closed_mean = fb.fitb_closed_form(cfg, delta_f_eff, grid.t_axis[:, None],
                                      grid.theta_axis[None, :]).mean(axis=0)
    pred_peak_deg = np.degrees(grid.theta_axis[np.argmax(closed_mean)])
    assert peak_deg == pytest.approx(pred_peak_deg, abs=2.0), (
        f"{head}; time-averaged peak at {peak_deg:.2f} deg, predicted {pred_peak_deg:.2f} deg")

    focused = sweep < 1.0 / M
    if focused:
        assert peak_deg == pytest.approx(0.0, abs=2.0), (
            f"{head} < 1/M; time-averaged peak at {peak_deg:.2f} deg exceeds the "
            f"2-degree boresight budget")
    report(7, f"{head}; zero-time peak at boresight, track within "
              f"{track_err_deg.max():.2f} deg (< 0.5) of the scan law, pulse-end peak "
              f"{np.degrees(traj.theta[-1]):.2f} deg (predicted {np.degrees(predicted[-1]):.2f}), "
              f"time-averaged peak {peak_deg:.2f} deg (predicted {pred_peak_deg:.2f}, |.| <= 2"
              + (", boresight |.| <= 2)" if focused else ")"))


def test_criterion_08_fgtb_regimes():
    cfg = make_config(0.0)
    bank = fb.make_chirp_bank(cfg)
    b_s = 10e6

    # orthogonal regime: flat within 1 dB
    plan_b = fb.UniformPlan(b_s)
    n_q = default_quadrature_samples(cfg, bank, plan_b)
    r_orth = fb.covariance(bank, plan_b, "fda", n_q)
    theta = fb.theta_grid(721)
    flat = fb.fgtb(r_orth, cfg, plan_b, fb.uniform_weights(M), theta)
    ripple_db = 10 * np.log10(flat.max() / flat.min())
    assert ripple_db < 1.0

    # coherent regime: identical waveforms, zero offset
    same = [bank[0]] * M
    r_coh = fb.covariance(same, fb.UniformPlan(0.0), "fda", n_q)
    coherent = fb.fgtb(r_coh, cfg, fb.UniformPlan(0.0), fb.uniform_weights(M), theta)
    ratio_db = 10 * np.log10(coherent.max() / flat.mean())
    assert ratio_db == pytest.approx(10 * np.log10(M), abs=0.5)

    # ground truth: direct double integration at five spot angles
    w = fb.random_unimodular_weights(M, seed=9)
    offsets = fb.plan_offsets(plan_b, M)
    for th in np.radians([-70.0, -25.0, 0.0, 40.0, 65.0]):
        got = fb.fgtb(r_orth, cfg, plan_b, w, th)[0]
        want = fgtb_direct_oracle(cfg, offsets, bank, w, th, n_q)
        assert got == pytest.approx(want, rel=1e-6)
    report(8, f"ripple {ripple_db:.2f} dB < 1, coherent gain {ratio_db:.2f} dB "
              f"vs {10 * np.log10(M):.2f} +- 0.5, oracle match at 5 angles")


def test_criterion_09_fgtb_mimo_equivalence(tmp_path):
    cfg = make_config(0.0, num_elements=40)
    bank = fb.make_chirp_bank(cfg)
    theta = fb.theta_grid(721)
    weights = {
        "uniform": fb.uniform_weights(40),
        "random": fb.random_unimodular_weights(40, seed=20230902),
    }
    measured = {}
    for label, w in weights.items():
        zero = fb.compare_fgtb_mimo(cfg, fb.UniformPlan(0.0), bank, w, theta)
        assert zero.max_deviation == 0.0, label
        full = fb.compare_fgtb_mimo(cfg, fb.UniformPlan(10e6), bank, w, theta)
        measured[label] = full.max_deviation
        if full.max_deviation >= 0.05:
            # documented-discrepancy path: record the measured value
            path = tmp_path / f"mimo_discrepancy_{label}.txt"
            path.write_text(f"max_deviation = {full.max_deviation:.6e}\n")
            warnings.warn(f"fgtb/mimo deviation {full.max_deviation:.3e} >= 5% ({label}); "
                          f"recorded in {path}")
        else:
            assert full.max_deviation < 0.05
    report(9, "zero-offset curves identical; at B the deviations are "
              + ", ".join(f"{k}={v:.2e}" for k, v in measured.items()))


def test_criterion_10_covariance_properties():
    cfg = make_config(0.0)
    bank = fb.make_chirp_bank(cfg)
    cases = []
    for delta_f in (0.0, 1e6, 10e6):
        plan = fb.UniformPlan(delta_f)
        n_q = default_quadrature_samples(cfg, bank, plan)
        cases.append(fb.covariance(bank, plan, "fda", n_q))
    cases.append(fb.covariance(bank, None, "mimo",
                               default_quadrature_samples(cfg, bank)))
    rect_bank = [RECT] * M
    harmonic = fb.covariance(rect_bank, fb.UniformPlan(2 / TP), "fda", 4096)
    cases.append(harmonic)

    for r in cases:
        e = r.entries
        assert np.abs(e - e.conj().T).max() <= 1e-10
        trace = float(np.real(np.trace(e)))
        assert np.linalg.eigvalsh(e).min() >= -1e-8 * trace
        assert np.abs(np.diag(e) - 1.0).max() < 1e-6

    assert np.abs(harmonic.entries - np.eye(M)).max() < 1e-6
    report(10, f"{len(cases)} covariances Hermitian/PSD/unit-diagonal; "
               "harmonic rect case is the identity")


def test_criterion_11_equivalence_bound_exact():
    cfg = make_config(0.0)
    _, upper = fb.equivalence_fo_bounds(cfg, 10e6)
    assert upper == 1e10 / 1008
    report(11, f"upper bound {upper:.6f} Hz == f_c/1008 bit-exactly")
