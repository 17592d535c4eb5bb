import numpy as np
import pytest

import fdabeam as fb
from fdabeam.beampattern_integral import default_quadrature_samples

from conftest import make_config

M = 16
TP = 5e-6


def fgtb_direct_oracle(config, offsets, waveforms, w, theta, n_q):
    """Ground truth: integrate |sum_m w_m^c s_m(t) e^{j2pi df_m t} e^{j2pi(fc+df_m)md sin/c}|^2.

    Never forms a covariance matrix; same trapezoid rule on the same grid.
    """
    t = np.linspace(0.0, config.pulse_duration, n_q)
    w = np.asarray(w)
    acc = np.zeros(n_q, dtype=complex)
    for m in range(config.num_elements):
        steer = np.exp(2j * np.pi * (config.carrier_freq + offsets[m]) * m
                       * config.spacing * np.sin(theta) / config.wave_speed)
        acc += w[m].conjugate() * waveforms[m].sample(t) \
            * np.exp(2j * np.pi * offsets[m] * t) * steer
    return np.trapezoid(np.abs(acc) ** 2, t) / config.pulse_duration


@pytest.fixture
def cfg():
    return make_config(0.0)


@pytest.fixture
def rect_bank():
    return [fb.rect_pulse(TP)] * M


class TestCovariance:
    def test_identical_pulses_zero_offset_all_ones(self, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(0.0), "fda", 4096)
        assert np.allclose(r.entries, 1.0, atol=1e-12)

    def test_harmonic_offsets_give_identity(self, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(1 / TP), "fda", 4096)
        assert np.allclose(r.entries, np.eye(M), atol=1e-6)
        assert r.max_off_diagonal() < 1e-12

    def test_unit_diagonal_for_unit_energy(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        n_q = default_quadrature_samples(cfg, bank, fb.UniformPlan(10e6))
        r = fb.covariance(bank, fb.UniformPlan(10e6), "fda", n_q)
        assert np.abs(np.diag(r.entries) - 1.0).max() < 1e-6

    def test_hermitian_and_psd(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        for delta_f in (0.0, 1e6, 10e6):
            n_q = default_quadrature_samples(cfg, bank, fb.UniformPlan(delta_f))
            r = fb.covariance(bank, fb.UniformPlan(delta_f), "fda", n_q)
            assert np.abs(r.entries - r.entries.conj().T).max() <= 1e-10
            trace = np.real(np.trace(r.entries))
            assert np.linalg.eigvalsh(r.entries).min() >= -1e-8 * trace
            assert trace == pytest.approx(M, abs=1e-5)

    def test_chirp_bank_orthogonal_regime_off_diagonals(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        n_q = default_quadrature_samples(cfg, bank, fb.UniformPlan(10e6))
        r = fb.covariance(bank, fb.UniformPlan(10e6), "fda", n_q)
        worst = r.max_off_diagonal()
        print(f"chirp bank off-diagonal peak at delta_f = B: {worst:.4e}")
        assert worst < 0.05

    def test_undersampling_rejected(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        with pytest.raises(fb.SamplingError):
            fb.covariance(bank, fb.UniformPlan(10e6), "fda", 64)

    def test_mimo_flavor_ignores_plan(self, rect_bank):
        a = fb.covariance(rect_bank, fb.UniformPlan(1 / TP), "mimo", 4096)
        b = fb.covariance(rect_bank, None, "mimo", 4096)
        assert np.array_equal(a.entries, b.entries)
        assert np.allclose(a.entries, 1.0, atol=1e-12)

    def test_bad_flavor(self, rect_bank):
        with pytest.raises(ValueError):
            fb.covariance(rect_bank, None, "sonar", 4096)


class TestFgtb:
    def test_zero_weights(self, cfg, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(0.0), "fda", 4096)
        val = fb.fgtb(r, cfg, fb.UniformPlan(0.0), np.zeros(M, dtype=complex), 0.3)
        assert val[0] == 0.0

    def test_orthogonal_regime_flat_m_over_tp(self, cfg, rect_bank):
        plan = fb.UniformPlan(1 / TP)
        r = fb.covariance(rect_bank, plan, "fda", 4096)
        theta = fb.theta_grid(64)
        vals = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), theta)
        assert np.allclose(vals, M / TP, rtol=1e-9)

    def test_coherent_regime_m_squared_over_tp(self, cfg, rect_bank):
        plan = fb.UniformPlan(0.0)
        r = fb.covariance(rect_bank, plan, "fda", 4096)
        val = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), 0.0)
        assert val[0] == pytest.approx(M**2 / TP, rel=1e-9)

    def test_trace_equals_quadratic(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(3e6)
        n_q = default_quadrature_samples(cfg, bank, plan)
        r = fb.covariance(bank, plan, "fda", n_q)
        theta = fb.theta_grid(17)
        w = fb.random_unimodular_weights(M, seed=11)
        quad = fb.fgtb(r, cfg, plan, w, theta)
        v = np.asarray(w)[None, :] * fb.combined_angle_steering(cfg, plan, theta).conj()
        trace = np.array([np.real(np.trace(r.entries @ np.outer(row, row.conj())))
                          for row in v]) / TP
        assert np.allclose(quad, trace, rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nonnegative_quadratic_form(self, cfg, seed):
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(2e6)
        n_q = default_quadrature_samples(cfg, bank, plan)
        r = fb.covariance(bank, plan, "fda", n_q)
        w = fb.random_unimodular_weights(M, seed=seed)
        vals = fb.fgtb(r, cfg, plan, w, fb.theta_grid(65))
        assert vals.min() >= -1e-12

    @pytest.mark.parametrize("delta_f", [0.0, 1e6, 10e6])
    def test_direct_double_integration_oracle(self, cfg, delta_f):
        # module ground truth at five spot angles
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(delta_f)
        n_q = default_quadrature_samples(cfg, bank, plan)
        r = fb.covariance(bank, plan, "fda", n_q)
        w = fb.random_unimodular_weights(M, seed=5)
        offsets = fb.plan_offsets(plan, M)
        for theta in np.radians([-70.0, -30.0, 0.0, 20.0, 55.0]):
            got = fb.fgtb(r, cfg, plan, w, theta)[0]
            want = fgtb_direct_oracle(cfg, offsets, bank, w, theta, n_q)
            assert got == pytest.approx(want, rel=1e-6)

    def test_tabulated_plan_oracle(self, cfg):
        offsets = fb.generate_offsets(fb.FoCoding("logarithmic", 50e3), M)
        plan = fb.TabulatedPlan(offsets=tuple(offsets))
        bank = fb.make_chirp_bank(cfg)
        n_q = default_quadrature_samples(cfg, bank, plan)
        r = fb.covariance(bank, plan, "fda", n_q)
        w = fb.uniform_weights(M)
        for theta in np.radians([-45.0, 10.0]):
            got = fb.fgtb(r, cfg, plan, w, theta)[0]
            want = fgtb_direct_oracle(cfg, offsets, bank, w, theta, n_q)
            assert got == pytest.approx(want, rel=1e-6)

    def test_flavor_mismatch(self, cfg, rect_bank):
        r = fb.covariance(rect_bank, None, "mimo", 4096)
        with pytest.raises(fb.FlavorMismatchError):
            fb.fgtb(r, cfg, fb.UniformPlan(0.0), fb.uniform_weights(M), 0.0)

    def test_monotone_coherence_loss(self, cfg):
        # peak-to-mean ratio non-increasing through 0, 0.1B, 0.5B, B
        bank = fb.make_chirp_bank(cfg)
        theta = fb.theta_grid(513)
        ratios = []
        for delta_f in (0.0, 1e6, 5e6, 10e6):
            plan = fb.UniformPlan(delta_f)
            n_q = default_quadrature_samples(cfg, bank, plan)
            r = fb.covariance(bank, plan, "fda", n_q)
            vals = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), theta)
            ratios.append(vals.max() / vals.mean())
        print("peak-to-mean ratios:", [f"{v:.3f}" for v in ratios])
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a * (1 + 1e-9)

    def test_flat_at_orthogonality(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(10e6)
        n_q = default_quadrature_samples(cfg, bank, plan)
        r = fb.covariance(bank, plan, "fda", n_q)
        vals = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), fb.theta_grid(721))
        assert 10 * np.log10(vals.max() / vals.min()) < 1.0


class TestCovarianceCsv:
    def test_interleaved_real_imag(self, tmp_path, cfg):
        from fdabeam.beampattern_integral import covariance_to_csv

        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(1e6)
        r = fb.covariance(bank, plan, "fda",
                          default_quadrature_samples(cfg, bank, plan))
        path = tmp_path / "cov.csv"
        covariance_to_csv(r, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == M
        cells = [float(v) for v in rows[3].split(",")]
        assert len(cells) == 2 * M
        rebuilt = np.array(cells[0::2]) + 1j * np.array(cells[1::2])
        assert np.allclose(rebuilt, r.entries[3], rtol=1e-9, atol=1e-12)


class TestMimoBeampattern:
    def test_orthogonal_flat_norm_squared(self, cfg, rect_bank):
        shifted = [fb.with_freq_offset(wf, m / TP) for m, wf in enumerate(rect_bank)]
        r = fb.covariance(shifted, None, "mimo", 8192)
        vals = fb.mimo_beampattern(r, cfg, fb.uniform_weights(M), fb.theta_grid(64))
        assert np.allclose(vals, M, rtol=1e-6)

    def test_coherent_boresight(self, cfg, rect_bank):
        r = fb.covariance(rect_bank, None, "mimo", 4096)
        val = fb.mimo_beampattern(r, cfg, fb.uniform_weights(M), 0.0)
        assert val[0] == pytest.approx(M**2, rel=1e-9)

    def test_flavor_mismatch(self, cfg, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(0.0), "fda", 4096)
        with pytest.raises(fb.FlavorMismatchError):
            fb.mimo_beampattern(r, cfg, fb.uniform_weights(M), 0.0)


class TestEquivalenceBounds:
    def test_sixteen_elements(self):
        cfg = make_config(0.0)
        lower, upper = fb.equivalence_fo_bounds(cfg, 10e6)
        assert upper == 1e10 / 1008
        assert lower == 0.0  # (16*10e6 - 1e10)/32 < 0, clamped

    def test_positive_lower_bound(self):
        cfg = make_config(0.0)
        lower, _ = fb.equivalence_fo_bounds(cfg, 1e9)
        assert lower == pytest.approx((16 * 1e9 - 1e10) / 32)

    def test_single_element(self):
        cfg = fb.ArrayConfig(num_elements=1, carrier_freq=1e10, spacing=0.015,
                             pulse_duration=TP)
        _, upper = fb.equivalence_fo_bounds(cfg, 1e6)
        assert upper == pytest.approx(1e10 / 3)


class TestCompareFgtbMimo:
    def test_zero_offset_exactly_zero(self):
        cfg = make_config(0.0, num_elements=40)
        bank = fb.make_chirp_bank(cfg)
        cmp = fb.compare_fgtb_mimo(cfg, fb.UniformPlan(0.0), bank,
                                   fb.uniform_weights(40), fb.theta_grid(181))
        assert cmp.max_deviation == 0.0

    @pytest.mark.parametrize("weights_seed", [None, 12345])
    def test_chirp_scenario_overlap(self, weights_seed):
        cfg = make_config(0.0, num_elements=40)
        bank = fb.make_chirp_bank(cfg)
        w = fb.uniform_weights(40) if weights_seed is None \
            else fb.random_unimodular_weights(40, weights_seed)
        cmp = fb.compare_fgtb_mimo(cfg, fb.UniformPlan(10e6), bank, w, fb.theta_grid(361))
        print(f"fgtb/mimo deviation (seed={weights_seed}): {cmp.max_deviation:.4e}")
        assert cmp.max_deviation < 0.05

    def test_normalized_curves_peak_at_one(self):
        cfg = make_config(0.0, num_elements=40)
        bank = fb.make_chirp_bank(cfg)
        cmp = fb.compare_fgtb_mimo(cfg, fb.UniformPlan(1e6), bank,
                                   fb.uniform_weights(40), fb.theta_grid(181))
        assert cmp.fgtb_normalized.max() == 1.0
        assert cmp.mimo_normalized.max() == 1.0
        assert cmp.fgtb_peak > 0 and cmp.mimo_peak > 0
