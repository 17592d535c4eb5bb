import numpy as np
import pytest

import fdabeam as fb
from fdabeam.beampattern_integral import PANEL_CYCLES, PANEL_ORDER, default_quadrature_samples

from conftest import make_config

M = 16
TP = 5e-6


ORACLE_INTERVALS = 1 << 15


def fgtb_direct_oracle(config, offsets, waveforms, w, theta):
    """Ground truth: integrate |sum_m w_m^c s_m(t) e^{j2pi df_m t} e^{j2pi(fc+df_m)md sin/c}|^2.

    Never forms a covariance matrix and shares no rule with the library: one Richardson
    step on trapezoids of ORACLE_INTERVALS and twice as many intervals (Simpson's rule,
    error O(h^4)).  On the 16-element chirp bank at 0-10 MHz it reads within 7e-12 of
    the library's Gauss-Legendre result.
    """
    w = np.asarray(w)

    def trapezoid(intervals):
        t = np.linspace(0.0, config.pulse_duration, intervals + 1)
        acc = np.zeros(t.size, dtype=complex)
        for m in range(config.num_elements):
            steer = np.exp(2j * np.pi * (config.carrier_freq + offsets[m]) * m
                           * config.spacing * np.sin(theta) / config.wave_speed)
            acc += w[m].conjugate() * waveforms[m].sample(t) \
                * np.exp(2j * np.pi * offsets[m] * t) * steer
        return np.trapezoid(np.abs(acc) ** 2, t)

    fine, coarse = trapezoid(2 * ORACLE_INTERVALS), trapezoid(ORACLE_INTERVALS)
    return (4.0 * fine - coarse) / 3.0 / config.pulse_duration


@pytest.fixture
def cfg():
    return make_config(0.0)


@pytest.fixture
def rect_bank():
    return [fb.rect_pulse(TP)] * M


class TestCovariance:
    def test_identical_pulses_zero_offset_all_ones(self, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(0.0))
        assert np.allclose(r.entries, 1.0, atol=1e-12)

    def test_harmonic_offsets_give_identity(self, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(1 / TP))
        assert np.allclose(r.entries, np.eye(M), atol=1e-6)
        assert np.abs(r.entries[~np.eye(M, dtype=bool)]).max() < 1e-12

    def test_unit_diagonal_for_unit_energy(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        r = fb.covariance(bank, fb.UniformPlan(10e6))
        assert np.abs(np.diag(r.entries) - 1.0).max() < 1e-6

    def test_hermitian_and_psd(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        for delta_f in (0.0, 1e6, 10e6):
            r = fb.covariance(bank, fb.UniformPlan(delta_f))
            assert np.abs(r.entries - r.entries.conj().T).max() <= 1e-10
            trace = np.real(np.trace(r.entries))
            assert np.linalg.eigvalsh(r.entries).min() >= -1e-8 * trace
            assert trace == pytest.approx(M, abs=1e-5)

    def test_chirp_bank_orthogonal_regime_off_diagonals(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        r = fb.covariance(bank, fb.UniformPlan(10e6))
        worst = np.abs(r.entries[~np.eye(M, dtype=bool)]).max()
        print(f"chirp bank off-diagonal peak at delta_f = B: {worst:.4e}")
        assert worst < 0.05

    def test_down_chirp_bank_samples_like_its_mirror(self):
        # the conjugate of a down-chirp bank on offsets -df is the up-chirp bank on +df, so
        # its integrand is as fast: at T_p element m sits at -/+(400 + 3m) MHz, a 45 MHz
        # spread (15 MHz at t = 0), and 45 MHz * 5 us = 225 cycles fill 24 panels of 9.5
        cfg = make_config(0.0)
        down, up = (default_quadrature_samples(
            cfg, fb.make_chirp_bank(cfg, s * 2000.0, s * 10.0), fb.UniformPlan(s * 1e6))
            for s in (-1.0, 1.0))
        assert down == up == 24 * 32

    def test_node_count_is_the_default(self, cfg):
        # the CLI's cell budget and the benchmark tracer count default_quadrature_samples nodes
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(1e6)
        n_q = default_quadrature_samples(cfg, bank, plan)
        assert fb.covariance(bank, plan).n_quadrature == n_q

    def test_panel_cap_meets_bernstein_bound(self):
        # Trefethen's Gauss bound for a quadratic-phase integrand of PANEL_CYCLES cycles
        # per panel, summed over the panels of a 1/T_p-scaled entry (see PANEL_CYCLES),
        # on the ellipse rho = e^u with cosh(u) = 2
        u = np.arccosh(2.0)
        growth = np.pi * PANEL_CYCLES * np.sinh(u)
        bound = 32.0 / 15.0 * np.exp(growth - 2 * PANEL_ORDER * u) / np.expm1(2.0 * u)
        assert bound < 1.2e-15


def closed_form_covariance(waveforms, offsets):
    """Exact entries (1/T_p) * integral over [0, T_p] of exp(j*pi*a*t^2 + j*2*pi*b*t).

    a is the entry's chirp-rate difference and b its frequency difference at t = 0.
    Equal rates give exp(j*pi*b*T_p) * sinc(b*T_p).  Unequal rates complete the square
    in t + b/a and take a difference of Fresnel integrals C + j*sign(a)*S at
    s = sqrt(2|a|) * (t + b/a) (Abramowitz & Stegun 7.3).
    """
    special = pytest.importorskip("scipy.special")
    tp = waveforms[0].pulse_duration
    rates = np.array([wf.chirp_rate for wf in waveforms])
    freqs = np.array([wf.freq_offset for wf in waveforms]) + offsets
    a = rates[:, None] - rates[None, :]
    b = freqs[:, None] - freqs[None, :]
    out = np.empty(a.shape, dtype=complex)
    equal = a == 0.0
    out[equal] = np.exp(1j * np.pi * b[equal] * tp) * np.sinc(b[equal] * tp)
    a, b = a[~equal], b[~equal]
    scale = np.sqrt(2.0 * np.abs(a))
    s_lo, c_lo = special.fresnel(scale * b / a)
    s_hi, c_hi = special.fresnel(scale * (tp + b / a))
    out[~equal] = np.exp(-1j * np.pi * b * b / a) / (tp * scale) \
        * ((c_hi - c_lo) + 1j * np.sign(a) * (s_hi - s_lo))
    return out


def _bank(kind, cfg):
    if kind == "rect":
        return [fb.rect_pulse(cfg.pulse_duration)] * cfg.num_elements
    if kind == "folded":  # a MIMO side's basebands, carrying 1 MHz offsets themselves
        return [fb.with_freq_offset(wf, m * 1e6)
                for m, wf in enumerate(fb.make_chirp_bank(cfg))]
    base_rate, rate_step = {"chirp": (100.0, 10.0), "down": (-100.0, -10.0),
                            "opposite": (-200.0, 10.0)}[kind]
    return fb.make_chirp_bank(cfg, base_rate, rate_step)


COSTAS_PLAN = fb.TabulatedPlan(offsets=tuple(fb.coded_offsets("costas", 1e6, M)))


class TestClosedFormCovariance:
    @pytest.mark.parametrize("num_elements, kind, plan", [
        (16, "chirp", fb.UniformPlan(0.0)),
        (16, "chirp", fb.UniformPlan(1e6)),
        (16, "chirp", fb.UniformPlan(10e6)),
        (40, "chirp", fb.UniformPlan(0.0)),
        (40, "chirp", fb.UniformPlan(1e6)),
        (40, "chirp", fb.UniformPlan(10e6)),
        (16, "down", fb.UniformPlan(1e6)),
        # chirps of opposite sweep: an entry sweeps at the sum of the two bandwidths
        (40, "opposite", fb.UniformPlan(0.0)),
        (16, "chirp", COSTAS_PLAN),
        (16, "folded", fb.UniformPlan(0.0)),
        (16, "rect", fb.UniformPlan(3e6)),
    ], ids=["16-chirp-0Hz", "16-chirp-1MHz", "16-chirp-10MHz", "40-chirp-0Hz", "40-chirp-1MHz",
            "40-chirp-10MHz", "16-down-1MHz", "40-opposite-0Hz", "16-chirp-costas",
            "16-folded-0Hz", "16-rect-3MHz"])
    def test_entries_match_closed_form(self, num_elements, kind, plan):
        cfg = make_config(0.0, num_elements=num_elements)
        bank = _bank(kind, cfg)
        r = fb.covariance(bank, plan)
        want = closed_form_covariance(bank, fb.plan_offsets(plan, num_elements))
        assert np.abs(r.entries - want).max() < 1e-12


class TestFgtb:
    def test_zero_weights(self, cfg, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(0.0))
        val = fb.fgtb(r, cfg, fb.UniformPlan(0.0), np.zeros(M, dtype=complex), 0.3)
        assert val[0] == 0.0

    def test_orthogonal_regime_flat_m_over_tp(self, cfg, rect_bank):
        plan = fb.UniformPlan(1 / TP)
        r = fb.covariance(rect_bank, plan)
        theta = fb.theta_grid(64)
        vals = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), theta)
        assert np.allclose(vals, M / TP, rtol=1e-9)

    def test_coherent_regime_m_squared_over_tp(self, cfg, rect_bank):
        plan = fb.UniformPlan(0.0)
        r = fb.covariance(rect_bank, plan)
        val = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), 0.0)
        assert val[0] == pytest.approx(M**2 / TP, rel=1e-9)

    def test_trace_equals_quadratic(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(3e6)
        r = fb.covariance(bank, plan)
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
        r = fb.covariance(bank, plan)
        w = fb.random_unimodular_weights(M, seed=seed)
        vals = fb.fgtb(r, cfg, plan, w, fb.theta_grid(65))
        assert vals.min() >= -1e-12

    @pytest.mark.parametrize("delta_f", [0.0, 1e6, 10e6])
    def test_direct_double_integration_oracle(self, cfg, delta_f):
        # module ground truth at five spot angles
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(delta_f)
        r = fb.covariance(bank, plan)
        w = fb.random_unimodular_weights(M, seed=5)
        offsets = fb.plan_offsets(plan, M)
        for theta in np.radians([-70.0, -30.0, 0.0, 20.0, 55.0]):
            got = fb.fgtb(r, cfg, plan, w, theta)[0]
            want = fgtb_direct_oracle(cfg, offsets, bank, w, theta)
            assert got == pytest.approx(want, rel=1e-9)

    def test_tabulated_plan_oracle(self, cfg):
        offsets = fb.coded_offsets("logarithmic", 50e3, M)
        plan = fb.TabulatedPlan(offsets=tuple(offsets))
        bank = fb.make_chirp_bank(cfg)
        r = fb.covariance(bank, plan)
        w = fb.uniform_weights(M)
        for theta in np.radians([-45.0, 10.0]):
            got = fb.fgtb(r, cfg, plan, w, theta)[0]
            want = fgtb_direct_oracle(cfg, offsets, bank, w, theta)
            assert got == pytest.approx(want, rel=1e-9)

    def test_monotone_coherence_loss(self, cfg):
        # peak-to-mean ratio non-increasing through 0, 0.1B, 0.5B, B
        bank = fb.make_chirp_bank(cfg)
        theta = fb.theta_grid(513)
        ratios = []
        for delta_f in (0.0, 1e6, 5e6, 10e6):
            plan = fb.UniformPlan(delta_f)
            r = fb.covariance(bank, plan)
            vals = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), theta)
            ratios.append(vals.max() / vals.mean())
        print("peak-to-mean ratios:", [f"{v:.3f}" for v in ratios])
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a * (1 + 1e-9)

    def test_flat_at_orthogonality(self, cfg):
        bank = fb.make_chirp_bank(cfg)
        plan = fb.UniformPlan(10e6)
        r = fb.covariance(bank, plan)
        vals = fb.fgtb(r, cfg, plan, fb.uniform_weights(M), fb.theta_grid(721))
        assert 10 * np.log10(vals.max() / vals.min()) < 1.0


class TestMimoBeampattern:
    def test_orthogonal_flat_norm_squared(self, cfg, rect_bank):
        shifted = [fb.with_freq_offset(wf, m / TP) for m, wf in enumerate(rect_bank)]
        r = fb.covariance(shifted, fb.UniformPlan(0.0))
        vals = fb.mimo_beampattern(r, cfg, fb.uniform_weights(M), fb.theta_grid(64))
        assert np.allclose(vals, M, rtol=1e-6)

    def test_coherent_boresight(self, cfg, rect_bank):
        r = fb.covariance(rect_bank, fb.UniformPlan(0.0))
        val = fb.mimo_beampattern(r, cfg, fb.uniform_weights(M), 0.0)
        assert val[0] == pytest.approx(M**2, rel=1e-9)


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

    @pytest.mark.parametrize("num_elements, kind, delta_f", [
        (16, "rect", 3e6),
        (16, "chirp", 0.0),
        (16, "chirp", 1e6),
        (16, "chirp", 10e6),
        (16, "down", 1e6),
        (40, "opposite", 1e6),
        (16, "chirp", -1e6),
    ], ids=["rect-3MHz", "chirp-0Hz", "chirp-1MHz", "chirp-10MHz", "down-1MHz",
            "opposite-1MHz", "chirp-negative-1MHz"])
    def test_mimo_side_is_the_folded_baseband_construction(self, num_elements, kind, delta_f):
        # the independent MIMO construction: shift each baseband by its element's offset and
        # take the zero-offset covariance; compare_fgtb_mimo reuses the offset covariance
        cfg = make_config(0.0, num_elements=num_elements)
        bank = _bank(kind, cfg)
        plan = fb.UniformPlan(delta_f)
        folded = fb.covariance([fb.with_freq_offset(wf, off)
                                for wf, off in zip(bank, fb.plan_offsets(plan, num_elements))],
                               fb.UniformPlan(0.0))
        assert np.array_equal(folded.entries, fb.covariance(bank, plan).entries)

        w = fb.random_unimodular_weights(num_elements, seed=3)
        theta = fb.theta_grid(181)
        mimo = fb.mimo_beampattern(folded, cfg, w, theta)
        cmp = fb.compare_fgtb_mimo(cfg, plan, bank, w, theta)
        assert np.array_equal(cmp.mimo_normalized, mimo / mimo.max())
