import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdabeam as fb
from fdabeam import cli
from fdabeam.beampattern_instant import (
    BLOCK_CELLS,
    _CSV_CELLS,
    _chebyshev_basis,
    _csv_lines,
    _cycle_phasor,
    _element_sum,
    _product_rows,
    exact_field_matrix,
    grid_from_binary,
    grid_from_csv,
    grid_to_binary,
    grid_to_csv,
    write_chunks,
    write_csv,
)

from conftest import TM_PHASE, field_oracle, make_config, time_modulated_oracle

M = 16
SQRT_TP = np.sqrt(5e-6)
CFG200K = make_config(200e3)
N_THETA = 1024
# time samples crossing two row blocks of the time-modulated sum, with a remainder
N_BLOCKS_T = 2 * (BLOCK_CELLS // N_THETA) + 5


class TestFieldExact:
    def test_in_phase_maximum(self, cfg200k, rect):
        w = fb.uniform_weights(M)
        val = exact_field_matrix(cfg200k, fb.UniformPlan(200e3), w, rect, [0.0], [0.0])[0, 0]
        assert abs(val) == pytest.approx(M / SQRT_TP)

    def test_half_cycle_cancellation(self, cfg200k, rect):
        # t' = 2.5 us puts adjacent elements in antiphase: sum over e^{j*pi*m} = 0
        w = fb.uniform_weights(M)
        val = exact_field_matrix(cfg200k, fb.UniformPlan(200e3), w, rect, [2.5e-6], [0.0])[0, 0]
        assert abs(val) < 1e-9

    def test_outside_pulse_is_zero(self, cfg200k, rect):
        w = fb.uniform_weights(M)
        for tp in (-1e-9, 5.1e-6):
            val = exact_field_matrix(cfg200k, fb.UniformPlan(200e3), w, rect, [tp], [0.3])[0, 0]
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
            got = exact_field_matrix(cfg200k, plan, w, rect, [t], [th])[0, 0]
            want = field_oracle(cfg200k, offsets, w, [rect] * M, t, th)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_per_element_waveforms(self, cfg200k):
        bank = fb.make_chirp_bank(cfg200k)
        w = fb.uniform_weights(M)
        plan = fb.UniformPlan(200e3)
        offsets = fb.plan_offsets(plan, M)
        got = exact_field_matrix(cfg200k, plan, w, bank, [2.2e-6], [0.9])[0, 0]
        want = field_oracle(cfg200k, offsets, w, bank, 2.2e-6, 0.9)
        assert got == pytest.approx(want, rel=1e-10)

    def test_time_modulated_against_loop(self, cfg200k, rect):
        plan = fb.TimeModulatedPlan(form="arctan", rate=20e3, time_scale=1e-6)
        w = fb.uniform_weights(M)
        t, th = 2.0e-6, 0.6
        got = exact_field_matrix(cfg200k, plan, w, rect, [t], [th])[0, 0]
        want = time_modulated_oracle(cfg200k, plan, w, [rect] * M, t, th)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("plan", [
        fb.TimeModulatedPlan(form="sqrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="cbrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="arctan", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="sinh", rate=20e3, time_scale=1e-6),
        # about 1.7e4 cycles at the pulse end on the last element
        fb.TimeModulatedPlan(form="sinh", rate=20e3, time_scale=0.5e-6),
    ], ids=["sqrt", "cbrt", "arctan", "sinh", "sinh-large-phase"])
    def test_time_modulated_grid_against_oracle(self, plan, cfg200k):
        # a grid of several row blocks, per-element chirps and per-time weights
        bank = fb.make_chirp_bank(cfg200k)
        t = np.linspace(0.0, 5e-6, N_BLOCKS_T)
        theta = fb.theta_grid(N_THETA)
        w_t = fb.random_unimodular_weights(t.size * M, seed=6).reshape(t.size, M)
        got = exact_field_matrix(cfg200k, plan, w_t, bank, t, theta)
        rng = np.random.default_rng(7)
        for i, j in zip(rng.integers(0, t.size, 24), rng.integers(0, theta.size, 24)):
            want = time_modulated_oracle(cfg200k, plan, w_t[i], bank, t[i], theta[j])
            assert got[i, j] == pytest.approx(want, rel=1e-10), (i, j)

    @pytest.mark.parametrize("plan", [
        fb.TimeModulatedPlan(form="sqrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="cbrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="arctan", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="sinh", rate=20e3, time_scale=1e-6),
    ], ids=["sqrt", "cbrt", "arctan", "sinh"])
    def test_time_modulated_grid_error_against_longdouble_sum(self, plan, cfg200k):
        # the per-element loop, which serves the rows the low-rank product does not, sums
        # columns*(phasor + 1) and subtracts sum(columns) once per row; that cancellation
        # may cost only a few ulps of the peak bound M*max|column|.  The reference forms
        # each phase in cycles as the loop does, in float64, and reduces, exponentiates
        # and sums it in long double; the oracle test above checks the phases themselves.
        bank = fb.make_chirp_bank(cfg200k)
        t = np.linspace(0.0, 5e-6, N_BLOCKS_T)
        theta = fb.theta_grid(N_THETA)
        w_t = fb.random_unimodular_weights(t.size * M, seed=8).reshape(t.size, M)
        rows = np.arange(0, t.size, 11)
        columns = np.stack([wf.sample(t[rows]) for wf in bank], axis=1) * np.conj(w_t[rows])
        delay = np.outer(cfg200k.element_index * (cfg200k.spacing / cfg200k.wave_speed),
                         np.sin(theta))
        got = np.empty((rows.size, theta.size), dtype=complex)
        _element_sum(plan, cfg200k.carrier_freq, columns, t[rows], delay, got)
        two_pi = 8 * np.arctan(np.longdouble(1))
        want = np.zeros((rows.size, theta.size), dtype=np.clongdouble)
        for m in range(M):
            tau = t[rows, None] + delay[m]
            cycles = plan.chi(m, tau) * tau + cfg200k.carrier_freq * delay[m]
            cycles = cycles.astype(np.longdouble)
            phase = two_pi * (cycles - np.rint(cycles))
            want += columns[:, m, None] * (np.cos(phase) + 1j * np.sin(phase))
        error = np.abs(got - want).max() / (M * np.abs(columns).max())
        assert error <= 4e-15

    @pytest.mark.parametrize("plan", [
        fb.TimeModulatedPlan(form="sqrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="cbrt", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="arctan", rate=50e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="sinh", rate=20e3, time_scale=1e-6),
        fb.TimeModulatedPlan(form="sinh", rate=20e3, time_scale=2e-6),
        fb.TimeModulatedPlan(form="sqrt", rate=100e3, time_scale=0.5e-6),
        fb.TimeModulatedPlan(form="arctan", rate=100e3, time_scale=0.5e-6),
        # about 22 cycles of scan: the product takes rows whose spread reaches 0.19 cycle
        fb.TimeModulatedPlan(form="sinh", rate=60e3, time_scale=1e-6),
        # poles at +-10 ns from the real axis, 13 element-local ranges: they cap the disks
        fb.TimeModulatedPlan(form="arctan", rate=100e3, time_scale=10e-9),
    ], ids=["sqrt", "cbrt", "arctan", "sinh", "sinh-2us", "sqrt-steep", "arctan-steep",
            "sinh-60khz", "arctan-near-poles"])
    def test_low_rank_rows_error_against_longdouble_phases(self, plan, cfg200k):
        # every phase, chi_m(tau)*tau + f_c*m*(d/c)*sin(theta), is formed in long double from
        # the float64 inputs.  On the rows the product takes, its rounding, interpolation and
        # BLAS order must cost no more than the per-element loop summing the same rows
        bank = fb.make_chirp_bank(cfg200k)
        t = np.linspace(0.0, 5e-6, N_BLOCKS_T)
        theta = fb.theta_grid(N_THETA)
        w_t = fb.random_unimodular_weights(t.size * M, seed=8).reshape(t.size, M)
        product, _ = _product_rows(cfg200k, plan, t)
        assert product.sum() >= 60
        got = exact_field_matrix(cfg200k, plan, w_t, bank, t, theta)[product]
        columns = (np.stack([wf.sample(t) for wf in bank], axis=1) * np.conj(w_t))[product]
        loop = np.empty(got.shape, dtype=complex)
        _element_sum(plan, cfg200k.carrier_freq, columns, t[product],
                     np.outer(cfg200k.element_index * (cfg200k.spacing / cfg200k.wave_speed),
                              np.sin(theta)), loop)
        ld = np.longdouble
        g = TM_PHASE[plan.form][0]
        d_over_c = ld(cfg200k.spacing) / ld(cfg200k.wave_speed)
        two_pi = 8 * np.arctan(ld(1))
        want = np.zeros(got.shape, dtype=np.clongdouble)
        for m in range(M):
            delay = m * d_over_c * np.sin(theta).astype(ld)
            tau = t[product, None].astype(ld) + delay
            cycles = m * ld(plan.rate) * g(tau / ld(plan.time_scale)) * tau \
                + ld(cfg200k.carrier_freq) * delay
            phase = two_pi * (cycles - np.rint(cycles))
            want += columns[:, m, None] * (np.cos(phase) + 1j * np.sin(phase))
        assert np.abs(got - want).max() <= np.abs(loop - want).max()

    @pytest.mark.parametrize("form", ["sqrt", "cbrt"])
    def test_rows_at_the_kink_take_the_loop(self, form, cfg200k):
        # tau = t' -+ (M-1)d/c straddles g's kink at 0 on the row t' = 0 only
        t = np.linspace(0.0, 5e-6, 512)
        product, order = _product_rows(cfg200k, fb.TimeModulatedPlan(form, 60e3, 1e-6), t)
        assert not product[0] and product[-400:].all() and 1 <= order <= 12

    def test_steep_sinh_rows_go_as_the_bound_prices_them(self, cfg200k):
        # about 22 cycles of scan.  The spread V grows from 0.05 cycle at row 355 to 0.19 at
        # row 469, and the bound prices those rows at K = 17, below TM_LOOP_ORDERS; a shared
        # order high enough for the last 42 rows, up to 0.30 cycle, costs more than their loop
        t = np.linspace(0.0, 5e-6, 512)
        product, _ = _product_rows(cfg200k, fb.TimeModulatedPlan("sinh", 60e3, 1e-6), t)
        assert product[:470].all() and not product[470:].any()

    def test_grid_of_loop_rows_only(self):
        # sinh 100 kHz / 0.5 us spreads 15 to 136 cycles on the rows from 4 us: each bound
        # needs an order past 160 or overflows, so no row takes the product, no
        # interpolation order is chosen and the loop fills the grid
        cfg = make_config(0.0)
        plan = fb.TimeModulatedPlan("sinh", 100e3, 0.5e-6)
        t = np.linspace(4e-6, 5e-6, 33)
        product, order = _product_rows(cfg, plan, t)
        assert not product.any() and order == 0
        bank = fb.make_chirp_bank(cfg)
        theta = fb.theta_grid(N_THETA)
        w_t = fb.random_unimodular_weights(t.size * M, seed=6).reshape(t.size, M)
        got = exact_field_matrix(cfg, plan, w_t, bank, t, theta)
        rng = np.random.default_rng(7)
        for i, j in zip(rng.integers(0, t.size, 24), rng.integers(0, theta.size, 24)):
            want = time_modulated_oracle(cfg, plan, w_t[i], bank, t[i], theta[j])
            assert got[i, j] == pytest.approx(want, rel=1e-10), (i, j)

    def test_rows_without_a_bound_take_the_loop(self):
        # one element spreads 0*h', which is nan where h' overflows (t' past about 704 time
        # scales): those rows alone have no order, and the rest still take the product
        cfg = make_config(0.0, num_elements=1)
        t = np.linspace(0.0, 5e-6, 64)
        product, order = _product_rows(cfg, fb.TimeModulatedPlan("sinh", 50e3, 1e-9), t)
        assert order == 1 and np.array_equal(product, t < 700e-9)

    @pytest.mark.parametrize("rate", [20e3, 60e3, 100e3])
    @pytest.mark.parametrize("time_scale", [0.5e-6, 1e-6, 2e-6])
    def test_arctan_rows_take_the_product(self, rate, time_scale, cfg200k):
        t = np.linspace(0.0, 5e-6, 512)
        product, order = _product_rows(cfg200k, fb.TimeModulatedPlan("arctan", rate, time_scale),
                                       t)
        assert product.all() and order <= 8

    def test_rows_near_the_kink_on_a_fine_grid(self, cfg200k):
        # a 1 ns time step puts rows a few element-local ranges past sqrt's kink at 0,
        # where the interpolant converges slowly: they must still match the oracle
        plan = fb.TimeModulatedPlan("sqrt", 50e3, 1e-6)
        bank = fb.make_chirp_bank(cfg200k)
        t = np.append(np.linspace(0.0, 5e-6, 5001)[:12], 5e-6)
        theta = fb.theta_grid(64)
        w = fb.random_unimodular_weights(M, seed=2)
        got = exact_field_matrix(cfg200k, plan, w, bank, t, theta)
        for i in range(1, 12):
            for j in range(0, 64, 7):
                want = time_modulated_oracle(cfg200k, plan, w, bank, t[i], theta[j])
                assert abs(got[i, j] - want) <= 1e-13 * M * abs(bank[0].sample(t[i])), (i, j)

    def test_azimuth_at_a_chebyshev_node(self, cfg200k, rect):
        # sin(theta) equal to an interpolation node takes that node's unit basis column
        plan = fb.TimeModulatedPlan("arctan", 50e3, 1e-6)
        t = np.linspace(0.0, 5e-6, 40)
        _, order = _product_rows(cfg200k, plan, t)
        nodes = _chebyshev_basis(order, np.zeros(1))[0]
        theta = []
        for x in nodes[[0, order // 2, -1]]:
            th = np.arcsin(x)
            while np.sin(th) != x:
                th = np.nextafter(th, np.inf if np.sin(th) < x else -np.inf)
            theta.append(th)
        theta = np.sort(np.append(theta, [-1.0, 0.3]))
        w = fb.random_unimodular_weights(M, seed=9)
        with np.errstate(all="raise"):
            got = exact_field_matrix(cfg200k, plan, w, rect, t, theta)
        assert np.isfinite(got).all()
        for i in range(0, t.size, 7):
            for j, th in enumerate(theta):
                want = time_modulated_oracle(cfg200k, plan, w, [rect] * M, t[i], th)
                assert got[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12 / SQRT_TP)

    @pytest.mark.parametrize("form", ["sqrt", "arctan", "sinh"])
    def test_single_element_time_modulated(self, form, rect):
        # one element has no offset phase: the field is its weighted envelope at every azimuth
        cfg = make_config(0.0, num_elements=1)
        t = np.linspace(0.0, 5e-6, 9)
        theta = fb.theta_grid(16)
        got = exact_field_matrix(cfg, fb.TimeModulatedPlan(form, 50e3, 1e-6), np.array([1j]),
                                 rect, t, theta)
        assert np.array_equal(got, np.broadcast_to(-1j * rect.sample(t)[:, None], got.shape))

    def test_cycle_phasor_edge_cases(self):
        # integers, half-integers, near +-1/4, negatives and counts far beyond one cycle
        quarter = np.nextafter(0.25, 1.0)
        cycles = np.array([0.0, 1.0, -3.0, 2.0**40, 0.5, -0.5, 7.5, -7.5, 2.0**40 + 0.5,
                           0.25, -0.25, quarter, -quarter, 1.25, -2.75, 2.0**40 + 0.25,
                           -(2.0**40) - 0.25, 1e-300, -0.123456789, 12345.678, -2.0**51 + 0.5])
        out = np.empty(cycles.shape, dtype=complex)
        with np.errstate(all="raise", under="ignore"):  # t*t underflows harmlessly at 1e-300
            _cycle_phasor(cycles.copy(), out, np.empty(cycles.shape))
        for c, got in zip(cycles.tolist(), out.tolist()):
            r = c - round(c)  # exact; round() and rint both round half to even
            # out holds the phasor plus one
            assert abs((got - 1) - cmath.exp(2j * math.pi * r)) <= 4 * np.finfo(float).eps, c

    @pytest.mark.parametrize("plan", [
        fb.UniformPlan(200e3),
        fb.TabulatedPlan(offsets=tuple(np.log(np.arange(16) + 1.0) * 50e3)),
        fb.TimeModulatedPlan(form="arctan", rate=20e3, time_scale=1e-6),
    ])
    def test_per_time_weights_match_row_calls(self, plan, cfg200k, rect):
        t = np.linspace(0.0, 5e-6, N_BLOCKS_T)
        theta = fb.theta_grid(N_THETA)
        w_t = fb.random_unimodular_weights(t.size * M, seed=4).reshape(t.size, M)
        got = exact_field_matrix(cfg200k, plan, w_t, rect, t, theta)
        rows = np.stack([exact_field_matrix(cfg200k, plan, w_t[i], rect, t[i:i + 1], theta)[0]
                         for i in range(t.size)])
        # one matmul against per-row products: summation order may differ.  A time-modulated
        # row is one BLAS product too, whose order depends on its block and on the
        # interpolation order its call chose
        assert np.allclose(got, rows, rtol=0, atol=1e-12 * M / SQRT_TP)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    @pytest.mark.parametrize("plan", [
        fb.UniformPlan(200e3),
        fb.TabulatedPlan(offsets=tuple(np.log(np.arange(16) + 1.0) * 50e3)),
        fb.TimeModulatedPlan(form="arctan", rate=20e3, time_scale=1e-6),
    ], ids=["uniform", "tabulated", "time-modulated"])
    def test_empty_axis_gives_empty_field(self, plan, shape, cfg200k, rect):
        t = np.linspace(0.0, 5e-6, shape[0])
        theta = np.linspace(-1.0, 1.0, shape[1])
        got = exact_field_matrix(cfg200k, plan, fb.uniform_weights(M), rect, t, theta)
        assert got.shape == shape and got.dtype == complex

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

    @pytest.mark.parametrize("delta_f", [1e3, 10e3, 30e3, 100e3, 200e3, 400e3, 1e6, 2e6])
    def test_deviation_within_dropped_phase_bound(self, rect, delta_f):
        """The Dirichlet form drops element m's phase 2*pi*delta_f*m*(m-1)*d*sin(theta)/c.

        A sum of unit phasors moves by at most the sum of its phase errors, so
        |exact*sqrt(T_p) - closed| <= 2*pi*delta_f*(d/c)*M*(M-1)*(M-2)/3 on every cell.
        """
        cfg = make_config(delta_f)
        t = np.linspace(0, 5e-6, 256)
        theta = fb.theta_grid(512)
        exact = np.abs(exact_field_matrix(cfg, fb.UniformPlan(delta_f),
                                          fb.uniform_weights(M), rect, t, theta)) * SQRT_TP
        closed = fb.fitb_closed_form(cfg, delta_f, t[:, None], theta[None, :])
        bound = 2 * np.pi * delta_f * cfg.spacing / cfg.wave_speed * M * (M - 1) * (M - 2) / 3
        assert np.max(np.abs(exact - closed)) <= bound


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

    def test_first_grating_peak_at_large_offset(self):
        # at delta_f = f_c/10 and d = c/f_c the first grating peak sits at
        # asin(f_c/(f_c+delta_f)) = 65.4 deg; with f_c in place of f_c+delta_f it would be 90 deg
        fc, delta_f = 1e10, 1e9
        cfg = fb.ArrayConfig(num_elements=8, carrier_freq=fc, spacing=3e8 / fc,
                             pulse_duration=5e-6)
        theta = fb.theta_grid(4096)
        beyond_mainlobe = theta > np.radians(30)
        cut = fb.zero_time_cut(cfg, delta_f, theta[beyond_mainlobe])
        peak = theta[beyond_mainlobe][np.argmax(cut)]
        assert abs(peak - math.asin(fc / (fc + delta_f))) <= np.pi / 4096

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

    def test_csv_reader_is_float_of_every_cell(self, preset_runs):
        # the rule the reader must keep: Python's float() of each cell, t in us, theta in deg
        path = preset_runs["fig3c"][0] / "fitb_grid.csv"
        lines = path.read_text().splitlines()
        cells = [[float(v) for v in line.split(",")] for line in lines[1:]]
        back = grid_from_csv(path)
        assert back.theta_axis.tobytes() == np.radians(
            [float(v) for v in lines[0].split(",")[1:]]).tobytes()
        assert back.t_axis.tobytes() == np.array([row[0] * 1e-6 for row in cells]).tobytes()
        assert back.values.tobytes() == np.array([row[1:] for row in cells]).tobytes()

    def test_binary_round_trip(self, tmp_path, cfg200k, rect):
        grid = fb.sweep_grid(cfg200k, fb.UniformPlan(200e3), fb.uniform_weights(M), rect,
                             n_time=8, n_theta=16)
        path = tmp_path / "grid.bin"
        digest = grid_to_binary(grid, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        back = grid_from_binary(path)
        assert np.array_equal(back.values, grid.values)
        assert back.t_axis[0] == grid.t_axis[0]
        assert back.theta_axis[-1] == grid.theta_axis[-1]


def test_csv_artifact_text(tmp_path):
    """Exact text of every CSV writer: %.10g cells, one header line, trailing newline.

    Each writer, and the sink the text reports go through, returns the SHA-256 of that file.
    """
    from fdabeam.beampattern_integral import curve_to_csv
    from fdabeam.scan_analytics import trajectory_to_csv

    grid = fb.BeampatternGrid(np.array([0.0, 2.5e-6]), np.radians([-45.0, 0.0, 60.0]),
                              np.array([[1 / 3, 1e-20, 12345678901.0], [-0.0, 0.5, 2.0]]))
    theta = np.radians([-30.0, 0.0, 30.0])
    values = np.array([0.5, 2.0, 1 / 3])
    traj = fb.PeakTrajectory(t=np.array([0.0, 1e-6, 2e-6]), theta=np.radians([10.0, 20.0, -5.5]),
                             ambiguous=np.array([False, True, False]))
    writers = {
        "grid": (lambda p: grid_to_csv(grid, p),
                 "t_us,-45,0,60\n0,0.3333333333,1e-20,1.23456789e+10\n2.5,-0,0.5,2\n"),
        "curve_db": (lambda p: curve_to_csv(theta, values, p),
                     "theta_deg,value_db\n-30,-6.020599913\n0,0\n30,-7.781512504\n"),
        "trajectory": (lambda p: trajectory_to_csv(traj, p), "t_us,theta_deg\n0,10\n2,-5.5\n"),
        "report": (lambda p: write_chunks(p, [b"offset_hz = 0 : ok\n", b"k = 1\n"]),
                   "offset_hz = 0 : ok\nk = 1\n"),
    }
    for name, (write, expected) in writers.items():
        path = tmp_path / f"{name}.csv"
        digest = write(path)
        assert path.read_text() == expected, name
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), name


def _percent_rows(table) -> bytes:
    "CSV lines as write_csv printed them row by row with %, the reference for every cell."
    table = np.asarray(table, dtype=float)
    fmt = ",".join(["%.10g"] * table.shape[1]) + "\n"
    return "".join(fmt % tuple(row.tolist()) for row in table).encode()


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


_TEN_DIGITS = st.integers(10**9, 10**10 - 1)
_DRAWN_CELL = st.one_of(
    # a few ulps around powers of ten, where log10 may be one off
    st.builds(lambda k, u: _ulps(10.0 ** k, u), st.integers(-6, 12), st.integers(-3, 3)),
    # exact and near decimal ties of the tenth digit: (k + 0.5) * 10**-j
    st.builds(lambda k, j, u: _ulps((k + 0.5) / 10.0 ** j, u), _TEN_DIGITS,
              st.integers(-1, 14), st.integers(-2, 2)),
    # around 9.9999999995e, where rounding carries into the next power
    st.builds(lambda k, u: _ulps(9.9999999995 * 10.0 ** k, u), st.integers(-6, 10),
              st.integers(-3, 3)),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=0.0, max_value=1e-4, exclude_max=True),
    st.floats(min_value=1e10, allow_infinity=False),
    st.integers(-100_000, 100_000).map(float),
    st.floats(),
)
_SIGNED_CELL = st.tuples(_DRAWN_CELL, st.booleans()).map(lambda c: -c[0] if c[1] else c[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SIGNED_CELL, min_size=1, max_size=24))
@example([673265518.55, 6732.6551855, 1.0000000005, -60.0, 120.0, 12345678901.0, -0.0])
def test_csv_lines_match_percent_cell_by_cell(values):
    "The numpy formatter gives exactly the bytes of '%.10g' % v, cell by cell."
    for cells in (np.array([values]), np.array(values)[:, None]):
        assert _csv_lines(cells) == _percent_rows(cells)
    for v in values:
        assert _csv_lines(np.array([[v]])) == b"%.10g\n" % v, v


@pytest.mark.parametrize("shape", [(1, 7), (_CSV_CELLS + 3, 0), (40, 1024)])
def test_write_csv_matches_percent_rows(tmp_path, shape):
    "One row, one column, and row counts that the write blocks do not divide."
    rng = np.random.default_rng(sum(shape))
    t = np.linspace(0.0, 5.0, shape[0])
    block = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 12, shape)
    columns = (t, block) if shape[1] else (t,)
    path = tmp_path / "t.csv"
    write_csv(path, "a,b", *columns)
    assert path.read_bytes() == b"a,b\n" + _percent_rows(np.column_stack(columns))


@pytest.mark.parametrize("rows", [(15, 20), (20, 15)])
def test_write_csv_rejects_unequal_columns(tmp_path, rows):
    "The first column may end on a write-block boundary before the grid does."
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", "a", np.zeros(rows[0]), np.zeros((rows[1], 1024)))


@pytest.mark.parametrize("preset,section", [("fig3c", "fitb_grid"), ("fig6", "legacy_grid"),
                                            ("fig7a", "fitb_grid")])
def test_preset_grids_match_percent_rows(tmp_path, preset, section):
    "Small real grids, linear and dB, byte for byte against the % row format."
    sc = cli.load_scenario(f"[scenario]\npreset = {preset}\n[{section}]\n"
                           "time_samples = 40\nangle_samples = 65\n")
    params = dict(sc.evaluations)[section]
    if section == "legacy_grid":
        grid = fb.legacy_grid(sc.config, sc.plan.delta_f, params["ranges"][0], params["t_axis"],
                              params["n_theta"])
    else:
        grid = fb.sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms,
                             n_time=params["n_time"], n_theta=params["n_theta"])
    for g in (grid, grid.to_db()):
        header = "t_us," + _percent_rows(np.degrees(g.theta_axis)[None, :]).decode()
        expected = header.encode() + _percent_rows(np.column_stack((g.t_axis * 1e6, g.values)))
        grid_to_csv(g, tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == expected
