"""Instantaneous transmit beampattern engines.

Two evaluators of the transmit array factor:

* ``exact_field_matrix`` sums the exact per-element phases on a grid of
  retarded time t' = t - r/c and azimuth theta (the oracle all closed forms
  are judged against),
* ``legacy_array_factor`` is the Dirichlet-kernel form of the older
  literature in time t and range r, kept to demonstrate that its range
  dependence is an artifact of ignoring the pulse window.  At r = 0 it is the
  uniform-offset closed form in t', ``fitb_closed_form``.

Element m's phases have one definition, shared with the integral pattern:
2*pi*delta_f_m*t' (``array_model.steering_time``) plus
2*pi*(f_c+delta_f_m)*m*d*sin(theta)/c (``array_model.combined_angle_steering``).
Time-modulated plans alone replace the offset terms, inside the exact engine.
Their element-local phases depend on the azimuth only through sin(theta), so
most rows interpolate them on Chebyshev nodes in sin(theta) and become one
low-rank BLAS product; rows where no error bound allows that (near the kink
of the sqrt and cbrt forms at 0, or where the phase turns too fast) are summed
element by element.  Either way each phase is reduced exactly to a fraction
of a cycle and turned into its phasor with one tangent.
Carrier and 1/r factors are constant-modulus and excluded throughout; pattern
values are field magnitudes up to a positive constant.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    FrequencyPlan,
    TimeModulatedPlan,
    UniformPlan,
    UnsupportedPlanError,
    combined_angle_steering,
    local_time_ends,
    steering_time,
)
from .waveform import BasebandWaveform

SIN_EPS = 1e-12
"Denominator threshold below which the Dirichlet kernel takes its limit value M."

DB_FLOOR = -60.0
"Export floor for dB-scaled grids."

GRID_MAGIC = b"FDABGRID"

BLOCK_CELLS = 1 << 15
"""Cells per row block of a time-modulated field (32 rows at 1024 angles).

Each block is one single-threaded BLAS product into its rows, or one
per-element loop whose buffers are block-sized; the thread pool runs blocks
side by side."""

TM_SPREAD_CAP = 0.05
"Phase spread V in cycles from which a time-modulated row takes the per-element loop."

TM_INTERP_TARGET = 1e-17
"Target of the interpolation error bound that sets the Chebyshev order K."

TM_RADII = 2.0 ** np.arange(11)
"Radii, in units of the element-local time range, of the disks the error bound may use."

TM_LOOP_ORDERS = 48
"Cost of one per-element-loop row in units of one interpolation order of a product row."


@dataclass(frozen=True, eq=False)
class BeampatternGrid:
    """Sampled |pattern| over a time axis and an azimuth axis.

    values[i, j] is the magnitude at (t_axis[i], theta_axis[j]).  The
    normalization tag is "linear-magnitude" or "dB-rel-peak"; dB grids have
    their maximum at 0 dB.
    """

    t_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray
    normalization: str = "linear-magnitude"

    def __post_init__(self):
        t = np.asarray(self.t_axis, dtype=float)
        th = np.asarray(self.theta_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if np.any(np.diff(t) <= 0) or np.any(np.diff(th) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if v.shape != (t.size, th.size):
            raise ValueError(f"values shape {v.shape} does not match axes ({t.size}, {th.size})")
        if self.normalization == "linear-magnitude":
            if v.size and v.min() < 0:
                raise ValueError("linear-magnitude grid must be nonnegative")
        elif self.normalization == "dB-rel-peak":
            if v.size and not np.isclose(v.max(), 0.0, atol=1e-9):
                raise ValueError("dB grid must peak at 0 dB")
        else:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        for name, arr in (("t_axis", t), ("theta_axis", th), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_db(self) -> "BeampatternGrid":
        "20*log10 relative to the grid peak, floored."
        if self.normalization == "dB-rel-peak":
            return self
        peak = self.values.max()
        if peak <= 0:
            raise ValueError("cannot scale an all-zero grid to dB")
        db = np.divide(self.values, peak)  # the one new array: the steps below write into it
        with np.errstate(divide="ignore"):
            np.log10(db, out=db)
        db *= 20.0
        np.maximum(db, DB_FLOOR, out=db)
        return BeampatternGrid(self.t_axis, self.theta_axis, db, "dB-rel-peak")


def theta_grid(n_theta: int) -> np.ndarray:
    "Uniform azimuth samples strictly inside (-pi/2, pi/2): cell centers."
    if n_theta < 2:
        raise ValueError("need at least 2 azimuth samples")
    step = np.pi / n_theta
    return -np.pi / 2 + (np.arange(n_theta) + 0.5) * step


def _waveform_list(waveforms, num_elements: int) -> list[BasebandWaveform]:
    if isinstance(waveforms, BasebandWaveform):
        return [waveforms] * num_elements
    wl = list(waveforms)
    if len(wl) != num_elements:
        raise ValueError(f"got {len(wl)} waveforms for {num_elements} elements")
    return wl


def _cycle_phasor(cycles: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write exp(2j*pi*cycles) + 1 into the complex array out; cycles and scratch are overwritten.

    r = cycles - rint(cycles) is exact (Sterbenz) and lies in [-1/2, 1/2], so no
    cycle count is rounded by a multiplication with 2*pi.  With t = tan(pi*r)
    and u = 2/(1+t^2), the half-angle identities give cos(2*pi*r) + 1 = u and
    sin(2*pi*r) = t*u: one tangent per cell in place of a cosine and a sine,
    and no pass to subtract the 1, which the caller removes once per sum.
    At r = +-1/2, t is about +-1.6e16 and u is about 1e-32, with no overflow.
    """
    np.rint(cycles, out=scratch)
    cycles -= scratch
    cycles *= np.pi
    t = np.tan(cycles, out=cycles)
    u = np.square(t, out=scratch)
    u += 1.0
    np.divide(2.0, u, out=out.real)
    np.multiply(t, out.real, out=out.imag)


def _element_sum(plan: TimeModulatedPlan, carrier_freq: float, columns: np.ndarray,
                 t_prime: np.ndarray, delay: np.ndarray, out: np.ndarray) -> None:
    """Element-by-element sum of time-modulated rows, written into out.

    columns[i, m] is element m's envelope times conjugate weight at t_i, and
    delay[m, j] = m*d*sin(theta_j)/c.  Element 0's phase is zero for every plan
    (chi_0 = 0 and delay[0] = 0), so each row starts at
    columns[i, 0] - sum_{m>=1} columns[i, m] and only elements 1..M-1 are
    stepped.  Element m's phase in cycles, chi_m(tau)*tau + f_c*delay[m, j],
    is built in one buffer from tau = t_i + delay[m, j] and becomes its
    phasor plus one through ``_cycle_phasor``: one exact reduction to
    [-1/2, 1/2] and one tangent per cell.  The rows then accumulate
    columns[i, m]*(phasor + 1), which restores the subtracted column.  Every
    cell's arithmetic is independent of how many rows are summed at once.
    """
    np.subtract(columns[:, :1], columns[:, 1:].sum(axis=1, keepdims=True), out=out)
    # the times copied to full rows, so each step adds its delay row contiguously
    times = np.broadcast_to(t_prime[:, None], out.shape).copy()
    tau = np.empty(out.shape)
    cycles = np.empty(out.shape)
    term = np.empty(out.shape, dtype=complex)
    for mi in range(1, delay.shape[0]):
        np.add(times, delay[mi], out=tau)
        plan.chi(mi, tau, out=cycles)
        cycles *= tau
        cycles += carrier_freq * delay[mi]
        _cycle_phasor(cycles, term, tau)  # tau is not read again in this step
        term *= columns[:, mi, None]
        out += term


def _product_rows(config: ArrayConfig, plan: TimeModulatedPlan,
                  t_prime: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows that take the low-rank product, and the interpolation order K they share.

    Element m's offset phasor f(x) = exp(2j*pi*m*h(t_i + m*(d/c)*x)) is
    interpolated in x on [-1, 1], where its phase turns by at most the
    spread V_i = (M-1)^2*(d/c)*max|h'(tau)| cycles per unit x, over row i's
    tau range t_i -+ (M-1)*d/c.  |h'| is monotone in |tau|, so the two ends
    give the maximum.  On a disk of radius r about any point of [-1, 1] the
    same holds with the range widened (1 + r)-fold, so Cauchy's estimate for
    f minus its value at the centre, in the Chebyshev remainder
    max|f^(K)|/(2^(K-1)*K!), bounds the error by
    2*(exp(2*pi*r*V_i(r)) - 1)/(2r)^K.  Row i's order K_i is the smallest
    whose bound meets TM_INTERP_TARGET at the best radius in TM_RADII.  A
    disk is not used if its tau range reaches the kink of a sqrt or cbrt form
    at 0, or half the time scale (arctan has poles at +-1j*time_scale).  Rows
    with V_i at or above TM_SPREAD_CAP, or overflowing, have no order.  The
    shared K minimizes K*(rows with K_i <= K) + TM_LOOP_ORDERS*(rows left to
    the loop).
    """
    widths = 1.0 + np.append(0.0, TM_RADII)[:, None]
    lo, hi = local_time_ends(config, t_prime, widths)  # row 0: the tau range itself
    scale = (config.num_elements - 1) ** 2 * config.spacing / config.wave_speed
    radius = TM_RADII[:, None]
    with np.errstate(all="ignore"):  # an h' that overflows gives no order: the loop row
        spread = scale * np.maximum(np.abs(plan.phase_slope(lo)), np.abs(plan.phase_slope(hi)))
        bound = 2.0 * np.expm1(2.0 * np.pi * radius * spread[1:]) / TM_INTERP_TARGET
        orders = np.ceil(np.log(bound) / np.log(2.0 * radius))
    orders[(hi[1:] - t_prime) * 2.0 > plan.time_scale] = np.inf
    if not plan.smooth:
        orders[(lo[1:] <= 0.0) & (hi[1:] >= 0.0)] = np.inf
    # fmin skips a nan order; an order below 1 (no spread) is 1
    order = np.where(spread[0] < TM_SPREAD_CAP, np.maximum(np.fmin.reduce(orders), 1.0), np.inf)
    ranked = np.sort(order)
    taken = np.arange(1, ranked.size + 1)
    cost = ranked * taken + TM_LOOP_ORDERS * (ranked.size - taken)
    best = int(np.argmin(cost))
    if not cost[best] < TM_LOOP_ORDERS * ranked.size:
        return np.zeros(ranked.size, dtype=bool), 0
    return order <= ranked[best], int(ranked[best])


def _chebyshev_basis(order: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev nodes x_k on [-1, 1] and their Lagrange basis l_k(s), shape (K, s.size).

    Second (true) barycentric form with the nodes' weights
    (-1)^k*sin((2k+1)*pi/(2K)) (Berrut & Trefethen, SIAM Review 2004).  A
    point equal to a node takes that node's unit column.
    """
    angles = (2 * np.arange(order) + 1) * np.pi / (2 * order)
    nodes = np.cos(angles)
    weights = np.sin(angles)
    weights[1::2] *= -1.0
    diff = s - nodes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = weights[:, None] / diff
        basis /= basis.sum(axis=0)
    hit = diff == 0.0
    on_node = hit.any(axis=0)
    basis[:, on_node] = hit[:, on_node]
    return nodes, basis


def _time_modulated_field(config: ArrayConfig, plan: TimeModulatedPlan, columns: np.ndarray,
                          t_prime: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Field of a time-modulated plan, filled in row blocks: a low-rank product or the loop.

    Element m's offset phasor exp(2j*pi*chi_m(tau)*tau) depends on the azimuth
    only through x = sin(theta) at tau = t_i + m*(d/c)*x, so on the rows
    ``_product_rows`` selects it is interpolated in x on K Chebyshev nodes, and
    field[i, j] = columns[i, 0] + sum_{m>=1,k} L[i, (m, k)]*R[(m, k), j] with
    L[i, (m, k)] = columns[i, m]*exp(2j*pi*chi_m(tau_ik)*tau_ik), tau_ik = t_i + m*(d/c)*x_k,
    R[(m, k), j] = l_k(sin(theta_j))*exp(2j*pi*f_c*m*(d/c)*sin(theta_j)),
    and element 0 as L's first column against a row of ones (the Chebyshev
    low-rank kernel of Fong & Darve, J. Comput. Phys. 2009).  Other rows
    take ``_element_sum``.  Every phase is reduced exactly by
    ``_cycle_phasor``, the carrier phase formed as f_c*delay[m] as the loop
    forms it.  Blocks of rows with one route share a thread pool, each block
    one BLAS product into its rows of the field or one loop.
    """
    n_t, n_theta = t_prime.size, theta.size
    field = np.empty((n_t, n_theta), dtype=complex)
    if field.size == 0:
        return field
    index = config.element_index
    step = index * (config.spacing / config.wave_speed)
    sin_theta = np.sin(theta)
    delay = np.outer(step, sin_theta)
    product, order = _product_rows(config, plan, t_prime)
    if order:
        nodes, basis = _chebyshev_basis(order, sin_theta)
        node_delay = np.outer(step[1:], nodes)
        carrier = np.empty(delay[1:].shape, dtype=complex)
        _cycle_phasor(config.carrier_freq * delay[1:], carrier, np.empty(carrier.shape))
        carrier.real -= 1.0
        right = np.empty((1 + node_delay.size, n_theta), dtype=complex)
        right[0] = 1.0
        np.multiply(carrier[:, None], basis, out=right[1:].reshape(-1, nodes.size, n_theta))

    def fill(start: int, stop: int) -> None:
        if not product[start]:
            _element_sum(plan, config.carrier_freq, columns[start:stop], t_prime[start:stop],
                         delay, field[start:stop])
            return
        tau = t_prime[start:stop, None, None] + node_delay
        cycles = plan.chi(index[1:, None], tau) * tau
        left = np.empty((stop - start, 1 + node_delay.size), dtype=complex)
        left[:, 0] = columns[start:stop, 0]
        phasor = left[:, 1:].reshape(tau.shape)  # a view: the phasors land in left
        _cycle_phasor(cycles, phasor, tau)
        phasor.real -= 1.0
        phasor *= columns[start:stop, 1:, None]
        np.matmul(left, right, out=field[start:stop])

    rows = max(1, BLOCK_CELLS // n_theta)
    # runs of rows with one route, cut into blocks of at most `rows`
    cuts = [0, *(np.flatnonzero(np.diff(product)) + 1).tolist(), n_t]
    blocks = [(start, min(start + rows, stop)) for run, stop in zip(cuts, cuts[1:])
              for start in range(run, stop, rows)]

    # numpy ufuncs and BLAS release the GIL; imported here to keep it off the CLI's start-up path
    from concurrent.futures import ThreadPoolExecutor

    # the CPUs this process may run on; only Linux has an affinity set
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(cpus or 1, len(blocks))) as pool:
        for done in [pool.submit(fill, *block) for block in blocks]:
            done.result()
    return field


def exact_field_matrix(config: ArrayConfig, plan: FrequencyPlan,
                       w: np.ndarray,
                       waveforms: BasebandWaveform | Sequence[BasebandWaveform],
                       t_prime: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Exact complex field on the outer product of time and azimuth samples.

    Row i, column j holds sum_m conj(w_m) * s_m(t_i) * steering_time(t_i)[m] *
    combined_angle_steering(theta_j)[m]; time-modulated plans replace the offset phases by
    chi_m(tau)*tau evaluated at the element-local time tau = t_i + m*d*sin(theta_j)/c.
    Weights are one length-M vector for all times, or an (N_t, M) array whose
    row i weights time sample t_i (time-variant beamforming).  The envelopes
    vanish outside [0, T_p]; range and absolute time enter only through t'.
    """
    t_prime = np.atleast_1d(np.asarray(t_prime, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    wc = np.conj(np.asarray(w, dtype=complex))
    if wc.shape not in ((config.num_elements,), (t_prime.size, config.num_elements)):
        raise ValueError(f"weights have shape {wc.shape}, expected ({config.num_elements},) "
                         f"or ({t_prime.size}, {config.num_elements})")
    wc = np.atleast_2d(wc)  # (1, M) or (N_t, M): row i weights time t_i
    wfs = _waveform_list(waveforms, config.num_elements)
    # envelope times conjugate weight, (N_t, M)
    columns = np.stack([wf.sample(t_prime) for wf in wfs], axis=1) * wc

    if isinstance(plan, TimeModulatedPlan):
        return _time_modulated_field(config, plan, columns, t_prime, theta)

    return (steering_time(config, plan, t_prime) * columns) \
        @ combined_angle_steering(config, plan, theta).T


def dirichlet_magnitude(ups: np.ndarray, num_elements: int) -> np.ndarray:
    "|sin(M*ups)/sin(ups)| with the removable singularity resolved to M."
    ups = np.asarray(ups, dtype=float)
    s = np.sin(ups)
    limit = np.abs(s) < SIN_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(np.sin(num_elements * ups) / s)
    return np.where(limit, float(num_elements), ratio)


def fitb_closed_form(config: ArrayConfig, delta_f: float, t_prime, theta) -> np.ndarray:
    """Closed-form instantaneous beampattern for a uniform frequency offset.

    |sin(M*Y)/sin(Y)| with Y = pi*(delta_f*t' + (f_c+delta_f)*d*sin(theta)/c): the
    legacy form at r = 0, where delta_f*t' - 0.0 is delta_f*t' bit for bit.
    """
    return legacy_array_factor(config, delta_f, t_prime, 0.0, theta)


def zero_time_cut(config: ArrayConfig, delta_f: float, theta) -> np.ndarray:
    "Closed-form pattern at the in-phase instant t' = 0."
    return fitb_closed_form(config, delta_f, 0.0, theta)


def legacy_array_factor(config: ArrayConfig, delta_f: float, t, r, theta) -> np.ndarray:
    """Range-and-time array factor from the older literature.

    |sin(M*pi*xi)/sin(pi*xi)| with
    xi = delta_f*t - delta_f*r/c + f_c*d*sin(theta)/c + delta_f*d*sin(theta)/c.
    Deliberately does not restrict t to the pulse window [r/c, r/c + T_p]; that
    omission is what makes the form look range dependent.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ups = np.pi * (
        delta_f * t
        - delta_f * r / config.wave_speed
        + (config.carrier_freq + delta_f) * config.spacing * np.sin(theta) / config.wave_speed
    )
    return dirichlet_magnitude(ups, config.num_elements)


def sweep_grid(config: ArrayConfig, plan: FrequencyPlan,
               w: np.ndarray,
               waveforms: BasebandWaveform | Sequence[BasebandWaveform],
               n_time: int = 512, n_theta: int = 1024,
               engine: str = "exact") -> BeampatternGrid:
    """Dense magnitude grid over [0, T_p] x (-pi/2, pi/2).

    engine "exact" evaluates the element sum (any plan); "closed_form"
    evaluates the uniform-offset Dirichlet form and requires a UniformPlan.
    """
    if n_time < 2 or n_theta < 2:
        raise ValueError("need at least 2 samples per axis")
    t_axis = np.linspace(0.0, config.pulse_duration, n_time)
    th_axis = theta_grid(n_theta)

    if engine == "closed_form":
        if not isinstance(plan, UniformPlan):
            raise UnsupportedPlanError("closed-form engine requires a uniform plan")
        values = fitb_closed_form(config, plan.delta_f, t_axis[:, None], th_axis[None, :])
    elif engine == "exact":
        values = np.abs(exact_field_matrix(config, plan, w, waveforms, t_axis, th_axis))
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return BeampatternGrid(t_axis, th_axis, values, "linear-magnitude")


def legacy_grid(config: ArrayConfig, delta_f: float, r: float,
                t_axis: np.ndarray, n_theta: int = 1024) -> BeampatternGrid:
    "Legacy array-factor magnitudes over an absolute-time axis for a fixed range."
    th_axis = theta_grid(n_theta)
    t_axis = np.asarray(t_axis, dtype=float)
    values = legacy_array_factor(config, delta_f, t_axis[:, None], r, th_axis[None, :])
    return BeampatternGrid(t_axis, th_axis, values, "linear-magnitude")


# %.10g in numpy.  A cell whose decimal exponent e lies in _FIXED prints in fixed
# notation, and its ten significant digits are r = rint(m), m = |x| * 10**(9 - e): the
# power is exact, so m is one rounding (at most 2**-20) from its exact value, and r is
# right unless m lies within 1e-5 of a half-integer.  Such cells, r outside [1e9, 1e10)
# (log10 one off, or rounding up to the next power), zero, non-finite and exponential
# cells are left to '%.10g' % v.
_FIXED = np.arange(-4, 10)
_SCALE = 10.0 ** (9 - _FIXED)
_d = np.arange(10, dtype=np.uint64)  # entry k of a 4-digit table: k's digits on axes 0..3
_DIGITS = (_d[:, None, None, None] | _d[:, None, None] << 8 | _d[:, None] << 16 | _d << 24
           ).ravel() + 0x30303030  # k as four ASCII digits, first in the low byte
_z = (_d == 0).astype(np.intp)
_TRAILING = (_z * (1 + _z[:, None] * (1 + _z[:, None, None] * (1 + _z[:, None, None, None])))
             ).ravel()  # trailing zeros of k's four digits
# 16 bytes as two little-endian words: entry n sets bytes 0..n-1, or puts '.' at byte n
_BELOW0, _BELOW1 = ((np.arange(16) < np.arange(17)[:, None]) * np.uint8(255)).view("<u8").T.copy()
_DOT0, _DOT1 = ((np.arange(16) == np.arange(17)[:, None]) * np.uint8(46)).view("<u8").T.copy()
# what goes in front of the digits, by j = min(e, 0) + 4 + 5 * (x < 0), and its bit count
_PREFIX = np.array(["0.000", "0.00", "0.0", "0.", "", "-0.000", "-0.00", "-0.0", "-0.", "-"], "S8")
_SHIFT = 8 * (_PREFIX.view(np.uint8).reshape(10, 8) > 0).sum(axis=1, dtype=np.uint64)
_CELL = np.dtype([("text", "S23"), ("end", "S1")])  # NUL-padded text, then "," or "\n"
_CSV_CELLS = 1 << 14
"Cells formatted at a time by write_csv; the formatter's scratch arrays stay in cache."


def _csv_lines(table: np.ndarray) -> bytes:
    "A 2-D block as CSV lines, each cell exactly the bytes '%.10g' % v gives."
    x = np.ascontiguousarray(table, dtype=float).ravel()
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        fast = (e >= _FIXED[0]) & (e <= _FIXED[-1])
        e = np.where(fast, e, 0.0).astype(np.int64)
        m = a * _SCALE[e - _FIXED[0]]
        r = np.rint(m)
        fast &= (r >= 1e9) & (r < 1e10) & (np.abs(np.abs(m - r) - 0.5) >= 1e-5)
    n = np.where(fast, r, 1e9).astype(np.int64)
    hi = n // 100_000_000
    lo1, lo2 = np.divmod(n - hi * 100_000_000, 10_000)
    # the ten digits as bytes 0..9 of two little-endian words
    last = _DIGITS[lo2]
    w0 = _DIGITS[hi] >> 16 | _DIGITS[lo1] << 16 | last << 48
    w1 = last >> 16
    tz = _TRAILING[lo2] + (lo2 == 0) * (_TRAILING[lo1] + (lo1 == 0) * _TRAILING[hi])
    whole = np.maximum(e + 1, 0)  # digits before the point
    keep = np.maximum(10 - tz, whole)  # digits printed
    w0 &= _BELOW0[keep]
    w1 &= _BELOW1[keep]
    # a point after the whole digits when a fraction is left: the bytes from p move up one
    p = np.where((keep > whole) & (e >= 0), whole, 16)
    below0, below1 = _BELOW0[p], _BELOW1[p]
    moved = w0 & ~below0
    w1 = w1 & below1 | (w1 & ~below1) << 8 | moved >> 56 | _DOT1[p]
    w0 = w0 & below0 | moved << 8 | _DOT0[p]
    # the sign and, for e < 0, "0." and -e - 1 zeros go in front
    j = np.minimum(e, 0) + 4 + 5 * (x < 0)
    shift = _SHIFT[j]
    words = np.zeros((x.size, 3), "<u8")
    words[:, 0] = w0 << shift | _PREFIX.view("<u8")[j]
    words[:, 1] = w1 << shift | w0 >> 8 >> 56 - shift
    cells = words.view(_CELL).reshape(table.shape)
    cells["end"] = b","
    cells["end"][:, -1] = b"\n"
    bad = np.flatnonzero(~fast)
    cells.reshape(-1)["text"][bad] = list(map(b"%.10g".__mod__, x[bad].tolist()))
    raw = words.view(np.uint8).reshape(-1)
    return raw[raw != 0].tobytes()  # each cell's NUL padding goes


def write_chunks(path: str | Path, chunks: Iterable) -> str:
    "Write bytes-like chunks to path in order; returns the SHA-256 hex digest of the bytes written."
    sha = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            sha.update(chunk)
            fh.write(chunk)
    return sha.hexdigest()


def write_csv(path: str | Path, header: str, *columns) -> str:
    """Write a header line, then 1-D columns and 2-D blocks side by side as CSV.

    Every cell is the bytes '%.10g' % v gives, and the file ends with a newline. Returns the
    SHA-256 hex digest of the bytes written.
    """
    width = sum(np.shape(c)[1] if np.ndim(c) == 2 else 1 for c in columns)
    step = max(1, _CSV_CELLS // width)
    blocks = (_csv_lines(np.column_stack([c[start:start + step] for c in columns]))
              for start in range(0, max(map(len, columns)), step))  # unequal lengths fail a stack
    return write_chunks(path, itertools.chain([header.encode() + b"\n"], blocks))


def grid_to_csv(grid: BeampatternGrid, path: str | Path) -> str:
    """Write a grid as CSV: header row of theta in degrees, first column t in us.

    Cell values are dB or linear magnitudes according to the grid's
    normalization tag. Returns the digest as write_csv does.
    """
    theta_deg = np.degrees(grid.theta_axis)
    header = "t_us," + _csv_lines(theta_deg[None, :]).decode()[:-1]
    return write_csv(path, header, grid.t_axis * 1e6, grid.values)


def grid_from_csv(path: str | Path, normalization: str = "linear-magnitude") -> BeampatternGrid:
    "Read back a grid written by grid_to_csv."
    lines = Path(path).read_text().strip().splitlines()
    theta = np.radians([float(v) for v in lines[0].split(",")[1:]])
    t_axis, rows = [], []
    for line in lines[1:]:
        cells = line.split(",")
        t_axis.append(float(cells[0]) * 1e-6)
        rows.append([float(v) for v in cells[1:]])
    return BeampatternGrid(np.asarray(t_axis), theta, np.asarray(rows), normalization)


def grid_to_binary(grid: BeampatternGrid, path: str | Path) -> str:
    """Row-major float64 dump with a fixed header; returns the SHA-256 hex digest of the bytes.

    Header: 8-byte magic, uint32 N_t, uint32 N_theta, then float64 axis ranges
    (t0, t1, theta0, theta1); values follow in row-major order.
    """
    header = GRID_MAGIC + struct.pack(
        "<II4d", grid.t_axis.size, grid.theta_axis.size,
        grid.t_axis[0], grid.t_axis[-1], grid.theta_axis[0], grid.theta_axis[-1],
    )
    return write_chunks(path, (header, memoryview(np.ascontiguousarray(grid.values, "<f8"))))


def grid_from_binary(path: str | Path, normalization: str = "linear-magnitude") -> BeampatternGrid:
    "Read back a grid written by grid_to_binary."
    raw = Path(path).read_bytes()
    if raw[:8] != GRID_MAGIC:
        raise ValueError(f"{path} is not a beampattern grid dump")
    n_t, n_th, t0, t1, th0, th1 = struct.unpack("<II4d", raw[8:8 + 40])
    values = np.frombuffer(raw[48:], dtype="<f8").reshape(n_t, n_th)
    return BeampatternGrid(np.linspace(t0, t1, n_t), np.linspace(th0, th1, n_th),
                           values, normalization)
