"""Output checks for one executed scenario.

Every artifact the scenario should write must be listed in ``manifest.json``
with a matching SHA-256, and nothing else may be written. Grids are read back
through the program's own readers (``grid_from_csv`` / ``grid_from_binary``)
and seeded cells are compared with an independent per-element oracle: a plain
Python sum over elements of the exact phases, written from the model's
definition and sharing no code with the engines.

Tolerance: a cell may differ from the oracle by at most ``CELL_TOL`` times the
largest magnitude the sum can reach (sum of |w_m| times the envelope amplitude,
or M for the unit-weight Dirichlet forms). CSV cells carry 10 significant
digits, a relative rounding of at most 5e-10, and float64 phase errors are far
smaller, so 1e-8 leaves 20x headroom; a wrong phase term moves cells by 1e-2
or more of that scale.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from fdabeam.beampattern_instant import grid_from_binary, grid_from_csv

from workloads import C, Spec

CELL_TOL = 1e-8
DB_TOL = 1e-6          # dB cells against 20*log10(linear/peak), floored at DB_FLOOR
DB_FLOOR = -60.0
PEAK_TOL = 1e-9        # curve peaks must read 0 dB (or 1.0 when peak-normalized)
MIMO_ZERO_TOL = 1e-12  # at 0 Hz the MIMO and offset-array constructions coincide
SEEDED_CELLS = 24


class CheckError(Exception):
    "An artifact is missing, unexpected, or differs from the oracle."


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def theta_axis(n: int) -> np.ndarray:
    "Azimuth cell centres strictly inside (-pi/2, pi/2)."
    return -np.pi / 2 + (np.arange(n) + 0.5) * (np.pi / n)


def _tag(value: float, unit_div: float, unit: str) -> str:
    return f"{value / unit_div:g}{unit}"


def expected_files(spec: Spec) -> set[str]:
    "Artifact names the scenario format promises for these sections (manifest excluded)."
    ext = ".csv" if spec.fmt == "csv" else ".bin"
    names = set()
    for name, p in spec.sections:
        if name == "fitb_grid":
            names |= {"fitb_grid_db" + ext, "fitb_grid" + ext}
            if p["trajectory"]:
                names.add("trajectory.csv")
        elif name == "zero_time_cut":
            names |= {f"zero_time_cut_{tok.replace('-', '_')}.csv" for tok in p["spacings"]}
        elif name == "legacy_grid":
            for r in p["ranges"]:
                tag = _tag(r, 1e3, "km")
                names |= {f"fitb_r{tag}{ext}", f"legacy_r{tag}{ext}"}
        elif name == "fgtb_curve":
            names |= {f"fgtb_df{_tag(f, 1e3, 'kHz')}.csv" for f in p["offsets"]}
        elif name == "mimo_compare":
            names |= {f"mimo_compare_df{_tag(f, 1e3, 'kHz')}.csv" for f in p["offsets"]}
            names.add("mimo_compare_report.txt")
        elif name == "scan_report":
            names.add("scan_report.txt")
        elif name == "schedule":
            names |= {"schedule_grid" + ext, "schedule_trajectory.csv", "schedule_phase.csv"}
    return names


def verify_manifest(out: Path, spec: Spec) -> int:
    "Manifest lists exactly the expected files with matching hashes; returns bytes hashed."
    manifest = json.loads((out / "manifest.json").read_text())
    listed = manifest["artifacts"]
    on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    expected = expected_files(spec)
    _require(on_disk == expected,
             f"written {sorted(on_disk ^ expected)} differ from the expected artifact set")
    _require(set(listed) == on_disk, f"manifest lists {sorted(set(listed) ^ on_disk)} wrongly")
    total = 0
    for name, digest in listed.items():
        raw = (out / name).read_bytes()
        total += len(raw)
        _require(hashlib.sha256(raw).hexdigest() == digest, f"{name}: SHA-256 mismatch")
    return total


# --- oracle ----------------------------------------------------------------

def _chi(plan: tuple, m: int, tau: float) -> float:
    "Instantaneous offset m*rate*g(tau/time_scale) of a time-modulated plan."
    _, form, rate, time_scale = plan
    x = tau / time_scale
    g = {"sqrt": lambda v: math.sqrt(max(v, 0.0)),
         "cbrt": lambda v: math.copysign(abs(v) ** (1.0 / 3.0), v),
         "arctan": math.atan, "sinh": math.sinh}[form]
    return m * rate * g(x)


def exact_cell(spec: Spec, t: float, theta: float, extra_cycles: float = 0.0) -> complex:
    """Exact field at retarded time t, azimuth theta: sum over elements of
    conj(w_m) * s(t) * exp(j*2*pi*(phase_m + m*extra_cycles)).

    phase_m is df_m*t + (fc+df_m)*m*d*sin(theta)/c for static offsets, and
    fc*m*d*sin(theta)/c + chi_m(tau)*tau at the element-local time
    tau = t + m*d*sin(theta)/c for time-modulated plans; s is the unit-energy
    rectangular envelope on [0, T_p].
    """
    s = math.sin(theta)
    d = spec.spacing
    amp = 1.0 / math.sqrt(spec.tp) if 0.0 <= t <= spec.tp else 0.0
    tm = spec.plan[0] == "time-modulated"
    offsets = None if tm else spec.offsets()
    total = 0j
    for m in range(spec.m):
        geo = m * d * s / C
        if tm:
            tau = t + geo
            phase = spec.fc * geo + _chi(spec.plan, m, tau) * tau
        else:
            df = float(offsets[m])
            phase = df * t + (spec.fc + df) * geo
        total += complex(spec.weights[m]).conjugate() * cmath.exp(
            2j * math.pi * (phase + m * extra_cycles))
    return amp * total


def dirichlet_cell(m_count: int, u: float) -> float:
    "|sum_m exp(j*2*pi*m*u)|, the unit-weight array factor."
    return abs(sum(cmath.exp(2j * math.pi * m * u) for m in range(m_count)))


def itinerary(segments, t: float) -> float:
    "Scheduled azimuth at t: hold the first start angle, sweep inside legs, hold between."
    angle = segments[0][2]
    for t_a, t_b, th_a, th_b in segments:
        if t < t_a:
            break
        if t <= t_b:
            return th_a + (t - t_a) / (t_b - t_a) * (th_b - th_a)
        angle = th_b
    return angle


def schedule_phi(spec: Spec, segments, t: float) -> float:
    "Per-element phase step in cycles: cancels the offset sweep, repoints the carrier slope."
    return -spec.uniform_df * t - spec.fc / C * spec.spacing * math.sin(itinerary(segments, t))


# --- artifact checks -------------------------------------------------------

def _read_grid(path: Path, normalization: str):
    reader = grid_from_csv if path.suffix == ".csv" else grid_from_binary
    return reader(path, normalization)


def _check_grid(path: Path, spec: Spec, n_time: int, n_theta: int, oracle, scale: float,
                rng: np.random.Generator, t0: float = 0.0) -> np.ndarray:
    """Read a linear grid back; check shape, axes and seeded cells.

    oracle(i, t, theta) gives the magnitude of cell (i, theta) at time t.
    """
    grid = _read_grid(path, "linear-magnitude")
    _require(grid.values.shape == (n_time, n_theta), f"{path.name}: shape {grid.values.shape}")
    t = t0 + np.linspace(0.0, spec.tp, n_time)
    th = theta_axis(n_theta)
    _require(np.allclose(grid.t_axis, t, rtol=1e-9, atol=1e-15), f"{path.name}: time axis")
    _require(np.allclose(grid.theta_axis, th, rtol=0.0, atol=1e-9), f"{path.name}: azimuth axis")
    for i, j in zip(rng.integers(0, n_time, SEEDED_CELLS), rng.integers(0, n_theta, SEEDED_CELLS)):
        want = oracle(int(i), float(t[i]), float(th[j]))
        got = float(grid.values[i, j])
        _require(abs(got - want) <= CELL_TOL * scale,
                 f"{path.name}[{i},{j}] = {got!r}, oracle {want!r}")
    return grid.values


def _check_db_grid(path: Path, linear: np.ndarray) -> None:
    "The dB grid is 20*log10 of the linear grid over its peak, floored; it peaks at 0 dB."
    db = _read_grid(path, "dB-rel-peak").values  # the reader rejects a peak other than 0 dB
    with np.errstate(divide="ignore"):
        want = np.maximum(20.0 * np.log10(linear / linear.max()), DB_FLOOR)
    _require(db.shape == want.shape and np.abs(db - want).max() <= DB_TOL,
             f"{path.name}: differs from the linear grid by {np.abs(db - want).max():.3g} dB")


def _read_table(path: Path, header: str) -> np.ndarray:
    lines = path.read_text().splitlines()
    _require(lines[0] == header, f"{path.name}: header {lines[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], ndmin=2)
    _require(np.all(np.isfinite(rows)), f"{path.name}: non-finite values")
    return rows


def _check_trajectory(path: Path, spec: Spec, n_time: int) -> None:
    rows = _read_table(path, "t_us,theta_deg")
    if rows.size:
        _require(rows.shape[0] <= n_time and np.all(np.diff(rows[:, 0]) > 0)
                 and rows[0, 0] >= 0.0 and rows[-1, 0] <= spec.tp * 1e6 * (1 + 1e-9)
                 and np.all(np.abs(rows[:, 1]) < 90.0), f"{path.name}: malformed trajectory")


def _amp_scale(spec: Spec) -> float:
    return float(np.abs(spec.weights).sum()) / math.sqrt(spec.tp)


def _fitb(out: Path, spec: Spec, p: dict, ext: str, rng: np.random.Generator) -> None:
    if p["engine"] == "closed_form":
        df, d = spec.uniform_df, spec.spacing

        def oracle(i, t, th):
            return dirichlet_cell(spec.m, df * t + (spec.fc + df) * d * math.sin(th) / C)
        scale = spec.m
    else:
        def oracle(i, t, th):
            return abs(exact_cell(spec, t, th))
        scale = _amp_scale(spec)
    lin = _check_grid(out / f"fitb_grid{ext}", spec, p["n_time"], p["n_theta"], oracle, scale, rng)
    _check_db_grid(out / f"fitb_grid_db{ext}", lin)
    if p["trajectory"]:
        _check_trajectory(out / "trajectory.csv", spec, p["n_time"])


def _zero_time_cut(out: Path, spec: Spec, p: dict, rng: np.random.Generator) -> None:
    df = spec.uniform_df
    th = theta_axis(p["n_theta"])
    for token in p["spacings"]:
        d = spec.lambda0() / (2.0 if token == "half-wavelength" else 1.0)
        path = out / f"zero_time_cut_{token.replace('-', '_')}.csv"
        rows = _read_table(path, "theta_deg,value")
        _require(rows.shape == (p["n_theta"], 2), f"{path.name}: shape {rows.shape}")
        _require(np.allclose(rows[:, 0], np.degrees(th), rtol=1e-9, atol=1e-7),
                 f"{path.name}: azimuth axis")
        for j in rng.integers(0, p["n_theta"], SEEDED_CELLS):
            want = dirichlet_cell(spec.m, (spec.fc + df) * d * math.sin(th[j]) / C)
            _require(abs(rows[j, 1] - want) <= CELL_TOL * spec.m,
                     f"{path.name}[{j}] = {rows[j, 1]!r}, oracle {want!r}")


def _legacy(out: Path, spec: Spec, p: dict, ext: str, rng: np.random.Generator) -> None:
    df, d = spec.uniform_df, spec.spacing
    t0 = max(p["ranges"]) / C  # legacy grids share an absolute axis anchored at the furthest range

    def exact(i, t, th):
        return abs(exact_cell(spec, t, th))
    for r in p["ranges"]:
        tag = _tag(r, 1e3, "km")
        _check_grid(out / f"fitb_r{tag}{ext}", spec, p["n_time"], p["n_theta"], exact,
                    _amp_scale(spec), rng)

        def legacy(i, t, th, r=r):
            u = df * t - df * r / C + (spec.fc + df) * d * math.sin(th) / C
            return dirichlet_cell(spec.m, u)
        _check_grid(out / f"legacy_r{tag}{ext}", spec, p["n_time"], p["n_theta"], legacy,
                    spec.m, rng, t0=t0)


def _curves(out: Path, p: dict, prefix: str, header: str) -> None:
    th_deg = np.degrees(theta_axis(p["n_theta"]))
    for f in p["offsets"]:
        path = out / f"{prefix}{_tag(f, 1e3, 'kHz')}.csv"
        rows = _read_table(path, header)
        _require(rows.shape == (p["n_theta"], len(header.split(","))),
                 f"{path.name}: shape {rows.shape}")
        _require(np.allclose(rows[:, 0], th_deg, rtol=1e-9, atol=1e-7),
                 f"{path.name}: azimuth axis")
        peak = 0.0 if header.endswith("value_db") else 1.0
        for col in range(1, rows.shape[1]):
            _require(abs(rows[:, col].max() - peak) <= PEAK_TOL,
                     f"{path.name}: column {col} peaks at {rows[:, col].max()!r}, not {peak}")


def _mimo_report(out: Path, p: dict) -> None:
    lines = (out / "mimo_compare_report.txt").read_text().splitlines()
    _require(len(lines) == len(p["offsets"]), "mimo_compare_report.txt: one line per offset")
    for f, line in zip(p["offsets"], lines):
        fields = dict(part.split(" = ") for part in line.replace(" : ", ", ").split(", ")
                      if " = " in part)
        _require(math.isclose(float(fields["offset_hz"]), f, rel_tol=1e-9, abs_tol=1e-9),
                 f"mimo_compare_report.txt: offset {fields['offset_hz']}")
        deviation = float(fields["max_deviation"].split()[0])
        if f == 0.0:
            _require(deviation <= MIMO_ZERO_TOL, f"MIMO deviation {deviation!r} at 0 Hz")


def _scan_report(out: Path, spec: Spec) -> None:
    lines = (out / "scan_report.txt").read_text().splitlines()
    table = dict(line.split(" = ", 1) for line in lines)
    df = spec.uniform_df
    want = C * df * spec.tp / ((spec.fc + df) * spec.spacing)
    _require(abs(float(table["scan_volume_exact"]) - want) <= 1e-7,
             f"scan_volume_exact {table['scan_volume_exact']}, expected {want:.8f}")


def _schedule(out: Path, spec: Spec, p: dict, ext: str, rng: np.random.Generator) -> None:
    segs = p["segments"]
    t = np.linspace(0.0, spec.tp, p["n_time"])
    phi = [schedule_phi(spec, segs, float(ti)) for ti in t]

    def oracle(i, ti, th):
        return abs(exact_cell(spec, ti, th, extra_cycles=phi[i]))
    _check_grid(out / f"schedule_grid{ext}", spec, p["n_time"], p["n_theta"], oracle,
                _amp_scale(spec), rng)
    _check_trajectory(out / "schedule_trajectory.csv", spec, p["n_time"])
    rows = _read_table(out / "schedule_phase.csv", "t_us,phi_cycles,target_theta_deg")
    target = np.degrees([itinerary(segs, float(ti)) for ti in t])
    _require(rows.shape == (p["n_time"], 3) and np.abs(rows[:, 1] - phi).max() <= 1e-8
             and np.abs(rows[:, 2] - target).max() <= 1e-6, "schedule_phase.csv: phase plan")


def check_scenario(out: Path, spec: Spec, rng: np.random.Generator) -> int:
    "Run every check on one output directory; raises CheckError, returns bytes hashed."
    hashed = verify_manifest(out, spec)
    ext = ".csv" if spec.fmt == "csv" else ".bin"
    for name, p in spec.sections:
        if name == "fitb_grid":
            _fitb(out, spec, p, ext, rng)
        elif name == "zero_time_cut":
            _zero_time_cut(out, spec, p, rng)
        elif name == "legacy_grid":
            _legacy(out, spec, p, ext, rng)
        elif name == "fgtb_curve":
            _curves(out, p, "fgtb_df", "theta_deg,value_db")
        elif name == "mimo_compare":
            _curves(out, p, "mimo_compare_df", "theta_deg,fgtb_norm,mimo_norm")
            _mimo_report(out, p)
        elif name == "scan_report":
            _scan_report(out, spec)
        elif name == "schedule":
            _schedule(out, spec, p, ext, rng)
    return hashed
