#!/usr/bin/env python3
"""Mutation audit: does the test suite fail on each of a fixed set of single-site faults?

Each mutant in MUTANTS names a file under src/fdabeam, an exact text that must
occur in it exactly once, and the text that replaces it.  Every selected
mutant's text is checked first, and all stale entries are listed together
before any suite runs.  For every mutant the script copies src/, tests/,
pyproject.toml and README.md (a test loads its example scenario) into a fresh
temporary directory, applies the edit there, runs the suite with ``-x`` and
prints "killed" (the suite failed) or "SURVIVED".
The working tree is never modified.  The unmutated copy runs first: if it
fails, no verdict would mean anything.

It is not part of the test suite.  A full pass runs the suite once more than
there are mutants: on a 2-core Xeon, about 28 s per survivor and 4-30 s per
killed mutant, about ten minutes in all.

Usage:
    python scripts/mutation_audit.py            # every mutant
    python scripts/mutation_audit.py NAME ...   # the named mutants
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/fdabeam, old text occurring exactly once, new text)
MUTANTS = (
    ("panel-weights-doubled", "beampattern_integral.py",
     "np.tile(0.5 * width * node_weights, panels)", "np.tile(width * node_weights, panels)"),
    ("fgtb-without-1/Tp", "beampattern_integral.py",
     "return _steered_power(r, w, steer) / config.pulse_duration",
     "return _steered_power(r, w, steer)"),
    ("panel-cycles-13", "beampattern_integral.py",
     "PANEL_CYCLES = 9.5", "PANEL_CYCLES = 13.0"),
    ("panel-order-24", "beampattern_integral.py",
     "PANEL_ORDER = 32", "PANEL_ORDER = 24"),
    ("rate-start-spread-only", "beampattern_integral.py",
     "max(np.ptp(start), np.ptp(end))", "np.ptp(start)"),
    ("offsets-not-folded", "beampattern_integral.py",
     "with_freq_offset(wf, off).sample(t)", "wf.sample(t)"),
    ("mimo-compare-fda-side-unsteered", "beampattern_integral.py",
     "combined_angle_steering(config, plan, theta))",
     "combined_angle_steering(config, UniformPlan(0.0), theta))"),
    ("peak-refinement-off", "scan_analytics.py",
     "fit = (denom != 0.0) & (x0 <= s_peak) & (s_peak <= x2)",
     "fit = np.zeros(s_peak.shape, dtype=bool)"),
    ("zero-time-peaks-last-order", "scan_analytics.py",
     "for k in range(-k_max, k_max + 1))", "for k in range(-k_max, k_max))"),
    ("grating-index-is-highest-order", "scan_analytics.py",
     'f"grating_index = {k}"', 'f"grating_index = {(len(peaks) - 1) // 2}"'),
    ("ambiguity-threshold-0.3", "scan_analytics.py",
     "values[rows, j] < 0.5 * ref", "values[rows, j] < 0.3 * ref"),
    # in a gap between segments the beam takes the next segment's start angle
    ("itinerary-holds-next-start-angle", "scan_analytics.py",
     "np.where(i > 0, th_b[i - 1], th_a[0])", "th_a[j]"),
    # the paper's (f_c + delta_f) in the grating step every scan law scales, with f_c alone
    ("grating-step-carrier-only", "scan_analytics.py",
     "return config.wave_speed / ((config.carrier_freq + delta_f) * config.spacing)",
     "return config.wave_speed / (config.carrier_freq * config.spacing)"),
    ("csv-reader-drops-first-row", "beampattern_instant.py",
     "table[:, 0] * 1e-6, theta, table[:, 1:]", "table[1:, 0] * 1e-6, theta, table[1:, 1:]"),
    ("chi-at-retarded-time", "beampattern_instant.py",
     "plan.chi(mi, tau, out=cycles)", "plan.chi(mi, times, out=cycles)"),
    ("row-start-without-element-0", "beampattern_instant.py",
     "np.subtract(columns[:, :1], columns[:, 1:].sum(axis=1, keepdims=True), out=out)",
     "np.negative(columns[:, 1:].sum(axis=1, keepdims=True), out=out)"),
    ("element-loop-from-0", "beampattern_instant.py",
     "for mi in range(1, delay.shape[0]):", "for mi in range(delay.shape[0]):"),
    # Survives, and is equivalent at float64 precision: the bound's target, 1e-17, lies two
    # orders of magnitude below rounding, so one order less moves the product rows' error
    # against long-double phases by under 10% (arctan 100 kHz/0.5 us: 2.63e-15 to 2.88e-15).
    ("interp-order-one-below", "beampattern_instant.py",
     "orders = np.ceil(np.log(bound) / np.log(2.0 * radius))",
     "orders = np.ceil(np.log(bound) / np.log(2.0 * radius)) - 1"),
    ("interp-order-two-below", "beampattern_instant.py",
     "orders = np.ceil(np.log(bound) / np.log(2.0 * radius))",
     "orders = np.ceil(np.log(bound) / np.log(2.0 * radius)) - 2"),
    ("kink-rule-dropped", "beampattern_instant.py",
     "    if not plan.smooth:\n        orders[(lo <= 0.0) & (hi >= 0.0)] = np.inf\n", ""),
    ("pole-rule-dropped", "beampattern_instant.py",
     "    orders[(hi - t_prime) * 2.0 > plan.time_scale] = np.inf\n", ""),
    # rows whose spread over their own tau range reaches 0.05 cycle sent to the loop
    ("spread-cap-restored", "beampattern_instant.py",
     "    order = np.maximum(np.fmin.reduce(orders, initial=np.inf), 1.0)\n",
     "    order = np.maximum(np.fmin.reduce(orders, initial=np.inf), 1.0)\n"
     "    lo, hi = local_time_ends(config, t_prime)\n"
     "    with np.errstate(all=\"ignore\"):\n"
     "        spread = scale * np.maximum(np.abs(plan.phase_slope(lo)), "
     "np.abs(plan.phase_slope(hi)))\n"
     "    order[~(spread < 0.05)] = np.inf\n"),
    # a row with no bound at any radius takes a nan order, which sends every row to the loop
    ("nan-order-ends-the-product", "beampattern_instant.py",
     "np.fmin.reduce(orders, initial=np.inf)", "np.fmin.reduce(orders)"),
    # the rows up to the cost model's order interpolated at the smallest order of any row
    ("shared-order-is-smallest", "beampattern_instant.py",
     "int(ranked[best])", "int(ranked[0])"),
    ("product-chi-at-row-time", "beampattern_instant.py",
     "cycles = plan.chi(index[1:, None], tau) * tau",
     "cycles = plan.chi(index[1:, None], t_prime[start:stop, None, None] + 0 * tau) * tau"),
    ("legacy-without-range-term", "beampattern_instant.py",
     "        - delta_f * r / config.wave_speed\n", ""),
    # the Dirichlet form's carrier term, shared by the legacy and the closed form
    ("closed-form-carrier-only", "beampattern_instant.py",
     "+ (config.carrier_freq + delta_f) * config.spacing * np.sin(theta) / config.wave_speed\n",
     "+ config.carrier_freq * config.spacing * np.sin(theta) / config.wave_speed\n"),
    ("csv-tie-guard-off", "beampattern_instant.py",
     " & (np.abs(np.abs(m - r) - 0.5) >= 1e-5)", ""),
    ("csv-fixed-range-to-e10", "beampattern_instant.py",
     "_FIXED = np.arange(-4, 10)", "_FIXED = np.arange(-4, 11)"),
    ("csv-point-on-integral-values", "beampattern_instant.py",
     "p = np.where((keep > whole) & (e >= 0), whole, 16)", "p = np.where(e >= 0, whole, 16)"),
    # artifact digests that disagree with the bytes written
    ("sink-hashes-first-chunk-only", "beampattern_instant.py",
     "            sha.update(chunk)\n",
     "            if not fh.tell():\n                sha.update(chunk)\n"),
    # a header written to the file outside the sink, so its digest covers the rest only
    ("csv-digest-skips-header", "beampattern_instant.py",
     '    return write_chunks(path, itertools.chain([header.encode() + b"\\n"], blocks))\n',
     "    digest = write_chunks(path, blocks)\n"
     '    Path(path).write_bytes(header.encode() + b"\\n" + Path(path).read_bytes())\n'
     "    return digest\n"),
    ("binary-digest-skips-header", "beampattern_instant.py",
     "    return write_chunks(path, (header, "
     'memoryview(np.ascontiguousarray(grid.values, "<f8"))))\n',
     '    digest = write_chunks(path, (memoryview(np.ascontiguousarray(grid.values, "<f8")),))\n'
     "    Path(path).write_bytes(header + Path(path).read_bytes())\n"
     "    return digest\n"),
    ("legacy-copy-takes-wrong-digest", "cli.py",
     "                      digest for name, digest in written.items()",
     '                      written[f"legacy_r{tag}{Path(name).suffix}"]'
     " for name, digest in written.items()"),
    ("skip-element-frequency-check", "cli.py",
     "    if config.carrier_freq + plan_offsets(plan, config.num_elements).min() <= 0:",
     "    if False:"),
    ("skip-time-modulated-frequency-check", "cli.py",
     "    if not lowest > 0:", "    if False:"),
    ("skip-unique-tags", "cli.py",
     "    first: dict[str, str] = {}\n", "    return tags\n"),
    ("skip-phase-cycle-check", "cli.py",
     "    if not cycles < MAX_PHASE_CYCLES:", "    if False:"),
    ("skip-legacy-time-axis-check", "cli.py",
     "    if np.any(np.diff(t_axis) <= 0):", "    if False:"),
    ("skip-waveform-key-check", "cli.py",
     "if key != selector and key not in reads[kind]:",
     'if sec.name != "waveforms" and key != selector and key not in reads[kind]:'),
    ("skip-plan-weights-key-check", "cli.py",
     "if key != selector and key not in reads[kind]:",
     'if sec.name == "waveforms" and key != selector and key not in reads[kind]:'),
    ("blas-scope-keeps-previous-count", "cli.py",
     "    set_(1)\n", "    set_(previous)\n"),
    ("skip-empty-formats-check", "cli.py",
     "        if not formats:", "        if False:"),
    ("chirp-rate-overflow-uncaught", "cli.py",
     '    with _invalid("waveforms"):', "    with contextlib.nullcontext():"),
    ("validation-error-without-where", "cli.py",
     'raise ScenarioValidationError(f"{where}: {exc}") from exc',
     "raise ScenarioValidationError(str(exc)) from exc"),
    ("non-utf-8-uncaught", "cli.py",
     "    except UnicodeDecodeError as exc:", "    except LookupError as exc:"),
    ("worker-result-not-read", "cli.py",
     "    if failed:\n        raise failed[0]\n", ""),
    ("writers-not-joined", "cli.py",
     "    worker.join()\n", ""),
    ("pool-loaded-for-every-section", "cli.py",
     "    worker = threading.Thread(",
     "    from concurrent.futures import ThreadPoolExecutor  # noqa: F401\n"
     "    worker = threading.Thread("),
    # preset texts that no longer make their figure's claim
    ("preset-fig5b-steered-to-50-deg", "presets.py",
     '"steered\\nangle = 60 deg"', '"steered\\nangle = 50 deg"'),
    ("preset-fig3d-offset-300-khz", "presets.py",
     '_fitb("fig3 400 kHz", "400 kHz")', '_fitb("fig3 400 kHz", "300 kHz")'),
    # at 10 MHz the wavelength cut's grating lobe stays below 0.95*M within the sector
    ("preset-fig2-offset-10-mhz", "presets.py",
     '"uniform\\noffset = 100 Hz"', '"uniform\\noffset = 10 MHz"'),
    ("preset-fig4-offset-60-khz", "presets.py",
     '_fitb("fig4", "80 kHz")', '_fitb("fig4", "60 kHz")'),
    ("preset-fig7c-scale-40-khz", "presets.py",
     '_fig7("logarithmic", "50 kHz")', '_fig7("logarithmic", "40 kHz")'),
    # the orthogonal-regime curve, fgtb_df10000kHz.csv, is no longer written
    ("preset-fig8-last-offset-10-khz", "presets.py",
     '"5 MHz, 10 MHz\\n', '"5 MHz, 10 kHz\\n'),
    ("preset-fig9-first-offset-1-hz", "presets.py",
     '"[mimo_compare]\\noffsets = 0 Hz, ', '"[mimo_compare]\\noffsets = 1 Hz, '),
    # a random coding without a seed draws fresh offsets on every load
    ("coded-random-without-seed-check", "waveform.py",
     "    if seed is None:\n        raise ValueError(\"random FO coding requires a seed\")\n", ""),
    # units looked up without their case: 5 mHz reads as 5 MHz, 1 Ms as 1 ms, 10 ghz as 10 GHz
    ("unit-lookup-case-folded", "cli.py",
     "    suffix = match.group(2)\n",
     "    suffix, units = match.group(2).lower(), {u.lower(): s for u, s in units.items()}\n"),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _stale(table: dict, names) -> list[str]:
    "One line for each named mutant whose text does not occur exactly once in its file."
    lines = []
    for name in names:
        filename, old, _ = table[name]
        count = (ROOT / "src" / "fdabeam" / filename).read_text().count(old)
        if count != 1:
            lines.append(f"{name}: text occurs {count} times in {filename}, not once: {old!r}")
    return lines


def _mutate(dest: Path, filename: str, old: str, new: str) -> None:
    path = dest / "src" / "fdabeam" / filename
    path.write_text(path.read_text().replace(old, new))


def _suite_passes(dest: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(dest / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=dest, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()

    table = {name: rest for name, *rest in MUTANTS}
    unknown = [name for name in args.names if name not in table]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    names = args.names or list(table)
    stale = _stale(table, names)
    if stale:
        print("stale mutant(s), fix before any suite runs:", *stale, sep="\n", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="fdabeam-mutant-") as tmp:
        base = Path(tmp) / "unmutated"
        _copy_tree(base)
        if not _suite_passes(base):
            print("the unmutated suite fails; no verdict is possible", file=sys.stderr)
            return 1
        survivors = 0
        for name in names:
            start = time.perf_counter()
            work = Path(tmp) / "mutant"
            shutil.rmtree(work, ignore_errors=True)
            _copy_tree(work)
            _mutate(work, *table[name])
            killed = not _suite_passes(work)
            survivors += not killed
            print(f"{name:32s} {'killed' if killed else 'SURVIVED':8s} "
                  f"{time.perf_counter() - start:6.1f}s", flush=True)
    print(f"{survivors} survivor(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
