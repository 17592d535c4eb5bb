"""Layered scenario benchmark for fdabeam.

Usage (from the repository root):

    python3 benchmarks/run.py --workload preset_grids_csv --seed 1 --seconds 50 --trace 0

Generates scenarios from the seed and runs them in this process through
``cli.load_scenario`` + ``cli.execute_scenario``: a closed loop with one
client, one scenario at a time. Every scenario's artifacts are checked and
then deleted. ``--trace 0`` prints the end-to-end metrics, timings scaled to
the machine's quiet speed by a reference kernel timed around each of them;
``--trace 1`` prints the per-layer metrics of a traced run (see README.md). The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Result details,
machine facts and spans go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# FDABEAM_OUT would redirect every scenario into one directory and
# FDABEAM_THREADS switches sweep_grid to its thread-pool path.
CLEARED_ENV = ("FDABEAM_OUT", "FDABEAM_THREADS")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
# The reference machine's speed drifts with its neighbours' load: the same
# scenario runs up to 1.4-1.8x slower in phases of seconds to minutes, long
# enough that the raw medians of two 50 s runs of the same code differ by more
# than the benchmark's bounds. Every timing metric is therefore scaled to the
# machine's quiet speed: a fixed kernel is timed before the first and after
# every timed step, and each wall time is multiplied by REFERENCE_KERNEL_S over
# the median of the three kernel times on either side of it. The median follows
# the slow phases but not a single kernel that was preempted.
# The kernel does the two kinds of work the scenarios spend their time on,
# float-to-text formatting and parsing, and element-wise numpy over arrays
# larger than L2, in this file's own code, so no change to fdabeam changes it.
# Raw wall times are printed beside the scaled ones and kept in the result.
REFERENCE_KERNEL_S = 14e-3  # the kernel's time on the reference machine when quiet
_KERNEL_GRID = np.random.default_rng(0).random((8, 1024)) * 7e3
_KERNEL_X = np.linspace(0.0, 6.0, 1 << 17)


def reference_kernel_s() -> float:
    "Seconds the fixed reference kernel takes now (no BLAS; about 14 ms when quiet)."
    t0 = time.perf_counter()
    text = "\n".join(",".join(f"{v:.10g}" for v in row) for row in _KERNEL_GRID)
    sum(float(v) for line in text.splitlines() for v in line.split(","))
    for _ in range(3):
        np.abs(np.exp(1j * _KERNEL_X)).sum()
    return time.perf_counter() - t0


def at_quiet_speed(walls: list, kernels: list[float]) -> list[float]:
    """The walls that are not None, scaled to the machine's quiet speed.
    kernels[i] and kernels[i + 1] are the kernel times right before and right
    after walls[i]."""
    return [w * REFERENCE_KERNEL_S / statistics.median(kernels[max(0, i - 2): i + 4])
            for i, w in enumerate(walls) if w is not None]


def _blas_threads() -> int | None:
    "Thread count the loaded OpenBLAS reports, or None when it cannot be asked."
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(cleared: dict) -> dict:
    "Machine and software facts that both sides of a comparison must share."
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "fdabeam").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "fdabeam_commit": _commit(),
        "fdabeam_src_sha256": src_digest.hexdigest(),
        "cleared_env": cleared,
    }


def measure_setup(text: str, work: Path) -> tuple[list[float], list[float]]:
    """Seconds from import to the end of one warm-up scenario, each in a fresh
    interpreter: scaled to the quiet speed, and raw."""
    raw, kernels = [], [reference_kernel_s()]
    for k in range(SETUP_RUNS):
        out = work / f"setup{k}"
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(out)],
                              input=text, capture_output=True, text=True, timeout=150)
        shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        kernels.append(reference_kernel_s())
        raw.append(float(proc.stdout.split()[-1]))
    return at_quiet_speed(raw, kernels), raw


class Runner:
    "Runs and checks one case at a time, keeping per-scenario results."

    def __init__(self, cli, checks, work: Path, seed: int):
        self.cli, self.checks, self.work, self.seed = cli, checks, work, seed
        self.failures: list[str] = []

    def run(self, case, tracer=None) -> tuple[float | None, int]:
        """Wall seconds from parse through manifest write (None if the scenario
        failed) and the bytes its manifest hashes."""
        out = self.work / f"s{case.index}"
        try:
            if tracer is None:
                t0 = time.perf_counter()
                self.cli.execute_scenario(self.cli.load_scenario(case.text), out)
                wall = time.perf_counter() - t0
            else:
                with tracer.installed(case.index):
                    t0 = time.perf_counter()
                    with tracer.span("cli.load_scenario"):
                        sc = self.cli.load_scenario(case.text)
                    with tracer.span("cli.execute_scenario"):
                        self.cli.execute_scenario(sc, out)
                    wall = time.perf_counter() - t0
            rng = np.random.default_rng([self.seed, case.index, 3])
            return wall, self.checks.check_scenario(out, case.spec, rng)
        except Exception as exc:  # a failed scenario is counted, the run goes on
            line = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.failures.append(f"case {case.index} ({case.kind}): {line}")
            return None, 0
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fdabeam" / "cli.py").is_file():
        print(f"error: no fdabeam sources under {SRC}", file=sys.stderr)
        return 2
    cleared = {k: os.environ.pop(k, None) is not None for k in CLEARED_ENV}
    sys.path.insert(0, str(SRC))
    import fdabeam
    if Path(fdabeam.__file__).resolve().parent != (SRC / "fdabeam").resolve():
        print(f"error: imported fdabeam from {fdabeam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from fdabeam import cli

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        return _run(args, wl, cli, checks, tracing, work, environment(cleared))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, cli, checks, tracing, work: Path, env: dict) -> int:
    runner = Runner(cli, checks, work, args.seed)
    warm = wl.warmup(args.seed)
    setup, setup_raw = ([], []) if args.trace else measure_setup(warm.text, work)
    runner.run(warm)  # untimed; its failure, if any, is listed but not counted

    tracer = tracing.Tracer() if args.trace else None
    block = wl.block_size
    walls: list[float | None] = []  # None where the scenario failed
    kernels = [] if tracer else [reference_kernel_s()]
    paired: list[tuple[float, float]] = []  # (untraced, traced) walls of one scenario
    samples = attempted = failed = bytes_hashed = 0
    texts = hashlib.sha256()
    stream = wl.stream(args.seed)
    start = time.perf_counter()
    # a traced run always finishes one block, which its counts cover
    while time.perf_counter() - start < args.seconds or (tracer and attempted < block):
        case = next(stream)
        attempted += 1
        texts.update(case.text.encode() + b"\0")
        if tracer is None:
            wall = runner.run(case)[0]
            kernels.append(reference_kernel_s())
            walls.append(wall)
            ok = wall is not None
        else:
            # alternate which copy runs first so warm caches favour neither
            first_traced = attempted % 2 == 0
            (a, hashed), (b, _) = (runner.run(case, tracer if first_traced else None),
                                   runner.run(case, None if first_traced else tracer))
            ok = a is not None and b is not None
            if ok:
                paired.append((b, a) if first_traced else (a, b))
            if case.index < block:
                bytes_hashed += hashed
        if ok:
            samples += case.spec.samples()
        else:
            failed += 1
    elapsed = time.perf_counter() - start

    result = {"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "failures": runner.failures[:20], "elapsed_s": elapsed,
              "scenario_texts_sha256": texts.hexdigest()}
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  elapsed {elapsed:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for line in runner.failures[:5]:
        print("failure " + line)

    if tracer is None:
        times = [w for w in walls if w is not None]
        if not times:
            print("error: no scenario succeeded", file=sys.stderr)
            return 1

        def timings(scenario_s: list[float], setup_s: list[float]) -> dict:
            ms = [1e3 * t for t in scenario_s]
            return {"scenario_p50_ms": statistics.median(ms),
                    "scenario_p90_ms": _percentile(ms, 90) if len(ms) > 1 else ms[0],
                    "samples_per_s": samples / sum(scenario_s),
                    "setup_s": statistics.median(setup_s)}

        times_at_ref = at_quiet_speed(walls, kernels)
        at_ref, raw = timings(times_at_ref, setup), timings(times, setup_raw)
        units = {"scenario_p50_ms": "ms", "scenario_p90_ms": "ms", "samples_per_s": "1/s",
                 "setup_s": "s"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in at_ref.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024, "unit": "MB"}
        beyond = sum(1e3 * t > at_ref["scenario_p90_ms"] for t in times_at_ref)
        slowdown = statistics.median(kernels) / REFERENCE_KERNEL_S
        error_rate = failed / attempted
        result.update(scenario_ms=[1e3 * t for t in times_at_ref],
                      raw_scenario_ms=[1e3 * t for t in times], setup_s=setup,
                      raw_setup_s=setup_raw, kernel_s=kernels, raw=raw, p90_beyond=beyond,
                      error_rate=error_rate)
        notes = {"scenario_p50_ms": f"n={len(times)}",
                 "scenario_p90_ms": f"n={len(times)}, {beyond} beyond",
                 "setup_s": f"median of {len(setup)} fresh interpreters"}
        for name, m in metrics.items():
            extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
            print(f"{name:18s} {m['value']:.6g} {m['unit']}{extra}  {notes.get(name, '')}")
        print(f"{'error_rate':18s} {error_rate:.6g}  ({failed} failed of {attempted} attempted)")
        print(f"{'machine_slowdown':18s} {slowdown:.4g}  (median reference-kernel time over "
              f"its quiet {1e3 * REFERENCE_KERNEL_S:g} ms)")
    else:
        untraced = sum(p[0] for p in paired)
        overhead = 100.0 * (sum(p[1] for p in paired) / untraced - 1.0) if untraced else 0.0
        metrics = tracing.layer_metrics(tracer.spans, len(paired) + failed, block,
                                        bytes_hashed, overhead)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.dump(spans_path)
        result.update(spans=spans_path.name, traced_scenarios=len(paired) + failed)
        for name, m in metrics.items():
            print(f"{name:52s} {m['value']:.6g} {m['unit']}")

    result["metrics"] = metrics
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
