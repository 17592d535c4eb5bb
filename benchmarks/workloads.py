"""Seeded scenario generators for the three benchmark workloads.

Each workload yields an endless stream of cases in blocks. A block has a fixed
composition (which presets, which element counts, which engine paths); the
seed draws the order inside each block and every free parameter. Two seeds
therefore cost about the same per block while no two scenarios repeat, which
keeps medians comparable across seeds.

A case carries the scenario text handed to the program and a ``Spec``: the
same physics in SI units, computed here without the program's parser, that
``checks.py`` uses for its oracle and for the expected artifact list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

C = 3e8
FC = 1e10
TP_TEXT = "5 us"
_SCALE = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "us": 1e-6, "km": 1e3}


def qty(mantissa: str, unit: str) -> tuple[str, float]:
    "Scenario text of a quantity and its SI value, scaled as the scenario format defines."
    return f"{mantissa} {unit}", float(mantissa) * _SCALE[unit]


TP = qty("5", "us")[1]


@dataclass
class Spec:
    """Physics of one generated scenario, in SI units and radians.

    plan is ("uniform", df), ("tabulated", offsets) or
    ("time-modulated", form, rate, time_scale). sections holds
    (section name, params) in the order the scenario lists them.
    """

    m: int
    plan: tuple
    weights: np.ndarray
    fmt: str
    sections: list = field(default_factory=list)
    fc: float = FC
    tp: float = TP

    @property
    def uniform_df(self) -> float:
        return self.plan[1] if self.plan[0] == "uniform" else 0.0

    def lambda0(self) -> float:
        "Reference wavelength of the half-wavelength spacing rule."
        return C / (self.fc + (self.m - 1) * self.uniform_df)

    @property
    def spacing(self) -> float:
        return self.lambda0() / 2.0

    def offsets(self) -> np.ndarray:
        "Static per-element offsets (uniform and tabulated plans)."
        if self.plan[0] == "uniform":
            return self.plan[1] * np.arange(self.m)
        return np.asarray(self.plan[1], dtype=float)

    def samples(self) -> int:
        "Pattern samples the scenario computes: N_t*N_theta per grid, N_theta per curve or cut."
        total = 0
        for name, p in self.sections:
            if name in ("fitb_grid", "schedule"):
                total += p["n_time"] * p["n_theta"]
            elif name == "legacy_grid":
                total += 2 * len(p["ranges"]) * p["n_time"] * p["n_theta"]
            elif name == "zero_time_cut":
                total += len(p["spacings"]) * p["n_theta"]
            elif name in ("fgtb_curve", "mimo_compare"):
                total += len(p["offsets"]) * p["n_theta"]
        return total


@dataclass
class Case:
    index: int
    kind: str
    text: str
    spec: Spec


def _uniform_weights(m: int) -> np.ndarray:
    return np.ones(m, dtype=complex)


def _random_weights(m: int, seed: int) -> np.ndarray:
    "Unit-modulus weights exp(j*2*pi*u_m), u_m uniform on (0, 1) from numpy's default_rng(seed)."
    return np.exp(2j * np.pi * np.random.default_rng(seed).random(m))


def _steered_weights(m: int, df: float, d: float, theta0: float) -> np.ndarray:
    "Weights that cancel every element phase at (t'=0, theta0): exp(j*2*pi*(fc+m*df)*m*d*sin/c)."
    idx = np.arange(m)
    return np.exp(2j * np.pi * (FC + idx * df) * idx * d * math.sin(theta0) / C)


def _draw(rng: np.random.Generator, lo: float, hi: float, digits: int = 1) -> str:
    return f"{rng.uniform(lo, hi):.{digits}f}"


# --- preset_grids_csv ------------------------------------------------------

# Offset regime (kHz) of each uniform-offset grid preset; None keeps the preset's 0 Hz.
_UNIFORM_GRID_PRESETS = {
    "fig3a": (5, 15), "fig3b": (20, 45), "fig3c": (150, 250), "fig3d": (300, 500),
    "fig3e": None, "fig4": (60, 100), "fig5a": (30, 50), "fig5b": (30, 50),
}
# Coding and scale regime (kHz) of the coded-offset presets.
_CODED_PRESETS = {
    "fig7a": ("random", 50, 150), "fig7b": ("costas", 2, 10),
    "fig7c": ("logarithmic", 25, 75), "fig7d": ("square", 0.5, 2),
}
# 512x1024 (or 2x2 256x1024) CSV grids, and the cheap cut and 256x513 presets
GRID_PRESETS = (*_UNIFORM_GRID_PRESETS, "fig6")
LIGHT_PRESETS = ("fig2", *_CODED_PRESETS)
COSTAS_16 = tuple(pow(3, k, 17) for k in range(1, 17))  # Welch construction, order 16


def _coded_offsets(coding: str, scale: float, m: int, seed: int | None) -> np.ndarray:
    idx = np.arange(m, dtype=float)
    if coding == "square":
        return idx ** 2 * scale
    if coding == "logarithmic":
        return np.log(idx + 1.0) * scale
    if coding == "costas":
        return np.asarray(COSTAS_16[:m], dtype=float) * scale
    return np.random.default_rng(seed).random(m) * scale


def preset_case(index: int, name: str, rng: np.random.Generator) -> Case:
    "One scenario that starts from preset `name` and redraws its free parameters."
    head = f"[scenario]\npreset = {name}\nname = {name} bench {index}\n\n"
    m = 16
    if name in _UNIFORM_GRID_PRESETS:
        regime = _UNIFORM_GRID_PRESETS[name]
        text, df = qty(_draw(rng, *regime), "kHz") if regime else ("0 Hz", 0.0)
        body = f"[plan]\ntype = uniform\noffset = {text}\n\n"
        spec = Spec(m=m, plan=("uniform", df), weights=_uniform_weights(m), fmt="csv")
        if name == "fig5b":
            angle = _draw(rng, 30, 70)
            body += f"[weights]\ntype = steered\nangle = {angle} deg\n\n"
            spec.weights = _steered_weights(m, df, spec.spacing, math.radians(float(angle)))
        spec.sections = [
            ("fitb_grid", {"n_time": 512, "n_theta": 1024, "engine": "exact", "trajectory": True}),
            ("scan_report", {"t_eval": 0.0, "k": 0}),
        ]
    elif name == "fig2":
        text, df = qty(str(int(rng.integers(50, 201))), "Hz")
        body = f"[plan]\ntype = uniform\noffset = {text}\n\n"
        spec = Spec(m=m, plan=("uniform", df), weights=_uniform_weights(m), fmt="csv")
        spec.sections = [("zero_time_cut", {"n_theta": 8192,
                                            "spacings": ("half-wavelength", "wavelength")})]
    elif name == "fig6":
        text, df = qty(_draw(rng, 5, 20), "kHz")
        ranges_km = sorted(int(r) for r in rng.choice(np.arange(10, 41), size=2, replace=False))
        ranges = [qty(str(r), "km") for r in ranges_km]
        body = (f"[plan]\ntype = uniform\noffset = {text}\n\n[legacy_grid]\n"
                f"ranges = {', '.join(t for t, _ in ranges)}\n\n")
        spec = Spec(m=m, plan=("uniform", df), weights=_uniform_weights(m), fmt="csv")
        spec.sections = [("legacy_grid", {"ranges": [v for _, v in ranges],
                                          "n_time": 256, "n_theta": 1024})]
    else:
        coding, lo, hi = _CODED_PRESETS[name]
        text, scale = qty(_draw(rng, lo, hi, 2), "kHz")
        seed = int(rng.integers(1, 2**31)) if coding == "random" else None
        body = f"[plan]\ntype = coded\ncoding = {coding}\noffset = {text}\n"
        body += f"seed = {seed}\n\n" if seed is not None else "\n"
        offsets = _coded_offsets(coding, scale, m, seed)
        spec = Spec(m=m, plan=("tabulated", tuple(offsets)), weights=_uniform_weights(m),
                    fmt="csv")
        spec.sections = [("fitb_grid", {"n_time": 256, "n_theta": 513, "engine": "exact",
                                        "trajectory": True})]
    return Case(index, name, head + body, spec)


# --- integral_curves -------------------------------------------------------

# Element counts of one block: M*n_q spans working sets below and above a 2 MB L2.
INTEGRAL_ELEMENTS = (16, 20, 24, 28, 32, 36, 40)


def integral_case(index: int, m: int, rng: np.random.Generator) -> Case:
    "Chirp-bank scenario with an [fgtb_curve] and a [mimo_compare] section at M elements."
    base_rate, rate_step = _draw(rng, 90, 110), _draw(rng, 9, 11)
    wseed = int(rng.integers(1, 2**31))
    # one offset per stratum keeps the quadrature cost of every scenario alike
    fgtb = [qty("0", "Hz"), qty(_draw(rng, 0.1, 5), "MHz"), qty(_draw(rng, 5.1, 10), "MHz")]
    mimo = [qty("0", "Hz"), qty(_draw(rng, 1, 10), "MHz")]
    text = (
        f"[scenario]\nname = integral bench {index}\n\n"
        f"[array]\nelements = {m}\ncarrier = 10 GHz\nspacing = half-wavelength\n"
        f"pulse = {TP_TEXT}\n\n[plan]\ntype = uniform\noffset = 0 Hz\n\n"
        f"[weights]\ntype = random\nseed = {wseed}\n\n"
        f"[waveforms]\nkind = chirp-bank\n"
        f"base_rate = {base_rate}\nrate_step = {rate_step}\n\n"
        f"[fgtb_curve]\noffsets = {', '.join(t for t, _ in fgtb)}\nangle_samples = 721\n\n"
        f"[mimo_compare]\noffsets = {', '.join(t for t, _ in mimo)}\nangle_samples = 721\n"
    )
    spec = Spec(m=m, plan=("uniform", 0.0), weights=_random_weights(m, wseed), fmt="csv")
    spec.sections = [
        ("fgtb_curve", {"offsets": [v for _, v in fgtb], "n_theta": 721}),
        ("mimo_compare", {"offsets": [v for _, v in mimo], "n_theta": 721}),
    ]
    return Case(index, f"integral-m{m}", text, spec)


# --- engine_binary ---------------------------------------------------------

# Engine paths of one block: each time-modulated form twice, two schedule
# itineraries, two fast grids and one pulse-integrated scenario (an
# integral_curves case at a drawn element count), which keeps
# beampattern_integral inside this workload. Sorted by cost a block reads
# fast, integral, schedule, time-modulated, so the median and p90 fall inside
# the time-modulated grids: schedule playback issues 512 tiny BLAS calls per
# grid, whose time swings by up to 1.7x with the load on the other core, and a
# median among them would swing with it.
ENGINE_KINDS = ("tm-sqrt", "tm-cbrt", "tm-arctan", "tm-sinh") * 2 + ("schedule", "schedule")
FAST_ENGINE_KINDS = ("closed_form", "tabulated", "integral")
_GRID = {"n_time": 512, "n_theta": 1024}


def _engine_head(index: int, kind: str, plan: str, weights: str) -> str:
    return (f"[scenario]\nname = engine bench {index} {kind}\n\n"
            f"[array]\nelements = 16\ncarrier = 10 GHz\nspacing = half-wavelength\n"
            f"pulse = {TP_TEXT}\n\n[plan]\n{plan}\n[weights]\n{weights}\n"
            f"[outputs]\nformats = binary\n\n")


def _segments(rng: np.random.Generator) -> list[tuple[str, tuple]]:
    "1-3 ordered, non-overlapping legs on a 0.1 us lattice inside [0, 4.9 us]."
    count = int(rng.integers(1, 4))
    ticks = np.sort(rng.choice(np.arange(0, 50), size=2 * count, replace=False))
    out = []
    for a, b in ticks.reshape(count, 2):
        ta, tb = qty(f"{a / 10:.1f}", "us"), qty(f"{b / 10:.1f}", "us")
        tha, thb = _draw(rng, -70, 70), _draw(rng, -70, 70)
        out.append((f"{ta[0]}, {tb[0]}, {tha} deg, {thb} deg",
                    (ta[1], tb[1], math.radians(float(tha)), math.radians(float(thb)))))
    return out


def engine_case(index: int, kind: str, rng: np.random.Generator) -> Case:
    "One binary-output grid scenario on engine path `kind`, or a pulse-integrated one."
    if kind == "integral":
        return integral_case(index, int(rng.choice(INTEGRAL_ELEMENTS)), rng)
    m = 16
    wseed = int(rng.integers(1, 2**31))
    random_w = f"type = random\nseed = {wseed}\n"
    if kind.startswith("tm-"):
        form = kind[3:]
        rate_t, rate = qty(_draw(rng, 20, 100), "kHz")
        ts_t, ts = qty(_draw(rng, 0.5, 2, 2), "us")
        plan = f"type = time-modulated\nform = {form}\nrate = {rate_t}\ntime_scale = {ts_t}\n"
        text = _engine_head(index, kind, plan, random_w)
        text += "[fitb_grid]\ntime_samples = 512\nangle_samples = 1024\ntrajectory = true\n"
        spec = Spec(m=m, plan=("time-modulated", form, rate, ts),
                    weights=_random_weights(m, wseed), fmt="binary")
        spec.sections = [("fitb_grid", dict(_GRID, engine="exact", trajectory=True))]
    elif kind == "schedule":
        df_t, df = qty(_draw(rng, 100, 300), "kHz")
        segs = _segments(rng)
        text = _engine_head(index, kind, f"type = uniform\noffset = {df_t}\n", "type = uniform\n")
        text += "[schedule]\ntime_samples = 512\nangle_samples = 1024\n"
        text += "".join(f"segment{i + 1} = {line}\n" for i, (line, _) in enumerate(segs))
        spec = Spec(m=m, plan=("uniform", df), weights=_uniform_weights(m), fmt="binary")
        spec.sections = [("schedule", dict(_GRID, segments=sorted(s for _, s in segs)))]
    elif kind == "closed_form":
        df_t, df = qty(_draw(rng, 50, 400), "kHz")
        text = _engine_head(index, kind, f"type = uniform\noffset = {df_t}\n", "type = uniform\n")
        text += ("[fitb_grid]\ntime_samples = 512\nangle_samples = 1024\nengine = closed-form\n"
                 "trajectory = true\n\n[scan_report]\ntime = 0 us\nk = 0\n")
        spec = Spec(m=m, plan=("uniform", df), weights=_uniform_weights(m), fmt="binary")
        spec.sections = [("fitb_grid", dict(_GRID, engine="closed_form", trajectory=True)),
                         ("scan_report", {"t_eval": 0.0, "k": 0})]
    else:
        offs = [qty(_draw(rng, 0, 400), "kHz") for _ in range(m)]
        plan = f"type = tabulated\noffsets = {', '.join(t for t, _ in offs)}\n"
        text = _engine_head(index, kind, plan, random_w)
        text += "[fitb_grid]\ntime_samples = 512\nangle_samples = 1024\ntrajectory = true\n"
        spec = Spec(m=m, plan=("tabulated", tuple(v for _, v in offs)),
                    weights=_random_weights(m, wseed), fmt="binary")
        spec.sections = [("fitb_grid", dict(_GRID, engine="exact", trajectory=True))]
    return Case(index, kind, text, spec)


# --- workload table --------------------------------------------------------

WARMUP_INDEX = 10**6  # beyond any timed case, so its seeded draws and paths never collide


@dataclass(frozen=True)
class Workload:
    """A seeded scenario stream.

    Each block holds every item of `block` and of `spread` once: the seed
    permutes each group, and the `spread` items sit at evenly spaced slots, so
    any stretch of the stream has about the same share of cheap and expensive
    scenarios.
    """

    name: str
    block: tuple           # the main items of one block
    spread: tuple          # items placed at evenly spaced slots of each block
    make: object           # (index, item, rng) -> Case
    warmup_item: object    # item of the set-up and warm-up scenario
    why: str

    @property
    def block_size(self) -> int:
        return len(self.block) + len(self.spread)

    def stream(self, seed: int):
        "Endless case stream, one block after another."
        rng = np.random.default_rng([seed, 1])
        n, k = self.block_size, len(self.spread)
        minor_slot = [(i + 1) * k // n != i * k // n for i in range(n)]
        index = 0
        while True:
            main = iter([self.block[i] for i in rng.permutation(len(self.block))])
            minor = iter([self.spread[i] for i in rng.permutation(k)])
            for is_minor in minor_slot:
                yield self.make(index, next(minor) if is_minor else next(main), rng)
                index += 1

    def warmup(self, seed: int) -> Case:
        "Untimed warm-up scenario: always the same path, drawn from its own seed stream."
        return self.make(WARMUP_INDEX, self.warmup_item, np.random.default_rng([seed, 2]))


WORKLOADS = {
    w.name: w for w in (
        Workload("preset_grids_csv", GRID_PRESETS, LIGHT_PRESETS, preset_case, "fig3c",
                 "what preset users run; bound by CSV formatting and hashing, bypasses "
                 "beampattern_integral"),
        Workload("integral_curves", INTEGRAL_ELEMENTS, (), integral_case, 40,
                 "bound by covariance quadrature and eigvalsh, working set below and above L2; "
                 "small curves only, bypasses grids"),
        Workload("engine_binary", ENGINE_KINDS, FAST_ENGINE_KINDS, engine_case, "schedule",
                 "engine-bound: binary grids on the time-modulated, schedule, closed-form "
                 "and tabulated exact paths, plus one covariance-bound curve scenario per "
                 "block; the no-change side of any CSV gain"),
    )
}
