"""Bundled scenario presets reproducing the standard figure configurations."""

from __future__ import annotations

_ARRAY_16 = """\
[array]
elements = 16
carrier = 10 GHz
spacing = half-wavelength
pulse = 5 us
"""

_FITB_EVAL = """\
[fitb_grid]
time_samples = 512
angle_samples = 1024
engine = exact
trajectory = true

[scan_report]
time = 0 us
k = 0
"""


def _fig3(offset: str) -> str:
    return (
        f"[scenario]\nname = fig3 {offset}\n\n"
        + _ARRAY_16
        + f"\n[plan]\ntype = uniform\noffset = {offset}\n\n"
        + "[weights]\ntype = uniform\n\n[waveforms]\nkind = rect\n\n"
        + _FITB_EVAL
    )


def _fig7(coding: str, offset: str, seed: str = "") -> str:
    seed_line = f"seed = {seed}\n" if seed else ""
    return (
        f"[scenario]\nname = fig7 {coding}\n\n"
        + _ARRAY_16
        + f"\n[plan]\ntype = coded\ncoding = {coding}\noffset = {offset}\n{seed_line}\n"
        + "[weights]\ntype = uniform\n\n[waveforms]\nkind = rect\n\n"
        + "[fitb_grid]\ntime_samples = 256\nangle_samples = 513\nengine = exact\ntrajectory = true\n"
    )


PRESETS: dict[str, tuple[str, str]] = {
    "fig2": (
        "zero-time cut, 100 Hz offset, half- and full-wavelength spacing",
        "[scenario]\nname = fig2\n\n"
        + _ARRAY_16
        + "\n[plan]\ntype = uniform\noffset = 100 Hz\n\n"
        + "[weights]\ntype = uniform\n\n[waveforms]\nkind = rect\n\n"
        + "[zero_time_cut]\nangle_samples = 8192\nspacings = half-wavelength, wavelength\n",
    ),
    "fig3a": ("instantaneous grid, 10 kHz offset (limited coverage)", _fig3("10 kHz")),
    "fig3b": ("instantaneous grid, 30 kHz offset", _fig3("30 kHz")),
    "fig3c": ("instantaneous grid, 200 kHz offset (full sector once)", _fig3("200 kHz")),
    "fig3d": ("instantaneous grid, 400 kHz offset (full sector twice)", _fig3("400 kHz")),
    "fig3e": ("static phased-array benchmark, zero offset", _fig3("0 Hz")),
    "fig4": (
        "scan-speed windows, 80 kHz offset",
        "[scenario]\nname = fig4\n\n"
        + _ARRAY_16
        + "\n[plan]\ntype = uniform\noffset = 80 kHz\n\n"
        + "[weights]\ntype = uniform\n\n[waveforms]\nkind = rect\n\n"
        + _FITB_EVAL,
    ),
    "fig5a": (
        "initial mainlobe at boresight, 40 kHz offset, uniform weights",
        "[scenario]\nname = fig5a\n\n"
        + _ARRAY_16
        + "\n[plan]\ntype = uniform\noffset = 40 kHz\n\n"
        + "[weights]\ntype = uniform\n\n[waveforms]\nkind = rect\n\n"
        + _FITB_EVAL,
    ),
    "fig5b": (
        "initial mainlobe steered to 60 degrees, 40 kHz offset",
        "[scenario]\nname = fig5b\n\n"
        + _ARRAY_16
        + "\n[plan]\ntype = uniform\noffset = 40 kHz\n\n"
        + "[weights]\ntype = steered\nangle = 60 deg\n\n[waveforms]\nkind = rect\n\n"
        + _FITB_EVAL,
    ),
    "fig6": (
        "range-independence contrast at 18 and 27 km, 10 kHz offset",
        "[scenario]\nname = fig6\n\n"
        + _ARRAY_16
        + "\n[plan]\ntype = uniform\noffset = 10 kHz\n\n"
        + "[weights]\ntype = uniform\n\n[waveforms]\nkind = rect\n\n"
        + "[legacy_grid]\nranges = 18 km, 27 km\ntime_samples = 256\nangle_samples = 1024\n",
    ),
    "fig7a": ("random frequency-offset coding, 100 kHz scale", _fig7("random", "100 kHz", "20230301")),
    "fig7b": ("Costas frequency-offset coding, 5 kHz scale", _fig7("costas", "5 kHz")),
    "fig7c": ("logarithmic frequency-offset coding, 50 kHz scale", _fig7("logarithmic", "50 kHz")),
    "fig7d": ("square frequency-offset coding, 1 kHz scale", _fig7("square", "1 kHz")),
    "fig8": (
        "pulse-integrated patterns for offsets 0 .. 10 MHz, chirp bank",
        "[scenario]\nname = fig8\n\n"
        + _ARRAY_16
        + "\n[plan]\ntype = uniform\noffset = 0 Hz\n\n"
        + "[weights]\ntype = uniform\n\n"
        + "[waveforms]\nkind = chirp-bank\n\n"
        + "[fgtb_curve]\noffsets = 0 Hz, 1 MHz, 5 MHz, 10 MHz\nangle_samples = 721\n",
    ),
    "fig9a": (
        "integral-vs-MIMO overlap, 40 elements, uniform weights",
        "[scenario]\nname = fig9a\n\n"
        + "[array]\nelements = 40\ncarrier = 10 GHz\nspacing = half-wavelength\npulse = 5 us\n\n"
        + "[plan]\ntype = uniform\noffset = 0 Hz\n\n"
        + "[weights]\ntype = uniform\n\n"
        + "[waveforms]\nkind = chirp-bank\n\n"
        + "[mimo_compare]\noffsets = 0 Hz, 10 MHz\nangle_samples = 721\n",
    ),
    "fig9b": (
        "integral-vs-MIMO overlap, 40 elements, random unimodular weights",
        "[scenario]\nname = fig9b\n\n"
        + "[array]\nelements = 40\ncarrier = 10 GHz\nspacing = half-wavelength\npulse = 5 us\n\n"
        + "[plan]\ntype = uniform\noffset = 0 Hz\n\n"
        + "[weights]\ntype = random\nseed = 20230902\n\n"
        + "[waveforms]\nkind = chirp-bank\n\n"
        + "[mimo_compare]\noffsets = 0 Hz, 10 MHz\nangle_samples = 721\n",
    ),
}


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    return PRESETS[name][1]


def preset_descriptions() -> list[tuple[str, str]]:
    return [(name, desc) for name, (desc, _) in PRESETS.items()]
