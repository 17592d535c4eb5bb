"""Bundled scenario presets reproducing the standard figure configurations."""

from __future__ import annotations

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


def _preset(name: str, plan: str, evaluation: str, weights: str = "uniform",
            waveforms: str = "rect", elements: int = 16) -> str:
    "A scenario on a 10 GHz, half-wavelength, 5 us array: plan, weights and waveforms by type."
    return (f"[scenario]\nname = {name}\n\n[array]\nelements = {elements}\ncarrier = 10 GHz\n"
            f"spacing = half-wavelength\npulse = 5 us\n\n[plan]\ntype = {plan}\n\n"
            f"[weights]\ntype = {weights}\n\n[waveforms]\nkind = {waveforms}\n\n{evaluation}")


def _fitb(name: str, offset: str, weights: str = "uniform") -> str:
    "A uniform-offset exact grid with its trajectory and scan report."
    return _preset(name, f"uniform\noffset = {offset}", _FITB_EVAL, weights)


def _fig7(coding: str, offset: str, seed: str = "") -> str:
    seed_line = f"\nseed = {seed}" if seed else ""
    return _preset(f"fig7 {coding}", f"coded\ncoding = {coding}\noffset = {offset}{seed_line}",
                   "[fitb_grid]\ntime_samples = 256\nangle_samples = 513\nengine = exact\n"
                   "trajectory = true\n")


def _fig9(name: str, weights: str) -> str:
    return _preset(name, "uniform\noffset = 0 Hz",
                   "[mimo_compare]\noffsets = 0 Hz, 10 MHz\nangle_samples = 721\n",
                   weights, "chirp-bank", 40)


PRESETS: dict[str, tuple[str, str]] = {
    "fig2": ("zero-time cut, 100 Hz offset, half- and full-wavelength spacing",
             _preset("fig2", "uniform\noffset = 100 Hz", "[zero_time_cut]\nangle_samples = 8192\n"
                     "spacings = half-wavelength, wavelength\n")),
    "fig3a": ("instantaneous grid, 10 kHz offset (limited coverage)",
              _fitb("fig3 10 kHz", "10 kHz")),
    "fig3b": ("instantaneous grid, 30 kHz offset", _fitb("fig3 30 kHz", "30 kHz")),
    "fig3c": ("instantaneous grid, 200 kHz offset (full sector once)",
              _fitb("fig3 200 kHz", "200 kHz")),
    "fig3d": ("instantaneous grid, 400 kHz offset (full sector twice)",
              _fitb("fig3 400 kHz", "400 kHz")),
    "fig3e": ("static phased-array benchmark, zero offset", _fitb("fig3 0 Hz", "0 Hz")),
    "fig4": ("scan-speed windows, 80 kHz offset", _fitb("fig4", "80 kHz")),
    "fig5a": ("initial mainlobe at boresight, 40 kHz offset, uniform weights",
              _fitb("fig5a", "40 kHz")),
    "fig5b": ("initial mainlobe steered to 60 degrees, 40 kHz offset",
              _fitb("fig5b", "40 kHz", "steered\nangle = 60 deg")),
    "fig6": ("range-independence contrast at 18 and 27 km, 10 kHz offset",
             _preset("fig6", "uniform\noffset = 10 kHz", "[legacy_grid]\nranges = 18 km, 27 km\n"
                     "time_samples = 256\nangle_samples = 1024\n")),
    "fig7a": ("random frequency-offset coding, 100 kHz scale",
              _fig7("random", "100 kHz", "20230301")),
    "fig7b": ("Costas frequency-offset coding, 5 kHz scale", _fig7("costas", "5 kHz")),
    "fig7c": ("logarithmic frequency-offset coding, 50 kHz scale", _fig7("logarithmic", "50 kHz")),
    "fig7d": ("square frequency-offset coding, 1 kHz scale", _fig7("square", "1 kHz")),
    "fig8": ("pulse-integrated patterns for offsets 0 .. 10 MHz, chirp bank",
             _preset("fig8", "uniform\noffset = 0 Hz", "[fgtb_curve]\noffsets = 0 Hz, 1 MHz, "
                     "5 MHz, 10 MHz\nangle_samples = 721\n", waveforms="chirp-bank")),
    "fig9a": ("integral-vs-MIMO overlap, 40 elements, uniform weights", _fig9("fig9a", "uniform")),
    "fig9b": ("integral-vs-MIMO overlap, 40 elements, random unimodular weights",
              _fig9("fig9b", "random\nseed = 20230902")),
}
