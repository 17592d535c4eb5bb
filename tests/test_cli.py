import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdabeam import cli
from fdabeam.beampattern_instant import grid_from_binary, grid_from_csv
from fdabeam.presets import PRESETS

SMALL_SCENARIO = """\
[scenario]
name = small

[array]
elements = 8
carrier = 10 GHz
spacing = half-wavelength
pulse = 5 us

[plan]
type = uniform
offset = 200 kHz

[fitb_grid]
time_samples = 16
angle_samples = 64
engine = exact
trajectory = true

[scan_report]
time = 1 us
"""


def run_scenario_text(text, out_dir):
    sc = cli.load_scenario(text)
    return cli.execute_scenario(sc, out_dir)


class TestParsing:
    def test_quantities(self):
        assert cli.parse_quantity("200 kHz", "x") == 200e3
        assert cli.parse_quantity("5 us", "x") == pytest.approx(5e-6, rel=1e-15)
        assert cli.parse_quantity("18 km", "x") == 18e3
        assert cli.parse_quantity("3e8", "x") == 3e8
        assert cli.parse_quantity("10GHz", "x") == 1e10

    def test_angles_default_degrees(self):
        assert cli.parse_angle("60", "x") == pytest.approx(np.radians(60))
        assert cli.parse_angle("60 deg", "x") == pytest.approx(np.radians(60))
        assert cli.parse_angle("0.5 rad", "x") == 0.5

    def test_bad_unit_is_parse_error(self):
        with pytest.raises(cli.ScenarioParseError):
            cli.parse_quantity("10 parsec", "x")

    def test_empty_scenario_is_parse_error(self):
        with pytest.raises(cli.ScenarioParseError):
            cli.load_scenario("")

    def test_missing_required_keys(self):
        with pytest.raises(cli.ScenarioParseError):
            cli.load_scenario("[array]\nelements = 8\n")

    def test_no_evaluations_is_parse_error(self):
        text = "[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
        with pytest.raises(cli.ScenarioParseError):
            cli.load_scenario(text)

    def test_semantic_errors_are_validation_errors(self):
        base = ("[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
                "[plan]\ntype = uniform\noffset = 1 kHz\n[scan_report]\n")
        with pytest.raises(cli.ScenarioValidationError):
            cli.load_scenario(base + "[weights]\ntype = steered\nangle = 95 deg\n")
        with pytest.raises(cli.ScenarioValidationError):
            cli.load_scenario(base.replace("type = uniform\noffset = 1 kHz",
                                           "type = coded\ncoding = random\noffset = 1 kHz"))

    def test_preset_reference_resolves(self):
        text = "[scenario]\npreset = fig2\n\n[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
        sc = cli.load_scenario(text)
        assert sc.config.num_elements == 8  # override wins
        assert sc.evaluations[0][0] == "zero_time_cut"  # inherited from the preset

    def test_unknown_preset_reference(self):
        text = "[scenario]\npreset = fig99\n\n[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
        with pytest.raises(cli.ScenarioValidationError):
            cli.load_scenario(text)


class TestExecution:
    def test_small_scenario_artifacts(self, tmp_path):
        out = run_scenario_text(SMALL_SCENARIO, tmp_path / "out")
        names = {p.name for p in out.iterdir()}
        assert {"fitb_grid.csv", "fitb_grid_db.csv", "trajectory.csv",
                "scan_report.txt", "manifest.json"} <= names

    def test_manifest_hashes_match(self, tmp_path):
        out = run_scenario_text(SMALL_SCENARIO, tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "small"
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_rerun_is_byte_identical(self, tmp_path):
        # seeded randomness and fixed formatting: identical artifacts on rerun
        text = PRESETS["fig7a"][1]
        out1 = run_scenario_text(text, tmp_path / "a")
        out2 = run_scenario_text(text, tmp_path / "b")
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_binary_format(self, tmp_path):
        text = SMALL_SCENARIO + "\n[outputs]\nformats = csv, binary\n"
        out = run_scenario_text(text, tmp_path / "out")
        grid_csv = grid_from_csv(out / "fitb_grid.csv")
        grid_bin = grid_from_binary(out / "fitb_grid.bin")
        assert np.allclose(grid_csv.values, grid_bin.values, rtol=1e-9)

    def test_schedule_section(self, tmp_path):
        text = (
            "[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
            "[plan]\ntype = uniform\noffset = 100 kHz\n"
            "[schedule]\nsegment1 = 0 us, 2 us, -20 deg, 20 deg\n"
            "segment2 = 3 us, 5 us, 20 deg, 20 deg\n"
            "time_samples = 32\nangle_samples = 128\n"
        )
        out = run_scenario_text(text, tmp_path / "out")
        names = {p.name for p in out.iterdir()}
        assert {"schedule_grid.csv", "schedule_trajectory.csv", "schedule_phase.csv"} <= names

    def test_out_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUT_ENV, str(target))
        out = run_scenario_text(SMALL_SCENARIO, tmp_path / "ignored")
        assert out == target
        assert (target / "manifest.json").exists()


class TestMainVerbs:
    def test_list_presets(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "fig9b" in out
        assert len(out.strip().splitlines()) >= 16

    def test_run_file(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SMALL_SCENARIO)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_run_empty_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert cli.main(["run", str(path)]) == cli.EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_run_missing_file_exit_2(self):
        assert cli.main(["run", "/nonexistent/x.ini"]) == cli.EXIT_PARSE

    def test_run_semantic_error_exit_3(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SMALL_SCENARIO.replace(
            "[plan]\ntype = uniform\noffset = 200 kHz",
            "[plan]\ntype = coded\ncoding = random\noffset = 1 kHz"))
        assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION

    def test_preset_unknown_exit_3(self):
        assert cli.main(["preset", "fig99"]) == cli.EXIT_VALIDATION

    def test_preset_show(self, capsys):
        assert cli.main(["preset", "fig3c", "--show"]) == 0
        assert "200 kHz" in capsys.readouterr().out

    def test_preset_runs(self, tmp_path):
        assert cli.main(["preset", "fig2", "--out", str(tmp_path / "fig2")]) == 0
        names = {p.name for p in (tmp_path / "fig2").iterdir()}
        assert "zero_time_cut_half_wavelength.csv" in names
        assert "zero_time_cut_wavelength.csv" in names

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text(SMALL_SCENARIO)
        assert cli.main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("not an ini file at all [[[")
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("old, new", [
        ("elements = 8", "elements = abc"),
        ("trajectory = true", "trajectory = maybe"),
        ("[scan_report]\n", "[scan_report]\nk = 1.5\n"),
        ("[scan_report]", "[waveforms]\nkind = chirp-bank\nbase_rate = x\n\n[scan_report]"),
        ("time = 1 us", "time = 1e us"),
        ("time_samples = 16", "time_samples = 16\ntime_sample = 4"),
        ("[scan_report]", "[fitb_grids]\ntime_samples = 4\n\n[scan_report]"),
        ("pulse = 5 us", "pulse = 1e400 us"),
        ("carrier = 10 GHz", "carrier = 1e308 GHz"),
        ("time = 1 us", "time = nan us"),
        ("[scan_report]", "[waveforms]\nkind = chirp-bank\nrate_step = inf\n\n[scan_report]"),
    ], ids=["getint", "getboolean", "getint-float", "getfloat", "quantity", "unknown-key",
            "unknown-section", "infinite-quantity", "overflowing-quantity", "nan-quantity",
            "infinite-getfloat"])
    def test_unparseable_value_exit_2(self, tmp_path, capsys, verb, old, new):
        path = tmp_path / "s.ini"
        path.write_text(SMALL_SCENARIO.replace(old, new))
        assert cli.main([verb, str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("text", [
        SMALL_SCENARIO.replace("angle_samples = 64", "angle_samples = 1"),
        SMALL_SCENARIO.replace("time_samples = 16", "time_samples = 0"),
        "[scenario]\npreset = fig2\n[zero_time_cut]\nangle_samples = 1\n",
        "[scenario]\npreset = fig6\n[legacy_grid]\ntime_samples = -2\n",
    ], ids=["fitb-angle", "fitb-time", "zero-time-cut-angle", "legacy-time"])
    def test_too_few_samples_exit_3(self, tmp_path, capsys, verb, text):
        path = tmp_path / "s.ini"
        path.write_text(text)
        assert cli.main([verb, str(path)]) == cli.EXIT_VALIDATION
        assert "need at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("body, expected", [
        ("[plan]\ntype = tabulated\noffsets = 0, 1, 2, 3, 4, 5, 6, 7 kHz\n[scan_report]\n",
         "scan_report: requires a uniform plan"),
        ("[plan]\ntype = coded\ncoding = costas\noffset = 5 kHz\n[zero_time_cut]\n",
         "zero_time_cut: requires a uniform plan"),
        ("[plan]\ntype = time-modulated\nrate = 50 kHz\n[legacy_grid]\nranges = 18 km\n",
         "legacy_grid: requires a uniform plan"),
        ("[plan]\ntype = tabulated\noffsets = 0, 1, 2, 3, 4, 5, 6, 7 kHz\n"
         "[schedule]\nsegment1 = 0 us, 2 us, 0, 10\n", "schedule: requires a uniform plan"),
        ("[plan]\noffset = 100 kHz\n[schedule]\nsegment1 = 0 us, 9 us, 0, 10\n",
         "schedule: segment times"),
        ("[weights]\ntype = random\nseed = -1\n[scan_report]\n", "weights: "),
        ("[plan]\ntype = coded\ncoding = square\noffset = 1 kHz\n"
         "[fitb_grid]\nengine = closed-form\n", "closed-form engine needs a uniform plan"),
        ("[fgtb_curve]\noffsets = 1 MHz, 1.0000001 MHz\n",
         "'1 MHz' and '1.0000001 MHz' both write fgtb_df1000kHz.csv"),
        ("[mimo_compare]\noffsets = 5 MHz, 5000 kHz\n",
         "'5 MHz' and '5000 kHz' both write mimo_compare_df5000kHz.csv"),
        ("[legacy_grid]\nranges = 18 km, 18.0000001 km\n",
         "'18 km' and '18.0000001 km' both write legacy_r18km"),
        ("[zero_time_cut]\nspacings = 2 cm, 2 CM\n",
         "'2 cm' and '2 CM' both write zero_time_cut_2_cm.csv"),
        ("[fitb_grid]\ntime_samples = 1000000000000\n",
         "fitb_grid.time_samples: 1000000000000 samples need 8000000000000 cells"),
        ("[fitb_grid]\nangle_samples = 1000000000000\n",
         "fitb_grid.angle_samples: 1000000000000 samples need 512000000000000 cells"),
        ("[legacy_grid]\nranges = 18 km\ntime_samples = 20000\n",
         "legacy_grid.angle_samples: 1024 samples need 20480000 cells"),
        ("[schedule]\nsegment1 = 0 us, 5 us, 0, 10\nangle_samples = 1000000000000\n",
         "schedule.angle_samples: 1000000000000 samples need 512000000000000 cells"),
        ("[zero_time_cut]\nangle_samples = 1000000000000\n",
         "zero_time_cut.angle_samples: 1000000000000 samples need 8000000000000 cells"),
        ("[fgtb_curve]\nangle_samples = 3000000\n",
         "fgtb_curve.angle_samples: 3000000 samples need 24000000 cells"),
        ("[mimo_compare]\nangle_samples = 1000000000000\n",
         "mimo_compare.angle_samples: 1000000000000 samples need 8000000000000 cells"),
        ("[array]\nelements = 1000000000000\ncarrier = 10 GHz\npulse = 5 us\n[scan_report]\n",
         "array.elements: 1000000000000 elements need 1000000000000 cells"),
        ("[array]\nelements = 20000\ncarrier = 10 GHz\npulse = 5 us\n"
         "[fitb_grid]\ntime_samples = 2\nangle_samples = 1024\n",
         "fitb_grid.angle_samples: 1024 samples need 20480000 cells"),
        ("[array]\nelements = 20000\ncarrier = 10 GHz\npulse = 5 us\n"
         "[fitb_grid]\ntime_samples = 1024\nangle_samples = 2\n",
         "fitb_grid.time_samples: 1024 samples need 20480000 cells"),
        ("[fgtb_curve]\noffsets = 1 MHz, 100 GHz\n", "fgtb_curve.offsets: '100 GHz' and "),
        ("[mimo_compare]\noffsets = 100 GHz\n", "mimo_compare.offsets: '100 GHz' and "),
        ("[array]\nelements = 8\ncarrier = 0 Hz\npulse = 5 us\n[scan_report]\n",
         "array: carrier_freq must be positive"),
        ("[array]\nelements = 5\ncarrier = 10 GHz\npulse = 5 us\n"
         "[plan]\noffset = -2.5 GHz\n[scan_report]\n",
         "array: every element frequency f_c + m*offset must be positive"),
    ], ids=["tabulated-scan-report", "coded-zero-time-cut", "time-modulated-legacy-grid",
            "tabulated-schedule", "segment-beyond-pulse", "negative-weight-seed",
            "coded-closed-form", "fgtb-offset-collision", "mimo-offset-collision",
            "legacy-range-collision", "spacing-collision", "fitb-time-budget",
            "fitb-angle-budget", "legacy-time-budget", "schedule-angle-budget",
            "zero-time-cut-budget", "fgtb-curve-budget", "mimo-compare-budget",
            "elements-budget", "elements-angle-budget", "elements-time-budget",
            "fgtb-quadrature-budget", "mimo-quadrature-budget", "zero-carrier",
            "nonpositive-element-frequency"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, verb, body, expected):
        # a body without its own [array] section runs on an 8-element array
        path = tmp_path / "s.ini"
        array = "" if body.startswith("[array]") else \
            "[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
        path.write_text(array + body)
        assert cli.main([verb, str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("validation error") and expected in err

    def test_every_preset_validates(self):
        for name, (_, text) in PRESETS.items():
            sc = cli.load_scenario(text)
            assert sc.evaluations, name


class TestPresetContents:
    def test_all_presets_execute_within_budget(self, tmp_path):
        import time

        for name, (_, text) in PRESETS.items():
            start = time.perf_counter()
            out = run_scenario_text(text, tmp_path / name)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
            assert (out / "manifest.json").exists(), name

    def test_fig3c_trajectory_spans_sector_once(self, tmp_path):
        import fdabeam as fb

        out = run_scenario_text(PRESETS["fig3c"][1], tmp_path)
        rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
        t = np.array([float(r.split(",")[0]) for r in rows]) * 1e-6
        theta = np.radians([float(r.split(",")[1]) for r in rows])
        traj = fb.PeakTrajectory(t=t, theta=theta, ambiguous=np.zeros(len(t), dtype=bool))
        coverage = fb.measured_scan_volume(traj, 5e-6)
        assert coverage == pytest.approx(2.0, rel=0.05)

    def test_fig8_emits_four_curves(self, tmp_path):
        out = run_scenario_text(PRESETS["fig8"][1], tmp_path)
        curves = sorted(p.name for p in out.glob("fgtb_df*.csv"))
        assert len(curves) == 4
        header = (out / curves[0]).read_text().splitlines()[0]
        assert header == "theta_deg,value_db"


# Element counts come from a small set, so that no drawn scenario allocates a large array.
_ELEMENTS = ("1", "2", "5", "16", "1000000000000", "0", "-3", "2.5", "x")
_SETUP_KEYS = {
    "array": ("carrier", "pulse", "spacing", "wave_speed"),
    "plan": ("type", "offset", "offsets", "coding", "seed", "form", "rate", "time_scale"),
    "weights": ("type", "angle", "seed"),
    "waveforms": ("kind", "bandwidth", "base_rate", "rate_step"),
}
_TOKENS = ("10 GHz", "5 us", "0", "0 Hz", "-2.5 GHz", "100 kHz", "1e400 us", "1e308 GHz", "inf",
           "nan", "-1", "half-wavelength", "wavelength", "1.5 cm", "uniform", "coded",
           "tabulated", "time-modulated", "steered", "random", "rect", "chirp-bank", "costas",
           "logarithmic", "sqrt", "table", "60 deg", "90 deg", "0.5 rad", "7", "1, 2, 3 kHz")
_VALUES = st.one_of(st.sampled_from(_TOKENS), st.text(max_size=12))
_EVALUATIONS = ("[scan_report]\n",
                "[fitb_grid]\ntime_samples = 2\nangle_samples = 2\n",
                "[fgtb_curve]\noffsets = 0 Hz, 100 GHz\nangle_samples = 2\n")


def _scenario_text(elements: str, setup: dict, evaluation: str) -> str:
    lines = [f"[array]\nelements = {elements}"]
    for section, values in setup.items():
        if section != "array":
            lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n" + evaluation


_FINE = {"carrier": "10 GHz", "pulse": "5 us"}


@settings(max_examples=300, deadline=None)
@given(elements=st.sampled_from(_ELEMENTS),
       setup=st.fixed_dictionaries({
           section: st.dictionaries(st.sampled_from(keys), _VALUES)
           for section, keys in _SETUP_KEYS.items()}),
       evaluation=st.sampled_from(_EVALUATIONS))
@example(elements="1000000000000", setup={"array": _FINE}, evaluation=_EVALUATIONS[0])
@example(elements="16", setup={"array": {**_FINE, "carrier": "0 Hz"}}, evaluation=_EVALUATIONS[0])
@example(elements="5", setup={"array": _FINE, "plan": {"offset": "-2.5 GHz"}},
         evaluation=_EVALUATIONS[0])
@example(elements="16", setup={"array": {**_FINE, "pulse": "1e400 us"}},
         evaluation=_EVALUATIONS[1])
@example(elements="16", setup={"array": {**_FINE, "spacing": "1%"}}, evaluation=_EVALUATIONS[0])
def test_load_scenario_returns_or_raises_a_scenario_error(elements, setup, evaluation):
    "Any value text in the setup sections either loads as a finite scenario or is reported."
    try:
        sc = cli.load_scenario(_scenario_text(elements, setup, evaluation))
    except (cli.ScenarioParseError, cli.ScenarioValidationError):
        return
    cfg = sc.config
    assert 1 <= cfg.num_elements <= cli.MAX_CELLS
    for value in (cfg.carrier_freq, cfg.spacing, cfg.pulse_duration, cfg.wave_speed):
        assert 0 < value < math.inf
