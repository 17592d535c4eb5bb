import contextlib
import errno
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdabeam as fb
from fdabeam import cli
from fdabeam.beampattern_instant import (grid_from_binary, grid_from_csv, grid_to_binary,
                                         grid_to_csv)
from fdabeam.presets import PRESETS

from conftest import field_oracle

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
        # every unit of the table, each spelled one way
        assert [cli.parse_quantity(f"2 {unit}", "x") for unit in
                ("Hz", "kHz", "MHz", "GHz", "s", "ms", "us", "ns", "m", "km", "cm", "mm")] == \
            [2.0, 2e3, 2e6, 2e9, 2.0, 2e-3, 2e-6, 2e-9, 2.0, 2e3, 2e-2, 2e-3]

    def test_angles_default_degrees(self):
        assert cli.parse_angle("60", "x") == pytest.approx(np.radians(60))
        assert cli.parse_angle("60 deg", "x") == pytest.approx(np.radians(60))
        assert cli.parse_angle("0.5 rad", "x") == 0.5
        assert cli.parse_angle("-37.25 deg", "x") == np.radians(-37.25)  # bit for bit

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

    def test_readme_example_scenario_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        sc = cli.load_scenario(example + "\n[scan_report]\n")
        assert (sc.name, sc.config.num_elements, sc.plan) == ("example", 16, fb.UniformPlan(200e3))

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

    def test_manifest_hashes_match(self, tmp_path, monkeypatch):
        # one scenario reaching every writer; the digests come from the bytes as they are
        # written, so each is checked against the file read back. The benchmark's tracer wraps
        # the writers below as attributes of cli and sizes the file named by their path
        # argument, so each must be called through cli with a path the manifest lists
        paths = {}

        def recording(name):
            write = getattr(cli, name)
            signature = inspect.signature(write)

            def record(*args, **kwargs):
                path = signature.bind(*args, **kwargs).arguments["path"]
                paths.setdefault(name, []).append(Path(path))
                return write(*args, **kwargs)
            return record

        writers = ("grid_to_csv", "grid_to_binary", "curve_to_csv", "trajectory_to_csv")
        for name in writers:
            monkeypatch.setattr(cli, name, recording(name))
        text = SMALL_SCENARIO + (
            "\n[zero_time_cut]\nangle_samples = 64\n"
            "\n[legacy_grid]\nranges = 18 km, 27 km\ntime_samples = 8\nangle_samples = 32\n"
            "\n[fgtb_curve]\noffsets = 0, 100 kHz\nangle_samples = 64\n"
            "\n[mimo_compare]\noffsets = 0, 1 MHz\nangle_samples = 64\n"
            "\n[schedule]\nsegment1 = 0 us, 5 us, -20 deg, 20 deg\ntime_samples = 8\n"
            "angle_samples = 16\n\n[outputs]\nformats = csv, binary\n")
        out = run_scenario_text(text, tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "small"
        artifacts = manifest["artifacts"]
        assert set(artifacts) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert {"fitb_grid.bin", "trajectory.csv", "zero_time_cut_half_wavelength.csv",
                "fitb_r27km.csv", "fitb_r27km.bin", "fgtb_df100kHz.csv", "mimo_compare_report.txt",
                "scan_report.txt", "schedule_grid.bin", "schedule_phase.csv"} <= set(artifacts)
        for name, digest in artifacts.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        assert set(paths) == set(writers)
        for name, written in paths.items():
            for path in written:
                assert path.parent == out and path.name in artifacts, (name, path)

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

    def test_closed_form_grid_runs_on_uniform_weights_and_rect_pulses(self, tmp_path):
        text = SMALL_SCENARIO.replace("engine = exact", "engine = closed-form") + (
            "\n[weights]\ntype = uniform\n\n[waveforms]\nkind = rect\n\n[outputs]\nformats = binary\n")
        out = run_scenario_text(text, tmp_path / "out")
        grid = grid_from_binary(out / "fitb_grid.bin")
        cfg = fb.ArrayConfig(8, 10e9, 3e8 / (10e9 + 7 * 200e3) / 2, 5e-6)
        theta = fb.theta_grid(64)
        expected = fb.fitb_closed_form(cfg, 200e3, grid.t_axis[:, None], theta[None, :])
        assert np.allclose(grid.values, expected, rtol=1e-12, atol=1e-12)

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

    def test_chirp_bank_schedule_plays_every_waveform(self, tmp_path):
        # each element transmits its own chirp, so the grid matches the per-element sum
        text = (
            "[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
            "[plan]\ntype = uniform\noffset = 100 kHz\n"
            "[waveforms]\nkind = chirp-bank\n"
            "[schedule]\nsegment1 = 0 us, 5 us, 0 deg, 30 deg\n"
            "time_samples = 16\nangle_samples = 32\n"
        )
        sc = cli.load_scenario(text)
        out = cli.execute_scenario(sc, tmp_path / "out")
        grid = grid_from_csv(out / "schedule_grid.csv")
        phi = sc.evaluations[0][1]["schedule"].phi
        offsets = fb.plan_offsets(sc.plan, 8)
        m = np.arange(8)
        want = np.array([[abs(field_oracle(sc.config, offsets, np.exp(-2j * np.pi * m * phi[i]),
                                           sc.waveforms, t, th))
                          for th in grid.theta_axis] for i, t in enumerate(grid.t_axis)])
        assert np.abs(grid.values - want).max() <= 1e-8 * want.max()

    def test_section_grids_match_direct_writes(self, tmp_path, monkeypatch):
        # a worker thread writes every other grid file of a section, CSVs first: the bytes
        # must not show it
        threads, before = {}, threading.active_count()

        def recording(write):
            def record(grid, path, **kwargs):
                threads[Path(path).name] = threading.get_ident()
                return write(grid, path, **kwargs)
            return record

        monkeypatch.setattr(cli, "grid_to_csv", recording(cli.grid_to_csv))
        monkeypatch.setattr(cli, "grid_to_binary", recording(cli.grid_to_binary))
        text = SMALL_SCENARIO + ("\n[legacy_grid]\nranges = 18 km, 27 km\ntime_samples = 8\n"
                                 "angle_samples = 32\n\n[outputs]\nformats = csv, binary\n")
        sc = cli.load_scenario(text)
        out = cli.execute_scenario(sc, tmp_path / "out")
        assert threading.active_count() == before
        assert {name for name, ident in threads.items() if ident != threading.get_ident()} == {
            "fitb_grid.csv", "fitb_grid.bin", "legacy_r18km.csv", "fitb_r18km.bin",
            "legacy_r27km.bin"}
        grid = fb.sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms, 16, 64)
        t_axis = dict(sc.evaluations)["legacy_grid"]["t_axis"]
        retarded = fb.sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms, t_axis.size, 32)
        want = {"fitb_grid": grid, "fitb_grid_db": grid.to_db()}
        for r, tag in ((18e3, "18km"), (27e3, "27km")):
            want[f"fitb_r{tag}"] = retarded
            want[f"legacy_r{tag}"] = fb.legacy_grid(sc.config, 200e3, r, t_axis, 32)
        direct = tmp_path / "direct"
        direct.mkdir()
        for stem, g in want.items():
            grid_to_csv(g, direct / f"{stem}.csv")
            grid_to_binary(g, direct / f"{stem}.bin")
            for name in (f"{stem}.csv", f"{stem}.bin"):
                assert (out / name).read_bytes() == (direct / name).read_bytes(), name

    def test_writers_lose_no_digest_under_fast_switching(self, tmp_path):
        # both writers add to one digest table: with the interpreter switching threads every
        # microsecond, each of a many-grid section's files must still be listed, rightly
        text = ("[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
                "[plan]\ntype = uniform\noffset = 100 kHz\n"
                "[legacy_grid]\nranges = " + ", ".join(f"{r} km" for r in range(1, 9)) +
                "\ntime_samples = 8\nangle_samples = 16\n[outputs]\nformats = csv, binary\n")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = run_scenario_text(text, tmp_path / "out")
        finally:
            sys.setswitchinterval(interval)
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert len(artifacts) == 2 * 16
        assert set(artifacts) == {p.name for p in out.iterdir()} - {"manifest.json"}
        for name, digest in artifacts.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("failing", ["fitb_grid.csv", "fitb_grid_db.csv"],
                             ids=["worker", "calling-thread"])
    def test_failing_writer_fails_the_run(self, tmp_path, capsys, monkeypatch, failing):
        # [fitb_grid]'s worker takes the linear grid and the calling thread the dB grid. One
        # writer fails after a partial write; the other starts only 0.2 s after that, so a
        # run that did not wait for it would leave its file short
        failed, before = threading.Event(), threading.active_count()

        def writer(grid, path, _write=cli.grid_to_csv, **kwargs):
            if Path(path).name == failing:
                Path(path).write_text("t_us,")
                failed.set()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            assert failed.wait(10)
            time.sleep(0.2)
            return _write(grid, path, **kwargs)

        monkeypatch.setattr(cli, "grid_to_csv", writer)
        path = tmp_path / "s.ini"
        path.write_text(SMALL_SCENARIO)
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert threading.active_count() == before
        assert code == cli.EXIT_VALIDATION
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert failing in err and os.strerror(errno.ENOSPC) in err
        assert not (tmp_path / "out" / "manifest.json").exists()
        sc = cli.load_scenario(SMALL_SCENARIO)
        grid = fb.sweep_grid(sc.config, sc.plan, sc.weights, sc.waveforms, 16, 64)
        other = ({"fitb_grid.csv", "fitb_grid_db.csv"} - {failing}).pop()
        grid_to_csv(grid if other == "fitb_grid.csv" else grid.to_db(), tmp_path / other)
        assert (tmp_path / "out" / other).read_bytes() == (tmp_path / other).read_bytes()

    def test_output_directory_is_an_argument(self, tmp_path):
        # the scenario text names no output directory: the caller always passes one
        assert list(inspect.signature(cli.load_scenario).parameters) == ["text"]
        assert not hasattr(cli.load_scenario(SMALL_SCENARIO), "out_dir")
        with pytest.raises(TypeError):
            cli.execute_scenario(cli.load_scenario(SMALL_SCENARIO))

    def test_out_env_override(self, tmp_path, monkeypatch):
        # the output directory is the one passed; no environment variable overrides it
        monkeypatch.setenv("FDABEAM_OUT", str(tmp_path / "env_out"))
        out = run_scenario_text(SMALL_SCENARIO, tmp_path / "out")
        assert out == tmp_path / "out" and (out / "manifest.json").exists()
        assert not (tmp_path / "env_out").exists()


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

    def test_run_without_out_writes_beside_the_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "scenarios" / "s.ini"
        path.parent.mkdir()
        path.write_text(SMALL_SCENARIO)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "scenarios" / "out" / "manifest.json").exists()
        assert not (tmp_path / "cwd" / "out").exists()
        assert capsys.readouterr().out == f"small: artifacts written to {path.parent / 'out'}\n"

    def test_output_directory_under_a_file_exit_3(self, tmp_path, capsys):
        # permission bits would not stop a root user; a regular file in the path does
        path = tmp_path / "s.ini"
        path.write_text(SMALL_SCENARIO)
        (tmp_path / "blocker").write_text("")
        out = tmp_path / "blocker" / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"validation error in {path}: output directory {out} is not writable")

    def test_numerical_error_exit_4(self, tmp_path, capsys, monkeypatch):
        def overflowing(*args, **kwargs):
            raise ArithmeticError("engine overflow")
        monkeypatch.setattr(cli, "sweep_grid", overflowing)
        path = tmp_path / "s.ini"
        path.write_text(SMALL_SCENARIO)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical error running {path}: engine overflow\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

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
    @pytest.mark.parametrize("old, new, expected", [
        ("elements = 8", "elements = abc", "array.elements: invalid literal for int()"),
        ("trajectory = true", "trajectory = maybe", "fitb_grid.trajectory: Not a boolean"),
        ("[scan_report]\n", "[scan_report]\nk = 1.5\n", "scan_report.k: invalid literal"),
        ("[scan_report]", "[waveforms]\nkind = chirp-bank\nbase_rate = x\n\n[scan_report]",
         "waveforms.base_rate: cannot parse number 'x'"),
        ("time = 1 us", "time = 1e us", "scan_report.time: cannot parse quantity '1e us'"),
        ("time_samples = 16", "time_samples = 16\ntime_sample = 4",
         "fitb_grid: unknown key 'time_sample'"),
        ("[scan_report]", "[fitb_grids]\ntime_samples = 4\n\n[scan_report]",
         "unknown section [fitb_grids]"),
        ("pulse = 5 us", "pulse = 1e400 us", "array.pulse: cannot parse quantity '1e400 us'"),
        ("carrier = 10 GHz", "carrier = 1e308 GHz", "array.carrier: quantity '1e308 GHz' overflows"),
        ("time = 1 us", "time = nan us", "scan_report.time: cannot parse quantity 'nan us'"),
        ("[scan_report]", "[waveforms]\nkind = chirp-bank\nrate_step = inf\n\n[scan_report]",
         "waveforms.rate_step: cannot parse number 'inf'"),
        ("offset = 200 kHz", "ofset = 200 kHz", "plan: unknown key 'ofset'"),
        ("pulse = 5 us", "pulse = 5 us\npulses = 5 us", "array: unknown key 'pulses'"),
        ("name = small", "name = small\nseeds = 1", "scenario: unknown key 'seeds'"),
        ("[scan_report]", "[waveforms]\nkind = rect\nbandwith = 1 MHz\n\n[scan_report]",
         "waveforms: unknown key 'bandwith'"),
        ("spacing = half-wavelength", "spacing = lambda0/2",
         "array.spacing: cannot parse quantity 'lambda0/2'"),
        ("[scan_report]", "[waveforms]\nkind = rect\nbandwidth = 1 MHz\n\n[scan_report]",
         "waveforms: unknown key 'bandwidth'"),
        ("name = small", "name = sm\udcffall", "not UTF-8 text"),  # a lone 0xff byte
        ("[scan_report]", "[outputs]\nformats = ,\n\n[scan_report]",
         "outputs: formats lists no format (csv, binary)"),
        # inputs with a second way to say them: a [plan] or [weights] seed, --out, closed-form
        ("name = small", "name = small\nseed = 1", "scenario: unknown key 'seed'"),
        ("[scan_report]", "[outputs]\ndirectory = x\n\n[scan_report]",
         "outputs: unknown key 'directory'"),
        ("engine = exact", "engine = closed_form", "fitb_grid: unknown engine 'closed_form'"),
        ("engine = exact", "engine = fast", "fitb_grid: unknown engine 'fast'"),
        ("[scan_report]", "[weights]\ntype = steered\nangle = 30 grad\n\n[scan_report]",
         "weights.angle: unknown angle unit 'grad'"),
        ("[scan_report]", "[weights]\ntype = steered\n\n[scan_report]",
         "weights: steered weights need an angle"),
        ("[scan_report]", "[schedule]\nsegment1 = 0 us, 5 us, 0\n\n[scan_report]",
         "schedule.segment1: expected 't_a, t_b, theta_a, theta_b', got '0 us, 5 us, 0'"),
        ("[scan_report]", "[outputs]\nformats = csv, hdf5\n\n[scan_report]",
         "outputs: unknown format 'hdf5'"),
        # units and keywords are matched as written: milli is not mega, and no value is folded
        ("offset = 200 kHz", "offset = 5 mHz", "plan.offset: unknown quantity unit 'mHz'"),
        ("pulse = 5 us", "pulse = 1 Ms", "array.pulse: unknown quantity unit 'Ms'"),
        ("spacing = half-wavelength", "spacing = 1 Mm",
         "array.spacing: unknown quantity unit 'Mm'"),
        ("pulse = 5 us", "pulse = 5 µs", "array.pulse: unknown quantity unit 'µs'"),
        ("carrier = 10 GHz", "carrier = 10 ghz", "array.carrier: unknown quantity unit 'ghz'"),
        ("type = uniform", "type = Uniform", "plan: unknown type 'Uniform'"),
        ("[scan_report]", "[outputs]\nformats = CSV\n\n[scan_report]",
         "outputs: unknown format 'CSV'"),
        ("spacing = half-wavelength", "spacing = Half-Wavelength",
         "array.spacing: cannot parse quantity 'Half-Wavelength'"),
        ("[scan_report]", "[waveforms]\nkind = chirp-bank\nbase_rate = 100 kHz\n\n[scan_report]",
         "waveforms.base_rate: unknown number unit 'kHz' (accepted: none)"),
    ], ids=["getint", "getboolean", "getint-float", "number", "quantity", "unknown-key",
            "unknown-section", "infinite-quantity", "overflowing-quantity", "nan-quantity",
            "infinite-number", "unknown-plan-key", "unknown-array-key",
            "unknown-scenario-key", "unknown-waveforms-key", "spacing-alias",
            "removed-bandwidth-key", "non-utf-8", "empty-formats", "removed-scenario-seed",
            "removed-outputs-directory", "removed-engine-spelling", "unknown-engine",
            "unknown-angle-unit", "steered-without-angle", "three-field-segment",
            "unknown-format", "milli-hertz", "mega-second", "mega-metre", "micro-sign",
            "lowercase-giga", "capitalized-type", "uppercase-format", "capitalized-spacing",
            "dimensionless-with-unit"])
    def test_unparseable_value_exit_2(self, tmp_path, capsys, verb, old, new, expected):
        path = tmp_path / "s.ini"
        path.write_bytes(SMALL_SCENARIO.replace(old, new).encode("utf-8", "surrogateescape"))
        assert cli.main([verb, str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"parse error in {path}: ") and len(err.strip().splitlines()) == 1
        assert expected in err

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
        # the Dirichlet form would lose the steering: its t' = 0 row peaks at 0 deg, not 40
        ("[plan]\noffset = 100 kHz\n[weights]\ntype = steered\nangle = 40 deg\n"
         "[fitb_grid]\nengine = closed-form\n",
         "closed-form engine needs [weights] type = uniform and [waveforms] kind = rect"),
        ("[plan]\noffset = 100 kHz\n[waveforms]\nkind = chirp-bank\n"
         "[fitb_grid]\nengine = closed-form\n",
         "closed-form engine needs [weights] type = uniform and [waveforms] kind = rect"),
        ("[fgtb_curve]\noffsets = 1 MHz, 1.0000001 MHz\n",
         "'1 MHz' and '1.0000001 MHz' both write fgtb_df1000kHz.csv"),
        ("[mimo_compare]\noffsets = 5 MHz, 5000 kHz\n",
         "'5 MHz' and '5000 kHz' both write mimo_compare_df5000kHz.csv"),
        ("[legacy_grid]\nranges = 18 km, 18.0000001 km\n",
         "'18 km' and '18.0000001 km' both write legacy_r18km"),
        ("[zero_time_cut]\nspacings = 2 cm, 2  cm\n",
         "'2 cm' and '2  cm' both write zero_time_cut_2_cm.csv"),
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
         "array: every element frequency f_c + offset_m must be positive"),
        ("[plan]\ntype = tabulated\noffsets = 0, -20 GHz, 0, 0, 0, 0, 0, 0\n[fitb_grid]\n",
         "array: every element frequency f_c + offset_m must be positive"),
        ("[plan]\ntype = coded\ncoding = square\noffset = -1 GHz\n[fitb_grid]\n",
         "array: every element frequency f_c + offset_m must be positive"),
        ("[plan]\ntype = time-modulated\ntime_scale = 0 us\n[fitb_grid]\n",
         "plan: time_scale must be positive and finite"),
        ("[plan]\ntype = time-modulated\ntime_scale = -1 us\n[fitb_grid]\n",
         "plan: time_scale must be positive and finite"),
        ("[fgtb_curve]\noffsets = 1 MHz, -2 GHz\n",  # element 7 at 10 - 14 GHz
         "fgtb_curve.offsets '-2 GHz': every element frequency f_c + offset_m must be positive"),
        ("[mimo_compare]\noffsets = -2 GHz\n",
         "mimo_compare.offsets '-2 GHz': every element frequency f_c + offset_m must be positive"),
        ("[legacy_grid]\nranges = 18 km, -5 km\n",
         "legacy_grid.ranges: '-5 km' is not a positive range"),
        ("[legacy_grid]\nranges = 0 km\n", "legacy_grid.ranges: '0 km' is not a positive range"),
        ("[zero_time_cut]\nspacings = 2 cm, -1 cm\n",
         "zero_time_cut.spacings: '-1 cm': spacing must be positive and finite"),
        ("[plan]\ntype = time-modulated\nform = sinh\nrate = 50 kHz\ntime_scale = 1 ns\n"
         "[fitb_grid]\n",  # sinh(5000) overflows
         "plan: element 7's time-modulated phase reaches inf cycles"),
        ("[plan]\ntype = time-modulated\nform = sinh\nrate = 50 kHz\ntime_scale = 100 ns\n"
         "[fitb_grid]\n",  # finite, but no fraction of a cycle is left at the pulse end
         "plan: element 7's time-modulated phase reaches 4.55284e+21 cycles"),
        ("[plan]\ntype = time-modulated\nform = table\n[fitb_grid]\n",
         "plan: unknown time-modulated form 'table'"),
        # chi_15 = 15*(-100 kHz)*sinh(10) is about -16.5 GHz at the pulse end
        ("[array]\nelements = 16\ncarrier = 10 GHz\npulse = 5 us\n"
         "[plan]\ntype = time-modulated\nform = sinh\nrate = -100 kHz\ntime_scale = 0.5 us\n"
         "[fitb_grid]\n",
         "plan: element frequency f_c + chi_m(tau) reaches -6.54465e+09 Hz within the pulse"),
        # chi_7 = 7*(-2 GHz)*arctan(5) is about -19.2 GHz at the pulse end
        ("[plan]\ntype = time-modulated\nform = arctan\nrate = -2 GHz\n[fitb_grid]\n",
         "plan: element frequency f_c + chi_m(tau) reaches -9.2"),
        # r/c is 3.3e11 s, where float64 steps by 6.1e-5 s: four instants of a 5 us pulse collapse
        ("[legacy_grid]\nranges = 18 km, 1e17 km\ntime_samples = 4\n",
         "legacy_grid.ranges: at '1e17 km', r/c + t takes fewer than 4 distinct float64 values"),
        ("[waveforms]\nbase_rate = 100\n[fitb_grid]\n",
         "waveforms: kind = rect does not read 'base_rate'"),
        ("[waveforms]\nkind = rect\nrate_step = 5\n[fitb_grid]\n",
         "waveforms: kind = rect does not read 'rate_step'"),
        ("[weights]\ntype = uniform\nangle = 30 deg\n[fitb_grid]\n",
         "weights: type = uniform does not read 'angle'"),
        ("[weights]\ntype = random\nseed = 3\nangle = 30 deg\n[fitb_grid]\n",
         "weights: type = random does not read 'angle'"),
        ("[plan]\ntype = uniform\nform = sqrt\nrate = 1 kHz\ncoding = costas\n[fitb_grid]\n",
         "plan: type = uniform does not read 'form'"),
        ("[plan]\nrate = 1 kHz\n[fitb_grid]\n", "plan: type = uniform does not read 'rate'"),
        ("[plan]\ntype = tabulated\noffsets = 0, 0, 0, 0, 0, 0, 0, 0\nseed = 3\n[fitb_grid]\n",
         "plan: type = tabulated does not read 'seed'"),
        ("[plan]\ntype = time-modulated\noffset = 1 kHz\n[fitb_grid]\n",
         "plan: type = time-modulated does not read 'offset'"),
        # fig5b's steered [weights] section still holds its angle under this overlay
        ("[scenario]\npreset = fig5b\n[weights]\ntype = uniform\n",
         "weights: type = uniform does not read 'angle'"),
        # 1e300 / (5 us)^2 overflows to an infinite chirp rate
        ("[waveforms]\nkind = chirp-bank\nbase_rate = 1e300\n[fitb_grid]\n",
         "waveforms: chirp_rate must be finite, got inf"),
        ("[waveforms]\nkind = chirp-bank\nrate_step = 1e300\n[fitb_grid]\n",
         "waveforms: chirp_rate must be finite, got inf"),
        ("[plan]\ntype = coded\ncoding = random\noffset = 1 kHz\n[fitb_grid]\n",
         "plan: random FO coding requires a seed"),
        ("[array]\nelements = 17\ncarrier = 10 GHz\npulse = 5 us\n"
         "[plan]\ntype = coded\ncoding = costas\noffset = 5 kHz\n[fitb_grid]\n",
         "plan: Costas table of length 16 cannot cover 17 elements"),
        ("[plan]\noffset = 100 kHz\n[weights]\ntype = steered\nangle = 95 deg\n[fitb_grid]\n",
         "weights: steering angle"),
        ("[plan]\ntype = tabulated\noffsets = 0, 1, 2 kHz\n[fitb_grid]\n",
         "plan: 3 tabulated offsets for 8 elements"),
        ("[weights]\ntype = random\n[fitb_grid]\n", "weights: random weights require a seed"),
    ], ids=["tabulated-scan-report", "coded-zero-time-cut", "time-modulated-legacy-grid",
            "tabulated-schedule", "segment-beyond-pulse", "negative-weight-seed",
            "coded-closed-form", "steered-closed-form", "chirp-bank-closed-form",
            "fgtb-offset-collision", "mimo-offset-collision",
            "legacy-range-collision", "spacing-collision", "fitb-time-budget",
            "fitb-angle-budget", "legacy-time-budget", "schedule-angle-budget",
            "zero-time-cut-budget", "fgtb-curve-budget", "mimo-compare-budget",
            "elements-budget", "elements-angle-budget", "elements-time-budget",
            "fgtb-quadrature-budget", "mimo-quadrature-budget", "zero-carrier",
            "nonpositive-element-frequency", "tabulated-nonpositive-frequency",
            "coded-nonpositive-frequency", "zero-time-scale", "negative-time-scale",
            "fgtb-nonpositive-frequency", "mimo-nonpositive-frequency", "legacy-negative-range",
            "legacy-zero-range", "zero-time-cut-negative-spacing", "time-modulated-phase-overflow",
            "time-modulated-phase-beyond-2-52", "time-modulated-table-form",
            "time-modulated-negative-frequency", "time-modulated-arctan-negative-frequency",
            "legacy-range-beyond-axis", "rect-base-rate", "rect-rate-step",
            "uniform-weights-angle", "random-weights-angle", "uniform-plan-form",
            "default-plan-rate", "tabulated-plan-seed", "time-modulated-plan-offset",
            "preset-weights-angle", "chirp-rate-overflow", "chirp-rate-step-overflow",
            "coded-random-without-seed", "costas-beyond-16-elements", "steered-beyond-90-deg",
            "tabulated-offset-count", "random-weights-without-seed"])
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

    @pytest.mark.parametrize("body, expected", [
        ("[plan]\ntype = chirped\noffset = 1 kHz\n", "plan: unknown type 'chirped'"),
        ("[weights]\ntype = tapered\nangle = 30 deg\n", "weights: unknown type 'tapered'"),
        ("[waveforms]\nkind = noise\nbase_rate = 100\n", "waveforms: unknown kind 'noise'"),
    ], ids=["plan", "weights", "waveforms"])
    def test_unknown_kind_exit_2(self, tmp_path, capsys, body, expected):
        # the kind is checked before the keys it would read
        path = tmp_path / "s.ini"
        path.write_text("[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
                        + body + "[fitb_grid]\n")
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and expected in err

    @staticmethod
    def _pool_modules_after(code: str = "pass") -> str:
        "The thread-pool modules loaded in a fresh interpreter after `import fdabeam.cli` and code."
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (f"import sys, fdabeam.cli; {code}; "
                 "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout.strip()

    def test_cli_import_loads_no_thread_pool_or_logging(self):
        # keeps the CLI's start-up light: the time-modulated kernel imports its pool lazily
        assert self._pool_modules_after() == "[]"

    @pytest.mark.parametrize("section", [
        "[schedule]\nsegment1 = 0 us, 5 us, -20 deg, 20 deg\ntime_samples = 8\n"
        "angle_samples = 16\n[outputs]\nformats = csv\n",
        "[fitb_grid]\ntime_samples = 8\nangle_samples = 16\n[outputs]\nformats = binary\n",
    ], ids=["one-csv-grid", "binary-only"])
    def test_unshared_sections_load_no_thread_pool(self, tmp_path, section):
        # a section's second writer is a plain threading.Thread, and a uniform plan reaches
        # no time-modulated kernel, so these sections leave concurrent.futures unloaded
        text = ("[array]\nelements = 8\ncarrier = 10 GHz\npulse = 5 us\n"
                "[plan]\ntype = uniform\noffset = 100 kHz\n" + section)
        run = (f"fdabeam.cli.execute_scenario(fdabeam.cli.load_scenario({text!r}), "
               f"{str(tmp_path)!r})")
        assert self._pool_modules_after(run) == "[]"
        assert (tmp_path / "manifest.json").exists()

    def test_every_preset_validates(self):
        for name, (_, text) in PRESETS.items():
            sc = cli.load_scenario(text)
            assert sc.evaluations, name


class TestBlasThreads:
    "execute_scenario runs every engine on one OpenBLAS thread and restores the count after."

    @pytest.fixture
    def blas_threads(self):
        blas = cli._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS get/set_num_threads pair is loaded")
        get, set_ = blas
        before = get()
        set_(2)  # a count that the scope must change and then restore
        yield get
        set_(before)

    def test_engines_run_on_one_thread(self, blas_threads, tmp_path, monkeypatch):
        seen = []
        for name in ("sweep_grid", "covariance"):
            def wrapper(*args, _engine=getattr(cli, name), **kwargs):
                seen.append(blas_threads())
                return _engine(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)
        run_scenario_text(SMALL_SCENARIO + "\n[fgtb_curve]\noffsets = 1 MHz\n", tmp_path)
        assert seen == [1, 1]
        assert blas_threads() == 2

    def test_count_restored_when_an_engine_raises(self, blas_threads, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ArithmeticError("engine failed")
        monkeypatch.setattr(cli, "sweep_grid", failing)
        with pytest.raises(ArithmeticError, match="engine failed"):
            run_scenario_text(SMALL_SCENARIO, tmp_path)
        assert blas_threads() == 2


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    "Every preset run once: {name: (output directory, seconds taken)}."
    root = tmp_path_factory.mktemp("presets")
    runs = {}
    for name, (_, text) in PRESETS.items():
        start = time.perf_counter()
        out = run_scenario_text(text, root / name)
        runs[name] = out, time.perf_counter() - start
    return runs


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1).T


def _trajectory(out, sc):
    """The trajectory's times (s) and angles (rad), and the sine spacing h <= pi/N_theta.

    A row's true peak lies within one sample of its argmax, and the refined peak
    inside that same three-sample window, so each measured sine is within 2h of the
    track.  Rows beyond 60 degrees do not count for a scan volume or speed: there a
    mainlobe crossing the +-90 degree edge peaks out of view.
    """
    t_us, theta_deg = _load_csv(out / "trajectory.csv")
    return t_us * 1e-6, np.radians(theta_deg), np.pi / dict(sc.evaluations)["fitb_grid"]["n_theta"]


def _scan_volume(out, sc, expected):
    "A per-row error of 2h moves a least-squares slope over times t by 2h*sum|dt|/sum(dt^2)."
    t, theta, h = _trajectory(out, sc)
    traj = fb.PeakTrajectory(t=t, theta=theta, ambiguous=np.abs(theta) > np.radians(60.0))
    kept = fb.unwrap_sine_track(traj)[0]
    dev = kept - kept.mean()
    bound = 2 * h * np.abs(dev).sum() / (dev * dev).sum() * sc.config.pulse_duration
    assert fb.measured_scan_volume(traj, sc.config.pulse_duration) == pytest.approx(
        expected, abs=bound)


def _zero_time_peak(out, sc, expected_deg):
    t, theta, h = _trajectory(out, sc)
    assert t[0] == 0.0
    assert abs(np.sin(theta[0]) - np.sin(np.radians(expected_deg))) <= 2 * h


def _scan_speed(out, sc, delta_f):
    """Over every 1.5 us window within 60 degrees, the mean angular velocity obeys scan_speed.

    That mean is scan_speed at some angle the window passes, and |scan_speed| grows
    with |theta|: it lies between scan_speed at the window's angle nearest boresight
    and at its farthest.  A sine within 2h of the track, at most sin(60 deg) from
    boresight, is within e = 2h/sqrt(1 - (sin(60 deg) + 2h)^2) of it in angle.  So the
    window's angles widen by e, and the measured velocity moves by 2e over its duration.
    """
    t, theta, h = _trajectory(out, sc)
    e = 2 * h / np.sqrt(1 - (np.sin(np.radians(60.0)) + 2 * h) ** 2)
    n = int(np.searchsorted(t, t[0] + 1.5e-6))
    inside = np.lib.stride_tricks.sliding_window_view(np.abs(theta), n + 1).max(axis=1)
    windows = np.flatnonzero(inside <= np.radians(60.0))
    assert windows.size > t.size // 2
    for a in windows:
        lo, hi = sorted((theta[a], theta[a + n]))
        lo, hi = lo - e, hi + e
        near = 0.0 if lo <= 0.0 <= hi else min(lo, hi, key=abs)
        speeds = sorted(fb.scan_speed(sc.config, delta_f, x) for x in (near, max(lo, hi, key=abs)))
        duration = t[a + n] - t[a]
        measured = (theta[a + n] - theta[a]) / duration
        assert speeds[0] - 2 * e / duration <= measured <= speeds[1] + 2 * e / duration


def _coded_scan_law(out, sc, coding):
    "Criterion 7's law and budget: every row within 0.5 deg of the law at the offsets' slope."
    t, theta, _ = _trajectory(out, sc)
    offsets = fb.generate_offsets(coding, sc.config.num_elements)
    slope = np.polyfit(np.arange(offsets.size), offsets, 1)[0]
    predicted = [fb.predict_peak_direction(sc.config, slope, ti) for ti in t]
    assert np.degrees(np.abs(theta - predicted)).max() < 0.5


def _grating_lobes(out, sc, expected):
    """Which spacings' zero-time cuts reach 0.95*M beyond 60 degrees, on each side.

    A sample is a value of the cut, so one sample at 0.95*M shows a lobe.  The cut
    |sum_m exp(j*m*psi)|, psi = 2*pi*(f_c + delta_f)*d*sin(theta)/c, has a slope of at
    most pi*M*(M-1)*(f_c + delta_f)*d/c, and every angle beyond 60 degrees lies within
    one step pi/N_theta of a sample beyond it: a sampled maximum that far below 0.95*M
    shows there is none.
    """
    params = dict(sc.evaluations)["zero_time_cut"]
    configs = dict(zip(params["tags"], params["configs"]))
    m = sc.config.num_elements
    for tag, lobes in expected.items():
        cfg = configs[tag]
        slope = np.pi * m * (m - 1) * (cfg.carrier_freq + sc.plan.delta_f) * cfg.spacing / \
            cfg.wave_speed
        theta_deg, value = _load_csv(out / f"zero_time_cut_{tag}.csv")
        for side in (theta_deg > 60.0, theta_deg < -60.0):
            peak = value[side].max()
            reach = peak if lobes else peak + slope * np.pi / params["n_theta"]
            assert (reach >= 0.95 * m) == lobes


def _orthogonal_regime(out, sc, offset):
    "Criterion 8's orthogonal regime: flat within 1 dB at the offset; every curve peaks at 0 dB."
    for tag in dict(sc.evaluations)["fgtb_curve"]["tags"]:
        assert _load_csv(out / f"fgtb_df{tag}.csv")[1].max() == 0.0
    flat = _load_csv(out / f"fgtb_df{offset / 1e3:g}kHz.csv")[1]
    assert flat.max() - flat.min() < 1.0


def _mimo_report(out, sc, offset):
    """The report's deviation is 0 at 0 Hz and, at the offset, the CSV's to the printed digits.

    Each normalized CSV cell, at most 1, is printed to ten significant digits, within
    5e-11; the report prints a mantissa with six decimals.
    """
    report = (out / "mimo_compare_report.txt").read_text()
    deviations = {float(hz): text for hz, text in
                  re.findall(r"offset_hz = (\S+) : max_deviation = (\S+) ", report)}
    assert deviations[0.0] == "0.000000e+00"
    fgtb_norm, mimo_norm = _load_csv(out / f"mimo_compare_df{offset / 1e3:g}kHz.csv")[1:]
    reported = float(deviations[offset])
    printed = 0.5 * 10.0 ** (math.floor(math.log10(reported)) - 6)
    assert abs(np.abs(fgtb_norm - mimo_norm).max() - reported) <= printed + 1e-10


# The claim each preset's description makes, read back from its artifacts: a checker and
# what it expects.  Scan volumes are swept sine sectors over the pulse, 2*delta_f*T_p at
# half a reference wavelength; zero-time peaks are in degrees.
PRESET_CLAIMS = {
    "fig2": (_grating_lobes, {"half_wavelength": False, "wavelength": True}),
    "fig3a": (_scan_volume, 0.1),  # limited coverage
    "fig3b": (_scan_volume, 0.3),
    "fig3c": (_scan_volume, 2.0),  # the full sector once
    "fig3d": (_scan_volume, 4.0),  # the full sector twice
    "fig3e": (_scan_volume, 0.0),  # no scan
    "fig4": (_scan_speed, 80e3),
    "fig5a": (_zero_time_peak, 0.0),
    "fig5b": (_zero_time_peak, 60.0),
    "fig7a": (_coded_scan_law, fb.FoCoding("random", 100e3, seed=20230301)),
    "fig7b": (_coded_scan_law, fb.FoCoding("costas", 5e3)),
    "fig7c": (_coded_scan_law, fb.FoCoding("logarithmic", 50e3)),
    "fig7d": (_coded_scan_law, fb.FoCoding("square", 1e3)),
    "fig8": (_orthogonal_regime, 10e6),
    "fig9a": (_mimo_report, 10e6),
    "fig9b": (_mimo_report, 10e6),
}


class TestPresetContents:
    def test_all_presets_execute_within_budget(self, preset_runs):
        for name, (out, elapsed) in preset_runs.items():
            assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
            assert (out / "manifest.json").exists(), name

    @pytest.mark.parametrize("name", PRESET_CLAIMS)
    def test_preset_artifacts_hold_their_claim(self, preset_runs, name):
        check, expected = PRESET_CLAIMS[name]
        check(preset_runs[name][0], cli.load_scenario(PRESETS[name][1]), expected)

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
    "waveforms": ("kind", "base_rate", "rate_step"),
}
_TOKENS = ("10 GHz", "5 us", "0", "0 Hz", "-2.5 GHz", "100 kHz", "1e400 us", "1e308 GHz", "inf",
           "nan", "-1", "half-wavelength", "wavelength", "1.5 cm", "uniform", "coded",
           "tabulated", "time-modulated", "steered", "random", "rect", "chirp-bank", "costas",
           "logarithmic", "sqrt", "table", "60 deg", "90 deg", "0.5 rad", "7", "1, 2, 3 kHz",
           "5 mHz", "5 µs", "Uniform")
_VALUES = st.one_of(st.sampled_from(_TOKENS), st.text(max_size=12))
_EVALUATIONS = ("[scan_report]\n",
                "[fitb_grid]\ntime_samples = 2\nangle_samples = 2\n",
                "[fgtb_curve]\noffsets = 0 Hz, 100 GHz\nangle_samples = 2\n")
_RUN_EVALUATIONS = _EVALUATIONS[:2]  # cheap enough to run for every example that loads


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
@example(elements="16", setup={"array": _FINE,
                               "plan": {"type": "time-modulated", "time_scale": "0 us"}},
         evaluation=_EVALUATIONS[1])
def test_load_scenario_returns_or_raises_a_scenario_error(elements, setup, evaluation):
    """Any value text in the setup sections either loads as a finite scenario or is reported.

    A scenario that loads also runs: without an exception, and (the suite turns
    RuntimeWarning into an error) without a numerical warning.
    """
    try:
        sc = cli.load_scenario(_scenario_text(elements, setup, evaluation))
    except (cli.ScenarioParseError, cli.ScenarioValidationError):
        return
    cfg = sc.config
    assert 1 <= cfg.num_elements <= cli.MAX_CELLS
    for value in (cfg.carrier_freq, cfg.spacing, cfg.pulse_duration, cfg.wave_speed):
        assert 0 < value < math.inf
    if evaluation in _RUN_EVALUATIONS:
        with tempfile.TemporaryDirectory() as out:
            cli.execute_scenario(sc, out)


# Every evaluation section, with a few value texts per key, valid and not, at sizes small
# enough to run each drawn scenario that validates.
_OFFSETS = ("0 Hz", "1 MHz", "0, 100 kHz", "-3 GHz", "1 GHz", "1 MHz, 1.0000001 MHz", "x")
_SECTION_VALUES = {
    "fitb_grid": {"time_samples": ("2", "3", "1"), "angle_samples": ("2", "5", "0"),
                  "engine": ("exact", "closed-form", "fast"), "trajectory": ("true", "false")},
    "zero_time_cut": {"angle_samples": ("2", "7", "1"),
                      "spacings": ("half-wavelength", "wavelength", "1.5 cm", "-1 cm", "0 m",
                                   "1 cm, 3 cm", "2 cm, 2  cm", "lambda0", "")},
    "legacy_grid": {"ranges": ("18 km", "18 km, 27 km", "0 km", "-5 km", "1e17 km", "1e300 km",
                               "x"),
                    "time_samples": ("2", "4", "1"), "angle_samples": ("2", "3")},
    "fgtb_curve": {"offsets": _OFFSETS, "angle_samples": ("2", "3", "1")},
    "mimo_compare": {"offsets": _OFFSETS, "angle_samples": ("2", "3", "1")},
    "scan_report": {"time": ("0", "1 us", "-1 us", "9 us"), "k": ("0", "1", "-1", "x")},
    "schedule": {"segment1": ("0 us, 1 us, 0, 10", "0 us, 9 us, 0, 10", "1 us, 0 us, 0, 10",
                              "0 us, 5 us, -20 deg, 95 deg", "1, 2"),
                 "segment2": ("2 us, 3 us, 10, 10", "0 us, 1 us, 0, 0"),
                 "time_samples": ("2", "4"), "angle_samples": ("2", "3")},
}
_PLANS = ("type = uniform\noffset = 100 kHz", "type = uniform\noffset = 0 Hz",
          "type = uniform\noffset = -4 GHz", "type = coded\ncoding = costas\noffset = 5 kHz",
          "type = time-modulated\nform = arctan\nrate = 50 kHz",
          "type = time-modulated\nform = sinh\nrate = 50 kHz\ntime_scale = 1 ns")
_WEIGHTS = ("type = uniform", "type = random\nseed = 3", "type = steered\nangle = 30 deg")
_WAVEFORMS = ("kind = rect", "kind = chirp-bank", "kind = chirp-bank\nrate_step = -10",
              "kind = rect\nrate_step = 5")


@st.composite
def _evaluations(draw):
    section = draw(st.sampled_from(sorted(_SECTION_VALUES)))
    keys = draw(st.fixed_dictionaries({}, optional={
        key: st.sampled_from(values) for key, values in _SECTION_VALUES[section].items()}))
    return section, keys


@settings(max_examples=100, deadline=None)
@given(elements=st.sampled_from(("1", "2", "4")), plan=st.sampled_from(_PLANS),
       weights=st.sampled_from(_WEIGHTS), waveforms=st.sampled_from(_WAVEFORMS),
       evaluation=_evaluations())
@example(elements="4", plan=_PLANS[0], weights=_WEIGHTS[0], waveforms=_WAVEFORMS[0],
         evaluation=("zero_time_cut", {"spacings": "-1 cm"}))
@example(elements="4", plan=_PLANS[5], weights=_WEIGHTS[0], waveforms=_WAVEFORMS[0],
         evaluation=("fitb_grid", {"time_samples": "2", "angle_samples": "2"}))
@example(elements="4", plan=_PLANS[0], weights=_WEIGHTS[0], waveforms=_WAVEFORMS[0],
         evaluation=("legacy_grid", {"ranges": "1e17 km", "time_samples": "4"}))
# sinh(707) is finite and the phase small, but h' = rate*(sinh(x) + x*cosh(x)) overflows
@example(elements="4", plan="type = time-modulated\nform = sinh\nrate = 1e-300 Hz\n"
         "time_scale = 7.07 ns", weights=_WEIGHTS[0], waveforms=_WAVEFORMS[0],
         evaluation=("fitb_grid", {"time_samples": "3", "angle_samples": "5"}))
def test_validate_ok_means_run_ok(elements, plan, weights, waveforms, evaluation):
    """A scenario that validate accepts also runs: exit 0 and no warning of any kind.

    validate itself ends every scenario with exit 0, 2 or 3, never a traceback.
    """
    section, keys = evaluation
    text = (f"[array]\nelements = {elements}\ncarrier = 10 GHz\npulse = 5 us\n"
            f"[plan]\n{plan}\n[weights]\n{weights}\n[waveforms]\n{waveforms}\n[{section}]\n"
            + "".join(f"{key} = {value}\n" for key, value in keys.items()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ini"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["validate", str(path)])
            assert code in (0, cli.EXIT_PARSE, cli.EXIT_VALIDATION)
            if code != 0:
                return
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 0, err.getvalue()
        assert not caught, [str(w.message) for w in caught]
