import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pillar_qed
from pillar_qed import (
    BackgroundModel,
    SystemParams,
    TemperatureScan,
    anticrossing_gap,
    apply_background,
    max_conditional_phase,
    reflection_amplitude,
)
from pillar_qed.cli import build_parser, main
from pillar_qed.config import DEFAULTS, ConfigError, RunConfig, load_config_file, parse_energy, parse_grid
from pillar_qed.io import (
    CHANNELS_HEADER,
    DESIGN_HEADER,
    SPECTRUM_HEADER,
    FileFormatError,
    _read_columns,
    _read_grid_table,
    read_channels_csv,
    read_design_csv,
    read_manifest_csv,
    read_report,
    read_spectrum_csv,
)

from conftest import DEVICE

WC = DEVICE["omega_c"]
GRID = np.linspace(WC - 100.0, WC + 100.0, 2001)
NOT_FINITE = "conditional-phase polynomial coefficients are not finite"


def run(*argv):
    return main(list(argv))


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestConfigParsing:
    def test_energy_units(self):
        assert parse_energy("1333.596meV") == pytest.approx(1333596.0)
        assert parse_energy("1333.596 meV") == pytest.approx(1333596.0)
        assert parse_energy("24.7ueV") == pytest.approx(24.7)
        assert parse_energy("1.333596eV") == pytest.approx(1333596.0)
        assert parse_energy("42") == 42.0
        for text in ("2 ueV", "2 μeV", "2e-3 meV", "2e-6 eV"):
            assert parse_energy(text) == pytest.approx(2.0)
        # suffixes are case-sensitive: MeV is not a typo for meV
        for text in ("fast", "1 MeV", "1 MEV", "1 mev", "1 UEV", "1 ev"):
            with pytest.raises(ConfigError, match="bad energy value"):
                parse_energy(text)

    def test_grid_forms(self):
        g = parse_grid("0:10:11")
        np.testing.assert_allclose(g, np.linspace(0, 10, 11))
        g = parse_grid("1333.495meV:1333.695meV:3")
        assert g[0] == pytest.approx(1333495.0)
        with pytest.raises(ConfigError):
            parse_grid("10:0:5")
        with pytest.raises(ConfigError):
            parse_grid("0:10:1")
        with pytest.raises(ConfigError):
            parse_grid("5,4,3")

    def test_defaults_build(self):
        cfg = RunConfig()
        assert cfg.g == 9.4
        assert cfg.seed == 42
        assert len(cfg.grid) == 2001
        assert cfg.sb_offset is None
        p = cfg.system_params()
        assert p.kappa_total == pytest.approx(25.9)

    def test_file_and_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("g = 5.0\nomega_c = 1333.596 meV  # uses meV\n", encoding="utf-8")
        from pillar_qed.config import load_config_file

        values = load_config_file(cfg_file)
        cfg = RunConfig(values, {"g": "7.5"})
        assert cfg.g == 7.5  # flag wins over file
        assert cfg.omega_c == pytest.approx(1333596.0)

    def test_readme_key_table_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("Keys and defaults:", 1)[1].strip().splitlines()
        rows = list(takewhile(lambda line: line.startswith("|"), table))[2:]
        names = [n for row in rows for n in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert names == list(DEFAULTS)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("quality = high\n", encoding="utf-8")
        from pillar_qed.config import load_config_file

        with pytest.raises(ConfigError):
            load_config_file(cfg_file)


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"empty.csv", "coupled.csv", "channels_empty.csv", "channels_coupled.csv"}
        coupled = read_spectrum_csv(out / "coupled.csv")
        assert len(coupled) == 2001
        p = SystemParams(**DEVICE)
        expected = np.abs(reflection_amplitude(p, GRID)) ** 2
        np.testing.assert_array_equal(coupled.values, expected)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--out", str(a)) == 0
        assert run("synth", "--out", str(b)) == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_noise_deterministic_per_seed(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("synth", "--out", str(a), "--set", "noise=0.01", "--set", "seed=7") == 0
        assert run("synth", "--out", str(b), "--set", "noise=0.01", "--set", "seed=7") == 0
        assert run("synth", "--out", str(c), "--set", "noise=0.01", "--set", "seed=8") == 0
        assert read_bytes_map(a) == read_bytes_map(b)
        assert read_bytes_map(a) != read_bytes_map(c)

    def test_background_flag_changes_only_admixture(self, tmp_path):
        plain, mixed = tmp_path / "plain", tmp_path / "mixed"
        assert run("synth", "--out", str(plain), "--set", "background=0") == 0
        assert run("synth", "--out", str(mixed), "--set", "background=0.7") == 0
        p = SystemParams(**DEVICE)
        r = reflection_amplitude(replace(p, g=0.0), GRID)
        intrinsic = read_spectrum_csv(plain / "empty.csv").values
        measured = read_spectrum_csv(mixed / "empty.csv").values
        np.testing.assert_array_equal(intrinsic, np.abs(r) ** 2)
        np.testing.assert_array_equal(
            measured, np.abs(apply_background(r, BackgroundModel(0.7))) ** 2
        )

    def test_channel_conservation_in_files(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        rec = read_channels_csv(out / "channels_coupled.csv")
        np.testing.assert_allclose(rec.d + rec.a, rec.h + rec.v, atol=1e-12)


class TestFit:
    def test_synth_then_fit_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        code = run(
            "fit",
            str(out / "coupled.csv"),
            "--out",
            str(out),
            "--set", "g=11.28",
            "--set", "kappa_top=0.96",
            "--set", "kappa_side=29.64",
            "--set", "gamma=4.0",
        )
        assert code == 0
        report = read_report(out / "fit_report.txt")
        assert report["converged"] == "true"
        for name, truth in (("g", 9.4), ("kappa_top", 1.2), ("kappa_side", 24.7), ("gamma", 5.0)):
            assert abs(float(report[name]) - truth) / truth < 0.01
        assert float(report["std_error_g"]) >= 0.0

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        args = (
            "fit",
            str(out / "coupled.csv"),
            "--out", str(out),
            "--set", "g=11.28",
            "--set", "fit_max_iterations=1",
        )
        assert run(*args) == 2
        assert run(*args, "--allow-nonconverged") == 0
        report = read_report(out / "fit_report.txt")
        assert report["converged"] == "false"

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 1

    # the residual_norm each seed reached when the LM clipped its full step
    # at the bound and exited 2 after 500 iterations
    CLIPPED_STEP_COSTS = {2: 0.18640021589108446, 5: 0.18015523465212363, 7: 0.18163594501590757}

    @pytest.mark.parametrize("seed", list(CLIPPED_STEP_COSTS))
    def test_background_pinned_at_zero_converges(self, tmp_path, caplog, seed):
        data = tmp_path / "synth"
        assert run("synth", "--out", str(data), "--set", "noise=0.01", "--set", f"seed={seed}") == 0
        free = "fit_free=g,kappa_top,kappa_side,gamma,background"
        assert run("fit", str(data / "coupled.csv"), "--out", str(tmp_path / "fit"), "--set", free) == 0
        report = read_report(tmp_path / "fit" / "fit_report.txt")
        assert report["reason"] == "cost_stall"
        assert int(report["iterations"]) <= 6  # measured 3-4
        assert float(report["background"]) == 0.0
        assert float(report["residual_norm"]) <= self.CLIPPED_STEP_COSTS[seed]
        assert "parameters at bounds, errors flagged infinite: ['background']" in caplog.messages

    def test_background_phase_refused(self, tmp_path, capsys):
        # the fit mixes a zero-phase background; a phased one would fit a wrong basin
        flags = ("--set", "background=0.5", "--set", "background_phase=1.0")
        assert run("synth", "--out", str(tmp_path), *flags) == 0
        capsys.readouterr()
        assert run("fit", str(tmp_path / "coupled.csv"), "--out", str(tmp_path / "fit"), *flags) == 1
        assert capsys.readouterr().err == (
            "pillar-qed: error: fit models a zero background_phase, got 1.0\n"
        )
        assert not (tmp_path / "fit").exists()


class TestPhase:
    def test_round_trip_with_configured_reference(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        assert run("phase", str(out / "channels_coupled.csv"), "--out", str(out)) == 0
        extracted = read_spectrum_csv(out / "phase.csv")
        p = SystemParams(**DEVICE)
        truth = np.angle(reflection_amplitude(p, GRID))
        np.testing.assert_allclose(extracted.values, truth, atol=1e-9)

    def test_flat_channels_read_zero_phase(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        rows = "\n".join(f"{1000.0 + i},1.0,1.0,1.0,1.0" for i in range(20))
        (out / "flat.csv").write_text(f"omega_ueV,h,v,d,a\n{rows}\n", encoding="utf-8")
        assert run("phase", str(out / "flat.csv"), "--out", str(out)) == 0
        extracted = read_spectrum_csv(out / "phase.csv")
        np.testing.assert_allclose(extracted.values, 0.0, atol=1e-12)

    def test_edge_calibration_close_to_reference(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        assert run(
            "phase", str(out / "channels_coupled.csv"), "--out", str(out), "--calibrate-edges"
        ) == 0
        extracted = read_spectrum_csv(out / "phase.csv")
        p = SystemParams(**DEVICE)
        truth = np.angle(reflection_amplitude(p, GRID))
        # the edge residual phase (~kappa_top/half-span) bounds the offset
        assert np.max(np.abs(extracted.values - truth)) < 2.5 * 1.2 / 100.0

    def test_conditional_phase_from_files_matches_design(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        assert run("phase", str(out / "channels_coupled.csv"), "--out", str(out)) == 0
        coupled_phase = read_spectrum_csv(out / "phase.csv").values
        assert run("phase", str(out / "channels_empty.csv"), "--out", str(out)) == 0
        empty_phase = read_spectrum_csv(out / "phase.csv").values
        file_max = np.max(np.abs(coupled_phase - empty_phase))
        magnitude, _ = max_conditional_phase(SystemParams(**DEVICE))
        assert file_max == pytest.approx(magnitude, abs=1e-4)

    def test_critically_coupled_empty_cavity_names_its_energy(self, tmp_path, capsys):
        # kappa_top = kappa_side: the empty cavity reflects nothing on resonance
        assert run("synth", "--set", "kappa_top=24.7", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "channels_empty.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1001] == "1333596.0,0.0,1.0,0.5,0.5"
        capsys.readouterr()
        assert run("phase", str(tmp_path / "channels_empty.csv"), "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "pillar-qed: error: phase extraction requires h > 0 and v > 0, not met at omega = 1333596.0 ueV\n"
        )
        assert not (tmp_path / "phase.csv").exists()

    @pytest.mark.parametrize("extra", [(), ("--calibrate-edges",)], ids=["reference", "calibrate_edges"])
    def test_clamped_rows_logged_once_with_their_count(self, tmp_path, extra):
        # 10 of 50 rows read a fringe of 2.5 / 2 > 1
        rows = [f"{1000.0 + i},1.0,1.0,{2.5 if i % 5 == 0 else 1.0},{0.0 if i % 5 == 0 else 1.0}" for i in range(50)]
        (tmp_path / "bad.csv").write_text(CHANNELS_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert _fresh_stderr("phase", str(tmp_path / "bad.csv"), "--out", str(tmp_path), *extra) == (
            "WARNING pillar_qed.cli: inconsistent channel record: 10 channel rows have a"
            " normalized fringe beyond 1 (by up to 2.500e-01), clamping\n"
        )


class TestScan:
    def test_manifest_and_files(self, tmp_path):
        out = tmp_path / "out"
        assert run("scan", "--out", str(out), "--set", "temperatures=19:23:9") == 0
        entries = read_manifest_csv(out / "manifest.csv")
        assert len(entries) == 9
        for t, name in entries:
            s = read_spectrum_csv(out / name)
            assert len(s) == 2001
        assert (out / "scan_config.txt").exists()

    def test_single_temperature_scan_equals_synth(self, tmp_path):
        scan_dir, synth_dir = tmp_path / "scan", tmp_path / "synth"
        assert run(
            "scan", "--out", str(scan_dir),
            "--set", "temperatures=19",
            "--set", f"qd_ref={WC}",
        ) == 0
        assert run("synth", "--out", str(synth_dir)) == 0
        scan_bytes = (scan_dir / "scan_T19.0000K.csv").read_bytes()
        synth_bytes = (synth_dir / "coupled.csv").read_bytes()
        assert scan_bytes == synth_bytes

    def test_out_of_window_temperatures_logged_one_line_each(self, tmp_path):
        assert _fresh_stderr("scan", "--set", "temperatures=1:3:2", "--out", str(tmp_path)) == (
            "WARNING pillar_qed.cli: temperature 1.0 K outside validity window [4.0, 300.0] K\n"
            "WARNING pillar_qed.cli: temperature 3.0 K outside validity window [4.0, 300.0] K\n"
        )

    def test_empty_temperature_list_is_usage_error(self, tmp_path):
        assert run("scan", "--out", str(tmp_path), "--set", "temperatures=") == 1

    def test_temperatures_sharing_a_file_name_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("scan", "--out", str(out), "--set", "temperatures=19,19.00001,19.00002") == 1
        assert capsys.readouterr().err == (
            "pillar-qed: error: temperatures 19.0 K and 19.00001 K both write scan_T19.0000K.csv\n"
        )
        assert not out.exists()

    def test_noise_and_seed_change_only_the_recorded_config(self, tmp_path):
        # scan writes noiseless spectra; it records the two keys as given
        plain, keyed = tmp_path / "plain", tmp_path / "keyed"
        assert run("scan", "--out", str(plain), "--set", "temperatures=19:23:3") == 0
        assert run("scan", "--out", str(keyed), "--set", "noise=0.01", "--set", "seed=5",
                   "--set", "temperatures=19:23:3") == 0
        plain_files, keyed_files = read_bytes_map(plain), read_bytes_map(keyed)
        assert sorted(plain_files) == sorted(keyed_files) and len(plain_files) == 5
        assert [name for name in plain_files if plain_files[name] != keyed_files[name]] == ["scan_config.txt"]
        config = read_report(keyed / "scan_config.txt")
        assert (config["noise"], config["seed"]) == ("0.01", "5")

    def test_crossing_scan_gap_from_files(self, tmp_path):
        out = tmp_path / "out"
        assert run("scan", "--out", str(out), "--set", "temperatures=20:22:9") == 0
        entries = read_manifest_csv(out / "manifest.csv")
        scan = TemperatureScan(
            temperatures=[t for t, _ in entries],
            spectra=[read_spectrum_csv(out / name) for _, name in entries],
        )
        # default model crosses zero detuning at 21 K; minimum separation
        # there matches the dip-gap oracle
        assert anticrossing_gap(scan) == pytest.approx(19.9257, abs=0.05)


class TestDesign:
    def test_two_point_sweep_table(self, tmp_path):
        out = tmp_path / "out"
        assert run("design", "--out", str(out), "--set", "kappa_values=1.2,37.6") == 0
        lines = (out / "design.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "kappa,max_phase_rad,argmax_ueV,refl_on_res,feasible"
        as_built = lines[1].split(",")
        redesigned = lines[2].split(",")
        assert float(as_built[0]) == 1.2 and as_built[4] == "false"
        assert float(redesigned[0]) == 37.6 and redesigned[4] == "true"
        assert float(redesigned[1]) == pytest.approx(np.pi, abs=1e-6)
        assert float(redesigned[3]) == pytest.approx(0.19, abs=0.03)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run("design", "--out", str(d), "--set", "kappa_values=2:30:8") == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_dot_energy_ignored(self, tmp_path):
        # the sweep is at zero detuning whatever omega_qd says
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("design", "--out", str(a), "--set", "kappa_values=2:30:8") == 0
        assert run("design", "--out", str(b), "--set", "kappa_values=2:30:8", "--set", "omega_qd=1333601") == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_design_table_self_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert run("design", "--out", str(out), "--set", "kappa_values=0.001,1.2,37.6") == 0
        rows = read_design_csv(out / "design.csv")
        assert [r["kappa"] for r in rows] == [0.001, 1.2, 37.6]
        assert rows[0]["feasible"] is False
        assert rows[0]["max_phase_rad"] < 1e-3  # no outcoupling, no signal
        assert rows[1]["feasible"] is False and rows[2]["feasible"] is True
        assert rows[2]["refl_on_res"] == pytest.approx(0.1888210545, abs=1e-9)


class TestFileFormats:
    @pytest.mark.parametrize("row", ["19.5", "abc,scan_T19.5000K.csv"])
    def test_malformed_manifest_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "manifest.csv"
        text = f"temperature_K,filename\n19.0,scan_T19.0000K.csv\n{row}\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:3: ")):
            read_manifest_csv(path)

    @pytest.mark.parametrize(
        "read, text, line",
        [
            # a bad flag, then a bad kappa: the first bad line is named, whatever its column
            (read_design_csv, f"{DESIGN_HEADER}\n2.0,0.1,1.0,0.5,yes\nx,0.1,1.0,0.5,true\n", 2),
            (read_design_csv, f"{DESIGN_HEADER}\n2.0,0.1,1.0,0.5,true\nnan,inf,1.0,0.5,true\n", 3),
            (read_manifest_csv, "temperature_K,filename\n19.0,scan_T19.0000K.csv\ninf,scan_inf.csv\n", 3),
            (read_report, "converged = true\nreason stalled\n", 2),
            (load_config_file, "g = 5.0  # ueV\n\nkappa_top\n", 3),
        ],
        ids=[
            "design_flag_then_kappa", "design_non_finite", "manifest_inf_temperature",
            "report_without_equals", "config_without_equals",
        ],
    )
    def test_first_bad_line_named(self, tmp_path, read, text, line):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:{line}: ")):
            read(path)

    def test_report_comment_stripped(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("# fit of run 3\ng = 9.4  # ueV\nreason = converged\n", encoding="utf-8")
        assert read_report(path) == {"g": "9.4", "reason": "converged"}


class TestGridTables:
    """Spectrum and channel tables reject non-finite values and unsorted omega."""

    @pytest.mark.parametrize(
        "reader, header, rest",
        [(read_spectrum_csv, SPECTRUM_HEADER, ""), (read_channels_csv, CHANNELS_HEADER, ",1.0,1.0,1.0")],
        ids=["spectrum", "channels"],
    )
    @pytest.mark.parametrize(
        "rows, line",
        [
            (["1.0,0.5", "2.0,nan", "3.0,0.5"], 3),
            (["1.0,0.5", "2.0,0.5", "inf,0.5"], 4),
            (["1.0,0.5", "3.0,0.5", "2.0,0.5", "4.0,0.5"], 4),
            (["1.0,0.5", "1.0,0.5"], 3),
        ],
        ids=["nan", "inf", "swapped", "repeated"],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, reader, header, rest, rows, line):
        path = tmp_path / "table.csv"
        path.write_text(header + "\n" + "".join(row + rest + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:{line}: ")):
            reader(path)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(f"{SPECTRUM_HEADER}\n1.0,0.5\n\n2.0,nan\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:4: values must be finite")):
            read_spectrum_csv(path)

    @pytest.mark.parametrize(
        "body, omega, values",
        [
            ("1.0,0.5\n\n  \n2.0,0.25\n\n", [1.0, 2.0], [0.5, 0.25]),
            ("  1.0 , 0.5\t\n\t2.0,0.25  \r\n", [1.0, 2.0], [0.5, 0.25]),
            ("1_0,0.5\n2_0,1e-1\n", [10.0, 20.0], [0.5, 0.1]),
        ],
        ids=["blank_lines", "padded_fields", "underscores"],
    )
    def test_accepted_rows_parse_as_float(self, tmp_path, body, omega, values):
        path = tmp_path / "table.csv"
        path.write_text(f"{SPECTRUM_HEADER}\n{body}", encoding="utf-8")
        s = read_spectrum_csv(path)
        assert s.omega.tolist() == omega and s.values.tolist() == values
        _, columns = _read_columns(path, SPECTRUM_HEADER, (float, float))
        assert columns == [omega, values]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,0.5\n2.0,infinity\n", ":3: values must be finite"),
            ("1.0,0.5\nnan,0.5\n", ":3: values must be finite"),
            ("1.0,0.5\n2.0\n", ":3: expected 2 fields"),
            ("1.0,0.5\n2.0,0.5,7\n", ":3: could not convert string to float: '0.5,7'"),
            ("1.0\n0.5,2.0,0.25\n", ":2: expected 2 fields"),  # reads as a good 2-row table if rows are ignored
            ("1.0,0.5\n2.0,1__0\n", ":3: could not convert string to float: '1__0'"),
            # a bad value, then a bad omega two lines further: the first is named
            ("1.0,0.5\n2.0,x\n3.0,0.5\ny,0.5\n", ":3: could not convert string to float: 'x'"),
            ("", ": no data rows"),
        ],
        ids=["infinity", "nan", "short_row", "long_row", "short_then_long", "double_underscore", "first_of_two", "empty"],
    )
    def test_rejected_rows_name_path_and_line(self, tmp_path, body, message):
        path = tmp_path / "table.csv"
        path.write_text(f"{SPECTRUM_HEADER}\n{body}", encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}{message}")):
            read_spectrum_csv(path)

    def test_bulk_parse_matches_row_reader(self, tmp_path):
        assert run("synth", "--out", str(tmp_path), "--set", "noise=0.01") == 0
        for name, header, n in (("coupled.csv", SPECTRUM_HEADER, 2), ("channels_empty.csv", CHANNELS_HEADER, 5)):
            path = tmp_path / name
            _, columns = _read_columns(path, header, (float,) * n)
            assert np.array_equal(_read_grid_table(path, header, n), np.array(columns))


def _replace_field(path, line, field, text):
    """Rewrite one field of one line (1-based) of a CSV file in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[line - 1].split(",")
    parts[field] = text
    lines[line - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestErrorBoundary:
    """Invalid config, file or model values exit 1 with one stderr line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "--set", "kappa_values=0,1"),
            ("fit", "coupled.csv", "--set", "omega_c=1333800"),  # guess outside the data window
            ("phase", "channels_coupled.csv"),  # one row has h = 0
            ("fit", "empty.csv"),  # one row holds nan
            ("synth", "--set", "noise=nan"),
            ("synth", "--set", "noise=inf"),
            ("synth", "--set", "noise=-0.1"),
            ("fit", "coupled.csv", "--set", "fit_max_iterations=-1"),
            ("design", "--set", "omega_qd=0"),
            ("scan", "--set", "omega_qd=-1"),
            ("fit", "coupled.csv", "--set", "fit_free=g,g"),
            ("fit", "coupled.csv", "--set", "fit_free=g,beta_mag"),  # the reference arm, not a fit parameter
            ("synth", "--set", "grid=0:inf:5"),
            ("synth", "--set", "grid=nan:1:5"),
            ("synth", "--set", "grid=1,2,nan"),
            ("design", "--set", "kappa_values=1:inf:3"),
            ("scan", "--set", "temperatures=19:inf:3"),
            ("scan", "--set", "temperatures=19,inf"),
            ("design", "--set", "g=1 MeV"),
            # 8 PB: larger than the address space, so nothing is allocated
            ("design", "--set", "kappa_values=2:60:1000000000000000"),
            ("synth", "--set", "grid=0:1:1000000000000000"),
            ("synth", "--set", "seed=1e3"),
            ("synth", "--set", "seed=-1"),
            ("fit", "coupled.csv", "--set", "fit_max_iterations=x"),
            # the dot energy overflows to a numpy inf at 1e10 K
            ("scan", "--set", "qd_slope=1e300", "--set", "temperatures=1e10", "--set", "t_max=1e11"),
            ("synth", "--set", "grid=1:2"),
            ("synth", "--set", "grid=1:2:x"),
            ("synth", "--set", "sb_offset=inf"),
            ("synth", "--set", "background_phase=inf"),
            ("scan", "--set", "qd_slope=nan"),
            ("scan", "--set", "t_min=300", "--set", "t_max=4"),
        ],
        ids=[
            "design_kappa_zero",
            "fit_guess_outside",
            "phase_h_zero",
            "fit_nan",
            "noise_nan",
            "noise_inf",
            "noise_negative",
            "fit_max_iterations_negative",
            "design_omega_qd_zero",
            "scan_omega_qd_negative",
            "fit_free_repeated",
            "fit_free_beta_mag",
            "grid_inf",
            "grid_nan",
            "grid_list_nan",
            "kappa_values_inf",
            "temperatures_inf",
            "temperatures_list_inf",
            "energy_suffix_case",
            "kappa_values_unallocatable",
            "grid_unallocatable",
            "seed_exponent",
            "seed_negative",
            "fit_max_iterations_text",
            "scan_omega_qd_overflow",
            "grid_two_fields",
            "grid_count_text",
            "sb_offset_inf",
            "background_phase_inf",
            "qd_slope_nan",
            "t_window_reversed",
        ],
    )
    def test_invalid_value_exits_1_with_one_line(self, tmp_path, capsys, recwarn, argv):
        assert run("synth", "--out", str(tmp_path)) == 0
        _replace_field(tmp_path / "channels_coupled.csv", 8, 1, "0.0")
        _replace_field(tmp_path / "empty.csv", 6, 1, "nan")
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("pillar-qed: error: ")
        assert not recwarn.list  # a warning would print its own stderr lines
        for key in ("seed", "fit_max_iterations"):  # an integer key's error names it
            if any(a.startswith(f"{key}=") for a in argv):
                assert key in err
        if "qd_slope=1e300" in argv:  # a float, not its numpy repr
            assert err.endswith("got inf\n")
        for flag, message in (("grid=1:2", "grid must be START:STOP:N"), ("grid=1:2:x", "bad grid point count")):
            if flag in argv:
                assert message in err

    @pytest.mark.parametrize(
        "value", ["g\nkappa_top=5", "g\rkappa_top=5", "g#x"], ids=["newline", "carriage_return", "hash"]
    )
    def test_value_scan_config_cannot_hold_exits_1(self, tmp_path, capsys, value):
        # scan_config.txt splits lines and strips '#': its rerun would read another config
        out = tmp_path / "out"
        assert run("scan", "--set", f"fit_free={value}", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"pillar-qed: error: fit_free: value must not contain a line break or '#', got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("body", ["", "  \n\t\n\n"], ids=["header_only", "whitespace_body"])
    @pytest.mark.parametrize("command, header", [("fit", SPECTRUM_HEADER), ("phase", CHANNELS_HEADER)], ids=["fit", "phase"])
    def test_empty_table_exits_1_without_warning(self, tmp_path, capsys, recwarn, command, header, body):
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        assert run(command, str(path), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"pillar-qed: error: {path}: no data rows\n"
        assert not recwarn.list

    @pytest.mark.parametrize(
        "command, first_line",
        [("fit", SPECTRUM_HEADER), ("phase", CHANNELS_HEADER), ("design", "g = 9.4")],
        ids=["fit_spectrum", "phase_channels", "design_config"],
    )
    def test_undecodable_input_names_its_path(self, tmp_path, capsys, recwarn, command, first_line):
        path = tmp_path / "input"
        path.write_bytes(f"{first_line}\n".encode() + b"\xff\n")
        argv = (command, "--config", str(path)) if command == "design" else (command, str(path))
        assert run(*argv, "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"pillar-qed: error: {path}: 'utf-8' codec can't decode byte 0xff"
            f" in position {len(first_line) + 1}: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists() and not recwarn.list

    @pytest.mark.parametrize(
        "argv, message",
        [
            # DegenerateModelError is a ValueError: the numerical clause must win
            (
                ("synth", "--set", "g=0", "--set", "kappa_top=1e-320", "--set", "kappa_side=0"),
                "cavity response denominator underflow",
            ),
            # (g / kappa) ** 2 overflows in the conditional-phase polynomials:
            # the first sweep row that overflows is named, never the errno
            # tuple of a Python-float OverflowError
            (("design", "--set", "g=1e160"), f"{NOT_FINITE} at g=1e+160, kappa_top=2.0, kappa_side=24.7, gamma=5.0"),
            (("design", "--set", "g=1e200"), f"{NOT_FINITE} at g=1e+200, kappa_top=2.0, kappa_side=24.7, gamma=5.0"),
            (("design", "--set", "gamma=1e300"), f"{NOT_FINITE} at g=9.4, kappa_top=2.0, kappa_side=24.7, gamma=1e+300"),
            # overflowing rates or noise leave non-finite values that no file may hold
            (("synth", "--set", "kappa_top=1e308"), "{out}/coupled.csv: values are not finite, file not written"),
            (("synth", "--set", "noise=1e308"), "{out}/coupled.csv: values are not finite, file not written"),
            # the phases stay finite; the amplitude at kappa_top=1e308 does not
            (
                ("design", "--set", "kappa_values=2:1e308:3"),
                "on-resonance reflectivities are not finite at g=9.4, kappa_top=1e+308, kappa_side=24.7, gamma=5.0",
            ),
        ],
        ids=[
            "denominator_underflow",
            "rate_overflow",
            "g_overflow_named",
            "gamma_overflow_named",
            "kappa_top_overflow",
            "noise_overflow",
            "kappa_values_overflow",
        ],
    )
    def test_numerical_value_error_still_exits_2(self, tmp_path, capsys, recwarn, argv, message):
        assert run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "(34," not in err
        assert err == f"pillar-qed: numerical failure: {message.format(out=tmp_path)}\n"
        assert not recwarn.list

    def test_fit_with_an_underflowing_square_exits_2(self, tmp_path, capsys, recwarn):
        # D = g^2 = 1e-200 at the grid point omega_qd passes the floor, but
        # the Jacobian's D^2 underflows: no "converged" fit from a nan Jacobian
        assert run("synth", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        argv = ("fit", str(tmp_path / "coupled.csv"), "--set", "g=1e-100", "--set", "gamma=0")
        assert run(*argv, "--out", str(tmp_path / "fit")) == 2
        assert capsys.readouterr().err == (
            "pillar-qed: numerical failure: coupled response denominator underflow:"
            " derivatives unbounded (dr/dgamma ~ kappa_top / g^2)\n"
        )
        assert not (tmp_path / "fit").exists() and not recwarn.list

    def test_overflowing_coefficients_exit_2_with_one_line(self, tmp_path, capsys, recwarn):
        # gamma ** 2 overflows in the conditional-phase polynomials; numpy's
        # invalid-value warning must not reach stderr before the message
        assert run("design", "--set", "gamma=1e300", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == f"pillar-qed: numerical failure: {NOT_FINITE} at g=9.4, kappa_top=2.0, kappa_side=24.7, gamma=1e+300\n"
        assert not recwarn.list


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_RATE = st.one_of(st.floats(0.01, 100.0), _ANY_FLOAT)
_RATE_TEXT = st.one_of(_RATE.map(repr), st.sampled_from(["", "fast", "5 meV", "1e400", "-0"]))
_RATE_KEYS = ("g", "kappa_top", "kappa_side", "gamma")


@st.composite
def _csv_text(draw, header, n_values):
    """Up to 20 rows on a grid around the cavity, then maybe one field
    replaced by an arbitrary float and maybe two neighbouring rows swapped."""
    n = draw(st.integers(0, 20))
    field = st.floats(0.0, 2.0)
    rows = [[w] + [draw(field) for _ in range(n_values)] for w in np.linspace(WC - 100.0, WC + 100.0, n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n_values))] = draw(_ANY_FLOAT)
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return header + "\n" + "".join(",".join(map(repr, map(float, row))) + "\n" for row in rows)


def _fresh_stderr(*argv, log_level=None):
    """stderr of ``python -m pillar_qed.cli *argv``, whose logging writes to
    stderr, with ``PILLAR_QED_LOG`` unset or set to ``log_level``; the
    command must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    env.pop("PILLAR_QED_LOG", None)
    if log_level is not None:
        env["PILLAR_QED_LOG"] = log_level
    proc = subprocess.run(
        [sys.executable, "-m", "pillar_qed.cli", *argv], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def _run_quietly(*argv):
    """Exit code and stderr of ``main``; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def _read_back(out):
    """Read every CSV a run wrote through its ``io`` reader."""
    readers = {"design.csv": read_design_csv, "manifest.csv": read_manifest_csv}
    for path in Path(out).glob("*.csv"):
        readers.get(path.name, read_spectrum_csv)(path)


class TestBoundaryProperty:
    """Arbitrary files and rate values never escape the exit-code contract."""

    @settings(max_examples=60)
    @given(
        command=st.sampled_from(["fit", "phase"]),
        data=st.data(),
    )
    def test_arbitrary_csv(self, command, data):
        header, n_values = (SPECTRUM_HEADER, 1) if command == "fit" else (CHANNELS_HEADER, 4)
        text = data.draw(_csv_text(header, n_values))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/in.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, err = _run_quietly(command, path, "--out", f"{tmp}/out")
            if code == 0:  # what a run writes, it can read back
                _read_back(f"{tmp}/out")
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=40)
    @given(
        command=st.sampled_from(["design", "scan"]),
        rates=st.dictionaries(st.sampled_from(_RATE_KEYS), _RATE_TEXT),
        kappas=st.lists(_RATE, min_size=1, max_size=4, unique=True).map(sorted),
    )
    def test_arbitrary_rates(self, command, rates, kappas):
        overrides = [f"{key}={value}" for key, value in rates.items()]
        if command == "design":
            overrides.append("kappa_values=" + ",".join(map(repr, kappas)))
        else:
            overrides.append("temperatures=19:23:3")  # three spectra keep each example fast
        argv = [command]
        for item in overrides:
            argv += ["--set", item]
        with tempfile.TemporaryDirectory() as tmp:
            code, err = _run_quietly(*argv, "--out", f"{tmp}/out")
            if code == 0:
                _read_back(f"{tmp}/out")
        assert code in (0, 1, 2)
        assert "Traceback" not in err


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_unknown_flag(self):
        assert run("synth", "--frobnicate") == 1

    def test_bad_set_syntax(self, tmp_path):
        assert run("synth", "--out", str(tmp_path), "--set", "g") == 1

    def test_unknown_config_key(self, tmp_path):
        assert run("synth", "--out", str(tmp_path), "--set", "quality=high") == 1

    def test_bad_grid(self, tmp_path, capsys):
        assert run("synth", "--out", str(tmp_path), "--set", "grid=10:0:100") == 1
        assert capsys.readouterr().err.startswith("pillar-qed: error: grid: ")

    def test_bad_background(self, tmp_path, capsys):
        assert run("synth", "--out", str(tmp_path), "--set", "background=1.5") == 1
        assert capsys.readouterr().err == "pillar-qed: error: background must be in [0, 1), got 1.5\n"


_COMMON_ARGV = ("--config", "run.cfg", "--out", "o", "--set", "g=1", "--set", "gamma=2")
_COMMON_VARS = {"config": "run.cfg", "out": "o", "overrides": ["g=1", "gamma=2"]}
# each subcommand's own arguments, given in full, and what they parse to
_OWN_ARGS = {
    "synth": ((), {}),
    "fit": (
        ("in.csv", "--phase-csv", "p.csv", "--allow-nonconverged"),
        {"intensity_csv": "in.csv", "phase_csv": "p.csv", "allow_nonconverged": True},
    ),
    "phase": (("ch.csv", "--calibrate-edges"), {"channels_csv": "ch.csv", "calibrate_edges": True}),
    "scan": ((), {}),
    "design": ((), {}),
}


class TestParser:
    @pytest.mark.parametrize("command", list(_OWN_ARGS))
    def test_every_flag_parsed(self, command):
        own_argv, own_vars = _OWN_ARGS[command]
        args = build_parser().parse_args([command, *own_argv, *_COMMON_ARGV])
        assert vars(args) == {"command": command, **own_vars, **_COMMON_VARS}

    @pytest.mark.parametrize("command", list(_OWN_ARGS))
    def test_help_lists_own_arguments_first(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        own_argv, own_vars = _OWN_ARGS[command]
        flags = [arg for arg in own_argv if arg.startswith("--")]
        positionals = [dest for dest in own_vars if "--" + dest.replace("_", "-") not in flags]
        names = [*positionals, *flags, "--config", "--out", "--set"]
        positions = [text.index(f"\n  {name} ") for name in names]
        assert positions == sorted(positions)

    @pytest.mark.parametrize("command", list(_OWN_ARGS))
    def test_config_keys_have_no_flags_of_their_own(self, command, capsys):
        # --set is the one command-line override of a config key
        own_argv, _ = _OWN_ARGS[command]
        for flag, value in (("--seed", "3"), ("--background", "0.5"), ("--grid", "0:10:11")):
            assert main([command, *own_argv, flag, value]) == 1
            assert f"unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(_OWN_ARGS) + "}" in out
        # user-facing text, not the module's implementation notes
        assert "``" not in out and "cmd_" not in out


_SRC = Path(pillar_qed.__file__).resolve().parents[1]


def _modules_loaded_by(argv):
    """``pillar_qed`` submodules, ``numpy.ma`` and ``orjson`` loaded by one
    CLI run in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "from pillar_qed.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('pillar_qed.') or m in ('numpy.ma', 'orjson'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


# the modules of the fit, the design sweep and the scan
_NOT_READOUT = {"pillar_qed.design", "pillar_qed.estimation", "pillar_qed.leastsq", "pillar_qed.tuning"}


class TestSubcommandImports:
    """Each subcommand loads only the modules it runs."""

    def test_design(self, tmp_path):
        loaded = _modules_loaded_by(["design", "--out", str(tmp_path)])
        assert "pillar_qed.design" in loaded
        assert not loaded & {
            "pillar_qed.estimation", "pillar_qed.interferometer", "pillar_qed.leastsq", "pillar_qed.tuning",
            "numpy.ma", "orjson",
        }

    def test_fit(self, tmp_path):
        assert run("synth", "--out", str(tmp_path)) == 0
        loaded = _modules_loaded_by(["fit", str(tmp_path / "coupled.csv"), "--out", str(tmp_path / "fit")])
        assert "pillar_qed.estimation" in loaded
        assert not loaded & {"pillar_qed.design", "pillar_qed.interferometer", "pillar_qed.tuning", "orjson"}

    def test_scan(self, tmp_path):
        loaded = _modules_loaded_by(["scan", "--out", str(tmp_path), "--set", "temperatures=19:23:3"])
        assert {"pillar_qed.tuning", "orjson"} <= loaded
        assert not loaded & {"pillar_qed.design", "pillar_qed.estimation", "pillar_qed.interferometer", "pillar_qed.leastsq"}

    # the two subcommands that simulate or read channels load the readout
    def test_synth(self, tmp_path):
        loaded = _modules_loaded_by(["synth", "--out", str(tmp_path)])
        assert "pillar_qed.interferometer" in loaded
        assert not loaded & _NOT_READOUT

    def test_phase(self, tmp_path):
        assert run("synth", "--out", str(tmp_path)) == 0
        loaded = _modules_loaded_by(["phase", str(tmp_path / "channels_coupled.csv"), "--out", str(tmp_path / "phase")])
        # phase writes phase.csv through orjson, so its channel-table read may use it too
        assert {"pillar_qed.interferometer", "orjson"} <= loaded
        assert not loaded & _NOT_READOUT


class TestLogLevel:
    """``PILLAR_QED_LOG`` sets the level of a fresh interpreter's log; an
    unknown level falls back to ``warning``."""

    def test_info_logs_the_guideline_rates_and_keeps_the_table(self, tmp_path):
        err = _fresh_stderr("design", "--out", str(tmp_path / "info"), log_level="info")
        assert err == "".join(
            f"INFO pillar_qed.design: kappa={k} matches the kappa/4 ~ g guideline\n" for k in (34, 36, 38, 40)
        )
        assert _fresh_stderr("design", "--out", str(tmp_path / "quiet")) == ""
        assert (tmp_path / "info" / "design.csv").read_bytes() == (tmp_path / "quiet" / "design.csv").read_bytes()

    def test_unknown_level_falls_back_to_warning(self, tmp_path):
        assert _fresh_stderr("design", "--out", str(tmp_path), log_level="bogus") == ""
        # a warning still reaches the log at the fallback level
        assert _fresh_stderr("scan", "--set", "temperatures=1:3:2", "--out", str(tmp_path), log_level="bogus") == (
            "WARNING pillar_qed.cli: temperature 1.0 K outside validity window [4.0, 300.0] K\n"
            "WARNING pillar_qed.cli: temperature 3.0 K outside validity window [4.0, 300.0] K\n"
        )


def _run_ok(*argv):
    """``main(argv)``, raising RuntimeError (not an AssertionError, which the
    pins below expect) unless it exits 0."""
    if main(list(argv)) != 0:
        raise RuntimeError(f"{argv[0]} failed")


def _assert_lands_or_says_not_converged(report, truth):
    """What ROADMAP items 2 and 5 require of a fit: each fitted rate within
    10% of the truth, or ``converged = false`` in its report."""
    if report["converged"] == "false":
        return
    off = {n: float(report[n]) for n, t in truth.items() if abs(float(report[n]) - t) > 0.1 * t}
    assert not off, f"converged = {report['converged']} ({report['reason']}) with {off}, truth {truth}"


class TestRoadmapPins:
    """Open ROADMAP items pinned as expected failures. Each asserts what its
    item requires; the change that mends the item turns its pin into a plain
    test (``xfail_strict`` fails an unexpected pass)."""

    RATES = {n: DEVICE[n] for n in ("g", "kappa_top", "kappa_side", "gamma")}

    @pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 5")
    def test_six_parameter_fit_from_a_far_start(self, tmp_path):
        # reproduced: converged = true, iterations = 25, g = 0.0 and gamma = 0.0
        _run_ok("synth", "--out", str(tmp_path / "s"), "--set", "noise=0.01", "--set", "seed=3")
        _run_ok(
            "fit", str(tmp_path / "s" / "coupled.csv"), "--out", str(tmp_path / "f"), "--allow-nonconverged",
            "--set", "fit_free=g,kappa_top,kappa_side,gamma,omega_c,omega_qd", "--set", "omega_c=1333570.8",
            "--set", "omega_qd=1333569.7", "--set", "g=12.2", "--set", "kappa_side=15.4", "--set", "gamma=7.1",
        )
        _assert_lands_or_says_not_converged(read_report(tmp_path / "f" / "fit_report.txt"), self.RATES)

    @pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 2")
    def test_joint_fit_of_an_overcoupled_phase(self, tmp_path):
        # reproduced: 248 phase rows folded by up to 3.10 rad, then converged = true,
        # kappa_side = 37.57 and gamma = 3.46 from a start at the truth
        kappa = ("--set", "kappa_top=37.6")
        _run_ok("synth", "--out", str(tmp_path / "s"), *kappa)
        _run_ok("phase", str(tmp_path / "s" / "channels_coupled.csv"), "--out", str(tmp_path / "p"))
        _run_ok(
            "fit", str(tmp_path / "s" / "coupled.csv"), "--phase-csv", str(tmp_path / "p" / "phase.csv"),
            "--out", str(tmp_path / "f"), "--allow-nonconverged", *kappa,
        )
        truth = {**self.RATES, "kappa_top": 37.6}
        _assert_lands_or_says_not_converged(read_report(tmp_path / "f" / "fit_report.txt"), truth)
