import contextlib
import io
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillar_qed import (
    BackgroundModel,
    QdState,
    SystemParams,
    apply_background,
    max_conditional_phase,
    reflection_amplitude,
)
from pillar_qed.cli import main
from pillar_qed.config import ConfigError, RunConfig, parse_energy, parse_grid
from pillar_qed.io import (
    CHANNELS_HEADER,
    SPECTRUM_HEADER,
    FileFormatError,
    read_channels_csv,
    read_design_csv,
    read_manifest_csv,
    read_report,
    read_spectrum_csv,
)

from conftest import DEVICE

WC = DEVICE["omega_c"]
GRID = np.linspace(WC - 100.0, WC + 100.0, 2001)


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
        with pytest.raises(ConfigError):
            parse_energy("fast")

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
        cfg = RunConfig.build()
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
        cfg = RunConfig.build(values, {"g": "7.5"})
        assert cfg.g == 7.5  # flag wins over file
        assert cfg.omega_c == pytest.approx(1333596.0)

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
        expected = np.abs(reflection_amplitude(p, QdState(WC, True), GRID)) ** 2
        np.testing.assert_array_equal(coupled.values, expected)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--out", str(a)) == 0
        assert run("synth", "--out", str(b)) == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_noise_deterministic_per_seed(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("synth", "--out", str(a), "--set", "noise=0.01", "--seed", "7") == 0
        assert run("synth", "--out", str(b), "--set", "noise=0.01", "--seed", "7") == 0
        assert run("synth", "--out", str(c), "--set", "noise=0.01", "--seed", "8") == 0
        assert read_bytes_map(a) == read_bytes_map(b)
        assert read_bytes_map(a) != read_bytes_map(c)

    def test_background_flag_changes_only_admixture(self, tmp_path):
        plain, mixed = tmp_path / "plain", tmp_path / "mixed"
        assert run("synth", "--out", str(plain), "--background", "0") == 0
        assert run("synth", "--out", str(mixed), "--background", "0.7") == 0
        p = SystemParams(**DEVICE)
        r = reflection_amplitude(p, QdState(WC, False), GRID)
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


class TestPhase:
    def test_round_trip_with_configured_reference(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out", str(out)) == 0
        assert run("phase", str(out / "channels_coupled.csv"), "--out", str(out)) == 0
        extracted = read_spectrum_csv(out / "phase.csv")
        p = SystemParams(**DEVICE)
        truth = np.angle(reflection_amplitude(p, QdState(WC, True), GRID))
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
        truth = np.angle(reflection_amplitude(p, QdState(WC, True), GRID))
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

    def test_empty_temperature_list_is_usage_error(self, tmp_path):
        assert run("scan", "--out", str(tmp_path), "--set", "temperatures=") == 1

    def test_crossing_scan_gap_from_files(self, tmp_path):
        from pillar_qed.estimation import local_minima

        out = tmp_path / "out"
        assert run("scan", "--out", str(out), "--set", "temperatures=20:22:9") == 0
        gaps = []
        for _, name in read_manifest_csv(out / "manifest.csv"):
            s = read_spectrum_csv(out / name)
            minima = local_minima(s.omega, np.asarray(s.values, dtype=float))
            if len(minima) >= 2:
                deepest = sorted(minima, key=lambda m: m[1])[:2]
                positions = sorted(m[0] for m in deepest)
                gaps.append(positions[1] - positions[0])
        # default model crosses zero detuning at 21 K; minimum separation
        # there matches the dip-gap oracle
        assert min(gaps) == pytest.approx(19.9257, abs=0.05)


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
        ],
        ids=["design_kappa_zero", "fit_guess_outside", "phase_h_zero", "fit_nan"],
    )
    def test_invalid_value_exits_1_with_one_line(self, tmp_path, capsys, argv):
        assert run("synth", "--out", str(tmp_path)) == 0
        _replace_field(tmp_path / "channels_coupled.csv", 8, 1, "0.0")
        _replace_field(tmp_path / "empty.csv", 6, 1, "nan")
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("pillar-qed: error: ")

    def test_numerical_value_error_still_exits_2(self, tmp_path, capsys):
        # DegenerateModelError is a ValueError: the numerical clause must win
        argv = ("synth", "--set", "g=1e-200", "--set", "gamma=0", "--out", str(tmp_path))
        assert run(*argv) == 2
        assert capsys.readouterr().err == "pillar-qed: numerical failure: coupled response denominator underflow\n"


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


def _run_quietly(*argv):
    """Exit code and stderr of ``main``; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


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

    def test_bad_grid(self, tmp_path):
        assert run("synth", "--out", str(tmp_path), "--grid", "10:0:100") == 1

    def test_bad_background(self, tmp_path):
        assert run("synth", "--out", str(tmp_path), "--background", "1.5") == 1
