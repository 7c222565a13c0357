import os
import stat

import numpy as np
import pytest

from pillar_qed import Spectrum
from pillar_qed.cli import main
from pillar_qed.config import DEFAULTS, parse_grid
from pillar_qed.interferometer import ChannelRecord
from pillar_qed.io import (
    CHANNELS_HEADER,
    SPECTRUM_HEADER,
    atomic_write_text,
    write_channels_csv,
    write_spectrum_csv,
)

CLI_GRID = parse_grid(DEFAULTS["grid"])


def _spectrum_text(omega, values):
    """Reference: the per-row writer that the gridded writers replace."""
    lines = [SPECTRUM_HEADER]
    lines.extend(f"{repr(float(w))},{repr(float(v))}" for w, v in zip(omega, values))
    return "\n".join(lines) + "\n"


def _channels_text(omega, *cols):
    lines = [CHANNELS_HEADER]
    lines.extend(",".join(repr(float(x)) for x in row) for row in zip(omega, *cols))
    return "\n".join(lines) + "\n"


def _values(n, shift=0.0):
    """Values with 17 significant digits, a signed zero and a subnormal."""
    values = np.abs(np.sin(np.arange(n) + shift)) / 3.0
    values[0] = -0.0
    values[-1] = 5e-324
    return values


def _check_both_writers(tmp_path, omega, tag="x"):
    """Write ``omega`` through both gridded writers; each file must match the reference."""
    values = _values(omega.size)
    path = tmp_path / f"spectrum_{tag}.csv"
    write_spectrum_csv(path, Spectrum(omega, values))
    assert path.read_text(encoding="utf-8") == _spectrum_text(omega, values)

    cols = [_values(omega.size, shift=k) for k in range(1, 5)]
    path = tmp_path / f"channels_{tag}.csv"
    write_channels_csv(path, ChannelRecord(omega, *cols))
    assert path.read_text(encoding="utf-8") == _channels_text(omega, *cols)


GRIDS = {
    "cli": CLI_GRID,
    "strided_view": CLI_GRID[::2],
    "negative_zero": np.array([-1.5, -0.0, 2.0, 3.0]),
    "positive_zero": np.array([-1.5, 0.0, 2.0, 3.0]),
    "extremes": np.array(
        [5e-324, 2.2e-310, 0.30000000000000004, 1.0000000000000002, 1e16, 1.0000000000000002e16]
    ),
}


class TestGridWritersMatchReference:
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_each_grid(self, tmp_path, name):
        _check_both_writers(tmp_path, GRIDS[name])

    def test_signed_zeros_in_turn(self, tmp_path):
        # equal as values, different as bits: -0.0 must not be reused for 0.0
        for tag in ("negative_zero", "positive_zero", "negative_zero"):
            _check_both_writers(tmp_path, GRIDS[tag], tag)

    def test_strided_view_is_not_its_base(self, tmp_path):
        assert not GRIDS["strided_view"].flags.c_contiguous
        _check_both_writers(tmp_path, CLI_GRID, "base")
        _check_both_writers(tmp_path, GRIDS["strided_view"], "view")


class TestGridCacheNeverStale:
    def test_alternating_grids(self, tmp_path):
        other = np.linspace(10.0, 20.0, 7)
        for k, omega in enumerate([CLI_GRID, other, CLI_GRID, other, GRIDS["extremes"], other]):
            _check_both_writers(tmp_path, omega, str(k))

    def test_grid_mutated_in_place(self, tmp_path):
        omega = np.array([-1.5, 0.0, 2.0, 3.0, 4.0])
        _check_both_writers(tmp_path, omega, "before")
        omega[1] = -0.0  # same values, new bits
        _check_both_writers(tmp_path, omega, "signed")
        omega[3] = 3.25  # new value in the same array object
        _check_both_writers(tmp_path, omega, "value")

    def test_spectra_sharing_one_grid(self, tmp_path):
        # a scan writes many spectra on one grid array
        omega = CLI_GRID.copy()
        for k in range(3):
            values = _values(omega.size, shift=k)
            path = tmp_path / f"scan_{k}.csv"
            write_spectrum_csv(path, Spectrum(omega, values))
            assert path.read_text(encoding="utf-8") == _spectrum_text(omega, values)
        omega += 0.5
        write_spectrum_csv(path, Spectrum(omega, values))
        assert path.read_text(encoding="utf-8") == _spectrum_text(omega, values)


@pytest.fixture(params=[0o022, 0o077, 0o002], ids=lambda m: f"umask{m:03o}")
def umask(request):
    previous = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(previous)


class TestFileModes:
    def test_outputs_respect_umask(self, tmp_path, umask):
        assert main(["synth", "--out", str(tmp_path / "synth")]) == 0
        assert main(["fit", str(tmp_path / "synth" / "coupled.csv"), "--out", str(tmp_path / "fit")]) == 0
        expected = 0o666 & ~umask
        for path in (tmp_path / "synth" / "coupled.csv", tmp_path / "fit" / "fit_report.txt"):
            assert stat.S_IMODE(os.stat(path).st_mode) == expected

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "bad.txt", "\ud800")
        assert list(tmp_path.iterdir()) == []
