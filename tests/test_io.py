import decimal
import math
import os
import stat
import tempfile
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pillar_qed import DesignPoint, Spectrum, SystemParams
from pillar_qed.cli import main
from pillar_qed.config import DEFAULTS, parse_grid
from pillar_qed.scattering import ChannelRecord, DegenerateModelError
import pillar_qed.io
from pillar_qed.io import (
    CHANNELS_HEADER,
    SPECTRUM_HEADER,
    FileFormatError,
    _format_rows,
    _grid_fault,
    _parse_json,
    _parse_text,
    _read_columns,
    _read_grid_table,
    atomic_write_text,
    read_channels_csv,
    read_design_csv,
    read_report,
    read_spectrum_csv,
    write_channels_csv,
    write_design_csv,
    write_manifest_csv,
    write_report,
    write_spectrum_csv,
)

from conftest import DEVICE

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


class TestEachGridWritesItsOwnBytes:
    """Grids written in turn, or changed in place between writes, each give
    their own bytes: nothing carries over from one write to the next."""

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


def _repr_rows(table):
    """Reference: each row of ``table`` as ``repr``'s texts joined by commas, one line each."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


# the edges of repr's fixed-point range [1e-4, 1e16), the largest and the
# smallest doubles, a half-integer near 2**50 and a signed zero
EDGE_VALUES = [
    math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0),
    9999999999999998.0, 1e16, 1e15 + 0.5, 5e-324, -0.0, 1.7976931348623157e308,
]

_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(math.isfinite),
    # each edge value, its negative and its neighbours
    st.sampled_from(sorted({
        y for x in EDGE_VALUES for y in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))
        if math.isfinite(y)
    })),
)


def _table_with(cells, shape):
    """A table of plain values with ``x`` at each ``(row, column, x)`` of ``cells``."""
    table = 1.0 + np.arange(shape[0] * shape[1], dtype=float).reshape(shape) / 8.0
    for row, column, x in cells:
        table[row, column] = x
    return table


def _long_table_with_exponent_rows():
    """A 2001-row channel table whose first, last and two adjacent rows
    each hold one value that ``repr`` writes with an exponent."""
    table = np.column_stack([1333596.0 + np.linspace(-100.0, 100.0, 2001), np.random.default_rng(25).random((2001, 4))])
    for row, column, x in [(0, 1, 1e-05), (1000, 2, -3e-07), (1001, 4, 2.5e20), (2000, 3, 1e16)]:
        table[row, column] = x
    return table


class TestFormatRowsMatchesRepr:
    """One orjson pass gives the text of ``repr`` row by row, the rows whose
    exponent forms differ included."""

    @settings(max_examples=300)
    @given(table=hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 6)), elements=_FINITE))
    def test_any_finite_table(self, table):
        assert _format_rows(table) == _repr_rows(table)

    @pytest.mark.parametrize(
        "table",
        [
            np.array(EDGE_VALUES)[:, None],
            np.column_stack([np.linspace(1.0, 9.0, 9), EDGE_VALUES, EDGE_VALUES[::-1]]),
            np.array([EDGE_VALUES]),
            np.array([[1333596.0, 0.25]]),
            np.zeros((0, 5)),
            # the flat pass must read rows in order whatever the memory layout
            np.asfortranarray(np.column_stack([np.linspace(1.0, 9.0, 9), EDGE_VALUES, EDGE_VALUES[::-1]])),
            np.column_stack([np.linspace(1.0, 9.0, 9), EDGE_VALUES, np.arange(9.0), EDGE_VALUES[::-1]])[:, ::2],
            _long_table_with_exponent_rows(),
            # the flat test maps each value to its row: two in one row, and a
            # row's last column beside the next row's first
            _table_with([(6, 1, 2e-05), (6, 3, -1e17)], (8, 5)),
            _table_with([(2, 4, 3e-09), (3, 0, 1e16)], (8, 5)),
        ],
        ids=[
            "column", "rows_among_plain_ones", "one_row_of_edges", "one_row", "zero_rows",
            "fortran_order", "column_strided", "long_with_exponent_rows",
            "two_in_one_row", "last_column_then_first",
        ],
    )
    def test_edge_values(self, table):
        assert _format_rows(table) == _repr_rows(table)

    def test_zero_rows_write_the_header_alone(self, tmp_path):
        empty = np.array([])
        write_channels_csv(tmp_path / "t.csv", ChannelRecord(empty, empty, empty, empty, empty))
        assert (tmp_path / "t.csv").read_bytes() == f"{CHANNELS_HEADER}\n".encode()


class TestGridWritersRefuse:
    def test_complex_spectrum(self, tmp_path):
        path = tmp_path / "s.csv"
        # refused when the spectrum is built, before any writer sees it
        with pytest.raises(ValueError, match="^spectrum values must be real, got complex values$"):
            write_spectrum_csv(path, Spectrum([1.0, 2.0], [1 + 2j, 3 + 4j]))
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_omega(self, tmp_path):
        ones = np.ones(3)
        with pytest.raises(DegenerateModelError, match="values are not finite, file not written"):
            write_channels_csv(tmp_path / "c.csv", ChannelRecord(np.array([1.0, np.nan, 3.0]), ones, ones, ones, ones))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("omega", [[2.0, 1.0], [1.0, 1.0]], ids=["decreasing", "repeated"])
    def test_omega_that_does_not_increase(self, tmp_path, omega):
        # the readers' rule: a table written here reads back
        halves = np.full(2, 0.5)
        with pytest.raises(ValueError, match=r"c\.csv:3: omega must be strictly increasing, file not written$") as info:
            write_channels_csv(tmp_path / "c.csv", ChannelRecord(np.array(omega), np.ones(2), np.ones(2), halves, halves))
        assert type(info.value) is ValueError
        assert list(tmp_path.iterdir()) == []

    def test_channel_columns_off_the_grid(self, tmp_path):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="^channel columns must match the omega grid length$"):
            write_channels_csv(tmp_path / "c.csv", ChannelRecord(np.array([1.0, 2.0, 3.0]), ones, ones, ones[:2], ones))
        assert list(tmp_path.iterdir()) == []


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

    def test_missing_nested_out_directory_is_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert main(["design", "--out", str(out)]) == 0
        assert (out / "design.csv").is_file()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
    def test_out_at_or_below_a_file_exits_1_with_one_line(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("kept", encoding="utf-8")
        assert main(["design", "--out", str(taken / below)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("pillar-qed: error: ")
        assert taken.read_text(encoding="utf-8") == "kept" and list(tmp_path.iterdir()) == [taken]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "bad.txt", "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_missing_parents_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "c" / "f.txt"
        atomic_write_text(path, "x\n")
        assert path.read_text(encoding="utf-8") == "x\n" and list(path.parent.iterdir()) == [path]

    def test_directory_target_left_untouched(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()
        (target / "kept").write_text("kept", encoding="utf-8")
        with pytest.raises(OSError):
            atomic_write_text(target, "x\n")
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == [target / "kept"]
        assert (target / "kept").read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("below", [["f.txt"], ["sub", "f.txt"]], ids=["in_file", "below_file"])
    def test_parent_that_is_a_file_creates_nothing(self, tmp_path, below):
        taken = tmp_path / "taken"
        taken.write_text("kept", encoding="utf-8")
        with pytest.raises(OSError):
            atomic_write_text(taken.joinpath(*below), "x\n")
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text(encoding="utf-8") == "kept"

    def test_long_file_name_written(self, tmp_path):
        # 250 bytes: within the 255 a name may take, but not with a suffix added
        path = tmp_path / ("n" * 246 + ".csv")
        atomic_write_text(path, "x\n")
        assert path.read_text(encoding="utf-8") == "x\n" and list(tmp_path.iterdir()) == [path]

    def test_bytes_path_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_text(os.fsencode(tmp_path / "f.txt"), "x\n")
        assert list(tmp_path.iterdir()) == []


class TestEveryWriterWritesAtomically:
    """Each writer makes its one file through ``atomic_write_text``, the name
    the README's atomic-write property and perfbench's write tracer rely on."""

    def test_one_call_per_file(self, tmp_path, monkeypatch):
        calls = []
        write = pillar_qed.io.atomic_write_text
        def record(path, text):
            calls.append(path)
            write(path, text)

        monkeypatch.setattr(pillar_qed.io, "atomic_write_text", record)
        omega = np.linspace(0.0, 1.0, 5)
        point = DesignPoint(SystemParams(**DEVICE), 2.0, 1333590.0, 0.5)
        writers = {
            "spectrum.csv": lambda path: write_spectrum_csv(path, Spectrum(omega, _values(5))),
            "channels.csv": lambda path: write_channels_csv(path, ChannelRecord(omega, *([np.ones(5)] * 4))),
            "design.csv": lambda path: write_design_csv(path, [point]),
            "manifest.csv": lambda path: write_manifest_csv(path, [(19.0, "scan_T19.0000K.csv")]),
            "report.txt": lambda path: write_report(path, {"converged": True}),
        }
        for name, writer in writers.items():
            calls.clear()
            writer(tmp_path / name)
            assert calls == [tmp_path / name], name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)


class TestNumpyScalarsReadBack:
    """Flags and floats held as numpy scalars are written as the readers read them."""

    @pytest.mark.parametrize("phase, feasible", [(np.float64(2.0), True), (np.float64(0.5), False)])
    def test_design_point(self, tmp_path, phase, feasible):
        point = DesignPoint(SystemParams(**DEVICE), phase, np.float64(1333590.0), np.float64(0.5))
        assert type(point.feasible) is bool
        write_design_csv(tmp_path / "design.csv", [point])
        (row,) = read_design_csv(tmp_path / "design.csv")
        assert row["feasible"] is feasible and row["max_phase_rad"] == phase

    def test_report(self, tmp_path):
        write_report(tmp_path / "r.txt", {"converged": np.bool_(True), "stalled": np.bool_(False), "x": np.float32(0.1)})
        report = read_report(tmp_path / "r.txt")
        assert report == {"converged": "true", "stalled": "false", "x": repr(float(np.float32(0.1)))}


def _row_reader(path, header, n):
    """Reference: the gridded read done by the row reader alone."""
    linenos, columns = _read_columns(path, header, (float,) * n)
    table = np.array(columns)
    fault = _grid_fault(table)
    if fault is not None:
        k, what = fault
        raise FileFormatError(f"{path}:{linenos[k]}: {what}")
    return table


def _outcome(read, path, header, n):
    try:
        table = read(path, header, n)
    except FileFormatError as exc:
        return str(exc)
    return table.dtype.str, table.shape, table.flags.c_contiguous, table.tobytes()


# spellings on which numpy's parser and float() could part ways
_ODD_FIELDS = st.sampled_from(
    ["1e400", "-1e400", "nan", "-0", "+.5", "1_0", "1__0", "\u0661", "\uff11", "#1.0", "", " ", "\ufeff1.0",
     " 2.5\t", "\xa00.5", "1.0\x1c", "\x1f1.0", "0.5\x85", "1.0\x00", "0x10", "1j", '"1.0"']
)
_BLANK_LINES = st.sampled_from(["", " ", "\t", "\x0c", "\xa0", "\u2028", "\x1c"])


@st.composite
def _grid_file(draw, header, n):
    """A header, maybe behind a BOM, and up to 8 rows of an increasing grid,
    each plain or made odd: a field respelled, a ``#`` in front, a blank or
    whitespace-only line, a row cut short or lengthened, a trailing comma;
    LF, CRLF or CR line ends."""
    lines = [draw(st.sampled_from(["", "", "", "\ufeff"])) + header + "\n"]
    for k in range(draw(st.integers(0, 8))):
        fields = [repr(float(k))] + [repr(draw(st.floats(0.0, 2.0))) for _ in range(n - 1)]
        kind = draw(st.sampled_from(["plain"] * 4 + ["field", "field", "comment", "blank", "ragged", "trailing"]))
        if kind == "field":
            fields[draw(st.integers(0, n - 1))] = draw(_ODD_FIELDS)
        elif kind == "ragged":
            fields = fields[: draw(st.integers(1, n - 1))] if draw(st.booleans()) else fields + ["1.0"]
        line = ",".join(fields)
        line = {"comment": "#" + line, "blank": draw(_BLANK_LINES), "trailing": line + ","}.get(kind, line)
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))
    return "".join(lines)


_TABLES = st.sampled_from([(SPECTRUM_HEADER, 2), (CHANNELS_HEADER, 5)])


def _text_read(path, header, n):
    """The grid reader with the spectra's parser, numpy's C reader."""
    return _read_grid_table(path, header, n, _parse_text)


def _json_read(path, header, n):
    """The grid reader with the channel tables' parser, one JSON pass."""
    return _read_grid_table(path, header, n, _parse_json)


def _channel_row(*fields):
    return ",".join(fields) + "\n"


_FIRST_ROW = _channel_row("1.0", "0.5", "0.5", "0.5", "0.5")
_SECOND_ROW = _channel_row("2.0", "0.5", "0.5", "0.5", "0.5")
_CHANNEL_FIELDS = ("omega", "h", "v", "d", "a")


class TestGridReaderMatchesRowReader:
    """Behind the one form check, numpy's parse and the JSON parse of a
    gridded table give the row reader's bits or its error."""

    @settings(max_examples=150)
    @given(case=_TABLES.flatmap(lambda t: st.tuples(st.just(t), _grid_file(*t))))
    @example(case=((SPECTRUM_HEADER, 2), f"{SPECTRUM_HEADER}\n1.0\n0.5,2.0,0.25\n"))  # 2 x 2 values if rows are ignored
    @example(case=((SPECTRUM_HEADER, 2), f"{SPECTRUM_HEADER}\r\n1.0,0.5\r\n2.0,1e400\r\n"))
    @example(case=((SPECTRUM_HEADER, 2), f"\ufeff{SPECTRUM_HEADER}\n1.0,0.5\n"))
    @example(case=((SPECTRUM_HEADER, 2), f"{SPECTRUM_HEADER}\n\ufeff1.0,0.5\n"))
    @example(case=((SPECTRUM_HEADER, 2), f"{SPECTRUM_HEADER}\n1.0\x1c,0.5\n"))  # whitespace to numpy only
    @example(case=((SPECTRUM_HEADER, 2), f"{SPECTRUM_HEADER}\n1.0\n2.0\n"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n1.0,0.5,0.5,0.5,0.5,7\n"))
    # the traps of JSON: an integer -0 reads as +0, and spellings float() and JSON part on
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('-0', '-0', '0', '0.5', '-0')}{_SECOND_ROW}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('1.0', '0.5', '1e400', '0.5', '0.5')}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('1.0', '01', '0.5', '0.5', '0.5')}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('1.', '0.5', '0.5', '0.5', '0.5')}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('1.0', '0.5', '0.5', '.5', '0.5')}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('1.0', '0.5', '0.5', '0.5', '+1')}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('1E5', '0.5', '0.5', '0.5', '0.5')}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_channel_row('1.0', '1e+05', '0.5', '0.5', '0.5')}"))
    # a header of the right length, and an omega that does not increase
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER[:-1]}x\n{_SECOND_ROW}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_SECOND_ROW}{_FIRST_ROW}"))
    # two ragged rows holding ten fields between them, in both orders
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n1.0,0.5,0.5,0.5\n2.0,0.5,0.5,0.5,0.5,0.5\n"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n1.0,0.5,0.5,0.5,0.5,0.5\n2.0,0.5,0.5,0.5\n"))
    # no last newline: after a whole row, and after a lone field
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_FIRST_ROW}{_SECOND_ROW[:-1]}"))
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_FIRST_ROW}25"))
    # a blank line between two rows
    @example(case=((CHANNELS_HEADER, 5), f"{CHANNELS_HEADER}\n{_FIRST_ROW}\n{_SECOND_ROW}"))
    def test_same_bits_or_same_error(self, case):
        (header, n), text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on an empty body
                expected = _outcome(_row_reader, path, header, n)
                assert _outcome(_text_read, path, header, n) == expected
                assert _outcome(_json_read, path, header, n) == expected

    @pytest.mark.parametrize("row", ["2.0,oops", "0.5,0.5"], ids=["unparsed", "not_increasing"])
    def test_rejected_spectrum_is_read_once(self, tmp_path, monkeypatch, row):
        path = tmp_path / "s.csv"
        path.write_text(f"{SPECTRUM_HEADER}\n1.0,0.5\n{row}\n", encoding="utf-8")
        reads, read_text = [], pillar_qed.io._read_text
        monkeypatch.setattr(pillar_qed.io, "_read_text", lambda p, data: reads.append(p) or read_text(p, data))
        with pytest.raises(FileFormatError, match=r"s\.csv:3: "):
            read_spectrum_csv(path)
        assert reads == [path]

    def test_integer_negative_zero_reads_negative(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{CHANNELS_HEADER}\n{_channel_row('-0', '-0', '0', '-0.0', '-0e0')}{_SECOND_ROW}", encoding="utf-8")
        rec = read_channels_csv(path)
        assert [math.copysign(1.0, getattr(rec, k)[0]) for k in _CHANNEL_FIELDS] == [-1, -1, 1, -1, -1]

    def test_clean_table_never_reaches_row_reader(self, tmp_path, monkeypatch):
        omega = GRIDS["extremes"]
        write_channels_csv(tmp_path / "t.csv", ChannelRecord(omega, *(_values(omega.size, k) for k in range(4))))
        expected = _row_reader(tmp_path / "t.csv", CHANNELS_HEADER, 5)
        monkeypatch.setattr(pillar_qed.io, "_read_columns", None)
        table = _read_grid_table(tmp_path / "t.csv", CHANNELS_HEADER, 5, _parse_text)
        assert table.flags.c_contiguous and table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_written_channel_table_takes_the_json_parse(self, tmp_path, monkeypatch, name):
        # exponent forms, signed zeros and subnormals included; neither
        # numpy's reader nor the row reader may run
        omega = GRIDS[name]
        cols = [_values(omega.size, k) for k in range(1, 5)]
        path = tmp_path / "t.csv"
        write_channels_csv(path, ChannelRecord(omega, *cols))

        def refuse(*args, **kwargs):
            raise AssertionError("the JSON parse declined a table written here")

        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(pillar_qed.io, "_read_columns", refuse)
        table = _read_grid_table(path, CHANNELS_HEADER, 5, _parse_json)
        assert table.dtype == np.float64 and table.shape == (5, omega.size) and table.flags.c_contiguous
        assert table.tobytes() == np.array([omega, *cols]).tobytes()
        rec = read_channels_csv(path)
        assert all(getattr(rec, k).tobytes() == row.tobytes() for k, row in zip(_CHANNEL_FIELDS, table))

    def test_crlf_copy_reads_the_same_bits(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--set", "noise=0.01"]) == 0
        path, crlf = tmp_path / "channels_coupled.csv", tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert _read_grid_table(path, CHANNELS_HEADER, 5, _parse_json).shape == (5, 2001)

        def refuse(body, n):
            raise AssertionError("a CRLF table reached a parser")

        assert _read_grid_table(crlf, CHANNELS_HEADER, 5, refuse).shape == (5, 2001)  # read by the row reader
        lf, cr = read_channels_csv(path), read_channels_csv(crlf)
        assert all(getattr(lf, k).tobytes() == getattr(cr, k).tobytes() for k in _CHANNEL_FIELDS)

    def test_only_the_written_form_reaches_loadtxt(self, tmp_path, monkeypatch):
        omega = GRIDS["extremes"]
        values = _values(omega.size, 1)
        path, crlf = tmp_path / "s.csv", tmp_path / "crlf.csv"
        write_spectrum_csv(path, Spectrum(omega, values))
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

        def refuse(*args, **kwargs):
            raise AssertionError("a reader that may not run here ran")

        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", refuse)
            spectrum = read_spectrum_csv(crlf)
        assert spectrum.omega.tobytes() == omega.tobytes() and spectrum.values.tobytes() == values.tobytes()
        monkeypatch.setattr(pillar_qed.io, "_read_columns", refuse)
        spectrum = read_spectrum_csv(path)
        assert spectrum.omega.tobytes() == omega.tobytes() and spectrum.values.tobytes() == values.tobytes()

    def test_each_table_is_opened_once(self, tmp_path, monkeypatch):
        # a channel table the JSON parse declines is decoded from the bytes it read
        halves = np.full(3, 0.5)
        path, crlf, spectrum = tmp_path / "c.csv", tmp_path / "crlf.csv", tmp_path / "s.csv"
        write_channels_csv(path, ChannelRecord(np.array([1.0, 2.0, 3.0]), halves, halves, halves, halves))
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        write_spectrum_csv(spectrum, Spectrum([1.0, 2.0, 3.0], halves))
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(pillar_qed.io, "open", counting_open, raising=False)
        lf, cr = read_channels_csv(path), read_channels_csv(crlf)
        read_spectrum_csv(spectrum)
        assert opened == [path, crlf, spectrum]
        assert all(getattr(lf, k).tobytes() == getattr(cr, k).tobytes() for k in _CHANNEL_FIELDS)


def _bits(values):
    return np.fromiter(values, np.float64, len(values)).view(np.uint64)


def _random_decimals(rng, count):
    """Decimals of 1-30 significant digits, as integers, fractions or in
    exponent form, with exponents near underflow, overflow and 1."""
    texts = []
    for _ in range(count):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 31))))
        digits = digits.lstrip("0") or "0"
        sign = "-" if rng.random() < 0.5 else ""
        point = int(rng.integers(0, len(digits) + 1))
        mantissa = digits if point in (0, len(digits)) else f"{digits[:point]}.{digits[point:]}"
        if "." not in mantissa and mantissa != "0" and rng.random() < 0.2:
            texts.append(sign + mantissa)  # an integer, beyond 2**64 from 20 digits on
            continue
        exponent = int(rng.choice([rng.integers(-345, -290), rng.integers(280, 320), rng.integers(-20, 21)]))
        texts.append(f"{sign}{mantissa}{'eE'[int(rng.integers(2))]}{exponent:+d}")
    return texts


def _midpoints(rng, count):
    """The exact decimal midpoint of two adjacent doubles, and the decimals
    one unit above and below it in its last digit."""
    texts = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        for bits in rng.integers(0, 2**63 - 2**52, count, dtype=np.uint64):  # finite, positive, below the largest
            x = float(np.uint64(bits).view(np.float64))
            mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
            unit = decimal.Decimal((0, (1,), mid.as_tuple().exponent))
            texts += [str(v) for v in (mid, mid + unit, mid - unit)]
    return texts


class TestOrjsonParsesAsFloat:
    """orjson's number parse gives ``float()``'s bits, the premise of the
    channel tables' JSON read; only an integer ``-0`` differs, and a
    number beyond the doubles is refused where ``float()`` gives inf."""

    @pytest.mark.parametrize("family", ["repr_of_bit_patterns", "decimals", "midpoints"])
    def test_same_bits_as_float(self, family):
        rng = np.random.default_rng(39)
        if family == "repr_of_bit_patterns":
            values = rng.integers(0, 2**64, 100000, dtype=np.uint64, endpoint=False).view(np.float64)
            texts = [repr(x) for x in values[np.isfinite(values)].tolist()]
        elif family == "decimals":
            texts = _random_decimals(rng, 20000)
        else:
            texts = _midpoints(rng, 4000)
        finite = [t for t in texts if math.isfinite(float(t))]
        assert len(finite) > len(texts) // 2
        for text in set(texts) - set(finite):
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(text)
        parsed = orjson.loads(("[" + ",".join(finite) + "]").encode())
        assert np.array_equal(_bits(parsed), _bits([float(t) for t in finite]))

    def test_integer_negative_zero_is_the_one_difference(self):
        assert _bits(orjson.loads(b"[-0,-0.0,-0e0,0]")).tolist() == _bits([0.0, -0.0, -0.0, 0.0]).tolist()
