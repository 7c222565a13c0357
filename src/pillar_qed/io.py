"""CSV and report file formats.

Spectra: header ``omega_ueV,value``; channel tables:
``omega_ueV,h,v,d,a``; design tables:
``kappa,max_phase_rad,argmax_ueV,refl_on_res,feasible``. All files are
UTF-8 (an input that is not raises :class:`FileFormatError` naming it) with
LF line endings, floats written as shortest round-trip decimals, and writes
are atomic (temp file then rename, missing parent directories created on
demand); a written file gets mode ``0o666`` less the umask, as ``open()``
would give it. A gridded file's floats are formatted in one orjson call on the table as one
flat vector, whose Ryu digits are ``repr``'s, and each row's last comma
becomes a newline; a row holding a value that ``repr`` writes with an
exponent is formatted by ``repr``.
A channel table in the form written here is parsed by one ``orjson.loads``
of its body as one flat JSON array, giving ``float()``'s bits. Spectra, and
any other channel table, are parsed by numpy's C reader, each field as
``float()`` reads it, with no ``#`` comments: ``fit`` reads only spectra, and
importing orjson costs it more than the faster parse would save. The row
reader only names the first bad line.
Reports and run configs are flat ``key = value`` files in which ``#`` starts
a comment.
"""

from __future__ import annotations

import os

import numpy as np

from .scattering import ChannelRecord, DegenerateModelError, Spectrum

__all__ = [
    "FileFormatError",
    "atomic_write_text",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_channels_csv",
    "read_channels_csv",
    "write_design_csv",
    "read_design_csv",
    "write_manifest_csv",
    "read_manifest_csv",
    "write_report",
    "read_report",
]

SPECTRUM_HEADER = "omega_ueV,value"
CHANNELS_HEADER = "omega_ueV,h,v,d,a"
DESIGN_HEADER = "kappa,max_phase_rad,argmax_ueV,refl_on_res,feasible"
MANIFEST_HEADER = "temperature_K,filename"


class FileFormatError(ValueError):
    """Malformed input file."""


def _text(x) -> str:
    """A scalar as written: ``true``/``false``, a float's shortest round-trip decimal, else ``str``."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    data = text.encode("utf-8")  # first: text that cannot be encoded creates nothing
    tmp = path + f".{os.urandom(8).hex()}.tmp"  # str + str: a bytes path raises TypeError
    # os.open gives 0o666 less the umask; mkstemp would give 0600
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:  # a missing parent: create it, then try once more
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_lines(path, header, lines):
    """``header``, then each of ``lines``, each ending in a newline."""
    atomic_write_text(path, "\n".join([header, *lines]) + "\n")


def _format_rows(table) -> str:
    """Each row of a 2-D float64 ``table`` as ``repr``'s texts joined by
    commas, each line ending in a newline.

    Ryu, as orjson ships it, gives the digits of ``repr`` (shortest round
    trip, closest on ties); the two write different forms only outside
    1e-4 <= |x| < 1e16 (``0.00001`` and ``1e16`` for ``1e-05`` and
    ``1e+16``), so a row holding a nonzero value there is written by
    ``repr``. The table is dumped as one flat vector, and every n-th comma
    of an n-column table becomes a newline in place. orjson writes ``null``
    for non-finite values: callers check.
    """
    if not len(table):
        return ""
    import orjson

    flat = table.ravel()
    buf = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))
    view = np.frombuffer(buf, dtype=np.uint8)
    n = table.shape[1]
    view[np.flatnonzero(view == ord(","))[n - 1::n]] = ord("\n")
    text = buf[1:-1].decode()
    magnitude = np.abs(flat)
    exponent = ((magnitude < 1e-4) & (magnitude != 0.0)) | (magnitude >= 1e16)
    if exponent.any():  # the flat test: a per-row .any(axis=1) costs three times as much
        lines = text.split("\n")
        for k in np.unique(np.flatnonzero(exponent) // n).tolist():
            lines[k] = ",".join(map(repr, table[k].tolist()))
        text = "\n".join(lines)
    return text + "\n"


def _write_grid_table(path, header, columns):
    """One row per grid point of the equal-length ``columns``, omega first,
    as shortest round-trip decimals. Non-finite values raise and write
    nothing."""
    table = np.asarray(np.column_stack(columns), dtype=np.float64)
    if not np.isfinite(table).all():
        raise DegenerateModelError(f"{path}: values are not finite, file not written")
    atomic_write_text(path, f"{header}\n{_format_rows(table)}")


def write_spectrum_csv(path, spectrum: Spectrum):
    _write_grid_table(path, SPECTRUM_HEADER, [spectrum.omega, spectrum.values])


def _read_text(path) -> str:
    """A UTF-8 file's text, newlines translated as ``open()`` does; bytes
    that are not UTF-8 raise :class:`FileFormatError` naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _read_columns(path, header, parsers):
    """Line numbers and columns of a CSV file's non-blank rows, field k by ``parsers[k]``.

    The last field takes the rest of the line, commas included. Malformed
    input raises :class:`FileFormatError` naming ``path:line``.
    """
    n, linenos, rows = len(parsers), [], []
    first, *lines = _read_text(path).split("\n")
    if first.strip() != header:
        raise FileFormatError(f"{path}: expected header {header!r}, got {first.strip()!r}")
    for lineno, raw in enumerate(lines, start=2):
        if not (line := raw.strip()):
            continue
        parts = line.split(",", n - 1)
        if len(parts) != n:
            raise FileFormatError(f"{path}:{lineno}: expected {n} fields")
        try:
            rows.append([parse(part) for parse, part in zip(parsers, parts)])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        linenos.append(lineno)
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    return linenos, [list(column) for column in zip(*rows)]


def _read_grid_table(path, header, n):
    """The ``n`` float columns of a gridded CSV, omega first, as one array.

    Every value must be finite and omega strictly increasing. When
    ``np.loadtxt`` rejects the body or a check fails, :func:`_read_columns`
    reads the file again to name the first bad row as ``path:line``.
    """
    first, _, body = _read_text(path).partition("\n")
    # loadtxt warns on a blank body, and reads \x1c-\x1f as whitespace where float() does not
    if first.strip() == header and body.strip() and not any(c in body for c in "\x1c\x1d\x1e\x1f"):
        try:
            table = np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=2).T.copy()
        except ValueError:
            table = None
        if table is not None and len(table) == n and _grid_fault(table) is None:
            return table
    linenos, columns = _read_columns(path, header, (float,) * n)
    table = np.array(columns)
    fault = _grid_fault(table)
    if fault is not None:
        k, what = fault
        raise FileFormatError(f"{path}:{linenos[k]}: {what}")
    return table


def _read_json_table(path, header, n):
    """The ``n`` float columns of a gridded CSV in the form written here,
    parsed by one ``orjson.loads`` of the body as a flat JSON array, or None.

    It accepts only bytes the row reader reads to the same table: the exact
    header line, then lines of ``n`` comma-separated fields of ``0-9+-.eE``,
    each ending in a newline, with no integer ``-0`` (JSON reads +0) and no
    :func:`_grid_fault`. There JSON's numbers are a subset of ``float()``'s,
    which orjson parses to the same bits (``tests/test_io.py`` pins it).
    """
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    head = f"{header}\n".encode()
    body = data[len(head):]
    seps = body.translate(None, b"0123456789+-.eE")  # what is left must be the commas and newlines
    if not (data.startswith(head) and body.endswith(b"\n") and seps == (b"," * (n - 1) + b"\n") * (len(seps) // n)):
        return None
    try:
        values = orjson.loads(b"[" + body[:-1].replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:  # a spelling outside JSON's grammar, or out of range
        return None
    table = np.fromiter(values, np.float64, len(values)).reshape(-1, n).T.copy()
    if not table.all() and (b"-0," in body or b"-0\n" in body):  # only a zero can be a misread -0
        return None
    return table if _grid_fault(table) is None else None


def _grid_fault(table):
    """``(row, reason)`` of the first row holding a non-finite value or not
    increasing omega, or None."""
    finite = np.isfinite(table).all(axis=0)
    bad = np.flatnonzero(~finite | np.r_[False, table[0, 1:] <= table[0, :-1]])
    if not bad.size:
        return None
    k = bad[0]
    return k, "values must be finite" if not finite[k] else "omega must be strictly increasing"


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("values must be finite")
    return value


def _parse_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def read_spectrum_csv(path) -> Spectrum:
    omega, values = _read_grid_table(path, SPECTRUM_HEADER, 2)
    return Spectrum(omega, values)


def write_channels_csv(path, rec: ChannelRecord):
    omega = np.atleast_1d(np.asarray(rec.omega))
    cols = [np.atleast_1d(np.asarray(getattr(rec, n))) for n in ("h", "v", "d", "a")]
    if any(c.size != omega.size for c in cols):
        raise ValueError("channel columns must match the omega grid length")
    _write_grid_table(path, CHANNELS_HEADER, [omega, *cols])


def read_channels_csv(path) -> ChannelRecord:
    table = _read_json_table(path, CHANNELS_HEADER, 5)
    omega, h, v, d, a = _read_grid_table(path, CHANNELS_HEADER, 5) if table is None else table
    return ChannelRecord(omega=omega, h=h, v=v, d=d, a=a)


def write_design_csv(path, points):
    _write_lines(path, DESIGN_HEADER, (
        f"{float(pt.params.kappa_top)!r},{float(pt.max_conditional_phase)!r},{float(pt.argmax_omega)!r},"
        f"{float(pt.on_resonance_reflectivity)!r},{'true' if pt.feasible else 'false'}"
        for pt in points
    ))


def read_design_csv(path):
    """Design-table rows as dicts (kappa, max_phase_rad, argmax_ueV,
    refl_on_res, feasible)."""
    _, columns = _read_columns(path, DESIGN_HEADER, (_finite,) * 4 + (_parse_flag,))
    return [dict(zip(DESIGN_HEADER.split(","), row)) for row in zip(*columns)]


def write_manifest_csv(path, entries):
    """``entries``: iterable of (temperature, filename)."""
    _write_lines(path, MANIFEST_HEADER, (f"{_text(t)},{name}" for t, name in entries))


def read_manifest_csv(path):
    """Scan-manifest rows as (temperature, filename) tuples."""
    _, columns = _read_columns(path, MANIFEST_HEADER, (_finite, str))
    return list(zip(*columns))


def write_report(path, values: dict):
    """Flat ``key = value`` report, floats as shortest round-trip decimals."""
    atomic_write_text(path, "\n".join(f"{key} = {_text(value)}" for key, value in values.items()) + "\n")


def _key_values(path):
    """``(line, key, value)`` of each non-blank line of a ``key = value``
    file; ``#`` starts a comment, and a line without ``=`` raises
    :class:`FileFormatError` naming ``path:line``."""
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        if not (line := raw.split("#", 1)[0].strip()):
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def read_report(path) -> dict:
    return {key: value for _, key, value in _key_values(path)}
