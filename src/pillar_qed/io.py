"""CSV and report file formats.

Spectra: header ``omega_ueV,value``; channel tables:
``omega_ueV,h,v,d,a``; design tables:
``kappa,max_phase_rad,argmax_ueV,refl_on_res,feasible``. All files are
UTF-8 with LF line endings, floats written as shortest round-trip
decimals, and writes are atomic (temp file then rename).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .interferometer import ChannelRecord
from .scattering import Spectrum

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


def _fmt(x) -> str:
    return repr(float(x))


def atomic_write_text(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_spectrum_csv(path, spectrum: Spectrum):
    lines = [SPECTRUM_HEADER]
    values = np.asarray(spectrum.values, dtype=float)
    lines.extend(f"{_fmt(w)},{_fmt(v)}" for w, v in zip(spectrum.omega, values))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_columns(path, header, parsers):
    """Line numbers and columns of a CSV file's non-blank rows, field k by ``parsers[k]``.

    The last field takes the rest of the line, commas included. Malformed
    input raises :class:`FileFormatError` naming ``path:line``.
    """
    n = len(parsers)
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise FileFormatError(f"{path}: expected header {header!r}, got {first!r}")
        rows = [
            (lineno, line.split(",", n - 1))
            for lineno, raw in enumerate(fh, start=2)
            if (line := raw.strip())
        ]
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    for lineno, parts in rows:
        if len(parts) != n:
            raise FileFormatError(f"{path}:{lineno}: expected {n} fields")
    columns = []
    for k, parse in enumerate(parsers):
        try:
            # one pass per column keeps the common all-float read fast
            columns.append([parse(parts[k]) for _, parts in rows])
        except ValueError:
            for lineno, parts in rows:
                try:
                    parse(parts[k])
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    return [lineno for lineno, _ in rows], columns


def _read_grid_table(path, header, n):
    """The ``n`` float columns of a gridded CSV, omega first, as one array.

    Every value must be finite and omega strictly increasing; the first
    row that breaks either raises :class:`FileFormatError` naming ``path:line``.
    """
    lines, columns = _read_columns(path, header, (float,) * n)
    table = np.array(columns)
    finite = np.isfinite(table).all(axis=0)
    bad = np.flatnonzero(~finite | np.r_[False, table[0, 1:] <= table[0, :-1]])
    if bad.size:
        k = bad[0]
        what = "values must be finite" if not finite[k] else "omega must be strictly increasing"
        raise FileFormatError(f"{path}:{lines[k]}: {what}")
    return table


def _parse_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def read_spectrum_csv(path) -> Spectrum:
    omega, values = _read_grid_table(path, SPECTRUM_HEADER, 2)
    return Spectrum(omega, values)


def write_channels_csv(path, rec: ChannelRecord):
    omega = np.atleast_1d(np.asarray(rec.omega, dtype=float))
    cols = [np.atleast_1d(np.asarray(getattr(rec, n), dtype=float)) for n in ("h", "v", "d", "a")]
    if any(c.size != omega.size for c in cols):
        raise ValueError("channel columns must match the omega grid length")
    lines = [CHANNELS_HEADER]
    lines.extend(
        ",".join(_fmt(x) for x in row) for row in zip(omega, *cols)
    )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_channels_csv(path) -> ChannelRecord:
    omega, h, v, d, a = _read_grid_table(path, CHANNELS_HEADER, 5)
    return ChannelRecord(omega=omega, h=h, v=v, d=d, a=a)


def write_design_csv(path, points):
    lines = [DESIGN_HEADER]
    for pt in points:
        lines.append(
            ",".join(
                [
                    _fmt(pt.params.kappa_top),
                    _fmt(pt.max_conditional_phase),
                    _fmt(pt.argmax_omega),
                    _fmt(pt.on_resonance_reflectivity),
                    "true" if pt.feasible else "false",
                ]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_design_csv(path):
    """Design-table rows as dicts (kappa, max_phase_rad, argmax_ueV,
    refl_on_res, feasible)."""
    _, columns = _read_columns(path, DESIGN_HEADER, (float,) * 4 + (_parse_flag,))
    return [dict(zip(DESIGN_HEADER.split(","), row)) for row in zip(*columns)]


def write_manifest_csv(path, entries):
    """``entries``: iterable of (temperature, filename)."""
    lines = [MANIFEST_HEADER]
    lines.extend(f"{_fmt(t)},{name}" for t, name in entries)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest_csv(path):
    """Scan-manifest rows as (temperature, filename) tuples."""
    _, columns = _read_columns(path, MANIFEST_HEADER, (float, str))
    return list(zip(*columns))


def write_report(path, values: dict):
    """Flat ``key = value`` report, floats as shortest round-trip decimals."""
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_report(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out
