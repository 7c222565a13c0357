"""Flat key = value run configuration with unit-aware parsing.

Energies accept an optional ``ueV``/``μeV``/``meV``/``eV`` suffix, spelled
exactly so, and are stored in ueV. Grids and lists use ``START:STOP:N``
(inclusive linspace) or comma values, all finite. ``--set`` overrides
file values which override the defaults below.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .io import _key_values
from .scattering import PARAM_FIELDS, BackgroundModel, SystemParams

if TYPE_CHECKING:
    from .interferometer import ReferenceArm

__all__ = ["ConfigError", "RunConfig", "load_config_file", "parse_energy", "parse_grid"]

_UNIT_FACTORS = {"ueV": 1.0, "μeV": 1.0, "meV": 1e3, "eV": 1e6}


class ConfigError(ValueError):
    """Invalid configuration file or value."""


def parse_energy(text: str) -> float:
    """Float with optional ueV/μeV/meV/eV suffix, returned in ueV."""
    number, factor = str(text).strip(), 1.0
    for unit, scale in _UNIT_FACTORS.items():
        if number.endswith(unit):
            number, factor = number[: -len(unit)].strip(), scale
            break
    try:
        return float(number) * factor
    except ValueError as exc:
        raise ConfigError(f"bad energy value {text!r}") from exc


def parse_grid(text: str, minimum_points: int = 2) -> np.ndarray:
    """``START:STOP:N`` inclusive linspace or comma-separated values."""
    token = str(text).strip()
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be START:STOP:N, got {text!r}")
        start, stop = parse_energy(parts[0]), parse_energy(parts[1])
        if not np.isfinite([start, stop]).all():
            raise ConfigError(f"grid values must be finite, got {text!r}")
        try:
            n = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid point count in {text!r}") from exc
        if n < minimum_points:
            raise ConfigError(f"grid needs at least {minimum_points} points, got {n}")
        if stop <= start:
            raise ConfigError(f"grid stop must exceed start in {text!r}")
        return np.linspace(start, stop, n)
    values = [parse_energy(v) for v in token.split(",") if v.strip()]
    if len(values) < minimum_points:
        raise ConfigError(f"need at least {minimum_points} values, got {len(values)}")
    arr = np.array(values)
    if not np.isfinite(arr).all():
        raise ConfigError(f"list values must be finite, got {text!r}")
    if np.any(np.diff(arr) <= 0):
        raise ConfigError("list values must be strictly increasing")
    return arr


def _auto(parse):
    """``parse``, except that the text ``auto`` reads as None."""
    return lambda text: None if text.strip().lower() == "auto" else parse(text)


def _names(text: str) -> tuple:
    return tuple(n.strip() for n in text.split(",") if n.strip())


# every key with its documented default (energies in ueV) and its parser
_KEYS = {
    "g": ("9.4", parse_energy),
    "kappa_top": ("1.2", parse_energy),
    "kappa_side": ("24.7", parse_energy),
    "gamma": ("5.0", parse_energy),
    "omega_c": ("1333596", parse_energy),
    "omega_qd": ("1333596", parse_energy),
    "background": ("0.0", float),
    "background_phase": ("0.0", float),
    "beta_mag": ("1.0", float),
    "sb_offset": ("auto", _auto(float)),  # None means the quadrature point
    "grid": ("1333496:1333696:2001", parse_grid),
    "noise": ("0.0", float),
    "seed": ("42", int),
    "fit_free": ("g,kappa_top,kappa_side,gamma", _names),
    "fit_max_iterations": ("500", int),
    "temperatures": ("19:23:17", partial(parse_grid, minimum_points=1)),
    "qd_slope": ("-10.0", float),
    "cavity_slope": ("-3.0", float),
    "qd_ref": ("auto", _auto(parse_energy)),
    "cavity_ref": ("auto", _auto(parse_energy)),
    "t_ref": ("19.0", float),
    "t_min": ("4.0", float),
    "t_max": ("300.0", float),
    "kappa_values": ("2:60:30", partial(parse_grid, minimum_points=1)),
}
DEFAULTS = {key: default for key, (default, _) in _KEYS.items()}


def load_config_file(path) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    out = {}
    for lineno, key, value in _key_values(path):
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


class RunConfig:
    """Typed, validated run configuration: one attribute per key of ``DEFAULTS``.

    An ``auto`` ``cavity_ref`` is ``omega_c``; an ``auto`` ``qd_ref`` is
    ``cavity_ref + 14`` ueV. ``raw`` keeps the merged key texts.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        for key, (_, parse) in _KEYS.items():
            try:
                setattr(self, key, parse(raw[key]))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        self.cavity_ref = self.omega_c if self.cavity_ref is None else self.cavity_ref
        self.qd_ref = self.cavity_ref + 14.0 if self.qd_ref is None else self.qd_ref

    @classmethod
    def build(cls, file_values: dict | None = None, overrides: dict | None = None):
        """Merge defaults, file values and ``--set`` overrides (overrides win)."""
        raw = dict(DEFAULTS)
        for source in (file_values or {}), (overrides or {}):
            for key, value in source.items():
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
                raw[key] = str(value)
                if any(c in raw[key] for c in "\n\r#"):  # scan_config.txt could not hold it
                    raise ConfigError(f"{key}: value must not contain a line break or '#', got {raw[key]!r}")
        cfg = cls(raw)
        if not (0.0 <= cfg.background < 1.0):
            raise ConfigError(f"background must be in [0, 1), got {cfg.background}")
        if not (np.isfinite(cfg.noise) and cfg.noise >= 0):
            raise ConfigError(f"noise must be finite and >= 0, got {cfg.noise}")
        for key in ("seed", "fit_max_iterations"):
            if getattr(cfg, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")
        return cfg

    def system_params(self) -> SystemParams:
        return SystemParams(**{n: getattr(self, n) for n in PARAM_FIELDS})

    def background_model(self) -> BackgroundModel:
        return BackgroundModel(fraction=self.background, phase=self.background_phase)

    def reference_arm(self) -> ReferenceArm:
        from .interferometer import ReferenceArm, quadrature_offset

        offset = quadrature_offset(self.beta_mag) if self.sb_offset is None else self.sb_offset
        return ReferenceArm(beta=self.beta_mag, sb_offset=offset)
