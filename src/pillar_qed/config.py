"""Flat key = value run configuration with unit-aware parsing.

Energies accept an optional ``meV``/``ueV`` suffix and are stored in ueV.
Grids and lists use ``START:STOP:N`` (inclusive linspace) or comma values.
Command-line flags override file values which override the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .interferometer import BackgroundModel, ReferenceArm, quadrature_offset
from .scattering import SystemParams

if TYPE_CHECKING:
    from .tuning import TuningModel

__all__ = ["ConfigError", "RunConfig", "load_config_file", "parse_energy", "parse_grid"]

_UNIT_FACTORS = {"uev": 1.0, "μev": 1.0, "mev": 1e3, "ev": 1e6}

# every key with its documented default (energies in ueV)
DEFAULTS = {
    "g": "9.4",
    "kappa_top": "1.2",
    "kappa_side": "24.7",
    "gamma": "5.0",
    "omega_c": "1333596",
    "omega_qd": "1333596",
    "background": "0.0",
    "background_phase": "0.0",
    "beta_mag": "1.0",
    "sb_offset": "auto",
    "grid": "1333496:1333696:2001",
    "noise": "0.0",
    "seed": "42",
    "fit_free": "g,kappa_top,kappa_side,gamma",
    "fit_max_iterations": "500",
    "temperatures": "19:23:17",
    "qd_slope": "-10.0",
    "cavity_slope": "-3.0",
    "qd_ref": "auto",
    "cavity_ref": "auto",
    "t_ref": "19.0",
    "t_min": "4.0",
    "t_max": "300.0",
    "kappa_values": "2:60:30",
}


class ConfigError(ValueError):
    """Invalid configuration file or value."""


def parse_energy(text: str) -> float:
    """Float with optional meV/ueV/eV suffix, returned in ueV."""
    token = str(text).strip()
    lowered = token.lower()
    for unit, factor in _UNIT_FACTORS.items():
        if lowered.endswith(unit):
            number = token[: len(token) - len(unit)].strip()
            try:
                return float(number) * factor
            except ValueError as exc:
                raise ConfigError(f"bad energy value {text!r}") from exc
    try:
        return float(token)
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
    if np.any(np.diff(arr) <= 0):
        raise ConfigError("list values must be strictly increasing")
    return arr


def load_config_file(path) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


@dataclass
class RunConfig:
    """Typed, validated run configuration."""

    g: float
    kappa_top: float
    kappa_side: float
    gamma: float
    omega_c: float
    omega_qd: float
    background: float
    background_phase: float
    beta_mag: float
    sb_offset: float | None  # None means the quadrature point
    grid: np.ndarray
    noise: float
    seed: int
    fit_free: tuple
    fit_max_iterations: int
    temperatures: np.ndarray
    qd_slope: float
    cavity_slope: float
    qd_ref: float
    cavity_ref: float
    t_ref: float
    t_min: float
    t_max: float
    kappa_values: np.ndarray
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, file_values: dict | None = None, overrides: dict | None = None):
        """Merge defaults, file values and flag overrides (flags win)."""
        raw = dict(DEFAULTS)
        for source in (file_values or {}), (overrides or {}):
            for key, value in source.items():
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
                raw[key] = str(value)

        omega_c = parse_energy(raw["omega_c"])
        omega_qd = parse_energy(raw["omega_qd"])
        sb = None if raw["sb_offset"].strip().lower() == "auto" else float(raw["sb_offset"])
        cavity_ref = omega_c if raw["cavity_ref"].strip().lower() == "auto" else parse_energy(raw["cavity_ref"])
        qd_ref = cavity_ref + 14.0 if raw["qd_ref"].strip().lower() == "auto" else parse_energy(raw["qd_ref"])
        temperatures = parse_grid(raw["temperatures"], minimum_points=1)
        cfg = cls(
            g=parse_energy(raw["g"]),
            kappa_top=parse_energy(raw["kappa_top"]),
            kappa_side=parse_energy(raw["kappa_side"]),
            gamma=parse_energy(raw["gamma"]),
            omega_c=omega_c,
            omega_qd=omega_qd,
            background=float(raw["background"]),
            background_phase=float(raw["background_phase"]),
            beta_mag=float(raw["beta_mag"]),
            sb_offset=sb,
            grid=parse_grid(raw["grid"]),
            noise=float(raw["noise"]),
            seed=int(raw["seed"]),
            fit_free=tuple(n.strip() for n in raw["fit_free"].split(",") if n.strip()),
            fit_max_iterations=int(raw["fit_max_iterations"]),
            temperatures=temperatures,
            qd_slope=float(raw["qd_slope"]),
            cavity_slope=float(raw["cavity_slope"]),
            qd_ref=qd_ref,
            cavity_ref=cavity_ref,
            t_ref=float(raw["t_ref"]),
            t_min=float(raw["t_min"]),
            t_max=float(raw["t_max"]),
            kappa_values=parse_grid(raw["kappa_values"], minimum_points=1),
            raw=raw,
        )
        if not (0.0 <= cfg.background < 1.0):
            raise ConfigError(f"background must be in [0, 1), got {cfg.background}")
        if not (np.isfinite(cfg.noise) and cfg.noise >= 0):
            raise ConfigError(f"noise must be finite and >= 0, got {cfg.noise}")
        if cfg.fit_max_iterations < 0:
            raise ConfigError(f"fit_max_iterations must be >= 0, got {cfg.fit_max_iterations}")
        return cfg

    def system_params(self) -> SystemParams:
        return SystemParams(
            g=self.g,
            kappa_top=self.kappa_top,
            kappa_side=self.kappa_side,
            gamma=self.gamma,
            omega_c=self.omega_c,
            omega_qd=self.omega_qd,
        )

    def background_model(self) -> BackgroundModel:
        return BackgroundModel(fraction=self.background, phase=self.background_phase)

    def reference_arm(self) -> ReferenceArm:
        offset = quadrature_offset(self.beta_mag) if self.sb_offset is None else self.sb_offset
        return ReferenceArm(beta=self.beta_mag, sb_offset=offset)

    def tuning_model(self) -> TuningModel:
        # imported here so that only the subcommands that tune load tuning
        from .tuning import TuningModel

        return TuningModel(
            qd_slope=self.qd_slope,
            cavity_slope=self.cavity_slope,
            qd_ref=self.qd_ref,
            cavity_ref=self.cavity_ref,
            t_ref=self.t_ref,
            t_min=self.t_min,
            t_max=self.t_max,
        )
