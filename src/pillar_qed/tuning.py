"""Temperature tuning of the dot and cavity energies; anticrossing scans.

Both energies shift linearly with temperature over the scan window, the
dot faster than the cavity, so raising the temperature walks the dot
through the cavity resonance. Slopes are user-supplied; the defaults in
the command-line config are illustrative placeholders, not measured
coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .estimation import UnresolvedSplittingError, _dip_separation, local_minima
from .interferometer import BackgroundModel, measured_intensity
from .scattering import QdState, Spectrum, SystemParams

__all__ = [
    "TuningModel",
    "TemperatureScan",
    "energies_at",
    "crossing_temperature",
    "synthesize_scan",
    "scan_dip_positions",
    "anticrossing_gap",
]


@dataclass(frozen=True)
class TuningModel:
    """Linear temperature dependence of the dot and cavity energies.

    Energies are ``ref + slope * (t - t_ref)`` in ueV with slopes in
    ueV/K. ``t_min``/``t_max`` declare the validity window; evaluating
    outside it warns but proceeds.
    """

    qd_slope: float
    cavity_slope: float
    qd_ref: float
    cavity_ref: float
    t_ref: float
    t_min: float = 0.0
    t_max: float = 400.0

    def __post_init__(self):
        for name in ("qd_slope", "cavity_slope", "qd_ref", "cavity_ref", "t_ref", "t_min", "t_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_min >= self.t_max:
            raise ValueError("t_min must be below t_max")


@dataclass(frozen=True)
class TemperatureScan:
    """Per-temperature intensity spectra plus the inputs that made them."""

    temperatures: tuple
    spectra: tuple
    params: SystemParams
    model: TuningModel
    background: BackgroundModel | None = None

    def __post_init__(self):
        temps = tuple(float(t) for t in self.temperatures)
        if len(temps) == 0:
            raise ValueError("scan needs at least one temperature")
        if not all(b > a for a, b in zip(temps, temps[1:])):
            raise ValueError("temperatures must be strictly increasing")
        if len(self.spectra) != len(temps):
            raise ValueError("one spectrum per temperature required")
        object.__setattr__(self, "temperatures", temps)
        object.__setattr__(self, "spectra", tuple(self.spectra))


def energies_at(m: TuningModel, t: float):
    """(omega_qd, omega_c) at temperature ``t`` (kelvin)."""
    if not (m.t_min <= t <= m.t_max):
        warnings.warn(f"temperature {t} K outside validity window [{m.t_min}, {m.t_max}] K")
    omega_qd = m.qd_ref + m.qd_slope * (t - m.t_ref)
    omega_c = m.cavity_ref + m.cavity_slope * (t - m.t_ref)
    return omega_qd, omega_c


def crossing_temperature(m: TuningModel) -> float:
    """Temperature at which the dot and cavity energies coincide."""
    if m.qd_slope == m.cavity_slope:
        raise ValueError("equal slopes never cross")
    return m.t_ref + (m.cavity_ref - m.qd_ref) / (m.qd_slope - m.cavity_slope)


def synthesize_scan(
    p: SystemParams,
    m: TuningModel,
    temperatures,
    grid,
    bg: BackgroundModel | None = None,
) -> TemperatureScan:
    """Measured-intensity spectra over a temperature list.

    Each temperature re-centers the dot and cavity via the tuning model
    and evaluates the measured intensity on the common grid; rates are
    held constant across the scan.
    """
    grid = np.asarray(grid, dtype=float)
    spectra = []
    for t in temperatures:
        omega_qd, omega_c = energies_at(m, t)
        p_t = replace(p, omega_c=omega_c)
        qd_t = QdState(omega_qd=omega_qd, coupled=True)
        spectra.append(Spectrum(grid, measured_intensity(p_t, qd_t, grid, bg)))
    return TemperatureScan(
        temperatures=tuple(temperatures),
        spectra=tuple(spectra),
        params=p,
        model=m,
        background=bg,
    )


def scan_dip_positions(scan: TemperatureScan):
    """Per-temperature dip positions: list of (temperature, positions).

    Positions are the quadratic-interpolated local minima sorted by
    energy; temperatures where the dips are unresolved report whatever
    minima exist (possibly one or none).
    """
    out = []
    for t, s in zip(scan.temperatures, scan.spectra):
        minima = local_minima(s.omega, s.values)
        out.append((t, tuple(pos for pos, _ in minima)))
    return out


def anticrossing_gap(scan: TemperatureScan) -> float:
    """Minimum dip separation over the scan (ueV).

    At each temperature with at least two resolved minima, the two deepest
    are taken; the smallest separation across the scan is the measured
    anticrossing gap. Raises :class:`UnresolvedSplittingError` when no
    temperature resolves two dips. The gap is a spectral-line separation:
    near the strong-coupling threshold the dips sit outside the dressed
    state energies (as :func:`estimate_g_from_splitting` notes), so it is
    larger than :func:`~pillar_qed.scattering.rabi_splitting`.
    """
    gaps = []
    for s in scan.spectra:
        try:
            gaps.append(_dip_separation(s))
        except UnresolvedSplittingError:
            continue
    if not gaps:
        raise UnresolvedSplittingError("no temperature resolves two dips")
    return float(min(gaps))
