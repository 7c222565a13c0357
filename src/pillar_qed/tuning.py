"""Temperature tuning of the dot and cavity energies; anticrossing scans.

Both energies shift linearly with temperature over the scan window, the
dot faster than the cavity, so raising the temperature walks the dot
through the cavity resonance. Slopes are user-supplied; the defaults in
the command-line config are illustrative placeholders, not measured
coefficients.

Each spectrum is read through its two most prominent reflectivity dips:
their tracks over the scan and the anticrossing gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .scattering import BackgroundModel, Spectrum, SystemParams, measured_intensity

__all__ = [
    "UnresolvedSplittingError",
    "TuningModel",
    "TemperatureScan",
    "energies_at",
    "synthesize_scan",
    "scan_dip_positions",
    "anticrossing_gap",
]


class UnresolvedSplittingError(RuntimeError):
    """No spectrum of a scan resolves two dips."""


@dataclass(frozen=True)
class TuningModel:
    """Linear temperature dependence of the dot and cavity energies.

    Energies are ``ref + slope * (t - t_ref)`` in ueV, slopes in ueV/K.
    Evaluating outside the window ``[t_min, t_max]`` warns but proceeds;
    it defaults to [0, 400] K here and to [4, 300] K in the CLI config.
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
    """Per-temperature intensity spectra on a common grid."""

    temperatures: tuple
    spectra: tuple

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
        p_t = replace(p, omega_c=omega_c, omega_qd=omega_qd)
        spectra.append(Spectrum(grid, measured_intensity(p_t, grid, bg)))
    return TemperatureScan(temperatures=tuple(temperatures), spectra=tuple(spectra))


def _strict_minima(values: np.ndarray) -> np.ndarray:
    """Indices of the interior points lower than both neighbours."""
    return np.flatnonzero((values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])) + 1


def _vertices(omega: np.ndarray, values: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Vertex positions of the parabolas through the points around
    indices ``i``; a zero denominator reports the grid point. Python floats
    per index, with the bits of float64 arrays (``a * a`` is numpy's
    ``a ** 2``): for two indices numpy's dispatch outweighs the arithmetic."""
    out = []
    for k in i.tolist():
        x0, x1, x2 = omega[k - 1 : k + 2].tolist()
        y0, y1, y2 = values[k - 1 : k + 2].tolist()
        a, b = x1 - x0, x1 - x2
        den = a * (y1 - y2) - b * (y1 - y0)
        out.append(x1 if den == 0 else x1 - 0.5 * (a * a * (y1 - y2) - b * b * (y1 - y0)) / den)
    return np.array(out, dtype=float)


def _prominent_dips(omega, values) -> np.ndarray:
    """Positions of the two most prominent strict minima, ascending.

    Fewer than two when fewer exist. Each is placed at its three-point
    parabola vertex. A spectrum with at most two strict minima keeps them
    all without computing a prominence; on a noisy one, prominence passes
    over the wiggles inside one dip.
    """
    values = np.asarray(values, dtype=float)
    i = _strict_minima(values)
    if i.size > 2:
        i = np.sort(i[np.argsort(-_prominences(values, i), kind="stable")[:2]])
    return _vertices(np.asarray(omega, dtype=float), values, i)


def _prominences(values: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Topographic prominence of the dips of ``values`` at indices ``i``.

    From each dip the walk on either side continues over points no lower
    than the dip and stops before the first strictly lower point (or at
    the edge); the prominence is the lower of the two highest points
    walked over, less the dip (``scipy.signal.peak_prominences`` of
    ``-values``). One stack pass per side walks every point at once: the
    stack holds (value, highest point walked over to reach it) pairs, and
    each point pops the tops no lower than itself, keeping their highest.
    """
    tops = []
    for side in (values, values[::-1]):
        stack, top = [], []
        for v in side.tolist():
            t = v
            while stack and stack[-1][0] >= v:
                t = max(t, stack.pop()[1])
            stack.append((v, t))
            top.append(t)
        tops.append(np.array(top))
    return np.minimum(tops[0][i], tops[1][::-1][i]) - values[i]


def scan_dip_positions(scan: TemperatureScan):
    """Per-temperature dip positions: list of (temperature, positions).

    Positions are the three-point parabola vertices of the two most
    prominent local minima, sorted by energy; temperatures where the dips
    are unresolved report whatever minima exist (one or none).
    """
    out = []
    for t, s in zip(scan.temperatures, scan.spectra):
        out.append((t, tuple(_prominent_dips(s.omega, s.values).tolist())))
    return out


def anticrossing_gap(scan: TemperatureScan) -> float:
    """Minimum dip separation over the scan (ueV).

    The smallest separation of the two dips of :func:`scan_dip_positions`
    over the temperatures that resolve both. Raises
    :class:`UnresolvedSplittingError` when no temperature resolves two
    dips. The gap is a spectral-line separation: near the strong-coupling
    threshold the dips sit outside the dressed state energies, so it is
    larger than :func:`~pillar_qed.scattering.rabi_splitting`.
    """
    gaps = [dips[1] - dips[0] for _, dips in scan_dip_positions(scan) if len(dips) == 2]
    if not gaps:
        raise UnresolvedSplittingError("no temperature resolves two dips")
    return float(min(gaps))
