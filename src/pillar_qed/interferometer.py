"""Two-beam polarization interferometer readout and background inference.

One arm carries the cavity reflection (H), the other a reference
reflection from the unetched planar region (V). A variable retarder sets
the static phase offset between the arms; a 50:50 analysis mixes them into
D and A channels whose difference reads out the reflection phase. A dip's
visibility pins the fraction of coherent un-modematched background in it.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .scattering import BackgroundModel, ChannelRecord, Spectrum, SystemParams
from .scattering import apply_background, reflection_amplitude

__all__ = [
    "NoSolutionError",
    "ReferenceArm",
    "quadrature_offset",
    "simulate_channels",
    "extract_phase",
    "fringe_phase",
    "conditional_fringe_phase",
    "calibrate_bias",
    "dip_visibility",
    "infer_background_fraction",
]

_CLAMP_TOL = 1e-9
_BISECTION_TOL = 1e-6


class NoSolutionError(ValueError):
    """No background fraction reproduces the requested visibility."""


@dataclass(frozen=True)
class ReferenceArm:
    """Reference reflection amplitude and retarder offset (radians).

    ``sb_offset`` is the static phase the retarder adds to the signal arm.
    The quadrature point ``quadrature_offset(beta)`` zeroes the fringe for
    a far-detuned (unity, zero-phase) signal reflection.
    """

    beta: complex
    sb_offset: float = 0.0

    def __post_init__(self):
        beta = complex(self.beta)
        mag = abs(beta)
        if not (0.0 < mag <= 1.0):
            raise ValueError(f"|beta| must be in (0, 1], got {mag}")
        if not np.isfinite(self.sb_offset):
            raise ValueError("sb_offset must be finite")
        object.__setattr__(self, "beta", beta)

    @property
    def bias(self) -> float:
        """Residual phase offset from the quadrature point."""
        return self.sb_offset - quadrature_offset(self.beta)


def quadrature_offset(beta) -> float:
    """Retarder setting that zeroes the fringe for a far-detuned signal.

    This is the software analogue of nulling the difference channel before
    a scan: with this offset the calibrated fringe reads sin(phase).
    """
    return cmath.phase(complex(beta)) - 0.5 * np.pi


def simulate_channels(r, ref: ReferenceArm, omega=0.0) -> ChannelRecord:
    """Detector intensities produced by signal amplitude ``r``.

    With E_H = r * exp(i*sb_offset) and E_V = beta:

        h = |E_H|^2, v = |E_V|^2,
        d = |E_H + E_V|^2 / 2, a = |E_H - E_V|^2 / 2,

    so d + a = h + v and d - a = 2*|r||beta|*sin(phi + bias) once the
    offset sits at the quadrature point (bias = 0).

    ``r`` may be a scalar or an ndarray matching ``omega``.
    """
    e_h = np.asarray(r, dtype=complex) * np.exp(1j * ref.sb_offset)
    e_v = ref.beta
    h = np.abs(e_h) ** 2
    v = np.abs(e_v) ** 2 * np.ones_like(h)
    d = 0.5 * np.abs(e_h + e_v) ** 2
    a = 0.5 * np.abs(e_h - e_v) ** 2
    if np.ndim(r) == 0:
        omega, h, v, d, a = (float(x) for x in (omega, h, v, d, a))
    return ChannelRecord(omega=omega, h=h, v=v, d=d, a=a)


def _normalized_fringe(rec: ChannelRecord):
    """``(d - a) / (2*sqrt(h*v))``, clamped to [-1, 1] with one warning that
    counts the rows beyond 1 + 1e-9, which no consistent record has. A
    record with h or v <= 0 is refused, naming its first such energy."""
    bad = (np.asarray(rec.h) <= 0) | (np.asarray(rec.v) <= 0)
    if bad.any():
        omega = float(np.broadcast_to(rec.omega, bad.shape)[bad][0])
        raise ValueError(f"phase extraction requires h > 0 and v > 0, not met at omega = {omega!r} ueV")
    s = (rec.d - rec.a) / (2.0 * np.sqrt(rec.h * rec.v))
    over = np.abs(s) - 1.0
    clamped = np.count_nonzero(over > _CLAMP_TOL)
    if clamped:
        warnings.warn(
            f"inconsistent channel record: {clamped} channel rows have a normalized"
            f" fringe beyond 1 (by up to {np.max(over):.3e}), clamping"
        )
    return np.clip(s, -1.0, 1.0)


def extract_phase(rec: ChannelRecord, ref: ReferenceArm):
    """Recover the signal reflection phase from one channel record.

    Returns ``asin((d - a) / (2*sqrt(h*v))) - bias`` where the bias is the
    reference arm's deviation from the quadrature point. Valid branch for
    true phases in (-pi/2, pi/2); inconsistent records (normalized fringe
    beyond 1 + 1e-9) are clamped with a warning.
    """
    return np.arcsin(_normalized_fringe(rec)) - ref.bias


def fringe_phase(rec: ChannelRecord):
    """Fringe phase normalized by the monitor channels alone.

    Returns ``asin((d - a) / sqrt(h*v))``, the convention in which the
    difference channel is read as sqrt(h*v)*sin(phi). The physical fringe
    amplitude of the ideal 50:50 analysis is 2*sqrt(h*v), so this is
    asin(2*sin(phi_true)) for a quadrature-calibrated reference, about
    twice the true phase for small angles, and saturates at +-pi/2 for
    |phi_true| >= pi/6, with one warning that counts those rows. Conditional
    phase shifts quoted from fringe readouts use this convention.
    """
    fringe = 2.0 * _normalized_fringe(rec)  # doubling is exact
    if saturated := np.count_nonzero(np.abs(fringe) - 1.0 > _CLAMP_TOL):
        warnings.warn(f"fringe phase saturated: {saturated} channel rows lie beyond |phi| = pi/6, read as +-pi/2")
    return np.arcsin(np.clip(fringe, -1.0, 1.0))


def conditional_fringe_phase(r_coupled, r_empty, ref: ReferenceArm):
    """Fringe-convention phase difference between two signal amplitudes.

    Simulates both amplitudes through the same reference arm and subtracts
    the fringe phases; this is the readout-level analogue of the
    conditional phase shift.
    """
    rec_c = simulate_channels(r_coupled, ref)
    rec_e = simulate_channels(r_empty, ref)
    return fringe_phase(rec_c) - fringe_phase(rec_e)


def calibrate_bias(raw_phase) -> float:
    """Estimate the residual bias from the far-detuned edges of a scan.

    ``raw_phase`` is :func:`extract_phase` of a gridded record through a
    zero-bias reference arm. Returns its :func:`_edge_baseline`, read where
    the signal phase is near zero. The estimate carries the residual
    reflection phase at the window edges.
    """
    return _edge_baseline(np.asarray(raw_phase, dtype=float))


def _edge_baseline(values: np.ndarray) -> float:
    """Median of the outer decile of points on each side of a 1-D array of at least 5 points."""
    if values.ndim != 1 or values.size < 5:
        raise ValueError("edge calibration needs a gridded record with >= 5 points")
    k = max(1, values.size // 10)
    return float(np.median(np.concatenate([values[:k], values[-k:]])))


def dip_visibility(s: Spectrum) -> float:
    """Fractional depth of the deepest dip below the edge baseline.

    The baseline is :func:`_edge_baseline` of the spectrum's intensities.
    """
    baseline = _edge_baseline(s.values)
    if baseline <= 0:
        raise ValueError(f"non-positive baseline {baseline}")
    return 1.0 - float(np.min(s.values)) / baseline


def infer_background_fraction(
    observed_visibility: float,
    p: SystemParams,
    grid=None,
) -> float:
    """Background fraction whose synthesized dip matches a visibility.

    Bisection on b in [0, 1): a coherent zero-phase background dilutes the
    dip monotonically, so the observed visibility pins b. Raises
    :class:`NoSolutionError` when even the intrinsic spectrum (b = 0) is
    shallower than the observation.
    """
    if not (0.0 < observed_visibility < 1.0):
        raise ValueError("observed visibility must be in (0, 1)")
    if grid is None:
        grid = np.linspace(p.omega_c - 100.0, p.omega_c + 100.0, 2001)
    grid = np.asarray(grid, dtype=float)
    r = reflection_amplitude(p, omega=grid)  # b only mixes in a flat field

    def vis(b: float) -> float:
        return dip_visibility(Spectrum(grid, np.abs(apply_background(r, BackgroundModel(b))) ** 2))

    lo, hi = 0.0, 1.0 - 1e-9
    if vis(lo) < observed_visibility:
        raise NoSolutionError(
            f"intrinsic visibility {vis(lo):.4f} below observed {observed_visibility:.4f}"
        )
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if vis(mid) > observed_visibility:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
