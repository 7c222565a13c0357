"""Conditional phase and outcoupling-rate design sweeps.

The conditional phase compares the reflection with the dot coupled
against the empty cavity, the same parameters with g = 0. A spin-photon
interface wants this difference to exceed pi/2; raising the top-mirror
rate past the parasitic loss flips the sign of the empty-cavity
on-resonance amplitude and buys a pi conditional phase at resonance, at
the price of reflectivity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .interferometer import BackgroundModel, apply_background
from .scattering import (
    DegenerateModelError,
    SystemParams,
    _amplitude_coefficients,
    principal_angle,
    reflection_amplitude,
)

__all__ = [
    "DesignPoint",
    "relative_phase",
    "max_conditional_phase",
    "sweep_kappa",
    "interface_feasible",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class DesignPoint:
    """Figure of merit of one parameter set at zero dot-cavity detuning."""

    params: SystemParams
    max_conditional_phase: float
    argmax_omega: float
    on_resonance_reflectivity: float
    feasible: bool

    def __post_init__(self):
        if not (0.0 <= self.max_conditional_phase <= np.pi + 1e-12):
            raise ValueError("max conditional phase must lie in [0, pi]")
        if not (0.0 <= self.on_resonance_reflectivity <= 1.0 + 1e-12):
            raise ValueError("reflectivity must lie in [0, 1]")


def _relative_phase(p: SystemParams, empty: SystemParams, omega, bg: BackgroundModel | None):
    """:func:`relative_phase` against a prebuilt ``empty = replace(p, g=0.0)``."""
    r_d = reflection_amplitude(p, omega=omega)
    r_c = reflection_amplitude(empty, omega=omega)
    if bg is not None:
        r_d = apply_background(r_d, bg)
        r_c = apply_background(r_c, bg)
    return principal_angle(r_d * np.conj(r_c))


def relative_phase(p: SystemParams, omega, bg: BackgroundModel | None = None):
    """Principal-valued phase of the coupled amplitude relative to the empty one.

    ``angle(r_coupled * conj(r_empty))`` in (-pi, pi], per point; the
    empty cavity is ``p`` with g = 0.
    """
    return _relative_phase(p, replace(p, g=0.0), omega, bg)


def _trim(c):
    """Drop leading coefficients that cancelled to rounding noise."""
    big = np.abs(c) >= 1e-12 * np.max(np.abs(c))
    return c[np.argmax(big):]


def _sorted_unique(x):
    """:func:`numpy.unique` of a finite 1-d array, bit for bit.

    The same sort and first-of-each-run mask, without the
    ``np.ma.is_masked`` check whose first call imports ``numpy.ma``.
    """
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _real_roots(polys):
    """``np.roots(c).real`` for each coefficient array ``c``, bit for bit.

    The zero stripping, float cast and companion matrices of
    :func:`numpy.roots`, but one stacked ``eigvals`` call per size and dtype.
    """
    roots, groups = [], {}
    for c in map(np.asarray, polys):
        nz = np.flatnonzero(c)
        # trailing zeros are roots at zero, appended after the others
        roots.append([np.zeros(0), np.zeros(c.size - 1 - nz[-1] if nz.size else 0)])
        c = c[nz[0]:nz[-1] + 1] if nz.size else c[:0]
        if c.size > 1:
            groups.setdefault((c.size, c.dtype), []).append((c, roots[-1]))
    for (n, dtype), members in groups.items():
        coeffs = np.array([c for c, _ in members])
        companion = np.tile(np.eye(n - 1, k=-1, dtype=np.result_type(dtype, 0.0)), (len(members), 1, 1))
        companion[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]
        for (_, parts), found in zip(members, np.linalg.eigvals(companion).real):
            parts[0] = found
    return [np.concatenate(parts) for parts in roots]


def _phase_polynomials(p: SystemParams, bg: BackgroundModel | None):
    """Stationarity polynomial and ``Im(A)`` of :func:`max_conditional_phase`."""
    rates = (p.kappa_top, p.kappa_side, p.gamma, p.omega_c, p.omega_qd)
    n_d, d_d = _amplitude_coefficients(p.g, *rates)
    n_c, d_c = _amplitude_coefficients(0.0, *rates)
    if bg is not None:
        scale = np.sqrt(1.0 - bg.fraction)
        n_d = np.polyadd(bg.field * d_d, scale * n_d)
        n_c = np.polyadd(bg.field * d_c, scale * n_c)
    a = np.convolve(np.convolve(n_d, np.conj(n_c)), np.convolve(np.conj(d_d), d_c))
    re, im = _trim(a.real), _trim(a.imag)
    stationary = np.polysub(np.convolve(np.polyder(im), re), np.convolve(im, np.polyder(re)))
    return _trim(stationary), im


def _max_conditional_phases(params, bg: BackgroundModel | None = None):
    """Yield :func:`max_conditional_phase` of each parameter set, roots found together."""
    # rates whose products overflow leave inf or nan coefficients: one
    # plain error instead of numpy's warnings and eigvals' complaint
    with np.errstate(all="ignore"):
        polys = [c for p in params for c in _phase_polynomials(p, bg)]
    if polys and not np.isfinite(np.concatenate(polys)).all():
        raise DegenerateModelError("conditional-phase polynomial coefficients are not finite")
    roots = _real_roots(polys)
    for p, stationary, im in zip(params, roots[::2], roots[1::2]):
        # complex roots add only their real parts: extra candidates, never
        # a lost one when rounding lifts a real root off the axis
        omega = p.omega_c + p.kappa_total * _sorted_unique(np.concatenate([stationary, im, [0.0]]))
        empty = replace(p, g=0.0)
        magnitudes = [abs(_relative_phase(p, empty, w, bg)) for w in omega]
        i = int(np.argmax(magnitudes))
        yield float(magnitudes[i]), float(omega[i])


def max_conditional_phase(p: SystemParams, bg: BackgroundModel | None = None):
    """Largest conditional phase magnitude and where it occurs.

    ``r_coupled * conj(r_empty)`` has the phase of the polynomial
    ``A = N_d conj(N_c) conj(D_d) D_c`` in the scaled offset u, since the
    two differ by the positive factor ``|D_d D_c|^2``. The magnitude
    therefore peaks at a root of ``Im(A)' Re(A) - Im(A) Re(A)'``, or
    reaches pi on a root of ``Im(A)`` where ``Re(A) < 0`` (the
    overcoupled cusp at resonance). Those roots and ``omega_c`` are
    evaluated with :func:`relative_phase` and the largest wins, the lowest
    energy on ties. The returned magnitude lies in [0, pi]. This is the
    one-point case of :func:`sweep_kappa`: the roots come from one stacked
    ``eigvals`` per polynomial length, identical to :func:`numpy.roots`.
    """
    return next(_max_conditional_phases([p], bg))


def sweep_kappa(base: SystemParams, kappa_values) -> list:
    """One :class:`DesignPoint` per top-mirror rate, at zero detuning.

    g, kappa_side, gamma and omega_c are held fixed and the dot sits at
    omega_c, whatever ``base.omega_qd``; output is sorted by kappa. Points
    where kappa is within 10% of 4*g are logged as matching the kappa/4 ~ g
    guideline. The phase polynomials of every kappa are built first and
    their roots found with one stacked ``eigvals`` per polynomial length,
    identical to :func:`numpy.roots` on each.
    """
    kappas = sorted(float(k) for k in np.asarray(kappa_values, dtype=float))
    params = [replace(base, kappa_top=kappa, omega_qd=base.omega_c) for kappa in kappas]
    points = []
    for p, (magnitude, argmax) in zip(params, _max_conditional_phases(params)):
        refl = float(np.abs(reflection_amplitude(p, omega=p.omega_c)) ** 2)
        point = DesignPoint(p, magnitude, argmax, refl, feasible=magnitude > 0.5 * np.pi)
        if abs(p.kappa_top - 4.0 * base.g) <= 0.1 * 4.0 * base.g:
            logger.info("kappa=%.4g matches the kappa/4 ~ g guideline", p.kappa_top)
        points.append(point)
    return points


def interface_feasible(point: DesignPoint) -> bool:
    """True iff the maximal conditional phase exceeds pi/2."""
    return point.max_conditional_phase > 0.5 * np.pi
