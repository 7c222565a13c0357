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
    _DENOMINATOR_FLOOR,
    PARAM_FIELDS,
    DegenerateModelError,
    SystemParams,
    _amplitude_underflow,
    _coefficient_rows,
    _product,
    _quotient,
    _underflows,
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

    def __post_init__(self):
        if not (0.0 <= self.max_conditional_phase <= np.pi + 1e-12):
            raise ValueError("max conditional phase must lie in [0, pi]")
        if not (0.0 <= self.on_resonance_reflectivity <= 1.0 + 1e-12):
            raise ValueError("reflectivity must lie in [0, 1]")

    @property
    def feasible(self) -> bool:
        """True iff the maximal conditional phase exceeds pi/2."""
        return self.max_conditional_phase > 0.5 * np.pi


def _conditional_phases(g, kappa_top, kappa_side, gamma, omega_c, omega_qd, omega, bg):
    """:func:`relative_phase` at each ``omega``, the rates scalars or flat arrays
    as long: the amplitude chain with every complex product and quotient rounded
    as CPython rounds scalars, so an array gives the bits of per-point calls."""
    shape = np.shape(omega)
    omega = np.asarray(omega, dtype=float).ravel()
    d_c = 1j * (omega_c - omega) + 0.5 * (kappa_top + kappa_side)
    if _underflows(d_c):
        raise DegenerateModelError("cavity response denominator underflow")
    r_c = 1.0 - _quotient(kappa_top, d_c)
    d_qd = 1j * (omega_qd - omega) + 0.5 * gamma
    den = _product(d_qd, d_c) + g * g
    empty, low = g == 0, (g != 0) & (np.abs(den) < _DENOMINATOR_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):  # those rows are replaced
        r_d = np.where(empty, r_c, 1.0 - _quotient(_product(kappa_top, d_qd), den))
    if low.any():
        r_d[low] = _amplitude_underflow(*(np.broadcast_to(x, low.shape)[low] for x in (g, kappa_top, d_c, d_qd)))
    if bg is not None:
        r_d, r_c = apply_background(r_d, bg), apply_background(r_c, bg)
    return principal_angle(_product(r_d, r_c.conj()).reshape(shape))


def relative_phase(p: SystemParams, omega, bg: BackgroundModel | None = None):
    """Principal-valued phase of the coupled amplitude relative to the empty one.

    ``angle(r_coupled * conj(r_empty))`` in (-pi, pi], per point; the
    empty cavity is ``p`` with g = 0. A scalar ``omega`` gives a float. An
    array is evaluated in one pass that rounds as CPython's scalar complex
    arithmetic does, so it equals per-point calls bit for bit.
    """
    return _conditional_phases(*(getattr(p, name) for name in PARAM_FIELDS), omega, bg)


def _polymul(a, b):
    """Row-wise products of stacked polynomials ``a`` (K, m) and ``b`` (K, n)."""
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1), dtype=np.result_type(a, b))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i:i + 1] * b
    return out


def _trim(rows, scale):
    """Per row, the index of the first coefficient that did not cancel to
    rounding noise: the first at least 1e-12 of the row's ``scale``."""
    return np.argmax(np.abs(rows) >= 1e-12 * scale[:, None], axis=1)


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


def _max_conditional_phases(params, bg: BackgroundModel | None = None):
    """:func:`max_conditional_phase` of each parameter set, as a list.

    The polynomials of all sets are built together, one stacked shifted add
    per coefficient, and grouped by the trimmed lengths of ``Re(A)`` and
    ``Im(A)`` for the stationarity step; the roots are found together, and
    the candidates of all sets evaluated in one :func:`_conditional_phases`.
    """
    if not params:
        return []
    rates = np.array([[getattr(p, name) for p in params] for name in PARAM_FIELDS], dtype=float)
    # rates whose products overflow leave inf or nan coefficients or
    # magnitudes: one plain error instead of numpy's warnings and eigvals'
    # complaint. No yield in here: a suspended generator would leak the
    # error state to its caller
    with np.errstate(all="ignore"):
        n_d, d_d = _coefficient_rows(*rates)
        n_c, d_c = (c[:, 1:] for c in _coefficient_rows(np.zeros_like(rates[0]), *rates[1:]))
        if bg is not None:
            scale = np.sqrt(1.0 - bg.fraction)
            n_d = bg.field * d_d + scale * n_d
            n_c = bg.field * d_c + scale * n_c
        a = _polymul(_polymul(n_d, n_c.conj()), _polymul(d_d.conj(), d_c))
        # both parts trim against |A|: a tiny Im(A) keeps no noise as its lead
        groups, size = {}, np.abs(a).max(axis=1)
        for row, key in enumerate(zip(_trim(a.real, size).tolist(), _trim(a.imag, size).tolist())):
            groups.setdefault(key, []).append(row)
        polys, finite = [None] * (2 * len(params)), np.isfinite(a).all(axis=1)
        for (i_re, i_im), rows in groups.items():
            re, im = a.real[rows, i_re:], a.imag[rows, i_im:]
            d_re, d_im = (c[:, :-1] * np.arange(c.shape[1] - 1, 0, -1) for c in (re, im))  # polyder
            stationary = _polymul(d_im, re) - _polymul(im, d_re)
            finite[rows] &= np.isfinite(stationary).all(axis=1)
            leads = _trim(stationary, np.abs(stationary).max(axis=1))
            for row, s, lead, c in zip(rows, stationary, leads, im):
                polys[2 * row:2 * row + 2] = s[lead:], c
        if not finite.all():
            raise _not_finite("conditional-phase polynomial coefficients", params[int(np.argmin(finite))])
        # complex roots add only their real parts: extra candidates, never a
        # lost one when rounding lifts a real root off the axis
        roots = _real_roots(polys)
        offsets = [sorted({*s.tolist(), *im.tolist(), 0.0}) for s, im in zip(roots[::2], roots[1::2])]
        counts = [len(o) for o in offsets]
        columns = np.repeat(rates, counts, axis=1)
        omega = columns[4] + (columns[1] + columns[2]) * np.concatenate(offsets)
        magnitudes = np.abs(_conditional_phases(*columns, omega, bg))
        # per point, the largest candidate (the first nan, if any; the lowest
        # energy on ties) of a table padded with -1
        table = np.full((len(params), max(counts)), -1.0)
        table[np.arange(table.shape[1]) < np.array(counts)[:, None]] = magnitudes
        best = np.cumsum([0] + counts[:-1]) + np.argmax(table, axis=1)
        finite = np.isfinite(magnitudes[best]) & np.isfinite(omega[best])
        if not finite.all():
            raise _not_finite("conditional-phase magnitudes", params[int(np.argmin(finite))])
    return list(zip(magnitudes[best].tolist(), omega[best].tolist()))


def _not_finite(what, p: SystemParams) -> DegenerateModelError:
    named = ", ".join(f"{name}={getattr(p, name)!r}" for name in PARAM_FIELDS[:4])
    return DegenerateModelError(f"{what} are not finite at {named}")


def max_conditional_phase(p: SystemParams, bg: BackgroundModel | None = None):
    """Largest conditional phase magnitude and where it occurs.

    ``r_coupled * conj(r_empty)`` has the phase of the polynomial
    ``A = N_d conj(N_c) conj(D_d) D_c`` in the scaled offset u, since the
    two differ by the positive factor ``|D_d D_c|^2``. The magnitude
    therefore peaks at a root of ``Im(A)' Re(A) - Im(A) Re(A)'``, or
    reaches pi on a root of ``Im(A)`` where ``Re(A) < 0`` (the
    overcoupled cusp at resonance). Those roots and ``omega_c`` are
    evaluated in one array pass of :func:`relative_phase` and the largest
    wins, the lowest energy on ties. The returned magnitude lies in [0, pi]
    and equals ``abs(relative_phase(p, argmax, bg))``. This is the one-row
    case of :func:`sweep_kappa`'s batched evaluation; the roots are those of
    :func:`numpy.roots`, bit for bit.
    """
    return _max_conditional_phases([p], bg)[0]


def sweep_kappa(base: SystemParams, kappa_values) -> list:
    """One :class:`DesignPoint` per top-mirror rate, at zero detuning.

    g, kappa_side, gamma and omega_c are held fixed and the dot sits at
    omega_c, whatever ``base.omega_qd``; output is sorted by kappa. Points
    where kappa is within 10% of 4*g are logged as matching the kappa/4 ~ g
    guideline. The phase polynomials of every kappa are built in one pass
    over rate arrays, their roots found with one stacked ``eigvals`` per
    polynomial length, and the conditional phases at all the candidates of
    all kappas evaluated in one array pass of :func:`relative_phase`, which
    rounds as per-point calls do.
    """
    kappas = sorted(float(k) for k in np.asarray(kappa_values, dtype=float))
    params = [replace(base, kappa_top=kappa, omega_qd=base.omega_c) for kappa in kappas]
    points = []
    for p, (magnitude, argmax) in zip(params, _max_conditional_phases(params)):
        refl = float(np.abs(reflection_amplitude(p, omega=p.omega_c)) ** 2)
        points.append(DesignPoint(p, magnitude, argmax, refl))
        if abs(p.kappa_top - 4.0 * base.g) <= 0.1 * 4.0 * base.g:
            logger.info("kappa=%.4g matches the kappa/4 ~ g guideline", p.kappa_top)
    return points


def interface_feasible(point: DesignPoint) -> bool:
    """:attr:`DesignPoint.feasible`: the maximal conditional phase exceeds pi/2."""
    return point.feasible
