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
from dataclasses import dataclass

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


def _amplitudes(g, kappa_top, kappa_side, gamma, omega_c, omega_qd, omega):
    """Coupled and empty-cavity amplitudes ``(r_d, r_c)`` at each point of a
    flat ``omega``, the rates scalars or flat arrays as long: the chain of
    :func:`reflection_amplitude` with every complex product and quotient
    rounded as CPython rounds scalars, so an array gives the bits of
    per-point calls."""
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
    return r_d, r_c


def _conditional_phases(g, kappa_top, kappa_side, gamma, omega_c, omega_qd, omega, bg):
    """:func:`relative_phase` at each ``omega``, the rates scalars or flat
    arrays as long, from one pass of :func:`_amplitudes`."""
    shape = np.shape(omega)
    r_d, r_c = _amplitudes(g, kappa_top, kappa_side, gamma, omega_c, omega_qd, np.asarray(omega, dtype=float).ravel())
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


def _zero_noise(rows, scale):
    """``rows`` with each row's leading rounding noise set to zero: every
    coefficient before the first at least 1e-12 of the row's ``scale``."""
    lead = np.argmax(np.abs(rows) >= 1e-12 * scale[:, None], axis=1)
    return np.where(np.arange(rows.shape[1]) < lead[:, None], 0.0, rows)


def _real_roots(stack):
    """``np.roots(row).real`` of each row of the 2-D ``stack``, bit for bit.

    Row k's roots fill the start of row k of the result, which is one
    column narrower than ``stack``; the rest is nan. Leading zeros are
    stripped, so rows may be zero-padded in front, and trailing zeros are
    roots at zero after the others, as in :func:`numpy.roots`; the
    companion matrices of one size share one ``eigvals`` call.
    """
    stack = np.asarray(stack, dtype=np.result_type(stack, 0.0))
    n = stack.shape[1]
    nonzero = stack != 0
    found = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    degree = np.where(found, n - 1 - np.argmax(nonzero[:, ::-1], axis=1) - first, 0)
    roots = np.zeros((stack.shape[0], n - 1))
    roots[np.arange(n - 1) >= np.where(found, n - 1 - first, 0)[:, None]] = np.nan
    for d in set(degree.tolist()) - {0}:
        rows = np.flatnonzero(degree == d)
        coeffs = stack[rows[:, None], first[rows, None] + np.arange(d + 1)]
        companion = np.tile(np.eye(d, k=-1, dtype=stack.dtype), (rows.size, 1, 1))
        companion[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]
        roots[rows, :d] = np.linalg.eigvals(companion).real
    return roots


def _max_conditional_phases(rates, bg: BackgroundModel | None = None):
    """:func:`max_conditional_phase` of each column of ``rates``, the six
    :data:`PARAM_FIELDS` by K parameter sets, as a list of K pairs.

    The polynomials of all sets are built together, one stacked shifted add
    per coefficient. Leading noise is zeroed rather than cut, so rows of
    every trimmed length share one stack: the products, derivatives and
    roots of a zero-padded row equal those of the cut one bit for bit. The
    candidates of all sets are evaluated in one :func:`_conditional_phases`.
    """
    # rates whose products overflow leave inf or nan coefficients or
    # magnitudes: one plain error instead of numpy's warnings and eigvals'
    # complaint. No yield in here: a suspended generator would leak the
    # error state to its caller
    with np.errstate(all="ignore"):
        n_d, d_d = _coefficient_rows(*rates)
        # the empty cavity, _coefficient_rows' g == 0 rows without their leading zero
        d_c = np.broadcast_to(np.array([-1j, 0.5]), n_d[:, 1:].shape)
        n_c = d_c - np.stack([np.zeros_like(rates[1]), rates[1] / (rates[1] + rates[2])], axis=1)
        if bg is not None:
            scale = np.sqrt(1.0 - bg.fraction)
            n_d = bg.field * d_d + scale * n_d
            n_c = bg.field * d_c + scale * n_c
        a = _polymul(_polymul(n_d, n_c.conj()), _polymul(d_d.conj(), d_c))
        # both parts trim against |A|: a tiny Im(A) keeps no noise as its lead
        re, im = (_zero_noise(c, np.abs(a).max(axis=1)) for c in (a.real, a.imag))
        d_re, d_im = (c[:, :-1] * np.arange(c.shape[1] - 1, 0, -1) for c in (re, im))  # polyder
        stationary = _polymul(d_im, re) - _polymul(im, d_re)
        finite = np.isfinite(a).all(axis=1) & np.isfinite(stationary).all(axis=1)
        if not finite.all():
            raise _not_finite("conditional-phase polynomial coefficients", rates[:, np.argmin(finite)])
        # one stack: the stationarity rows, then the Im(A) rows padded in front
        k = rates.shape[1]
        stack = np.zeros((2 * k, stationary.shape[1]))
        stack[:k] = _zero_noise(stationary, np.abs(stationary).max(axis=1))
        stack[k:, -im.shape[1]:] = im
        # complex roots add only their real parts: extra candidates, never a
        # lost one when rounding lifts a real root off the axis
        roots = _real_roots(stack)
        # an uncoupled dot has r_coupled == r_empty bit for bit, so its
        # roots are rounding noise and omega_c is its one candidate
        roots[np.tile(rates[0] == 0, 2)] = np.nan
        offsets = np.sort(np.hstack([roots[:k], roots[k:], np.zeros((k, 1))]), axis=1)
        omega = rates[4, :, None] + (rates[1] + rates[2])[:, None] * offsets
        # per point, the largest candidate (the first nan, if any; the lowest
        # energy on ties) of a table padded with -1
        valid = ~np.isnan(offsets)
        table = np.full(offsets.shape, -1.0)
        table[valid] = np.abs(_conditional_phases(*np.repeat(rates, valid.sum(axis=1), axis=1), omega[valid], bg))
        best = np.argmax(table, axis=1)
        magnitudes, omega = table[np.arange(k), best], omega[np.arange(k), best]
        finite = np.isfinite(magnitudes) & np.isfinite(omega)
        if not finite.all():
            raise _not_finite("conditional-phase magnitudes", rates[:, np.argmin(finite)])
    return list(zip(magnitudes.tolist(), omega.tolist()))


def _not_finite(what, rates) -> DegenerateModelError:
    named = ", ".join(f"{name}={value!r}" for name, value in zip(PARAM_FIELDS[:4], rates.tolist()))
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
    wins, the lowest energy on ties; an uncoupled dot (g == 0) gives
    ``(0.0, omega_c)``. The returned magnitude lies in [0, pi]
    and equals ``abs(relative_phase(p, argmax, bg))``. This is the one-row
    case of :func:`sweep_kappa`'s batched evaluation; the roots are those of
    :func:`numpy.roots`, bit for bit.
    """
    return _max_conditional_phases(np.array([[getattr(p, name)] for name in PARAM_FIELDS]), bg)[0]


def sweep_kappa(base: SystemParams, kappa_values) -> list:
    """One :class:`DesignPoint` per top-mirror rate, at zero detuning.

    g, kappa_side, gamma and omega_c are held fixed and the dot sits at
    omega_c, whatever ``base.omega_qd``; output is sorted by kappa. Points
    where kappa is within 10% of 4*g are logged as matching the kappa/4 ~ g
    guideline. The phase polynomials of every kappa are built in one pass
    over rate arrays, their roots found with one stacked ``eigvals`` per
    polynomial degree, and the conditional phases at all the candidates of
    all kappas evaluated in one array pass of :func:`relative_phase`; the
    on-resonance amplitudes come from one more pass of that chain. Both
    round as per-point calls do.
    """
    kappas = sorted(float(k) for k in np.asarray(kappa_values, dtype=float))
    rows = [(base.g, kappa, base.kappa_side, base.gamma, base.omega_c, base.omega_c) for kappa in kappas]
    params = [SystemParams(*row) for row in rows]
    if not params:
        return []
    rates = np.array(rows).T
    found = _max_conditional_phases(rates)
    with np.errstate(all="ignore"):  # silent, as CPython's scalar arithmetic is
        r_d, _ = _amplitudes(*rates, rates[4])
    # Python's float ** 2 is libm's pow, as np.float64's is; an array square is x * x
    refl = [r ** 2 for r in np.abs(r_d).tolist()]
    points = []
    for p, (magnitude, argmax), r in zip(params, found, refl):
        points.append(DesignPoint(p, magnitude, argmax, r))
        if abs(p.kappa_top - 4.0 * base.g) <= 0.1 * 4.0 * base.g:
            logger.info("kappa=%.4g matches the kappa/4 ~ g guideline", p.kappa_top)
    return points


def interface_feasible(point: DesignPoint) -> bool:
    """:attr:`DesignPoint.feasible`: the maximal conditional phase exceeds pi/2."""
    return point.feasible
