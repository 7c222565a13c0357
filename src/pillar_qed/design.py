"""Conditional phase and outcoupling-rate design sweeps.

The conditional phase compares the reflection with the dot coupled
against the empty cavity, the same parameters with g = 0. A spin-photon
interface wants this difference to exceed pi/2; raising the top-mirror
rate past the parasitic loss flips the sign of the empty-cavity
on-resonance amplitude and buys a pi conditional phase at resonance, at
the price of reflectivity.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .scattering import (
    PARAM_FIELDS,
    BackgroundModel,
    DegenerateModelError,
    SystemParams,
    _quotient,
    reflection_amplitude,
)

__all__ = [
    "DesignPoint",
    "relative_phase",
    "max_conditional_phase",
    "sweep_kappa",
]


@dataclass(frozen=True)
class DesignPoint:
    """Figure of merit of one parameter set at zero dot-cavity detuning."""

    params: SystemParams
    max_conditional_phase: float
    argmax_omega: float
    on_resonance_reflectivity: float

    def __post_init__(self):
        if not (0.0 <= self.max_conditional_phase <= math.pi + 1e-12):
            raise ValueError("max conditional phase must lie in [0, pi]")
        if not (0.0 <= self.on_resonance_reflectivity <= 1.0 + 1e-12):
            raise ValueError("reflectivity must lie in [0, 1]")

    @property
    def feasible(self) -> bool:
        """True iff the maximal conditional phase exceeds pi/2."""
        return bool(self.max_conditional_phase > 0.5 * math.pi)


def relative_phase(p: SystemParams, omega, bg: BackgroundModel | None = None):
    """Principal-valued phase of the coupled amplitude relative to the empty one.

    ``angle(r_coupled * conj(r_empty))`` in (-pi, pi], per point; the empty
    cavity is ``p`` with g = 0. It is taken as the angle of the exact ratio
    ``1 + eps / P(u)`` (:func:`_phase_polynomials`), free of cancellation.
    A scalar ``omega`` gives a float, an array the bits of per-point calls;
    a phase that is not finite raises :class:`DegenerateModelError`. A call
    costs tens of microseconds of numpy dispatch whatever the size of
    ``omega``, some 50 times a scalar :func:`reflection_amplitude`, so pass
    the energies of a loop as one array.
    """
    rates = np.array([[getattr(p, name)] for name in PARAM_FIELDS])
    omega = np.asarray(omega, dtype=float)
    with np.errstate(all="ignore"):
        phi = _phases(_phase_polynomials(rates, bg), ((omega - p.omega_c) / p.kappa_total).ravel())
    if not np.isfinite(phi).all():
        raise _not_finite("conditional phases", rates[:, 0])
    return phi.reshape(omega.shape) if omega.ndim else float(phi[0])


def _polymul(a, b):
    """Row-wise products of stacked polynomials ``a`` (K, m) and ``b`` (K, n)."""
    terms = a[:, :, None] * b[:, None, :]
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1), dtype=terms.dtype)
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += terms[:, i]
    return out


def _polyval(rows, u):
    """Complex coefficients along the last axis, highest power first, at real ``u`` (any dtype)."""
    out = rows[..., 0]
    for i in range(1, rows.shape[-1]):
        out = out * u + rows[..., i]
    return out


def _phase_polynomials(rates, bg: BackgroundModel | None = None):
    """``(P, N'_c, q, s t, eps)`` of each column of ``rates`` (the six
    :data:`PARAM_FIELDS` by K sets), coefficients highest power first. In
    the offset ``u = (omega - omega_c) / k``, with ``k = kappa_top +
    kappa_side``, ``t = kappa_top / k`` and ``G = (g / k)^2``: ``d_c = -i u
    + 1/2``, ``N_c = d_c - t``, ``d_qd = -i u + q`` and ``D_d = d_qd d_c +
    G``, so ``r_d - r_c = t G / (d_c D_d)``. With a background ``r' = f + s
    r``, ``r'_d / r'_c = 1 + eps / P(u)`` exactly, where ``P = N'_c D_d``,
    ``N'_c = f d_c + s N_c`` and ``eps = s t G``. ``s t`` is 0 for g == 0.
    """
    g, kappa_top, kappa_side, gamma, omega_c, omega_qd = rates
    k = kappa_top + kappa_side
    t, coupling = kappa_top / k, (g / k) ** 2
    q = 0.5 * gamma / k + 1j * ((omega_qd - omega_c) / k)
    s, f = (1.0, 0.0) if bg is None else (np.sqrt(1.0 - bg.fraction), bg.field)
    n_c = (f + s) * np.array([-1j, 0.5]) - t[:, None] * [0.0, s]
    d_d = np.empty((q.size, 3), dtype=complex)
    d_d[:, 0], d_d[:, 1], d_d[:, 2] = -1.0, -1j * q - 0.5j, 0.5 * q + coupling
    return _polymul(n_c, d_d), n_c, q, s * np.where(g > 0, t, 0.0), s * t * coupling


def _phases(polys, u):
    """``angle(1 + w)`` in (-pi, pi] (the -pi edge reads +pi), ``w = eps /
    P(u)``, at each ``u``, from :func:`_phase_polynomials` output that
    broadcasts against it. Where ``d_qd = 0`` the dot alone reflects, ``r_d =
    1`` however small G is, so ``w = s t / N'_c``; where ``N'_c = 0``
    (critical coupling at resonance) the empty cavity does not reflect and
    the phase is 0. Smith's division keeps a subnormal ``P`` finite."""
    p, n_c, q, st, eps = polys
    z = u.astype(complex)  # what complex * real casts u to, cast once
    n_u = _polyval(n_c, z)
    num, den = eps, _polyval(p, z)
    if not q.real.all():  # d_qd = 0 needs a lossless dot
        dark = (q.real == 0) & (q.imag == u)
        num, den = np.where(dark, st, eps), np.where(dark, n_u, den)
    phi = np.angle(1.0 + _quotient(num, den))  # arctan2(imag, real)
    return np.where(n_u == 0, 0.0, np.where(phi == -np.pi, np.pi, phi))


def _real_roots(stack):
    """The real parts of the roots of each row of the 2-D ``stack``, as a
    multiset, with :func:`numpy.roots`' conventions.

    Row k's roots fill the start of row k of the result, which is one
    column narrower than ``stack``; the rest is 0. Leading zeros are
    stripped, so rows may be zero-padded in front, and trailing zeros are
    roots at zero, as in :func:`numpy.roots`; the companion matrices of
    one size share one ``eigvals`` call. A row whose nonzero coefficients
    sit only at even offsets from its leading one, and span less than
    2**100, is a polynomial in ``v = u**2``: its roots are the real parts
    of both complex square roots of each root in v, at half the degree.
    Any other row gets ``np.roots(row).real`` bit for bit.
    """
    stack = np.asarray(stack, dtype=np.result_type(stack, 0.0))
    n = stack.shape[1]
    nonzero = stack != 0
    first = nonzero.argmax(axis=1)
    degree = (nonzero * np.arange(n)).argmax(axis=1) - first  # last nonzero - first; 0 for a zero row
    size = np.abs(stack)
    even = ~(nonzero & ((np.arange(n) - first[:, None]) % 2 == 1)).any(axis=1)
    # a wider spread of roots would square past what eigvals resolves in v
    step = 1 + (even & (np.where(nonzero, size, np.inf).min(axis=1) > 2.0**-100 * size.max(axis=1)))
    roots = np.zeros((stack.shape[0], n - 1))
    for d, s in {(d, s) for d, s in zip(degree.tolist(), step.tolist()) if d}:
        rows, m = np.flatnonzero((degree == d) & (step == s)), d // s
        coeffs = stack[rows[:, None], first[rows, None] + s * np.arange(m + 1)]
        found = -coeffs[:, 1:] / coeffs[:, :1]  # the one root of a 1 x 1 companion
        if m > 1:
            companion = np.zeros((rows.size, m, m), dtype=stack.dtype)
            companion.reshape(rows.size, m * m)[:, m::m + 1] = 1.0  # the subdiagonal
            companion[:, 0] = found
            found = np.linalg.eigvals(companion)
        if s == 2:
            found = np.sqrt(found.astype(complex)).real
            found = np.concatenate([found, -found], axis=1)
        roots[rows, :d] = found.real
    return roots


def _max_conditional_phases(rates, bg: BackgroundModel | None = None):
    """:func:`max_conditional_phase` of each column of ``rates`` (the six
    :data:`PARAM_FIELDS` by K sets) as a list of K pairs, in one pass."""
    # overflowing rates leave inf or nan coefficients or magnitudes: one plain
    # error, no numpy warning (no yield in here: it would leak the errstate)
    with np.errstate(all="ignore"):
        polys = _phase_polynomials(rates, bg)
        p, eps = polys[0], polys[-1]
        conj, shifted = p.conj(), p.conj()  # conj(P + eps) up to signs of zeros, which no sum keeps
        shifted[:, -1] += eps
        stationary = _polymul(_polymul(p[:, :-1] * [3.0, 2.0, 1.0], conj), shifted).imag
        finite = np.isfinite(p).all(axis=1) & np.isfinite(eps) & np.isfinite(stationary).all(axis=1)
        if not finite.all():
            raise _not_finite("conditional-phase polynomial coefficients", rates[:, np.argmin(finite)])
        # per set, a stationarity row and an Im(P) row: complex roots add their
        # real parts, and the zeros that pad Im(P)'s at most 3 roots are
        # omega_c, the one candidate where eps == 0
        k = rates.shape[1]
        stack = np.zeros((k, 2, stationary.shape[1]))
        stack[:, 0], stack[:, 1, -p.shape[1]:] = stationary, p.imag
        stack[eps == 0] = 0.0
        offsets = _real_roots(stack.reshape(2 * k, -1)).reshape(k, -1)
        if bg is None:  # |phi| is even in u at zero detuning: ties go below omega_c
            np.copysign(offsets, -1.0, out=offsets, where=(rates[5] == rates[4])[:, None])
        offsets.sort(axis=1)
        width = rates[1] + rates[2]
        omega = rates[4, :, None] + width[:, None] * offsets
        # per set, the largest candidate at its rounded omega (the first nan,
        # if any; the lowest energy on ties)
        phases = np.abs(_phases([x[:, None] for x in polys], (omega - rates[4, :, None]) / width[:, None]))
        best = np.argmax(phases, axis=1)
        magnitudes, omega = phases[np.arange(k), best], omega[np.arange(k), best]
        finite = np.isfinite(magnitudes) & np.isfinite(omega)
        if not finite.all():
            raise _not_finite("conditional-phase magnitudes", rates[:, np.argmin(finite)])
    return list(zip(magnitudes.tolist(), omega.tolist()))


def _not_finite(what, rates) -> DegenerateModelError:
    named = ", ".join(f"{name}={float(value)!r}" for name, value in zip(PARAM_FIELDS[:4], rates))
    return DegenerateModelError(f"{what} are not finite at {named}")


def max_conditional_phase(p: SystemParams, bg: BackgroundModel | None = None):
    """Largest conditional phase magnitude and where it occurs.

    The phase ``angle(1 + eps / P(u))`` is stationary at the real roots of
    ``Im(P' conj(P) conj(P + eps))`` (degree 8; a quartic in ``u**2`` at
    zero detuning without a background) and reaches +-pi only at real
    roots of ``Im(P)`` (degree 3; the overcoupled cusp). Those roots
    and ``omega_c`` are evaluated at their rounded energies and the largest
    wins, the lowest energy on ties; with eps == 0 (g == 0, or G
    underflows) ``omega_c`` is the one candidate. The magnitude lies in
    [0, pi] and equals ``abs(relative_phase(p, argmax, bg))``. A dot
    narrower than about 1e-150 kappa_total can lose its peak, as the
    low-order coefficients underflow; every such lost phase is below 1e-12 rad.
    """
    return _max_conditional_phases(np.array([[getattr(p, name)] for name in PARAM_FIELDS]), bg)[0]


def sweep_kappa(base: SystemParams, kappa_values) -> list:
    """One :class:`DesignPoint` per top-mirror rate, at zero detuning.

    g, kappa_side, gamma and omega_c are held fixed and the dot sits at
    omega_c, whatever ``base.omega_qd``; output is sorted by kappa, and no
    record is logged. The phases of all kappas take one batched pass, each
    point bit for bit :func:`max_conditional_phase`; the on-resonance
    reflectivity is one scalar :func:`reflection_amplitude` per kappa, and
    one that is not finite raises :class:`DegenerateModelError`.
    """
    kappas = sorted(float(k) for k in np.asarray(kappa_values, dtype=float))
    rows = [(base.g, kappa, base.kappa_side, base.gamma, base.omega_c, base.omega_c) for kappa in kappas]
    params = [SystemParams(*row) for row in rows]
    if not params:
        return []
    points = []
    for p, (magnitude, argmax) in zip(params, _max_conditional_phases(np.array(rows).T)):
        # r is real on resonance at zero detuning, where CPython's abs and
        # numpy's agree bit for bit (they differ for complex r)
        refl = float(abs(reflection_amplitude(p, omega=p.omega_c)) ** 2)
        if not math.isfinite(refl):
            raise _not_finite("on-resonance reflectivities", astuple(p))
        points.append(DesignPoint(p, magnitude, argmax, refl))
    return points
