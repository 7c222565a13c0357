"""Closed-form reference for the benchmark's correctness checks.

Everything here is written from the model equations with plain numpy and
never calls ``pillar_qed``, so a defect in the library cannot hide in
its own oracle. Energies are in ueV; the polynomial work is done in the
offset ``x = omega - omega_ref`` to keep the coefficients small.

    r = 1 - kappa_top * d_qd / (d_qd * d_c + g**2)
    d_qd = i*(omega_qd - omega) + gamma/2
    d_c  = i*(omega_c - omega) + (kappa_top + kappa_side)/2
"""

from __future__ import annotations

import numpy as np


def amplitude(g, kappa_top, kappa_side, gamma, omega_c, omega_qd, omega):
    """Reflection amplitude at absolute probe energies ``omega``."""
    omega = np.asarray(omega, dtype=float)
    return amplitude_offset(g, kappa_top, kappa_side, gamma, 0.0, omega_qd - omega_c, omega - omega_c)


def amplitude_offset(g, kappa_top, kappa_side, gamma, c, a, x):
    """Reflection amplitude with every energy given as an offset."""
    d_qd = 1j * (a - x) + 0.5 * gamma
    d_c = 1j * (c - x) + 0.5 * (kappa_top + kappa_side)
    return 1.0 - kappa_top * d_qd / (d_qd * d_c + g * g)


def empty_amplitude_offset(kappa_top, kappa_side, c, x):
    return 1.0 - kappa_top / (1j * (c - x) + 0.5 * (kappa_top + kappa_side))


def reflectivity_minima(g, kappa_top, kappa_side, gamma, omega_c, omega_qd, lo, hi):
    """Exact local minima of |r|^2 on the open interval (lo, hi).

    |r|^2 = |N|^2 / |D|^2 with N, D complex quadratics in x, so its
    stationary points are the real roots of the degree-6 polynomial
    (|N|^2)' |D|^2 - |N|^2 (|D|^2)'. Returns (positions, values) sorted by
    position.
    """
    ref = omega_c
    a = 1j * (omega_qd - ref) + 0.5 * gamma
    c = 1j * (omega_c - ref) + 0.5 * (kappa_top + kappa_side)
    # d_qd = -i x + a, d_c = -i x + c
    den = np.array([-1.0, -1j * (a + c), a * c + g * g])
    num = den - kappa_top * np.array([0.0, -1j, a])
    p = np.real(np.polymul(num, np.conj(num)))
    q = np.real(np.polymul(den, np.conj(den)))
    stationary = np.polysub(
        np.polymul(np.polyder(p), q), np.polymul(p, np.polyder(q))
    )
    roots = np.roots(stationary)
    xs = np.sort(roots[np.abs(roots.imag) < 1e-6 * np.maximum(1.0, np.abs(roots))].real)

    def refl(x):
        return np.polyval(p, x) / np.polyval(q, x)

    # polish each root with Newton steps on the stationary polynomial
    d_stat = np.polyder(stationary)
    for _ in range(3):
        xs = xs - np.polyval(stationary, xs) / np.polyval(d_stat, xs)
    positions, values = [], []
    for x in xs:
        w = x + ref
        if not (lo < w < hi):
            continue
        h = 1e-4 * max(1.0, abs(x))
        if refl(x) < refl(x - h) and refl(x) < refl(x + h):
            positions.append(float(w))
            values.append(float(refl(x)))
    return positions, values


def conditional_phase_offset(g, kappa_top, kappa_side, gamma, x):
    """|angle(r_coupled * conj(r_empty))| at zero detuning, offsets from omega_c."""
    r_d = amplitude_offset(g, kappa_top, kappa_side, gamma, 0.0, 0.0, x)
    r_c = empty_amplitude_offset(kappa_top, kappa_side, 0.0, x)
    return np.abs(np.angle(r_d * np.conj(r_c)))


def max_conditional_phase_grid(g, kappa_top, kappa_side, gamma, points=10000, span_factor=5.0):
    """Largest |conditional phase| on a grid over omega_c +- span.

    The points are the midpoints of ``points`` equal cells, so none of them
    is a point of the library's own 20001-point scan.
    """
    span = span_factor * (kappa_top + kappa_side)
    x = -span + (np.arange(points) + 0.5) * (2.0 * span / points)
    return float(np.max(conditional_phase_offset(g, kappa_top, kappa_side, gamma, x)))
