"""Coupled quantum-dot / pillar-microcavity reflection model.

All energies and rates are in ueV with hbar = 1, so energies and angular
frequencies are interchangeable. The probe drives the cavity through the
top mirror only; sidewall scattering, absorption and transmission through
the bottom mirror are lumped into a single extra loss rate. The measured
signal adds a coherent, spectrally flat field of un-modematched light,
which dilutes the dip depth and phase; :class:`ChannelRecord` holds the
interferometer's detector intensities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DegenerateModelError",
    "SystemParams",
    "Spectrum",
    "BackgroundModel",
    "ChannelRecord",
    "reflection_amplitude",
    "apply_background",
    "measured_intensity",
    "polariton_eigenvalues",
    "rabi_splitting",
    "coupling_regime",
    "q_factor",
]

_DENOMINATOR_FLOOR = 1e-300


class DegenerateModelError(ValueError):
    """Raised when the response denominator underflows to zero (for the
    derivatives, also where its square does), or when a design output or a
    table to be written is not finite."""


@dataclass(frozen=True)
class SystemParams:
    """Rate and energy constants of the coupled dot-cavity system (ueV).

    Attributes
    ----------
    g : float
        Dot-cavity field coupling rate.
    kappa_top : float
        Photon decay rate through the top mirror (the outcoupling port).
    kappa_side : float
        All other photon loss (sidewalls, absorption, bottom mirror).
    gamma : float
        Linewidth of the quantum dot transition.
    omega_c : float
        Cavity resonance energy.
    omega_qd : float, optional
        Quantum dot transition energy; defaults to ``omega_c`` (zero
        detuning). The empty cavity is the same parameters with g = 0.
    """

    g: float
    kappa_top: float
    kappa_side: float
    gamma: float
    omega_c: float
    omega_qd: float | None = None

    def __post_init__(self):
        # stored as Python floats through the instance dict, past the frozen check: a numpy
        # scalar would take numpy's complex scalar arithmetic, which rounds otherwise than CPython's
        stored = self.__dict__
        if stored["omega_qd"] is None:
            stored["omega_qd"] = stored["omega_c"]
        for name in PARAM_FIELDS:
            value = stored[name]
            if not math.isfinite(value):  # TypeError for a value that is not a real number
                raise ValueError(f"{name} must be finite, got {float(value)}")
            if type(value) is not float:
                stored[name] = float(value)
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.kappa_top <= 0:
            raise ValueError(f"kappa_top must be > 0, got {self.kappa_top}")
        if self.kappa_side < 0:
            raise ValueError(f"kappa_side must be >= 0, got {self.kappa_side}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if self.omega_qd <= 0:
            raise ValueError(f"omega_qd must be > 0, got {self.omega_qd}")

    @property
    def kappa_total(self) -> float:
        return self.kappa_top + self.kappa_side


# the six model field names, in declaration order
PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))


@dataclass(frozen=True)
class Spectrum:
    """Ordered frequency grid with one real value per point, both stored as
    float64 arrays. Complex values raise ``ValueError`` when the spectrum is
    built, so no reader of a spectrum checks for them."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        if np.iscomplexobj(self.values):
            raise ValueError("spectrum values must be real, got complex values")
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or values.ndim != 1:
            raise ValueError("omega and values must be one-dimensional")
        if omega.size != values.size:
            raise ValueError(
                f"length mismatch: {omega.size} omega vs {values.size} values"
            )
        if omega.size < 2:
            raise ValueError("a spectrum needs at least 2 points")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega grid must be finite")
        if not np.all(np.diff(omega) > 0):
            raise ValueError("omega grid must be strictly increasing")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.omega.size


@dataclass(frozen=True)
class BackgroundModel:
    """Coherent un-modematched admixture: intensity fraction and phase."""

    fraction: float
    phase: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.fraction < 1.0):
            raise ValueError(f"background fraction must be in [0, 1), got {self.fraction}")
        if not np.isfinite(self.phase):
            raise ValueError("background phase must be finite")

    @property
    def field(self) -> complex:
        return np.sqrt(self.fraction) * np.exp(1j * self.phase)


@dataclass(frozen=True)
class ChannelRecord:
    """Detector intensities at one probe energy (or arrays over a grid).

    Normalization: a far-detuned unit signal gives h = 1 when the
    background is absent. Every field must be real and every channel
    non-negative; either fault raises ``ValueError`` when the record is
    built. The fields are stored as given.
    """

    omega: float
    h: float
    v: float
    d: float
    a: float

    def __post_init__(self):
        for name in ("omega", "h", "v", "d", "a"):
            value = getattr(self, name)
            if np.iscomplexobj(value):
                raise ValueError(f"channel {name} must be real, got complex values")
            if name != "omega" and (bad := np.asarray(value) < 0).any():
                raise ValueError(f"channel {name} must be non-negative, {_not_met_at(self.omega, bad)}")


def _not_met_at(omega, bad) -> str:
    """``not met at omega = ... ueV``, naming the first energy where the mask ``bad`` holds."""
    omega, bad = np.broadcast_arrays(omega, bad)
    return f"not met at omega = {float(omega[bad][0])!r} ueV"


def _underflows(x):
    """Whether ``|x|`` falls below the denominator floor anywhere.

    A plain comparison for a scalar, one ``.any()`` for an array.
    """
    small = abs(x) < _DENOMINATOR_FLOOR
    return small.any() if isinstance(small, np.ndarray) else small


def _quotient(a, b):
    """CPython's complex ``a / b``, elementwise over arrays: Smith's division,
    which divides by ``denom`` where numpy multiplies by its reciprocal."""
    swap = np.abs(b.real) < np.abs(b.imag)  # Smith's second branch
    p, q = np.where(swap, b.imag, b.real), np.where(swap, b.real, b.imag)
    s, t = np.where(swap, a.imag, a.real), np.where(swap, a.real, a.imag)
    ratio = q / p
    denom = p + q * ratio
    out = np.empty(s.shape, dtype=complex)  # s spans the broadcast of a and b
    out.real = (s + t * ratio) / denom
    out.imag = np.where(swap, s * ratio - t, t - s * ratio) / denom
    return out


def _response(g, kappa_top, kappa_side, gamma, omega_c, omega_qd, omega):
    """``(n, D, exact)`` with r = 1 - kappa_top n / D, for :func:`_reflection`.

    Normally n = d_qd and D = d_qd d_c + g^2; g == 0 gives the empty cavity
    n = 1, D = d_c, whatever omega_qd and gamma are. Where D underflows with
    g > 0 (g * g vanishing beside a vanishing d_qd), the whole array takes
    the form divided by d_qd, and ``exact`` is False: n = 1 and
    D = d_c + g (g / d_qd), by Smith's division since 1 / d_qd overflows for
    a subnormal d_qd, and n = 0, D = 1 where d_qd = 0 (the dot alone
    reflects). Raises :class:`DegenerateModelError` where the denominator
    in use underflows.
    """
    d_c = 1j * (omega_c - omega) + 0.5 * (kappa_top + kappa_side)
    if g == 0:
        if _underflows(d_c):
            raise DegenerateModelError("cavity response denominator underflow")
        return 1.0, d_c, True
    d_qd = 1j * (omega_qd - omega) + 0.5 * gamma
    den = d_qd * d_c + g * g
    if not _underflows(den):
        return d_qd, den, True
    resonant = d_qd == 0
    with np.errstate(over="ignore"):
        den = d_c + g * _quotient(g, np.where(resonant, 1.0, d_qd))
    if np.any(~resonant & (np.abs(den) < _DENOMINATOR_FLOOR)):
        raise DegenerateModelError("coupled response denominator underflow")
    return np.where(resonant, 0.0, 1.0)[()], np.where(resonant, 1.0, den)[()], False


def _reflection(kappa_top, response):
    """r = 1 - kappa_top n / D from a :func:`_response` triple."""
    n, den, _ = response
    return 1.0 - kappa_top * n / den


def _amplitude_partials(g, kappa_top, response, columns):
    """Closed-form partial derivatives of :func:`_reflection`.

    ``response`` is the :func:`_response` triple at the point; ``columns``
    index (g, kappa_top, kappa_side, gamma, omega_c, omega_qd), and one
    partial shaped like ``omega`` is returned per index, in order. With
    ``q = n / D`` they are 2 g kappa_top q / D, kappa_top q^2 / 2 - q,
    kappa_top q^2 / 2, -kappa_top g^2 / (2 D^2), i kappa_top q^2 and
    -i kappa_top g^2 / D^2, the g, gamma and omega_qd columns being exact
    zeros for g == 0.

    Raises :class:`DegenerateModelError` where the response is not exact
    (also where :func:`_reflection` has a value, at an underflowing g * g
    beside d_qd = 0) and where D^2 underflows: the derivatives are
    unbounded there, dr/dgamma alone being about kappa_top / g^2.
    """
    n, den, exact = response
    den2 = den * den
    if not exact or (g != 0 and _underflows(den2)):
        raise DegenerateModelError(
            "coupled response denominator underflow: derivatives unbounded"
            " (dr/dgamma ~ kappa_top / g^2)"
        )
    q = n / den
    loss = kappa_top * q * q
    if g == 0:
        dg = coupling = np.zeros_like(q)
    else:
        dg = 2.0 * g * kappa_top * q / den
        coupling = kappa_top * g * g / den2
    formulas = (lambda: dg, lambda: 0.5 * loss - q, lambda: 0.5 * loss,
                lambda: -0.5 * coupling, lambda: 1j * loss, lambda: -1j * coupling)
    return tuple(formulas[k]() for k in columns)


def reflection_amplitude(p: SystemParams, omega):
    """Complex reflection amplitude r(omega) of the driven system.

    The single-sided input-output relation for a two-level emitter coupled
    to a lossy cavity mode, probed through the top mirror:

        r = 1 - kappa_top * (i*(omega_qd - omega) + gamma/2) / D
        D = (i*(omega_qd - omega) + gamma/2)
            * (i*(omega_c - omega) + (kappa_top + kappa_side)/2) + g**2

    Parameters
    ----------
    p : SystemParams
        With g = 0 the amplitude reduces to the empty cavity.
    omega : float or ndarray
        Probe energy (ueV).

    Returns
    -------
    complex or ndarray of complex
    """
    response = _response(p.g, p.kappa_top, p.kappa_side, p.gamma, p.omega_c, p.omega_qd, omega)
    return _reflection(p.kappa_top, response)


def apply_background(r, bg: BackgroundModel):
    """Mix a coherent, frequency-flat background field into ``r``.

    Returns ``sqrt(b)*exp(i*phase) + sqrt(1-b)*r`` with b the intensity
    fraction of un-modematched light in the collected signal.
    """
    return bg.field + np.sqrt(1.0 - bg.fraction) * np.asarray(r, dtype=complex)


def measured_intensity(p: SystemParams, omega, bg: BackgroundModel | None = None):
    """Recorded intensity |sqrt(b)*e^{i*phase} + sqrt(1-b)*r(omega)|^2; without
    ``bg``, the reflectivity |r(omega)|^2, in [0, 1] for any passive parameters."""
    r = reflection_amplitude(p, omega=omega)
    if bg is not None:
        r = apply_background(r, bg)
    return np.abs(r) ** 2


def polariton_eigenvalues(p: SystemParams):
    """Complex energies of the two dressed states.

    Eigenvalues of ``[[omega_qd - i*gamma/2, g], [g, omega_c - i*K/2]]``
    with K the total cavity loss, ordered by ascending real part (ties by
    ascending imaginary part). With g = 0 they are the bare dot and cavity
    energies.
    """
    a = p.omega_qd - 0.5j * p.gamma
    b = p.omega_c - 0.5j * p.kappa_total
    mean = 0.5 * (a + b)
    half = 0.5 * (a - b)
    s = np.sqrt(complex(half * half + p.g * p.g))
    lo, hi = mean - s, mean + s
    if (lo.real, lo.imag) > (hi.real, hi.imag):
        lo, hi = hi, lo
    return lo, hi


def rabi_splitting(p: SystemParams) -> float:
    """Real-part separation of the dressed states at zero detuning.

    Returns 0 when the discriminant is non-positive (weak coupling, the
    dressed energies collapse onto the common resonance).
    """
    disc = p.g * p.g - (p.kappa_total - p.gamma) ** 2 / 16.0
    if disc <= 0:
        return 0.0
    return 2.0 * np.sqrt(disc)


def coupling_regime(p: SystemParams) -> str:
    """Classify as ``"strong"`` iff g > (kappa_top + kappa_side + gamma)/4."""
    return "strong" if p.g > (p.kappa_total + p.gamma) / 4.0 else "weak"


def q_factor(p: SystemParams) -> float:
    """Quality factor omega_c / (kappa_top + kappa_side)."""
    return p.omega_c / p.kappa_total
