"""Fit the measured-intensity/phase model to spectra; derived estimators.

The forward model composes the reflection amplitude with the coherent
background admixture; intensity and phase blocks can be fit jointly or
separately. Eight parameters are addressable by name:

    g, kappa_top, kappa_side, gamma, omega_c, omega_qd,
    background (intensity fraction), beta_mag (amplitude calibration
    of the recorded intensity, the reference-arm magnitude it is
    normalized against).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import leastsq
from .interferometer import _edge_baseline
from .scattering import Spectrum, _amplitude

__all__ = [
    "PARAM_NAMES",
    "NoDipError",
    "UnresolvedSplittingError",
    "FitProblem",
    "FitResult",
    "make_guess",
    "residuals",
    "fit",
    "fit_best_of",
    "uncertainty",
    "local_minima",
    "estimate_q_from_linewidth",
    "estimate_g_from_splitting",
]

PARAM_NAMES = (
    "g",
    "kappa_top",
    "kappa_side",
    "gamma",
    "omega_c",
    "omega_qd",
    "background",
    "beta_mag",
)

_RATE_BOUNDS = (0.0, 1e3)
_DEFAULT_BOUNDS = {
    "g": _RATE_BOUNDS,
    "kappa_top": (1e-6, 1e3),
    "kappa_side": _RATE_BOUNDS,
    "gamma": _RATE_BOUNDS,
    "background": (0.0, 0.999),
    "beta_mag": (1e-3, 10.0),
}


class NoDipError(RuntimeError):
    """Spectrum carries no dip resolvable above the residual scatter."""


class UnresolvedSplittingError(RuntimeError):
    """Fewer than two local minima found in the spectrum."""


def make_guess(p, qd, background: float = 0.0, beta_mag: float = 1.0) -> dict:
    """Full parameter dictionary from model objects."""
    return {
        "g": p.g,
        "kappa_top": p.kappa_top,
        "kappa_side": p.kappa_side,
        "gamma": p.gamma,
        "omega_c": p.omega_c,
        "omega_qd": qd.omega_qd,
        "background": background,
        "beta_mag": beta_mag,
    }


def _as_vector(params) -> np.ndarray:
    if isinstance(params, dict):
        missing = [n for n in PARAM_NAMES if n not in params]
        if missing:
            raise ValueError(f"missing parameters: {missing}")
        return np.array([float(params[n]) for n in PARAM_NAMES])
    vec = np.asarray(params, dtype=float)
    if vec.shape != (len(PARAM_NAMES),):
        raise ValueError(f"parameter vector must have length {len(PARAM_NAMES)}")
    return vec


def _model_amplitude(vec: np.ndarray, omega):
    g, kap, ks, gam, wc, wqd, b, _ = vec
    # finite-difference probes may step just outside [0, 1); clamp so the
    # admixture stays real (one-sided derivative at the boundary)
    b = min(max(b, 0.0), 1.0 - 1e-12)
    r = _amplitude(g, kap, ks, gam, wc, wqd, omega)
    if b != 0.0:
        r = np.sqrt(b) + np.sqrt(1.0 - b) * r
    return r


def model_intensity(vec: np.ndarray, omega):
    m = _model_amplitude(vec, omega)
    return vec[7] ** 2 * np.abs(m) ** 2


def model_phase(vec: np.ndarray, omega):
    return np.angle(_model_amplitude(vec, omega))


@dataclass
class FitProblem:
    """Observed spectra, free-parameter mask, bounds and starting point.

    ``guess`` maps every parameter name to a value; parameters not listed
    in ``free`` stay fixed at their guess. Energy bounds default to the
    observed scan window, rates to [0, 1e3] ueV. Weights default to one
    per point (intensities live in [0, 1] and phases in radians, so the
    blocks are already on comparable scales).
    """

    guess: dict
    intensity: Spectrum | None = None
    phase: Spectrum | None = None
    free: tuple = ("g", "kappa_top", "kappa_side", "gamma")
    bounds: dict = field(default_factory=dict)
    intensity_weights: np.ndarray | None = None
    phase_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.intensity is None and self.phase is None:
            raise ValueError("need at least one observed spectrum")
        self.free = tuple(self.free)
        if not self.free:
            raise ValueError("need at least one free parameter")
        unknown = [n for n in self.free if n not in PARAM_NAMES]
        if unknown:
            raise ValueError(f"unknown free parameters: {unknown}")
        self.guess = {n: float(v) for n, v in self.guess.items()}
        _as_vector(self.guess)  # completeness check

        omega_all = np.concatenate(
            [s.omega for s in (self.intensity, self.phase) if s is not None]
        )
        window = (float(omega_all.min()), float(omega_all.max()))
        merged = dict(_DEFAULT_BOUNDS)
        merged["omega_c"] = window
        merged["omega_qd"] = window
        merged.update(self.bounds)
        self.bounds = merged
        for name in PARAM_NAMES:
            lo, hi = self.bounds[name]
            if not (lo <= self.guess[name] <= hi):
                raise ValueError(
                    f"guess for {name} ({self.guess[name]}) outside bounds [{lo}, {hi}]"
                )

        self.intensity_weights = self._check_weights(self.intensity, self.intensity_weights)
        self.phase_weights = self._check_weights(self.phase, self.phase_weights)
        total = 0.0
        for w in (self.intensity_weights, self.phase_weights):
            if w is not None:
                if np.any(w < 0):
                    raise ValueError("weights must be non-negative")
                total += float(np.sum(w))
        if total == 0:
            raise ValueError("weights must not all be zero")

    @staticmethod
    def _check_weights(spectrum, weights):
        if spectrum is None:
            return None
        if weights is None:
            return np.ones(len(spectrum))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != spectrum.omega.shape:
            raise ValueError("weights must match the spectrum length")
        return weights

    def free_indices(self) -> np.ndarray:
        return np.array([PARAM_NAMES.index(n) for n in self.free])


@dataclass
class FitResult:
    """Recovered parameters and convergence diagnostics."""

    params: dict
    residual_norm: float
    iterations: int
    converged: bool
    reason: str
    std_errors: dict
    covariance_condition: float
    free: tuple


def residuals(params, problem: FitProblem) -> np.ndarray:
    """Weighted (model - observed) stacked over the provided spectra."""
    vec = _as_vector(params)
    blocks = []
    if problem.intensity is not None:
        model = model_intensity(vec, problem.intensity.omega)
        blocks.append(problem.intensity_weights * (model - problem.intensity.values))
    if problem.phase is not None:
        model = model_phase(vec, problem.phase.omega)
        blocks.append(problem.phase_weights * (model - problem.phase.values))
    return np.concatenate(blocks)


def _free_residuals(problem: FitProblem, params):
    """Residuals as a function of the free parameters, the rest held at
    ``params``; returns ``(fun, x0)`` with ``x0`` the free values."""
    x_full = _as_vector(params)
    idx = problem.free_indices()

    def fun(x_free):
        vec = x_full.copy()
        vec[idx] = x_free
        return residuals(vec, problem)

    return fun, x_full[idx]


def fit(problem: FitProblem, max_iterations: int = leastsq.MAX_ITERATIONS) -> FitResult:
    """Damped least squares over the free parameters of ``problem``.

    Deterministic: identical problems give bit-identical results. Non-
    convergence is reported through the ``converged`` flag, never raised.
    """
    fun, x0 = _free_residuals(problem, problem.guess)
    bounds = np.array([problem.bounds[n] for n in problem.free]).T
    res = leastsq.levenberg_marquardt(fun, x0, bounds=bounds, max_iterations=max_iterations)

    params = {n: problem.guess[n] for n in PARAM_NAMES}
    params.update(zip(problem.free, map(float, res.x)))
    std_errors, condition = _std_errors(res.jacobian, res.residuals, problem, params)
    return FitResult(
        params=params,
        residual_norm=res.cost,
        iterations=res.iterations,
        converged=res.converged,
        reason=res.reason,
        std_errors=std_errors,
        covariance_condition=condition,
        free=problem.free,
    )


def _std_errors(jacobian, resid, problem: FitProblem, params: dict):
    """Standard errors of the free parameters and the condition of J^T J.

    The inverse (floor-damped) normal equations are scaled by the residual
    variance over ``resid.size - len(problem.free)`` degrees of freedom;
    parameters sitting on a bound are flagged infinite.
    """
    jtj = jacobian.T @ jacobian
    diag = np.maximum(np.diag(jtj), max(np.max(np.diag(jtj)), 1.0) * 1e-14)
    dof = max(resid.size - len(problem.free), 1)
    sigma2 = float(resid @ resid) / dof
    try:
        cov = sigma2 * np.linalg.inv(jtj + 1e-12 * np.diag(diag))
        errors = np.sqrt(np.maximum(np.diag(cov), 0.0))
        condition = float(np.linalg.cond(jtj))
    except np.linalg.LinAlgError:
        errors = np.full(len(problem.free), np.inf)
        condition = np.inf

    std = {}
    at_bound = []
    for k, name in enumerate(problem.free):
        lo, hi = problem.bounds[name]
        scale = max(abs(params[name]), 1.0)
        if min(params[name] - lo, hi - params[name]) < 1e-12 * scale:
            std[name] = np.inf
            at_bound.append(name)
        else:
            std[name] = float(errors[k])
    if at_bound:
        warnings.warn(f"parameters at bounds, errors flagged infinite: {at_bound}")
    return std, condition


def fit_best_of(problem: FitProblem, guesses, max_iterations: int = leastsq.MAX_ITERATIONS) -> FitResult:
    """Run the fit from several starting points and keep the best.

    A deliberately simple multi-start helper: each guess is a full
    parameter dictionary; the converged result with the lowest residual
    norm wins (falling back to the best non-converged one if none
    converge). No global optimization beyond this.
    """
    guesses = list(guesses)
    if not guesses:
        raise ValueError("need at least one starting point")
    results = [
        fit(replace(problem, guess=dict(g)), max_iterations=max_iterations) for g in guesses
    ]
    converged = [r for r in results if r.converged]
    pool = converged if converged else results
    return min(pool, key=lambda r: r.residual_norm)


def uncertainty(result: FitResult, problem: FitProblem) -> dict:
    """Standard errors of the free parameters at a converged solution.

    Recomputes the Jacobian at the fitted point and scales the inverse
    (floor-damped) normal equations by the residual variance. Read the
    values together with ``covariance_condition``: an ill-conditioned
    normal matrix makes them lower bounds at best. Parameters sitting on
    a bound are flagged infinite.
    """
    if not result.converged:
        raise ValueError("uncertainty requires a converged fit result")
    fun, x = _free_residuals(problem, result.params)
    jacobian = leastsq.central_difference_jacobian(fun, x)
    std, _ = _std_errors(jacobian, fun(x), problem, result.params)
    return std


def local_minima(omega, values):
    """Interior local minima refined by a three-point parabola.

    Returns a list of (position, interpolated value) sorted by position;
    a strict minimum whose three points fix no parabola (zero
    denominator) is reported at the grid point itself.
    """
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    i = np.flatnonzero((values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])) + 1
    x0, x1, x2 = omega[i - 1], omega[i], omega[i + 1]
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    with np.errstate(divide="ignore", invalid="ignore"):
        xv = x1 - 0.5 * num / den
        # parabola value at the vertex via Lagrange form
        yv = (
            y0 * (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
            + y1 * (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
            + y2 * (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1))
        )
    xv, yv = np.where(den == 0, (x1, y1), (xv, yv))
    return list(zip(xv.tolist(), yv.tolist()))


def _lorentzian_dip(omega, center, fwhm, depth, baseline):
    half = 0.5 * fwhm
    return baseline - depth * half * half / ((omega - center) ** 2 + half * half)


def estimate_q_from_linewidth(s: Spectrum, omega_c_guess: float) -> float:
    """Quality factor from a four-parameter Lorentzian dip fit.

    Fits (center, fwhm, depth, baseline) to the spectrum and returns
    center / fwhm. Raises :class:`NoDipError` when the fitted depth does
    not stand at least three residual scatters above the noise.
    """
    omega = s.omega
    values = np.asarray(s.values, dtype=float)
    baseline0 = _edge_baseline(values)
    depth0 = baseline0 - float(np.min(values))
    span = float(omega[-1] - omega[0])
    minima = local_minima(omega, values)
    center0 = min(minima, key=lambda m: m[1])[0] if minima else float(omega_c_guess)

    # half-depth crossing width as the linewidth starting point
    below = omega[values < baseline0 - 0.5 * depth0]
    fwhm0 = float(below[-1] - below[0]) if below.size >= 2 else span / 10.0
    fwhm0 = min(max(fwhm0, float(np.min(np.diff(omega)))), span)

    x0 = np.array([center0, fwhm0, max(depth0, 1e-12), baseline0 if baseline0 > 0 else 1.0])
    lower = np.array([omega[0], float(np.min(np.diff(omega))) * 0.1, 0.0, 1e-12])
    upper = np.array([omega[-1], 10.0 * span, 10.0 * max(baseline0, 1.0), 10.0 * max(baseline0, 1.0)])

    def fun(x):
        return _lorentzian_dip(omega, *x) - values

    res = leastsq.levenberg_marquardt(fun, x0, bounds=(lower, upper))
    center, fwhm, depth, _ = res.x
    scatter = max(float(np.std(res.residuals)), 1e-9 * max(baseline0, 1.0))
    if depth < 3.0 * scatter:
        raise NoDipError(
            f"fitted depth {depth:.3e} below 3x residual scatter {scatter:.3e}"
        )
    return float(center / fwhm)


def _dip_separation(s: Spectrum) -> float:
    """Separation of the two deepest local minima of a spectrum.

    Raises :class:`UnresolvedSplittingError` when fewer than two exist.
    """
    minima = local_minima(s.omega, s.values)
    if len(minima) < 2:
        raise UnresolvedSplittingError(f"found {len(minima)} local minima, need 2")
    deepest = sorted(minima, key=lambda m: m[1])[:2]
    positions = sorted(m[0] for m in deepest)
    return positions[1] - positions[0]


def estimate_g_from_splitting(s: Spectrum) -> float:
    """Half the separation of the two deepest reflectivity minima.

    A deliberately naive estimator: dip positions sit outside the dressed
    state energies, so this overestimates the coupling compared with a
    full fit. Raises :class:`UnresolvedSplittingError` when two minima
    cannot be found.
    """
    return 0.5 * _dip_separation(s)
