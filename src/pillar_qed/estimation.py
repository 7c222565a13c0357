"""Fit the measured-intensity/phase model to spectra.

The forward model composes the reflection amplitude with the coherent
background admixture; intensity and phase blocks can be fit jointly or
separately. Seven parameters are addressable by name: the model's rates
and energies (g, kappa_top, kappa_side, gamma, omega_c, omega_qd) and
background, the intensity fraction of the coherent admixture.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import leastsq
from .scattering import PARAM_FIELDS, BackgroundModel, Spectrum, _amplitude, _amplitude_partials, apply_background

__all__ = [
    "PARAM_NAMES",
    "FitProblem",
    "FitResult",
    "make_guess",
    "residuals",
    "fit",
]

PARAM_NAMES = (*PARAM_FIELDS, "background")

_RATE_BOUNDS = (0.0, 1e3)
_DEFAULT_BOUNDS = {
    "g": _RATE_BOUNDS,
    "kappa_top": (1e-6, 1e3),
    "kappa_side": _RATE_BOUNDS,
    "gamma": _RATE_BOUNDS,
    "background": (0.0, 0.999),
}


def make_guess(p, background: float = 0.0) -> dict:
    """Full parameter dictionary from a :class:`SystemParams`."""
    return {**asdict(p), "background": background}


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
    g, kap, ks, gam, wc, wqd, b = vec
    r = _amplitude(g, kap, ks, gam, wc, wqd, omega)
    return r if b == 0.0 else apply_background(r, BackgroundModel(b))


def _model_partials(vec: np.ndarray, omega):
    """Model amplitude m and a tuple of its partials in the first six
    parameters and in s = sqrt(background)."""
    g, kap, ks, gam, wc, wqd, b = vec
    r, dr = _amplitude_partials(g, kap, ks, gam, wc, wqd, omega)
    s, c = np.sqrt(b), np.sqrt(1.0 - b)
    m = s + c * r if b != 0.0 else r
    return m, tuple(c * d for d in dr) + (1.0 - s / c * r,)


@dataclass
class FitProblem:
    """Observed spectra, free-parameter mask and starting point.

    ``guess`` maps every parameter name to a value; other keys are dropped
    with one warning that names them. Parameters not listed in ``free``
    stay fixed at their guess. ``bounds`` is computed, not
    passed in: energies are bounded by the observed scan window, rates
    by [0, 1e3] ueV.
    """

    guess: dict
    intensity: Spectrum | None = None
    phase: Spectrum | None = None
    free: tuple = ("g", "kappa_top", "kappa_side", "gamma")

    def __post_init__(self):
        observed = [(s, is_phase) for s, is_phase in ((self.intensity, False), (self.phase, True)) if s is not None]
        if not observed:
            raise ValueError("need at least one observed spectrum")
        self.free = tuple(self.free)
        if not self.free:
            raise ValueError("need at least one free parameter")
        unknown = [n for n in self.free if n not in PARAM_NAMES]
        if unknown:
            raise ValueError(f"unknown free parameters: {unknown}")
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"free parameters repeat: {list(self.free)}")
        ignored = [n for n in self.guess if n not in PARAM_NAMES]
        if ignored:
            warnings.warn(f"guess keys that are not fit parameters are ignored: {ignored}", stacklevel=3)
        self.guess = {n: float(v) for n, v in self.guess.items() if n in PARAM_NAMES}
        _as_vector(self.guess)  # completeness check

        # (spectrum, is_phase, new_grid): a block on its predecessor's grid
        # (the usual joint fit) reuses that block's model amplitude
        self.blocks = tuple(
            (s, is_phase, k == 0 or not np.array_equal(s.omega, observed[k - 1][0].omega))
            for k, (s, is_phase) in enumerate(observed)
        )
        omega_all = np.concatenate([s.omega for s, _ in observed])
        window = (float(omega_all.min()), float(omega_all.max()))
        self.bounds = {**_DEFAULT_BOUNDS, "omega_c": window, "omega_qd": window}
        for name in PARAM_NAMES:
            lo, hi = self.bounds[name]
            if not (lo <= self.guess[name] <= hi):
                raise ValueError(
                    f"guess for {name} ({self.guess[name]}) outside bounds [{lo}, {hi}]"
                )

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
    """(model - observed) stacked over the provided spectra."""
    vec = _as_vector(params)
    blocks = []
    for spectrum, is_phase, new_grid in problem.blocks:
        if new_grid:
            m = _model_amplitude(vec, spectrum.omega)
        model = np.angle(m) if is_phase else np.abs(m) ** 2
        blocks.append(model - spectrum.values)
    return np.concatenate(blocks)


def _residual_jacobian(vec: np.ndarray, problem: FitProblem, columns) -> np.ndarray:
    """Closed-form Jacobian of :func:`residuals` in the parameters at
    indices ``columns`` of ``PARAM_NAMES``, with ``background``
    differentiated in s = sqrt(background)."""
    blocks = []
    for spectrum, is_phase, new_grid in problem.blocks:
        if new_grid:
            m, dm = _model_partials(vec, spectrum.omega)
            m_conj = m.conj()
        if is_phase:
            # np.angle(0) == 0, so the phase is flat where the amplitude vanishes
            abs2 = np.abs(m) ** 2
            scale = np.divide(1.0, abs2, out=np.zeros_like(abs2), where=abs2 > 0)
            blocks.append([(m_conj * dm[k]).imag * scale for k in columns])
        else:
            blocks.append([(m_conj * dm[k]).real * 2.0 for k in columns])
    # F-ordered on purpose: the LM's jacobian.T @ r rounds by memory order, and fit_report.txt with it
    return np.array([np.concatenate(rows) for rows in zip(*blocks)]).T


def _free_residuals(problem: FitProblem, params):
    """The fit over the free parameters, the rest held at ``params``.

    Returns ``(fun, jac, x0, bounds, full)`` in the free coordinates: the
    free parameter values, except that a free ``background`` b enters as
    s = sqrt(b) with bounds on s; ``full(x)`` is the parameter vector at
    ``x``. The admixture s + sqrt(1 - s^2) r has a finite slope at b = 0,
    the default and lower bound, where d/db is infinite.
    """
    x_full = _as_vector(params)
    idx = problem.free_indices()
    root = idx == PARAM_NAMES.index("background")

    def free_coordinates(values):
        values = np.array(values, dtype=float)
        values[root] = np.sqrt(values[root])
        return values

    def full(x):
        vec = x_full.copy()
        vec[idx] = np.where(root, x * x, x)
        return vec

    def fun(x):
        return residuals(full(x), problem)

    def jac(x):
        return _residual_jacobian(full(x), problem, idx)

    bounds = np.array([problem.bounds[n] for n in problem.free]).T
    return fun, jac, free_coordinates(x_full[idx]), tuple(map(free_coordinates, bounds)), full


def fit(problem: FitProblem, max_iterations: int = leastsq.MAX_ITERATIONS) -> FitResult:
    """Damped least squares over the free parameters of ``problem``.

    Deterministic: identical problems give bit-identical results. Non-
    convergence is reported through the ``converged`` flag, never raised.
    """
    fun, jac, x0, bounds, full = _free_residuals(problem, problem.guess)
    res = leastsq.levenberg_marquardt(fun, jac, x0, bounds=bounds, max_iterations=max_iterations)
    params = dict(zip(PARAM_NAMES, full(res.x).tolist()))
    std_errors, condition = _std_errors(res.jacobian, res.residuals, res.x, bounds, problem.free)
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


def _std_errors(jacobian, resid, x, bounds, free):
    """Standard errors of the free parameters and the condition of J^T J.

    ``jacobian``, ``x`` and ``bounds`` are in the free coordinates of
    :func:`_free_residuals`. The inverse (floor-damped) normal equations
    are scaled by the residual variance over ``resid.size - len(free)``
    degrees of freedom; a background error is mapped back from s to
    b = s^2 as 2 s sigma_s. Parameters sitting on a bound are flagged
    infinite.
    """
    jtj, diag = leastsq._normal_equations(jacobian)
    sigma2 = float(resid @ resid) / max(resid.size - len(free), 1)
    try:
        cov = sigma2 * np.linalg.inv(jtj + 1e-12 * np.diag(diag))
        errors = np.sqrt(np.maximum(np.diag(cov), 0.0))
        condition = float(np.linalg.cond(jtj))
    except np.linalg.LinAlgError:
        errors = np.full(len(free), np.inf)
        condition = np.inf

    std = {}
    at_bound = []
    for k, name in enumerate(free):
        scale = max(abs(x[k]), 1.0)
        if min(x[k] - bounds[0][k], bounds[1][k] - x[k]) < 1e-12 * scale:
            std[name] = np.inf
            at_bound.append(name)
        elif name == "background":
            std[name] = float(2.0 * x[k] * errors[k])
        else:
            std[name] = float(errors[k])
    if at_bound:
        warnings.warn(f"parameters at bounds, errors flagged infinite: {at_bound}")
    return std, condition
