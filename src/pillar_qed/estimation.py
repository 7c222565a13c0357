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
from .scattering import PARAM_FIELDS, BackgroundModel, Spectrum, apply_background
from .scattering import _amplitude_partials, _reflection, _response

__all__ = [
    "PARAM_NAMES",
    "FitProblem",
    "FitResult",
    "make_guess",
    "fit",
]

PARAM_NAMES = (*PARAM_FIELDS, "background")
_BACKGROUND = PARAM_NAMES.index("background")

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


@dataclass
class FitProblem:
    """Observed spectra, free-parameter mask and starting point.

    ``guess`` maps every parameter name to a value; other keys are dropped
    with one warning that names them. Parameters not listed in ``free``
    stay fixed at their guess. ``start`` (the guess as a vector in
    ``PARAM_NAMES`` order), ``free_index`` (the positions of ``free`` in
    ``PARAM_NAMES``) and ``bounds`` are computed, not passed in: energies
    are bounded by the observed scan window, ``kappa_top`` by [1e-6, 1e3]
    ueV, the other rates by [0, 1e3] ueV and ``background`` by [0, 0.999].
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
        self.free_index = np.array([PARAM_NAMES.index(n) for n in self.free])
        ignored = [n for n in self.guess if n not in PARAM_NAMES]
        if ignored:
            warnings.warn(f"guess keys that are not fit parameters are ignored: {ignored}", stacklevel=3)
        self.guess = {n: float(v) for n, v in self.guess.items() if n in PARAM_NAMES}
        missing = [n for n in PARAM_NAMES if n not in self.guess]
        if missing:
            raise ValueError(f"missing parameters: {missing}")
        self.start = np.array([self.guess[n] for n in PARAM_NAMES])

        # (omega, blocks) per grid, a block being (values, is_phase, rows):
        # the model is evaluated once per grid, so once for the usual joint
        # fit; rows is a block's slice of the stacked residuals
        self.grids, start = [], 0
        for s, is_phase in observed:
            if not self.grids or not np.array_equal(s.omega, self.grids[-1][0]):
                self.grids.append((s.omega, []))
            self.grids[-1][1].append((s.values, is_phase, slice(start, start + len(s))))
            start += len(s)
        self.n_residuals = start
        ends = [float(w) for s, _ in observed for w in s.omega[[0, -1]]]  # each grid increases
        window = (min(ends), max(ends))
        self.bounds = {**_DEFAULT_BOUNDS, "omega_c": window, "omega_qd": window}
        for name in PARAM_NAMES:
            lo, hi = self.bounds[name]
            if not (lo <= self.guess[name] <= hi):
                raise ValueError(
                    f"guess for {name} ({self.guess[name]}) outside bounds [{lo}, {hi}]"
                )


@dataclass
class FitResult:
    """Recovered parameters and convergence diagnostics; ``residual_norm``
    is the sum of squared residuals at ``params``, not its square root, and
    ``std_errors`` is keyed by the free parameters in ``FitProblem.free`` order.
    ``converged`` means only that the LM stopped on ``gradient``,
    ``cost_stall`` (also: the Gauss-Newton step predicts a relative decrease
    of at most ``leastsq.COST_TOL``) or ``no_improvement`` rather than
    ``max_iterations``, not that the model explains the data: a wrong basin
    can report it."""

    params: dict
    residual_norm: float
    iterations: int
    converged: bool
    reason: str
    std_errors: dict
    covariance_condition: float


def _evaluate(vec: np.ndarray, problem: FitProblem):
    """The residuals (model - observed, stacked over the provided spectra)
    at the parameter vector ``vec`` and its model, one
    ``(response, r, m, |m|^2)`` per grid, for :func:`_jacobian`."""
    g, kap, ks, gam, wc, wqd, b = vec
    out, models = np.empty(problem.n_residuals), []
    for omega, blocks in problem.grids:
        response = _response(g, kap, ks, gam, wc, wqd, omega)
        r = _reflection(kap, response)
        m = r if b == 0.0 else apply_background(r, BackgroundModel(b))
        abs2 = np.abs(m) ** 2
        for values, is_phase, rows in blocks:
            np.subtract(np.angle(m) if is_phase else abs2, values, out=out[rows])
        models.append((response, r, m, abs2))
    return out, models


def _jacobian(vec: np.ndarray, models: list, problem: FitProblem) -> np.ndarray:
    """Closed-form Jacobian of the residuals at ``vec`` from the model
    :func:`_evaluate` returned there, in the free parameters of ``problem``;
    ``background`` is differentiated in s = sqrt(background)."""
    g, kap, *_, b = vec
    columns = problem.free_index
    s, c = np.sqrt(b), np.sqrt(1.0 - b)
    model_columns = [k for k in columns if k != _BACKGROUND]
    # F-ordered on purpose: the LM's jacobian.T @ r rounds by memory order, and fit_report.txt with it
    jacobian = np.empty((problem.n_residuals, len(columns)), order="F")
    for (_, blocks), (response, r, m, abs2) in zip(problem.grids, models):
        dr = _amplitude_partials(g, kap, response, model_columns)
        dm = dict(zip(model_columns, dr if b == 0.0 else [c * d for d in dr]))
        if _BACKGROUND in columns:
            dm[_BACKGROUND] = 1.0 - s / c * r
        m_conj = m.conj()
        # conj(m) dm, shared by the intensity and phase blocks of the grid
        products = [m_conj * dm[k] for k in columns]
        for _, is_phase, rows in blocks:
            if is_phase:
                # np.angle(0) == 0, so the phase is flat where the amplitude vanishes
                scale = np.divide(1.0, abs2, out=np.zeros_like(abs2), where=abs2 > 0)
            for j, product in enumerate(products):
                part, factor = (product.imag, scale) if is_phase else (product.real, 2.0)
                np.multiply(part, factor, out=jacobian[rows, j])
    return jacobian


def _free_residuals(problem: FitProblem):
    """The fit over the free parameters, started and the rest held at ``problem.start``.

    Returns ``(fun, x0, bounds, full)`` in the free coordinates: the free
    parameter values, except that a free ``background`` b enters as
    s = sqrt(b) with bounds on s; ``full(x)`` is the parameter vector at
    ``x``. The admixture s + sqrt(1 - s^2) r has a finite slope at b = 0,
    the default and lower bound, where d/db is infinite.
    """
    x_full, idx = problem.start, problem.free_index
    root = idx == _BACKGROUND

    def free_coordinates(values):
        values = np.array(values, dtype=float)
        values[root] = np.sqrt(values[root])
        return values

    def full(x):
        vec = x_full.copy()  # start itself stays the problem's guess
        vec[idx] = np.where(root, x * x, x)
        return vec

    def fun(x):
        vec = full(x)  # a copy: the Jacobian is that of x as it was here
        out, models = _evaluate(vec, problem)
        return out, lambda: _jacobian(vec, models, problem)

    bounds = np.array([problem.bounds[n] for n in problem.free]).T
    return fun, free_coordinates(x_full[idx]), tuple(map(free_coordinates, bounds)), full


def fit(problem: FitProblem, max_iterations: int = leastsq.MAX_ITERATIONS) -> FitResult:
    """Damped least squares over the free parameters of ``problem``.

    Deterministic: identical problems give bit-identical results. Non-
    convergence is reported through the ``converged`` flag, never raised.
    """
    fun, x0, bounds, full = _free_residuals(problem)
    res = leastsq.levenberg_marquardt(fun, x0, bounds=bounds, max_iterations=max_iterations)
    return FitResult(params=dict(zip(PARAM_NAMES, full(res.x).tolist())), **_assess(problem, res, bounds))


def _assess(problem: FitProblem, res: leastsq.LeastSquaresResult, bounds) -> dict:
    """Every :class:`FitResult` field but ``params``, from the LM's final
    state ``res`` alone: no model is evaluated.

    ``res`` and ``bounds`` are in the free coordinates of
    :func:`_free_residuals`. The standard errors come from the inverse
    (floor-damped) normal equations scaled by the residual variance,
    ``res.cost`` over ``res.residuals.size - len(problem.free)`` degrees of
    freedom; a background error is mapped back from s to b = s^2 as
    2 s sigma_s. Parameters sitting on a bound are flagged infinite.
    """
    free, x = problem.free, res.x
    jtj, diag = leastsq._normal_equations(res.jacobian)
    sigma2 = res.cost / max(res.residuals.size - len(free), 1)
    try:
        if not np.all(np.isfinite(jtj)):  # inv would return NaNs, not raise
            raise np.linalg.LinAlgError("normal equations are not finite")
        cov = sigma2 * np.linalg.inv(jtj + leastsq._LAMBDA_FLOOR * np.diag(diag))
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
    return dict(residual_norm=res.cost, iterations=res.iterations, converged=res.converged, reason=res.reason,
                std_errors=std, covariance_condition=condition)
