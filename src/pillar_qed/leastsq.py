"""Damped (Levenberg-Marquardt style) least squares on a residual vector.

Deterministic by construction: the caller supplies the Jacobian, damping
updates follow a fixed schedule, the stopping tolerances are the module
constants below, and no randomness enters anywhere. Accepted steps never
increase the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LeastSquaresResult", "levenberg_marquardt"]

GRAD_TOL = 1e-10
COST_TOL = 1e-12
QUIET_ITERATIONS = 3
MAX_ITERATIONS = 500
_LAMBDA_INIT = 1e-3
_LAMBDA_FLOOR = 1e-12
_LAMBDA_CEIL = 1e15


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    cost: float
    residuals: np.ndarray
    jacobian: np.ndarray
    grad_norm: float
    iterations: int
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason != "max_iterations"


def _clip(x, lower, upper):
    return np.minimum(np.maximum(x, lower), upper)


def _normal_equations(jacobian):
    """``J^T J`` and its diagonal, floored relative to the largest entry or 1."""
    jtj = jacobian.T @ jacobian
    diag = np.diag(jtj)
    return jtj, np.maximum(diag, max(np.max(diag), 1.0) * 1e-14)


def levenberg_marquardt(fun, x0, bounds=None, max_iterations: int = MAX_ITERATIONS) -> LeastSquaresResult:
    """Minimize ``sum(r**2)`` with damped normal equations.

    ``fun(x)`` returns ``(r, jac)``: the residuals at ``x`` and a callable
    whose ``jac()`` forms the Jacobian there, one column per parameter,
    called once at the start and at each accepted point, never at a trial.

    The damping multiplies the diagonal of J^T J (with a floor that also
    regularizes singular normal equations), so the step interpolates
    between Gauss-Newton and scaled gradient descent. A trial step is
    accepted only if it lowers the cost; otherwise the damping grows.

    Convergence:
      * gradient norm below ``GRAD_TOL`` (immediate), or
      * relative cost decrease below ``COST_TOL`` on ``QUIET_ITERATIONS``
        successive iterations, or
      * no damped step improves the cost even at the damping ceiling
        (numerically at an optimum).

    Non-convergence within ``max_iterations`` returns ``converged=False``
    with diagnostics rather than raising. The returned ``jacobian`` and
    ``grad_norm`` are those of the returned ``x``.
    """
    x = np.asarray(x0, dtype=float)
    if bounds is None:
        bounds = (np.full(x.size, -np.inf), np.full(x.size, np.inf))
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    if np.any(lower > upper):
        raise ValueError("lower bounds exceed upper bounds")
    x = _clip(x, lower, upper)

    r, jac = fun(x)
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the starting point")
    cost = float(r @ r)
    lam = _LAMBDA_INIT
    quiet = 0
    iterations = 0
    while True:
        # every stop test runs here, so the result carries the Jacobian
        # and gradient of the point it reports
        jacobian = np.asarray(jac(), dtype=float)
        jtr = jacobian.T @ r
        grad_norm = float(np.linalg.norm(2.0 * jtr))  # doubling is exact: 2 J^T r's bits
        if quiet >= QUIET_ITERATIONS:
            reason = "cost_stall"
            break
        if iterations >= max_iterations:
            reason = "max_iterations"
            break
        iterations += 1
        if grad_norm < GRAD_TOL:
            reason = "gradient"
            break

        jtj, diag = _normal_equations(jacobian)

        accepted = False
        while lam <= _LAMBDA_CEIL:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            x_try = _clip(x + step, lower, upper)
            r_try, jac_try = fun(x_try)
            r_try = np.asarray(r_try, dtype=float)
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                accepted = True
                break
            lam *= 2.0

        if not accepted:
            # No damped step lowers the cost: numerically at an optimum.
            reason = "no_improvement"
            break

        rel_decrease = (cost - cost_try) / max(cost, np.finfo(float).tiny)
        x, r, jac, cost = x_try, r_try, jac_try, cost_try
        lam = max(lam / 3.0, _LAMBDA_FLOOR)
        quiet = quiet + 1 if rel_decrease < COST_TOL else 0

    return LeastSquaresResult(
        x=x,
        cost=cost,
        residuals=r,
        jacobian=jacobian,
        grad_norm=grad_norm,
        iterations=iterations,
        reason=reason,
    )
