"""Damped (Levenberg-Marquardt style) least squares on a residual vector.

Deterministic by construction: the Jacobian is a central difference with a
fixed relative step, damping updates follow a fixed schedule, the stopping
tolerances are the module constants below, and no randomness enters
anywhere. Accepted steps never increase the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LeastSquaresResult", "central_difference_jacobian", "levenberg_marquardt"]

REL_STEP = 1e-6
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
    converged: bool
    reason: str


def central_difference_jacobian(fun, x) -> np.ndarray:
    """Jacobian of ``fun`` at ``x`` by central differences.

    Per-parameter step ``REL_STEP * max(|x_j|, 1)``; probes are evaluated
    as given (no bound clipping) so the difference stays symmetric.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.size):
        h = REL_STEP * max(abs(x[j]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append((np.asarray(fun(xp), dtype=float) - np.asarray(fun(xm), dtype=float)) / (2.0 * h))
    return np.column_stack(columns)


def _clip(x, lower, upper):
    return np.minimum(np.maximum(x, lower), upper)


def levenberg_marquardt(fun, x0, bounds=None, max_iterations: int = MAX_ITERATIONS) -> LeastSquaresResult:
    """Minimize ``sum(fun(x)**2)`` with damped normal equations.

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

    r = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the starting point")
    cost = float(r @ r)
    lam = _LAMBDA_INIT
    quiet = 0
    iterations = 0
    while True:
        # every stop test runs here, so the result carries the Jacobian
        # and gradient of the point it reports
        jac = central_difference_jacobian(fun, x)
        grad_norm = float(np.linalg.norm(2.0 * jac.T @ r))
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

        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        floor = max(np.max(diag), 1.0) * 1e-14
        diag = np.maximum(diag, floor)
        jtr = jac.T @ r

        accepted = False
        while lam <= _LAMBDA_CEIL:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            x_try = _clip(x + step, lower, upper)
            r_try = np.asarray(fun(x_try), dtype=float)
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
        x, r, cost = x_try, r_try, cost_try
        lam = max(lam / 3.0, _LAMBDA_FLOOR)
        quiet = quiet + 1 if rel_decrease < COST_TOL else 0

    return LeastSquaresResult(
        x=x,
        cost=cost,
        residuals=r,
        jacobian=jac,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=reason != "max_iterations",
        reason=reason,
    )
