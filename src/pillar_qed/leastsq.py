"""Damped (Levenberg-Marquardt style) least squares on a residual vector.

Deterministic: the caller supplies residuals and Jacobian as float64 arrays,
used as given; damping follows a fixed schedule, the stopping tolerances are
the module constants below, and nothing is random. Accepted steps never
increase the cost. A fit stops once the Gauss-Newton step predicts a relative
decrease of at most ``COST_TOL`` (MINPACK's test), before any trial there.
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
    evaluations: int
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

    ``fun(x)`` returns ``(r, jac)``: the float64 residual vector at ``x``
    and a callable whose ``jac()`` returns the float64 Jacobian there, one
    column per parameter, called once at the start and at each accepted
    point, never at a trial. Neither is converted or copied.

    The damping multiplies the diagonal of J^T J (with a floor that also
    regularizes singular normal equations), so the step interpolates
    between Gauss-Newton and scaled gradient descent. A trial step is
    accepted only if it lowers the cost; otherwise the damping grows.
    Steps are clipped to ``bounds``. A parameter on a bound that ``-J^T r``
    points out of is pinned for the iteration: the decrement and every
    damped step leave out its column, so an optimum on a bound ends in
    ``cost_stall`` there, not in clipped steps up to ``max_iterations``.

    Convergence:
      * gradient norm below ``GRAD_TOL`` (immediate), or
      * ``cost_stall``: the floor-damped Gauss-Newton step ``d`` predicts a
        relative decrease ``J^T r . d`` of at most ``COST_TOL``, or the cost
        falls by less on ``QUIET_ITERATIONS`` successive iterations, or
      * no damped step improves the cost even at the damping ceiling
        (numerically at an optimum).

    Non-convergence within ``max_iterations`` returns ``converged=False``
    with diagnostics rather than raising. The returned ``jacobian`` and
    ``grad_norm`` are those of the returned ``x``; ``evaluations`` counts
    the calls of ``fun``.
    """
    x = np.asarray(x0, dtype=float)
    if bounds is None:
        bounds = (np.full(x.size, -np.inf), np.full(x.size, np.inf))
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    if np.any(lower > upper):
        raise ValueError("lower bounds exceed upper bounds")
    x = _clip(x, lower, upper)

    r, jac = fun(x)
    evaluations = 1
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the starting point")
    cost = float(r @ r)
    lam = _LAMBDA_INIT
    quiet = 0
    iterations = 0
    while True:
        # every stop test runs here, so the result carries the Jacobian
        # and gradient of the point it reports
        jacobian = jac()
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
        # a parameter pinned at a bound gets a zero step
        free = ~(((x <= lower) & (jtr > 0)) | ((x >= upper) & (jtr < 0)))
        jtj, diag, g = jtj[np.ix_(free, free)], diag[free], jtr[free]
        try:  # the Gauss-Newton step's predicted decrease bounds every damped step's
            decrement = float(g @ np.linalg.solve(jtj + _LAMBDA_FLOOR * np.diag(diag), g))
        except np.linalg.LinAlgError:
            decrement = np.inf
        if np.isfinite(decrement) and decrement <= COST_TOL * cost:
            reason = "cost_stall"
            break

        step = np.zeros_like(x)
        while lam <= _LAMBDA_CEIL:
            try:
                step[free] = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            x_try = _clip(x + step, lower, upper)
            r_try, jac_try = fun(x_try)
            evaluations += 1
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                break
            lam *= 2.0
        else:  # no damped step lowers the cost: numerically at an optimum
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
        evaluations=evaluations,
        reason=reason,
    )
