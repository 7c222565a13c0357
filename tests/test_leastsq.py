import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from pillar_qed.leastsq import levenberg_marquardt

from conftest import central_difference

T_LINEAR = np.linspace(0, 1, 20)
T_EXP = np.linspace(0, 2, 50)


def quadratic_residuals(x):
    # linear model y = a + b*t on a fixed synthetic data set
    y = 2.0 + 3.0 * T_LINEAR
    return x[0] + x[1] * T_LINEAR - y


def quadratic_jacobian(x):
    return np.column_stack([np.ones_like(T_LINEAR), T_LINEAR])


def exponential_residuals(x):
    y = 1.7 * np.exp(-1.3 * T_EXP) + 0.4
    return x[0] * np.exp(-x[1] * T_EXP) + x[2] - y


def exponential_jacobian(x):
    decay = np.exp(-x[1] * T_EXP)
    return np.column_stack([decay, -x[0] * T_EXP * decay, np.ones_like(T_EXP)])


def paired(residuals, jacobian):
    """The ``fun`` that ``levenberg_marquardt`` takes: residuals at x and a
    callable forming the Jacobian there."""
    return lambda x: (residuals(x), lambda: jacobian(x))


class TestJacobian:
    def test_matches_analytic_on_linear_model(self):
        jac = central_difference(quadratic_residuals, np.array([0.5, 0.5]), [1e-6, 1e-6])
        np.testing.assert_allclose(jac, quadratic_jacobian(None), rtol=1e-9, atol=1e-8)

    def test_evaluated_once_at_each_accepted_point(self):
        # the start and every accepted step, in order; never a rejected trial
        evaluated, jacobian_points = [], []

        def fun(x):
            point = x.copy()
            evaluated.append(point)

            def jac():
                jacobian_points.append(point)
                return exponential_jacobian(point)

            return exponential_residuals(x), jac

        res = levenberg_marquardt(fun, np.array([5.0, 5.0, 5.0]))
        accepted, best = [], np.inf
        for x in evaluated:
            cost = float(np.sum(exponential_residuals(x) ** 2))
            if cost < best:
                accepted.append(x)
                best = cost
        assert len(evaluated) > len(accepted) > 2
        assert len(jacobian_points) == len(accepted)
        for a, b in zip(jacobian_points, accepted):
            assert np.array_equal(a, b)
        assert np.array_equal(jacobian_points[-1], res.x)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("max_iterations", [1, 3, 500])
    def test_grad_norm_is_that_of_the_reported_point_bit_for_bit(self, order, max_iterations):
        # the norm of 2 J^T r taken by scaling the whole Jacobian first: the
        # same bits, since doubling is exact, in either memory order
        res = levenberg_marquardt(
            paired(exponential_residuals, lambda x: np.asarray(exponential_jacobian(x), order=order)),
            np.array([5.0, 5.0, 5.0]),
            max_iterations=max_iterations,
        )
        assert res.jacobian.flags[f"{order}_CONTIGUOUS"]
        expected = float(np.linalg.norm(2.0 * res.jacobian.T @ res.residuals))
        assert np.float64(res.grad_norm).tobytes() == np.float64(expected).tobytes()
        assert res.grad_norm > 0.0

    def test_gradient_consistency_with_objective(self):
        # 2*J^T r against a direct finite difference of sum(r**2)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(0.3, 2.0, size=3)
            r = exponential_residuals(x)
            jac = exponential_jacobian(x)
            grad = 2.0 * jac.T @ r

            fd = np.empty_like(x)
            for j in range(x.size):
                h = 1e-6 * max(abs(x[j]), 1.0)
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fp = float(np.sum(exponential_residuals(xp) ** 2))
                fm = float(np.sum(exponential_residuals(xm) ** 2))
                fd[j] = (fp - fm) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-4)


class TestLevenbergMarquardt:
    def test_linear_problem_exact(self):
        res = levenberg_marquardt(paired(quadratic_residuals, quadratic_jacobian), np.array([0.0, 0.0]))
        assert res.converged
        np.testing.assert_allclose(res.x, [2.0, 3.0], atol=1e-8)
        assert res.cost < 1e-16

    def test_nonlinear_matches_scipy(self):
        x0 = np.array([1.0, 1.0, 0.0])
        ours = levenberg_marquardt(paired(exponential_residuals, exponential_jacobian), x0)
        reference = scipy_least_squares(exponential_residuals, x0)
        assert ours.converged
        np.testing.assert_allclose(ours.x, reference.x, atol=1e-6)

    def test_monotone_cost_trace(self):
        costs = []
        calls = {"n": 0}

        def fun(x):
            calls["n"] += 1
            r = exponential_residuals(x)
            costs.append((calls["n"], float(r @ r)))
            return r

        levenberg_marquardt(paired(fun, exponential_jacobian), np.array([1.0, 1.0, 0.0]))
        # reconstruct accepted-cost sequence: cost never increases between
        # accepted iterates, which bound the running minimum from above
        running = np.minimum.accumulate([c for _, c in costs])
        assert running[-1] <= costs[0][1]

    def test_accepted_steps_never_increase_cost(self):
        accepted = []

        original = levenberg_marquardt
        # instrument by wrapping fun and tracking the best-so-far when the
        # optimizer moves: monotonicity of accepted iterates
        trace = []

        def fun(x):
            trace.append(np.array(x, dtype=float))
            return exponential_residuals(x)

        res = original(paired(fun, exponential_jacobian), np.array([1.0, 1.0, 0.0]))
        assert res.converged
        # final cost is the global minimum of everything evaluated
        all_costs = [float(np.sum(exponential_residuals(x) ** 2)) for x in trace]
        assert res.cost <= min(all_costs) + 1e-18

    def test_deterministic(self):
        a = levenberg_marquardt(paired(exponential_residuals, exponential_jacobian), np.array([1.0, 1.0, 0.0]))
        b = levenberg_marquardt(paired(exponential_residuals, exponential_jacobian), np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(a.x, b.x)
        assert a.cost == b.cost
        assert a.iterations == b.iterations

    def test_bounds_are_respected(self):
        res = levenberg_marquardt(
            paired(quadratic_residuals, quadratic_jacobian),
            np.array([0.0, 0.0]),
            bounds=(np.array([0.0, 0.0]), np.array([1.5, 10.0])),
        )
        assert res.x[0] <= 1.5 + 1e-12
        assert res.x[0] == pytest.approx(1.5, abs=1e-6)  # pinned at the bound

    def test_start_at_optimum_converges_immediately(self):
        res = levenberg_marquardt(paired(quadratic_residuals, quadratic_jacobian), np.array([2.0, 3.0]))
        assert res.converged
        assert res.iterations <= 2
        np.testing.assert_allclose(res.x, [2.0, 3.0], atol=1e-10)

    def test_nonconvergence_reported_not_raised(self):
        res = levenberg_marquardt(paired(exponential_residuals, exponential_jacobian), np.array([5.0, 5.0, 5.0]), max_iterations=1)
        assert not res.converged
        assert res.reason == "max_iterations"

    def test_crossed_bounds_refused(self):
        with pytest.raises(ValueError, match="^lower bounds exceed upper bounds$"):
            levenberg_marquardt(
                paired(quadratic_residuals, quadratic_jacobian), np.zeros(2), bounds=(np.array([0.0, 1.0]), np.zeros(2))
            )

    def test_non_finite_start_refused(self):
        def nan_residuals(x):
            return np.where(T_LINEAR > 0.5, np.nan, quadratic_residuals(x))

        with pytest.raises(ValueError, match="^residuals are not finite at the starting point$"):
            levenberg_marquardt(paired(nan_residuals, quadratic_jacobian), np.zeros(2))

    def test_singular_normal_equations_handled(self):
        # duplicated parameter makes J^T J exactly singular
        t = np.linspace(0, 1, 10)

        def degenerate(x):
            return (x[0] + x[1]) * t - 2.0 * t

        res = levenberg_marquardt(paired(degenerate, lambda x: np.column_stack([t, t])), np.array([0.0, 0.0]))
        assert res.converged
        assert res.cost < 1e-12


def noisy_exponential_residuals(x):
    # a fixed ripple the model cannot follow: the optimum's cost is not zero
    return exponential_residuals(x) + 0.01 * np.sin(37.0 * T_EXP)


class TestStopOnDecrement:
    """The LM stops once the Gauss-Newton step predicts a relative decrease
    of at most COST_TOL, before it evaluates any trial there."""

    def evaluated(self, residuals, x0, **kwargs):
        points = []

        def fun(x):
            points.append(x.copy())
            return residuals(x), lambda: exponential_jacobian(x)

        return levenberg_marquardt(fun, x0, **kwargs), points

    def test_nonzero_residual_fit_stops_at_its_last_evaluation(self):
        res, points = self.evaluated(noisy_exponential_residuals, np.array([1.0, 1.0, 0.0]))
        assert res.reason == "cost_stall"
        assert res.evaluations == len(points) == res.iterations
        assert np.array_equal(points[-1], res.x)

    def test_zero_residual_fit_still_stops_on_the_gradient(self):
        # on exact data the decrement is about the cost itself
        res, _ = self.evaluated(exponential_residuals, np.array([1.0, 1.0, 0.0]))
        assert res.reason == "gradient"

    def test_restart_at_the_stop_returns_it_unchanged(self):
        res, _ = self.evaluated(noisy_exponential_residuals, np.array([1.0, 1.0, 0.0]))
        again, _ = self.evaluated(noisy_exponential_residuals, res.x)
        assert again.x.tobytes() == res.x.tobytes()
        assert (again.iterations, again.evaluations, again.reason) == (1, 1, "cost_stall")
        capped, _ = self.evaluated(noisy_exponential_residuals, res.x, max_iterations=0)
        assert capped.reason == "max_iterations"

    def test_nan_decrement_is_not_a_stall(self):
        x0 = np.zeros(2)

        def fun(x):
            jacobian = np.full((T_LINEAR.size, 2), np.nan) if np.array_equal(x, x0) else quadratic_jacobian(x)
            return quadratic_residuals(x), lambda: jacobian

        with np.errstate(invalid="ignore"):
            res = levenberg_marquardt(fun, x0)
        assert res.reason == "no_improvement"
        # every damped trial is rejected: lambda doubles from 1e-3 past 1e15 in 60 trials
        assert (res.iterations, res.evaluations) == (1, 61)


class TestQuietIterations:
    def test_cost_stall_after_quiet_iterations(self):
        """With a Jacobian 1e13 times too large, each accepted step lowers
        the cost by about 1e-13 of it, while the Gauss-Newton prediction,
        which does not depend on the Jacobian's scale, stays far above
        COST_TOL: only QUIET_ITERATIONS such steps in a row stop the fit
        (without that rule it runs to max_iterations)."""
        y = 1.0 + 3.0 * T_LINEAR + 0.01 * np.sin(37.0 * T_LINEAR)

        def fun(x):
            return x[0] + x[1] * T_LINEAR - y, lambda: 1e13 * quadratic_jacobian(x)

        res = levenberg_marquardt(fun, np.zeros(2))
        assert (res.reason, res.iterations, res.evaluations) == ("cost_stall", 3, 4)


class TestPinnedAtBound:
    """A parameter on a bound that the descent direction points out of is
    held there, and the other parameters are solved without its column."""

    def test_linear_fit_stops_at_the_constrained_optimum(self):
        # the intercept's optimum, 2, lies beyond its bound 1.5
        res = levenberg_marquardt(
            paired(quadratic_residuals, quadratic_jacobian), np.zeros(2), bounds=(np.zeros(2), np.array([1.5, 10.0]))
        )
        slope = 3.0 + 0.5 * T_LINEAR.sum() / (T_LINEAR @ T_LINEAR)  # the least-squares slope at intercept 1.5
        assert res.reason == "cost_stall"
        assert res.evaluations <= 6  # measured 4; clipping the full step crawled through 1309
        assert res.x[0] == 1.5
        assert res.x[1] == pytest.approx(slope, rel=1e-6)  # a relative decrease of COST_TOL moves it by about its root

    def test_nonlinear_fit_matches_scipy_with_its_offset_pinned(self):
        # the offset's truth, 0.4, lies beyond its bound 0.2
        bounds = (np.zeros(3), np.array([10.0, 10.0, 0.2]))
        x0 = np.array([1.0, 1.0, 0.0])
        res = levenberg_marquardt(paired(exponential_residuals, exponential_jacobian), x0, bounds=bounds)
        ref = scipy_least_squares(
            exponential_residuals, x0, jac=exponential_jacobian, bounds=bounds, xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        assert res.reason == "cost_stall"
        assert res.evaluations <= 32  # measured 26
        assert res.x[2] == 0.2
        np.testing.assert_allclose(res.x, ref.x, rtol=1e-6)
        assert res.cost <= 2.0 * ref.cost * (1 + 1e-12)  # scipy's cost is half the sum of squares

    def test_every_parameter_pinned_stops_without_raising(self):
        start = np.array([1.5, 2.0])  # both optima lie above: the box's corner is the answer
        res = levenberg_marquardt(paired(quadratic_residuals, quadratic_jacobian), start, bounds=(np.zeros(2), start))
        assert (res.reason, res.iterations, res.evaluations) == ("cost_stall", 1, 1)
        assert res.x.tobytes() == start.tobytes()
