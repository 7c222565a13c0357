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
