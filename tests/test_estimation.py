import dataclasses

import numpy as np
import pytest

from pillar_qed import (
    BackgroundModel,
    FitProblem,
    Spectrum,
    SystemParams,
    apply_background,
    fit,
    make_guess,
    measured_intensity,
    reflection_amplitude,
)
from pillar_qed import estimation
from pillar_qed.estimation import PARAM_NAMES, FitResult, _assess, _free_residuals
from pillar_qed.scattering import _response

from conftest import DEVICE, central_difference, grid_around, model_steps

RATES = ("g", "kappa_top", "kappa_side", "gamma")


def device():
    return SystemParams(**DEVICE)


def synthetic_intensity(p, n=2001, half_span=100.0):
    grid = grid_around(p.omega_c, half_span, n)
    return Spectrum(grid, measured_intensity(p, grid))


def model_spectra(vec, grid):
    """Intensity and phase of the fit model at the parameter vector ``vec``
    (ordered as ``PARAM_NAMES``), built through the public synthesis path."""
    m = apply_background(reflection_amplitude(SystemParams(*vec[:6]), grid), BackgroundModel(vec[6]))
    return np.abs(m) ** 2, np.angle(m)


def residuals_at(params, problem):
    """The fit's residuals at the parameter dictionary ``params``."""
    return estimation._evaluate(np.array([params[n] for n in PARAM_NAMES]), problem)[0]


def reference_jacobian(vec, problem, columns):
    """The Jacobian of the residuals by the formulas the fit used before it
    reused the residual call's model: all seven partials of the measured
    amplitude formed afresh at ``vec``, every model partial scaled by
    sqrt(1 - b), ``conj(m) dm`` formed per block, the columns stacked and
    transposed into F order. The oracle for bit-for-bit comparisons."""
    g, kap, ks, gam, wc, wqd, b = vec
    blocks = []
    for omega, grid_blocks in problem.grids:
        n, den, _ = _response(g, kap, ks, gam, wc, wqd, omega)
        r = 1.0 - kap * n / den
        q = n / den
        if g == 0:
            dg = coupling = np.zeros_like(q)
        else:
            dg = 2.0 * g * kap * q / den
            coupling = kap * g * g / (den * den)
        loss = kap * q * q
        dr = (dg, 0.5 * loss - q, 0.5 * loss, -0.5 * coupling, 1j * loss, -1j * coupling)
        root, c = np.sqrt(b), np.sqrt(1.0 - b)
        m = root + c * r if b != 0.0 else r
        dm = tuple(c * d for d in dr) + (1.0 - root / c * r,)
        m_conj = m.conj()
        for _, is_phase, _ in grid_blocks:
            if is_phase:
                abs2 = np.abs(m) ** 2
                scale = np.divide(1.0, abs2, out=np.zeros_like(abs2), where=abs2 > 0)
                blocks.append([(m_conj * dm[k]).imag * scale for k in columns])
            else:
                blocks.append([(m_conj * dm[k]).real * 2.0 for k in columns])
    return np.array([np.concatenate(rows) for rows in zip(*blocks)]).T


class TestResiduals:
    def test_zero_at_generating_parameters(self):
        p = device()
        problem = FitProblem(guess=make_guess(p), intensity=synthetic_intensity(p))
        np.testing.assert_allclose(estimation._evaluate(problem.start, problem)[0], 0.0, atol=1e-14)

    def test_single_point_hand_value(self):
        p = device()
        omega = np.array([p.omega_c, p.omega_c + 10.0])
        observed = Spectrum(omega, np.array([0.5, 0.6]))
        problem = FitProblem(guess=make_guess(p), intensity=observed)
        r = estimation._evaluate(problem.start, problem)[0]
        # on-resonance model value substituted by hand:
        # |1 - 1.2*2.5/(2.5*12.95 + 9.4**2)|^2 - 0.5
        assert r[0] == pytest.approx(0.9509217991596723 - 0.5, abs=1e-13)
        inline = abs(
            1 - (1.2 * (2.5 - 10j)) / ((2.5 - 10j) * (12.95 - 10j) + 9.4**2)
        ) ** 2
        assert r[1] == pytest.approx(inline - 0.6, abs=1e-13)

    def test_problem_validation(self):
        p = device()
        with pytest.raises(ValueError):
            FitProblem(guess=make_guess(p))  # no spectra
        with pytest.raises(ValueError):
            FitProblem(guess=make_guess(p), intensity=synthetic_intensity(p), free=())
        bad = make_guess(p)
        bad["g"] = -5.0
        with pytest.raises(ValueError):
            FitProblem(guess=bad, intensity=synthetic_intensity(p))

    def test_incomplete_parameters_refused(self):
        p = device()
        with pytest.raises(ValueError, match=r"^missing parameters: \['kappa_top', "):
            FitProblem(guess={"g": 1.0}, intensity=synthetic_intensity(p))

    @pytest.mark.parametrize("block", ["intensity", "phase"])
    def test_complex_observed_values_refused(self, block):
        # the observed spectrum refuses complex values when it is built, so no fit sees one
        p = device()
        grid = grid_around(p.omega_c, 50.0, 101)
        with pytest.raises(ValueError, match="^spectrum values must be real, got complex values$"):
            FitProblem(guess=make_guess(p), **{block: Spectrum(grid, measured_intensity(p, grid) + 0j)})

    def test_residuals_leave_problem_unchanged(self):
        problem = bit_problem("two_grids", PARAM_NAMES, 0.3)
        before = dict(vars(problem))
        estimation._evaluate(problem.start, problem)
        after = vars(problem)
        assert list(after) == list(before)
        assert all(after[k] is before[k] for k in before)

    def test_guess_keys_that_are_not_parameters_warn_and_drop(self):
        p = device()
        guess = make_guess(p)
        guess["g"] *= 1.2
        observed = synthetic_intensity(p)
        with pytest.warns(UserWarning, match=r"ignored: \['beta_mag', 'kapa_top'\]") as record:
            problem = FitProblem(guess={**guess, "beta_mag": 0.9, "kapa_top": "x"}, intensity=observed)
        assert len(record) == 1
        assert list(problem.guess) == list(PARAM_NAMES)
        assert repr(fit(problem)) == repr(fit(FitProblem(guess=guess, intensity=observed)))


class TestFit:
    def test_noiseless_round_trip_from_perturbed_guess(self):
        p = device()
        observed = synthetic_intensity(p)
        guess = make_guess(p)
        for name, factor in zip(RATES, (1.2, 0.8, 1.2, 0.8)):
            guess[name] *= factor
        problem = FitProblem(guess=guess, intensity=observed)
        result = fit(problem)
        assert result.converged
        truth = make_guess(p)
        for name in RATES:
            assert abs(result.params[name] - truth[name]) / truth[name] < 0.01

    def test_noisy_recovery_median_over_seeds(self):
        p = device()
        clean = synthetic_intensity(p)
        truth = make_guess(p)
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noisy = Spectrum(clean.omega, clean.values * (1 + 0.01 * rng.standard_normal(len(clean))))
            guess = make_guess(p)
            for name, factor in zip(RATES, (1.2, 0.8, 1.2, 0.8)):
                guess[name] *= factor
            result = fit(FitProblem(guess=guess, intensity=noisy))
            assert result.converged
            errors.append([abs(result.params[n] - truth[n]) / truth[n] for n in RATES])
        medians = np.median(np.array(errors), axis=0)
        assert np.all(medians < 0.10)

    def test_guess_at_optimum_is_fixed_point(self):
        p = device()
        problem = FitProblem(
            guess=make_guess(p), intensity=synthetic_intensity(p), free=("g",)
        )
        result = fit(problem)
        assert result.converged
        assert result.iterations <= 2
        assert abs(result.params["g"] - p.g) < 1e-10

    def test_shift_reparameterization(self):
        p = device()
        shift = 3000.0
        observed = synthetic_intensity(p)
        base_guess = make_guess(p)
        for name, factor in zip(RATES, (1.15, 0.85, 1.1, 0.9)):
            base_guess[name] *= factor

        shifted_p = SystemParams(p.g, p.kappa_top, p.kappa_side, p.gamma, p.omega_c + shift)
        shifted_obs = Spectrum(observed.omega + shift, observed.values)
        shifted_guess = dict(base_guess)
        shifted_guess["omega_c"] += shift
        shifted_guess["omega_qd"] += shift

        res = fit(FitProblem(guess=base_guess, intensity=observed))
        res_shifted = fit(FitProblem(guess=shifted_guess, intensity=shifted_obs))
        assert res.converged and res_shifted.converged
        for name in RATES:
            rel = abs(res_shifted.params[name] - res.params[name]) / max(res.params[name], 1e-12)
            assert rel < 1e-8
        assert res_shifted.params["omega_c"] == pytest.approx(res.params["omega_c"] + shift, abs=1e-6)

    def test_deterministic(self):
        p = device()
        guess = make_guess(p)
        guess["g"] *= 1.2
        a = fit(FitProblem(guess=guess, intensity=synthetic_intensity(p)))
        b = fit(FitProblem(guess=guess, intensity=synthetic_intensity(p)))
        assert a.params == b.params
        assert a.residual_norm == b.residual_norm
        assert a.iterations == b.iterations

    def test_guess_converted_once(self):
        # building the problem converts the guess; the fit reuses that vector
        p = device()
        guess = make_guess(p)
        guess["g"] *= 1.2
        problem = FitProblem(guess=guess, intensity=synthetic_intensity(p, n=201))
        assert fit(problem).converged
        # each fit point copies start, so the fit leaves it as built
        assert problem.start.tolist() == [problem.guess[n] for n in PARAM_NAMES]


class TestStopOnDecrement:
    """Criterion 4's ten 1%-noise fits stop on the Gauss-Newton decrement
    at the last point they evaluate: no trial step after convergence."""

    # measured: 5-6 evaluations on these fits, at most 7 on 384 benchmark
    # fits (1% noise, joint intensity and phase), where trials that could
    # not win once took up to 82
    MAX_EVALUATIONS = 8

    @staticmethod
    def lm(problem, x0=None):
        fun, start, bounds, _ = _free_residuals(problem)
        points = []

        def recording(x):
            points.append(x.copy())
            return fun(x)

        start = start if x0 is None else x0
        return estimation.leastsq.levenberg_marquardt(recording, start, bounds=bounds), points

    @pytest.fixture(scope="class")
    def problems(self):
        p = device()
        clean = synthetic_intensity(p)
        guess = make_guess(p)
        for name, factor in zip(RATES, (1.2, 0.8, 1.2, 0.8)):
            guess[name] *= factor
        noisy = [
            Spectrum(clean.omega, clean.values * (1 + 0.01 * np.random.default_rng(seed).standard_normal(len(clean))))
            for seed in range(10)
        ]
        return [FitProblem(guess=guess, intensity=spectrum) for spectrum in noisy]

    def test_no_trial_after_convergence(self, problems):
        for problem in problems:
            res, points = self.lm(problem)
            assert res.reason == "cost_stall"
            assert res.evaluations == len(points) <= self.MAX_EVALUATIONS
            assert np.array_equal(points[-1], res.x)

    def test_background_pinned_at_zero_stops(self):
        # background-free data: s = sqrt(b) is held at its lower bound, where
        # clipping the full step crawled through 1307 evaluations
        problem = bit_problem("joint", FREE_SETS["rates_background"], 0.0)
        res, points = self.lm(problem)
        assert res.reason == "cost_stall"
        assert res.evaluations == len(points) <= self.MAX_EVALUATIONS
        assert res.x[problem.free.index("background")] == 0.0

    @pytest.mark.parametrize("blocks", ["joint", "intensity", "two_grids"])
    def test_rate_pinned_by_a_wrong_fixed_background(self, blocks):
        # background held at 0.24 against a truth of 0.3: kappa_side is
        # driven to 0; measured 53-89 evaluations, 1308 when the step was
        # clipped. The stop is a misfit, not a good fit: its cost is 5-6
        # times that of the same data with the background free, which the
        # LM's stop reason does not show (ROADMAP item 3's misfit test must)
        problem = bit_problem(blocks, FREE_SETS["rates"], 0.3)
        res, _ = self.lm(problem)
        assert res.evaluations <= 100
        assert res.x[problem.free.index("kappa_side")] == 0.0
        honest, _ = self.lm(bit_problem(blocks, FREE_SETS["rates_background"], 0.3))
        assert res.cost > 4.0 * honest.cost

    def test_restart_returns_the_stop_bit_for_bit(self, problems):
        for problem in problems:
            res, _ = self.lm(problem)
            again, points = self.lm(problem, res.x)
            assert again.x.tobytes() == res.x.tobytes()
            assert again.iterations == again.evaluations == len(points) == 1
            assert again.reason == "cost_stall"


class TestUncertainty:
    def test_zero_noise_errors_vanish(self):
        p = device()
        guess = make_guess(p)
        guess["g"] *= 1.1
        problem = FitProblem(guess=guess, intensity=synthetic_intensity(p))
        result = fit(problem)
        for name in RATES:
            assert result.std_errors[name] / result.params[name] < 1e-6

    def test_duplicating_data_shrinks_errors_by_sqrt2(self):
        p = device()
        rng = np.random.default_rng(11)
        clean = synthetic_intensity(p, n=501)
        noisy = clean.values * (1 + 0.01 * rng.standard_normal(len(clean)))
        single = Spectrum(clean.omega, noisy)
        # duplicate every point (tiny grid offset keeps it strictly monotone)
        eps = 1e-9
        omega2 = np.sort(np.concatenate([clean.omega, clean.omega + eps]))
        doubled = Spectrum(omega2, np.repeat(noisy, 2))

        guess = make_guess(p)
        res1 = fit(FitProblem(guess=guess, intensity=single))
        res2 = fit(FitProblem(guess=guess, intensity=doubled))
        for name in RATES:
            ratio = res2.std_errors[name] / res1.std_errors[name]
            assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.05)

    def test_monte_carlo_spread_within_factor_two(self):
        p = device()
        clean = synthetic_intensity(p, n=501)
        guess = make_guess(p)
        fitted, reported = [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = Spectrum(clean.omega, clean.values * (1 + 0.01 * rng.standard_normal(len(clean))))
            result = fit(FitProblem(guess=guess, intensity=noisy))
            fitted.append([result.params[n] for n in RATES])
            reported.append([result.std_errors[n] for n in RATES])
        spread = np.std(np.array(fitted), axis=0)
        typical_reported = np.median(np.array(reported), axis=0)
        for observed, claimed in zip(spread, typical_reported):
            assert claimed / 2 <= observed <= claimed * 2

    @pytest.mark.parametrize(
        "extra, truth_extra",
        [((), {}), (("background",), {"background": 0.3})],
        ids=["intensity", "background"],
    )
    def test_z_scores_have_unit_spread(self, extra, truth_extra):
        # 40 fits at 1% multiplicative noise, each from a start 15-20% off
        # truth: (estimate - truth) / std_error should scatter with unit
        # standard deviation for every free parameter
        rng = np.random.default_rng(0)
        truth = make_guess(device(), **truth_extra)
        grid = grid_around(DEVICE["omega_c"], 100.0, 2001)
        clean, _ = model_spectra(np.array([truth[n] for n in PARAM_NAMES]), grid)
        free = RATES + extra
        z = []
        for _ in range(40):
            noisy = Spectrum(grid, clean * (1 + 0.01 * rng.standard_normal(grid.size)))
            guess = {**truth, **{n: truth[n] * (1 + rng.choice([-1, 1]) * rng.uniform(0.15, 0.2)) for n in free}}
            result = fit(FitProblem(guess=guess, intensity=noisy, free=free))
            assert result.converged
            z.append([(result.params[n] - truth[n]) / result.std_errors[n] for n in free])
        spread = dict(zip(free, np.std(z, axis=0)))
        assert all(0.7 <= s <= 1.4 for s in spread.values()), spread

    def test_joint_intensity_phase_matches_fit_errors(self):
        p = device()
        rng = np.random.default_rng(5)
        clean = synthetic_intensity(p, n=501)
        noise = 0.01 * rng.standard_normal((2, len(clean)))
        intensity = Spectrum(clean.omega, clean.values * (1 + noise[0]))
        phase = Spectrum(clean.omega, np.angle(reflection_amplitude(p, clean.omega)) + noise[1])
        problem = FitProblem(guess=make_guess(p), intensity=intensity, phase=phase)
        result = fit(problem)
        assert result.converged

        # independent covariance: both blocks count towards the degrees of freedom
        x = np.array([result.params[n] for n in RATES])

        def stacked(free):
            return residuals_at({**result.params, **dict(zip(RATES, free))}, problem)

        steps = 1e-6 * np.maximum(np.abs(x), 1.0)
        jac = np.column_stack(
            [(stacked(x + h * e) - stacked(x - h * e)) / (2 * h) for h, e in zip(steps, np.eye(x.size))]
        )
        r = stacked(x)
        sigma2 = (r @ r) / (len(intensity) + len(phase) - len(RATES))
        expected = np.sqrt(np.diag(sigma2 * np.linalg.inv(jac.T @ jac)))
        for name, value in zip(RATES, expected):
            assert result.std_errors[name] == pytest.approx(value, rel=1e-6)

    @staticmethod
    def errors_at(params, problem):
        """Standard errors from the Jacobian taken at ``params``: an LM run
        that stops where it starts."""
        problem = dataclasses.replace(problem, guess=params)
        fun, x, bounds, _ = _free_residuals(problem)
        res = estimation.leastsq.levenberg_marquardt(fun, x, bounds=bounds, max_iterations=0)
        return _assess(problem, res, bounds)["std_errors"]

    def test_cost_stall_errors_taken_at_reported_point(self):
        p = device()
        rng = np.random.default_rng(14)
        clean = synthetic_intensity(p, n=501)
        noisy = Spectrum(clean.omega, clean.values * (1 + 0.01 * rng.standard_normal(len(clean))))
        problem = FitProblem(guess=make_guess(p), intensity=noisy)
        result = fit(problem)
        assert result.reason == "cost_stall"
        assert self.errors_at(result.params, problem) == result.std_errors

    def test_capped_fit_errors_taken_at_reported_point(self):
        p = device()
        guess = make_guess(p)
        guess["g"] *= 1.5
        problem = FitProblem(guess=guess, intensity=synthetic_intensity(p))
        result = fit(problem, max_iterations=1)
        assert not result.converged
        assert result.reason == "max_iterations"
        assert result.params["g"] != guess["g"]
        assert self.errors_at(result.params, problem) == result.std_errors

    def test_background_error_maps_from_square_root(self):
        # a free background is fitted as s = sqrt(b); its reported error
        # must match an independent covariance taken in b itself
        p = device()
        rng = np.random.default_rng(9)
        truth = {**make_guess(p), "background": 0.3}
        grid = grid_around(p.omega_c, 100.0, 501)
        vec = np.array([truth[n] for n in PARAM_NAMES])
        intensity = Spectrum(grid, model_spectra(vec, grid)[0] * (1 + 0.01 * rng.standard_normal(grid.size)))
        free = ("g", "kappa_side", "background")
        guess = {**truth, "g": 11.0, "background": 0.2}
        result = fit(FitProblem(guess=guess, intensity=intensity, free=free))
        assert result.converged
        assert result.params["background"] == pytest.approx(0.3, abs=0.05)

        x = np.array([result.params[n] for n in free])
        problem = FitProblem(guess=result.params, intensity=intensity, free=free)

        def stacked(values):
            return residuals_at({**result.params, **dict(zip(free, values))}, problem)

        jac = central_difference(stacked, x, 1e-6 * np.maximum(np.abs(x), 1.0))
        r = stacked(x)
        sigma2 = (r @ r) / (len(intensity) - len(free))
        expected = np.sqrt(np.diag(sigma2 * np.linalg.inv(jac.T @ jac)))
        for name, value in zip(free, expected):
            assert result.std_errors[name] == pytest.approx(value, rel=1e-5)

    def test_parameter_at_bound_flagged_infinite(self):
        p = device()
        observed = synthetic_intensity(p)
        guess = make_guess(p)
        guess["background"] = 0.0
        problem = FitProblem(
            guess=guess, intensity=observed, free=("g", "background")
        )
        with pytest.warns(UserWarning, match="at bounds"):
            result = fit(problem)
        assert result.std_errors["background"] == np.inf


class TestResidualJacobian:
    """The closed-form Jacobian of the fit against the central-difference oracle."""

    @staticmethod
    def column_errors(vec, rng, n=2001):
        """Worst deviation of each of the seven columns, relative to the
        column's largest entry, on a joint intensity + phase problem."""
        grid = grid_around(1333596.0, 100.0, n)
        intensity, phase = model_spectra(vec, grid)
        problem = FitProblem(
            guess=dict(zip(PARAM_NAMES, vec)),
            intensity=Spectrum(grid, intensity * (1 + 0.01 * rng.standard_normal(n))),
            phase=Spectrum(grid, phase + 0.01 * rng.standard_normal(n)),
            free=PARAM_NAMES,
        )
        fun, x, _, _ = _free_residuals(problem)
        numeric = central_difference(lambda y: fun(y)[0], x, model_steps(x))
        return np.max(np.abs(fun(x)[1]() - numeric), axis=0) / np.max(np.abs(numeric), axis=0)

    def test_device_constants(self):
        rng = np.random.default_rng(2)
        vec = np.array([9.4, 1.2, 24.7, 5.0, 1333596.0, 1333599.0, 0.3])
        errors = self.column_errors(vec, rng)
        assert np.all(errors[[0, 1, 2, 3, 6]] <= 1e-7)
        assert np.all(errors[4:6] <= 1e-6)

    def test_random_parameter_sets(self):
        rng = np.random.default_rng(6)
        worst = np.zeros(len(PARAM_NAMES))
        for _ in range(50):
            wc = 1333596.0 + rng.uniform(-20.0, 20.0)
            vec = np.array([
                rng.uniform(0.5, 30.0), rng.uniform(0.1, 30.0), rng.uniform(0.0, 30.0),
                rng.uniform(0.1, 25.0), wc, wc + rng.uniform(-20.0, 20.0),
                rng.uniform(0.05, 0.8),
            ])
            worst = np.maximum(worst, self.column_errors(vec, rng))
        assert np.all(worst <= 2e-6)

    def test_phase_flat_at_exact_zero_amplitude(self):
        # g^2 = gamma (kappa_top - kappa_side) / 4 makes r(omega_c) exactly 0
        grid = np.linspace(990.0, 1010.0, 201)
        for g, kappa_top, kappa_side, gamma in ((1.0, 2.0, 1.0, 4.0), (0.0, 1.5, 1.5, 4.0)):
            vec = np.array([g, kappa_top, kappa_side, gamma, 1000.0, 1000.0, 0.0])
            intensity, phase = model_spectra(vec, grid)
            assert intensity[100] == 0.0
            problem = FitProblem(
                guess=dict(zip(PARAM_NAMES, vec)),
                phase=Spectrum(grid, phase),
                free=PARAM_NAMES,
            )
            fun, x, _, _ = _free_residuals(problem)
            jacobian = fun(x)[1]()
            assert np.all(np.isfinite(jacobian))
            assert np.all(jacobian[100] == 0.0)

    def test_fortran_ordered(self):
        """The Jacobian is F-contiguous for every block combination.

        ``leastsq.levenberg_marquardt`` forms ``jacobian.T @ r`` and
        ``jacobian.T @ jacobian``, whose last digits depend on the memory
        order; the digits of ``fit_report.txt`` depend on this layout.
        """
        p = device()
        spectrum = synthetic_intensity(p, n=201)
        for blocks in ({"intensity": spectrum}, {"phase": spectrum}, {"intensity": spectrum, "phase": spectrum}):
            problem = FitProblem(guess=make_guess(p), **blocks)
            fun, x, _, _ = _free_residuals(problem)
            jacobian = fun(x)[1]()
            assert jacobian.shape == (len(blocks) * len(spectrum), len(problem.free))
            assert jacobian.flags.f_contiguous and not jacobian.flags.c_contiguous


def bit_problem(blocks, free, background, n=501):
    """A fit problem off its optimum on the device: ``blocks`` names the
    observed spectra ("joint" on one grid, "two_grids" with a coarser
    phase grid, "intensity" or "phase")."""
    rng = np.random.default_rng(30)
    truth = np.array([9.4, 1.2, 24.7, 5.0, 1333596.0, 1333599.0, background])
    grid = grid_around(1333596.0, 100.0, n)
    coarse = grid_around(1333596.0, 80.0, n // 2)
    intensity = Spectrum(grid, model_spectra(truth, grid)[0] * (1 + 0.01 * rng.standard_normal(grid.size)))
    phase_grid = coarse if blocks == "two_grids" else grid
    phase = Spectrum(phase_grid, model_spectra(truth, phase_grid)[1] + 0.01 * rng.standard_normal(phase_grid.size))
    observed = {
        "joint": {"intensity": intensity, "phase": phase},
        "two_grids": {"intensity": intensity, "phase": phase},
        "intensity": {"intensity": intensity},
        "phase": {"phase": phase},
    }[blocks]
    guess = dict(zip(PARAM_NAMES, truth * np.array([1.1, 0.9, 1.05, 1.2, 1.0, 1.0, 0.8])))
    guess["omega_qd"] -= 1.5
    return FitProblem(guess=guess, free=free, **observed)


# the free sets of the fits in scripts/cli_outputs.py, all seven, and one
# whose columns need neither dr/dg nor the g^2 / D^2 coupling term
FREE_SETS = {
    "rates": ("g", "kappa_top", "kappa_side", "gamma"),
    "rates_background": ("g", "kappa_top", "kappa_side", "gamma", "background"),
    "all": PARAM_NAMES,
    "no_coupling": ("kappa_top", "kappa_side", "omega_c", "background"),
}


def assert_same_jacobian(jacobian, reference):
    assert jacobian.shape == reference.shape
    assert jacobian.tobytes() == reference.tobytes()
    assert jacobian.flags.f_contiguous and reference.flags.f_contiguous


class TestJacobianReuse:
    """A fit point's Jacobian is formed from the model its residuals were
    taken from, and only for the free columns: bit for bit the reference
    formula's, in its memory order, and only where the LM accepts."""

    @pytest.mark.parametrize("background", [0.0, 0.3])
    @pytest.mark.parametrize("free", list(FREE_SETS))
    @pytest.mark.parametrize("blocks", ["joint", "two_grids", "intensity", "phase"])
    def test_matches_reference_bit_for_bit(self, blocks, free, background):
        problem = bit_problem(blocks, FREE_SETS[free], background)
        fun, x, _, full = _free_residuals(problem)
        reference = reference_jacobian(full(x), problem, problem.free_index)
        r, jac = fun(x)
        assert r.tobytes() == estimation._evaluate(full(x), problem)[0].tobytes()
        assert_same_jacobian(jac(), reference)
        assert_same_jacobian(jac(), reference)  # forming it consumes nothing

    def test_fit_jacobians_match_reference(self):
        # every Jacobian of a joint seven-parameter fit, at each point LM asks
        problem = bit_problem("joint", PARAM_NAMES, 0.3)
        fun, x, _, full = _free_residuals(problem)
        points = []

        def recording_fun(y):
            r, jac = fun(y)
            vec = full(y)

            def recording_jac():
                jacobian = jac()
                points.append((vec, jacobian))
                return jacobian

            return r, recording_jac

        estimation.leastsq.levenberg_marquardt(recording_fun, x, max_iterations=4)
        assert len(points) == 5
        for vec, jacobian in points:
            assert_same_jacobian(jacobian, reference_jacobian(vec, problem, problem.free_index))

    def test_kept_model_evaluates_no_response(self, monkeypatch):
        problem = bit_problem("two_grids", FREE_SETS["rates"], 0.0)
        fun, x, _, _ = _free_residuals(problem)
        calls = []

        def counting_response(*args):
            calls.append(args)
            return _response(*args)

        monkeypatch.setattr(estimation, "_response", counting_response)
        _, jac = fun(x)
        assert len(calls) == 2  # one per grid
        jac()
        assert len(calls) == 2
        fun(x + 0.5)[1]()
        assert len(calls) == 4

    def test_lm_forms_each_accepted_jacobian_once(self):
        # the LM calls the Jacobian of the start and of each accepted step
        # once, never a rejected trial's; every point's callable still forms
        # that point's Jacobian after later evaluations; from twice the
        # coupling the first damped steps overshoot, so trials are rejected
        problem = bit_problem("joint", FREE_SETS["rates_background"], 0.3)
        problem = dataclasses.replace(problem, guess={**problem.guess, "g": 2.0 * problem.guess["g"]})
        fun, x0, bounds, full = _free_residuals(problem)
        points, jacs, calls = [], [], []

        def counting_fun(x):
            r, jac = fun(x)
            k = len(points)
            points.append((x.copy(), float(r @ r)))
            jacs.append(jac)
            calls.append(0)

            def counting_jac():
                calls[k] += 1
                return jac()

            return r, counting_jac

        res = estimation.leastsq.levenberg_marquardt(counting_fun, x0, bounds=bounds)
        accepted, best = [], np.inf
        for k, (_, cost) in enumerate(points):
            if cost < best:
                accepted.append(k)
                best = cost
        assert len(points) > len(accepted) > 2
        assert np.array_equal(points[accepted[-1]][0], res.x)
        assert calls == [int(k in accepted) for k in range(len(points))]
        for (x, _), jac in zip(points, jacs):
            assert_same_jacobian(jac(), reference_jacobian(full(x), problem, problem.free_index))

    def test_other_point_is_evaluated_afresh(self):
        problem = bit_problem("joint", PARAM_NAMES, 0.3)
        fun, x, _, full = _free_residuals(problem)
        y = x * 1.01
        _, jac_x = fun(x)
        _, jac_y = fun(y)
        assert_same_jacobian(jac_x(), reference_jacobian(full(x), problem, problem.free_index))
        assert_same_jacobian(jac_y(), reference_jacobian(full(y), problem, problem.free_index))

    def test_point_mutated_in_place_is_evaluated_afresh(self):
        problem = bit_problem("joint", FREE_SETS["rates_background"], 0.3)
        fun, x, _, full = _free_residuals(problem)
        reference = reference_jacobian(full(x), problem, problem.free_index)
        _, jac = fun(x)
        x[0] += 0.5
        x[4] *= 0.9
        assert_same_jacobian(jac(), reference)  # keeps the point it was taken at
        assert_same_jacobian(fun(x)[1](), reference_jacobian(full(x), problem, problem.free_index))


class TestAssess:
    """Everything a fit reports beyond its parameters comes from the LM's
    final state, in one post-fit step."""

    @pytest.mark.parametrize("blocks", ["joint", "two_grids"])
    def test_no_model_evaluation_after_lm(self, monkeypatch, blocks):
        problem = bit_problem(blocks, FREE_SETS["rates_background"], 0.3)
        calls, at_lm_return = [], []
        lm = estimation.leastsq.levenberg_marquardt

        def counting_response(*args):
            calls.append(args)
            return _response(*args)

        def recording_lm(*args, **kwargs):
            res = lm(*args, **kwargs)
            at_lm_return.append(len(calls))
            return res

        monkeypatch.setattr(estimation, "_response", counting_response)
        monkeypatch.setattr(estimation.leastsq, "levenberg_marquardt", recording_lm)
        result = fit(problem)
        assert result.iterations > 2
        assert len(at_lm_return) == 1 and at_lm_return[0] > 0
        assert len(calls) == at_lm_return[0]

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    @pytest.mark.parametrize("free", list(FREE_SETS))
    def test_std_errors_keyed_in_free_order(self, free, order, recwarn):
        names = FREE_SETS[free] if order == "forward" else FREE_SETS[free][::-1]
        problem = bit_problem("joint", names, 0.3 if "background" in names else 0.0)
        result = fit(problem)
        assert not recwarn.list  # no parameter at a bound
        assert list(result.std_errors) == list(problem.free) == list(names)

    @staticmethod
    def assess_jacobian(fill):
        """``_assess`` of a hand-built final state at the guess whose
        Jacobian is ``fill(shape)``."""
        problem = bit_problem("joint", FREE_SETS["rates"], 0.0, n=51)
        x = np.array([problem.guess[n] for n in problem.free])
        jacobian = fill((problem.n_residuals, x.size))
        res = estimation.leastsq.LeastSquaresResult(
            x=x, cost=1.0, residuals=np.zeros(problem.n_residuals),
            jacobian=jacobian, grad_norm=np.nan,
            iterations=0, evaluations=1, reason="max_iterations",
        )
        return problem, _assess(problem, res, (x - 1.0, x + 1.0))

    def test_nan_jacobian_gives_infinite_errors(self):
        with np.errstate(invalid="ignore"):
            problem, assessed = self.assess_jacobian(lambda shape: np.full(shape, np.nan))
        assert assessed["std_errors"] == dict.fromkeys(problem.free, np.inf)
        assert assessed["covariance_condition"] == np.inf

    def test_inf_jacobian_gives_infinite_errors_quietly(self, capfd):
        # inv of non-finite normal equations returns NaNs without raising,
        # and LAPACK prints its complaint straight to the process's streams
        def one_inf(shape):
            jacobian = np.ones(shape)
            jacobian[3, 1] = np.inf
            return jacobian

        problem, assessed = self.assess_jacobian(one_inf)
        assert assessed["std_errors"] == dict.fromkeys(problem.free, np.inf)
        assert assessed["covariance_condition"] == np.inf
        assert capfd.readouterr() == ("", "")

    def test_rate_just_inside_its_bound_keeps_a_finite_error(self, recwarn):
        # kappa_top at 1.5e-6 lies 5e-7 above its 1e-6 bound: near it, not on it
        problem = bit_problem("joint", FREE_SETS["rates"], 0.0, n=51)
        x = np.array([problem.guess[n] for n in problem.free])
        x[problem.free.index("kappa_top")] = 1.5e-6
        res = estimation.leastsq.LeastSquaresResult(
            x=x, cost=1.0, residuals=np.zeros(problem.n_residuals),
            jacobian=np.eye(problem.n_residuals, x.size), grad_norm=0.0,
            iterations=1, evaluations=2, reason="cost_stall",
        )
        bounds = tuple(np.array([problem.bounds[n] for n in problem.free]).T)
        assert bounds[0][problem.free.index("kappa_top")] == 1e-6
        std_errors = _assess(problem, res, bounds)["std_errors"]
        assert all(0.0 < error < np.inf for error in std_errors.values())
        assert not recwarn.list  # no "parameters at bounds" warning

    def test_fit_result_fields(self):
        assert [f.name for f in dataclasses.fields(FitResult)] == [
            "params", "residual_norm", "iterations", "converged", "reason", "std_errors", "covariance_condition",
        ]
