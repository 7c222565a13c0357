import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pillar_qed import (
    FitProblem,
    QdState,
    Spectrum,
    SystemParams,
    TuningModel,
    estimate_g_from_splitting,
    estimate_q_from_linewidth,
    fit,
    make_guess,
    reflection_amplitude,
    reflectivity,
    residuals,
    synthesize_scan,
    uncertainty,
)
from pillar_qed.estimation import (
    NoDipError,
    UnresolvedSplittingError,
    fit_best_of,
    local_minima,
    model_intensity,
)

from conftest import DEVICE, grid_around

RATES = ("g", "kappa_top", "kappa_side", "gamma")


def device():
    p = SystemParams(**DEVICE)
    return p, QdState(p.omega_c, coupled=True)


def synthetic_intensity(p, qd, n=2001, half_span=100.0):
    grid = grid_around(p.omega_c, half_span, n)
    return Spectrum(grid, reflectivity(p, qd, grid))


class TestResiduals:
    def test_zero_at_generating_parameters(self):
        p, qd = device()
        problem = FitProblem(guess=make_guess(p, qd), intensity=synthetic_intensity(p, qd))
        np.testing.assert_allclose(residuals(make_guess(p, qd), problem), 0.0, atol=1e-14)

    def test_zero_weights_mask_misfit(self):
        p, qd = device()
        observed = synthetic_intensity(p, qd)
        weights = np.ones(len(observed))
        weights[: len(observed) // 2] = 0.0
        problem = FitProblem(
            guess=make_guess(p, qd), intensity=observed, intensity_weights=weights
        )
        wrong = make_guess(p, qd)
        wrong["g"] = 3.0
        r = residuals(wrong, problem)
        np.testing.assert_array_equal(r[: len(observed) // 2], 0.0)
        assert np.max(np.abs(r[len(observed) // 2 :])) > 0

    def test_single_point_hand_value(self):
        p, qd = device()
        omega = np.array([p.omega_c, p.omega_c + 10.0])
        observed = Spectrum(omega, np.array([0.5, 0.6]))
        problem = FitProblem(guess=make_guess(p, qd), intensity=observed)
        r = residuals(make_guess(p, qd), problem)
        # on-resonance model value substituted by hand:
        # |1 - 1.2*2.5/(2.5*12.95 + 9.4**2)|^2 - 0.5
        assert r[0] == pytest.approx(0.9509217991596723 - 0.5, abs=1e-13)
        inline = abs(
            1 - (1.2 * (2.5 - 10j)) / ((2.5 - 10j) * (12.95 - 10j) + 9.4**2)
        ) ** 2
        assert r[1] == pytest.approx(inline - 0.6, abs=1e-13)

    def test_problem_validation(self):
        p, qd = device()
        with pytest.raises(ValueError):
            FitProblem(guess=make_guess(p, qd))  # no spectra
        with pytest.raises(ValueError):
            FitProblem(guess=make_guess(p, qd), intensity=synthetic_intensity(p, qd), free=())
        bad = make_guess(p, qd)
        bad["g"] = -5.0
        with pytest.raises(ValueError):
            FitProblem(guess=bad, intensity=synthetic_intensity(p, qd))
        with pytest.raises(ValueError):
            FitProblem(
                guess=make_guess(p, qd),
                intensity=synthetic_intensity(p, qd),
                intensity_weights=np.zeros(2001),
            )


class TestFit:
    def test_noiseless_round_trip_from_perturbed_guess(self):
        p, qd = device()
        observed = synthetic_intensity(p, qd)
        guess = make_guess(p, qd)
        for name, factor in zip(RATES, (1.2, 0.8, 1.2, 0.8)):
            guess[name] *= factor
        problem = FitProblem(guess=guess, intensity=observed)
        result = fit(problem)
        assert result.converged
        truth = make_guess(p, qd)
        for name in RATES:
            assert abs(result.params[name] - truth[name]) / truth[name] < 0.01

    def test_noisy_recovery_median_over_seeds(self):
        p, qd = device()
        clean = synthetic_intensity(p, qd)
        truth = make_guess(p, qd)
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noisy = Spectrum(clean.omega, clean.values * (1 + 0.01 * rng.standard_normal(len(clean))))
            guess = make_guess(p, qd)
            for name, factor in zip(RATES, (1.2, 0.8, 1.2, 0.8)):
                guess[name] *= factor
            result = fit(FitProblem(guess=guess, intensity=noisy))
            assert result.converged
            errors.append([abs(result.params[n] - truth[n]) / truth[n] for n in RATES])
        medians = np.median(np.array(errors), axis=0)
        assert np.all(medians < 0.10)

    def test_guess_at_optimum_is_fixed_point(self):
        p, qd = device()
        problem = FitProblem(
            guess=make_guess(p, qd), intensity=synthetic_intensity(p, qd), free=("g",)
        )
        result = fit(problem)
        assert result.converged
        assert result.iterations <= 2
        assert abs(result.params["g"] - p.g) < 1e-10

    def test_shift_reparameterization(self):
        p, qd = device()
        shift = 3000.0
        observed = synthetic_intensity(p, qd)
        base_guess = make_guess(p, qd)
        for name, factor in zip(RATES, (1.15, 0.85, 1.1, 0.9)):
            base_guess[name] *= factor

        shifted_p = SystemParams(p.g, p.kappa_top, p.kappa_side, p.gamma, p.omega_c + shift)
        shifted_qd = QdState(qd.omega_qd + shift, coupled=True)
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
        p, qd = device()
        guess = make_guess(p, qd)
        guess["g"] *= 1.2
        a = fit(FitProblem(guess=guess, intensity=synthetic_intensity(p, qd)))
        b = fit(FitProblem(guess=guess, intensity=synthetic_intensity(p, qd)))
        assert a.params == b.params
        assert a.residual_norm == b.residual_norm
        assert a.iterations == b.iterations

    def test_multi_start_keeps_best(self):
        p, qd = device()
        observed = synthetic_intensity(p, qd)
        near = make_guess(p, qd)
        near["g"] *= 1.1
        far = make_guess(p, qd)
        far.update(g=40.0, kappa_top=100.0, kappa_side=300.0, gamma=80.0)
        problem = FitProblem(guess=near, intensity=observed)
        best = fit_best_of(problem, [far, near])
        assert best.converged
        assert abs(best.params["g"] - p.g) / p.g < 0.01
        with pytest.raises(ValueError):
            fit_best_of(problem, [])


class TestQFromLinewidth:
    def test_device_empty_cavity(self):
        p, _ = device()
        qd = QdState(p.omega_c, coupled=False)
        s = synthetic_intensity(p, qd)
        q = estimate_q_from_linewidth(s, p.omega_c)
        assert abs(q - 51490.193050193055) / 51490.0 < 0.02

    def test_unity_q(self):
        center, fwhm = 100.0, 100.0
        grid = np.linspace(5.0, 400.0, 2001)
        half = fwhm / 2
        values = 1.0 - 0.5 * half**2 / ((grid - center) ** 2 + half**2)
        q = estimate_q_from_linewidth(Spectrum(grid, values), center)
        assert q == pytest.approx(1.0, rel=0.01)

    def test_halving_total_loss_doubles_q(self):
        p, _ = device()
        halved = SystemParams(p.g, p.kappa_top / 2, p.kappa_side / 2, p.gamma, p.omega_c)
        qd_e = QdState(p.omega_c, coupled=False)
        q1 = estimate_q_from_linewidth(synthetic_intensity(p, qd_e), p.omega_c)
        q2 = estimate_q_from_linewidth(synthetic_intensity(halved, qd_e), p.omega_c)
        assert q2 == pytest.approx(2 * q1, rel=0.01)

    def test_flat_spectrum_raises(self):
        grid = np.linspace(0.0, 10.0, 101)
        with pytest.raises(NoDipError):
            estimate_q_from_linewidth(Spectrum(grid, np.full(101, 0.8)), 5.0)

    def test_noise_only_spectrum_raises(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 10.0, 101)
        values = 0.8 + 1e-3 * rng.standard_normal(101)
        with pytest.raises(NoDipError):
            estimate_q_from_linewidth(Spectrum(grid, values), 5.0)


class TestGFromSplitting:
    @staticmethod
    def double_dip(separation=22.0, width=2.0, depth=0.3, half_span=60.0, n=4001):
        grid = np.linspace(-half_span, half_span, n) + 1000.0
        half = width / 2
        lor = lambda x0: depth * half**2 / ((grid - 1000.0 - x0) ** 2 + half**2)
        return Spectrum(grid, 1.0 - lor(-separation / 2) - lor(separation / 2))

    def test_two_dips_separated_by_22(self):
        assert estimate_g_from_splitting(self.double_dip()) == pytest.approx(11.0, abs=1e-3)

    def test_mirror_symmetry(self):
        s = self.double_dip(separation=17.0)
        mirrored = Spectrum(np.sort(2000.0 - s.omega), s.values[::-1])
        assert estimate_g_from_splitting(mirrored) == pytest.approx(
            estimate_g_from_splitting(s), abs=1e-9
        )

    def test_device_resonant_spectrum_dip_half_separation(self):
        # independent oracle: bounded scalar minimization of the continuous
        # model on each side of the resonance
        p, qd = device()
        s = synthetic_intensity(p, qd, n=8001, half_span=60.0)
        # minimize in offset coordinates: Brent's relative tolerance would
        # swamp the dip position at absolute energies of order 1e6
        upper = minimize_scalar(
            lambda d: reflectivity(p, qd, p.omega_c + d),
            bounds=(2.0, 30.0),
            method="bounded",
            options={"xatol": 1e-10},
        ).x
        lower = minimize_scalar(
            lambda d: reflectivity(p, qd, p.omega_c + d),
            bounds=(-30.0, -2.0),
            method="bounded",
            options={"xatol": 1e-10},
        ).x
        oracle = 0.5 * (upper - lower)
        estimate = estimate_g_from_splitting(s)
        assert estimate == pytest.approx(oracle, abs=1e-3)
        assert estimate == pytest.approx(9.9628, abs=1e-3)
        # the naive dip reading overestimates the fitted coupling, in the
        # direction of the quoted larger splitting estimate
        assert estimate > p.g

    def test_single_dip_raises(self):
        p, _ = device()
        qd = QdState(p.omega_c, coupled=False)
        with pytest.raises(UnresolvedSplittingError):
            estimate_g_from_splitting(synthetic_intensity(p, qd))


def _local_minima_loop(omega, values):
    """Reference: the per-point loop that ``local_minima`` vectorizes."""
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    out = []
    for i in range(1, values.size - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            x0, x1, x2 = omega[i - 1 : i + 2]
            y0, y1, y2 = values[i - 1 : i + 2]
            num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
            den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
            if den == 0:
                out.append((float(x1), float(y1)))
                continue
            xv = x1 - 0.5 * num / den
            yv = (
                y0 * (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
                + y1 * (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
                + y2 * (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1))
            )
            out.append((float(xv), float(yv)))
    return out


class TestLocalMinima:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(5)
        p, _ = device()
        model = TuningModel(-10.0, -3.0, p.omega_c + 14.0, p.omega_c, 19.0)
        scan = synthesize_scan(p, model, np.linspace(19.0, 23.0, 17), grid_around(p.omega_c, 100.0, 2001))
        cases = [(s.omega, s.values) for s in scan.spectra]
        cases += [(s.omega, s.values * (1.0 + 0.01 * rng.standard_normal(len(s)))) for s in scan.spectra]
        cases += [(np.arange(n, dtype=float), rng.standard_normal(n)) for n in range(4)]
        cases += [(np.arange(200.0), rng.integers(0, 4, 200).astype(float))]  # ties and plateaus
        cases += [([0.0, 0.0, 0.0], [1.0, 0.0, 1.0])]  # zero denominator
        with_nan = scan.spectra[8].values.copy()
        with_nan[[0, 990, 1000, 1500]] = np.nan
        cases += [(scan.spectra[8].omega, with_nan)]
        for omega, values in cases:
            assert local_minima(omega, values) == _local_minima_loop(omega, values)
        assert local_minima([0.0, 0.0, 0.0], [1.0, 0.0, 1.0]) == [(0.0, 0.0)]

    def test_quadratic_vertex_recovered(self):
        grid = np.linspace(0.0, 10.0, 41)
        values = (grid - 4.3) ** 2
        minima = local_minima(grid, values)
        assert len(minima) == 1
        assert minima[0][0] == pytest.approx(4.3, abs=1e-9)

    def test_no_interior_minimum(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert local_minima(grid, grid) == []


class TestUncertainty:
    def test_zero_noise_errors_vanish(self):
        p, qd = device()
        guess = make_guess(p, qd)
        guess["g"] *= 1.1
        problem = FitProblem(guess=guess, intensity=synthetic_intensity(p, qd))
        result = fit(problem)
        errs = uncertainty(result, problem)
        for name in RATES:
            assert errs[name] / result.params[name] < 1e-6

    def test_duplicating_data_shrinks_errors_by_sqrt2(self):
        p, qd = device()
        rng = np.random.default_rng(11)
        clean = synthetic_intensity(p, qd, n=501)
        noisy = clean.values * (1 + 0.01 * rng.standard_normal(len(clean)))
        single = Spectrum(clean.omega, noisy)
        # duplicate every point (tiny grid offset keeps it strictly monotone)
        eps = 1e-9
        omega2 = np.sort(np.concatenate([clean.omega, clean.omega + eps]))
        doubled = Spectrum(omega2, np.repeat(noisy, 2))

        guess = make_guess(p, qd)
        res1 = fit(FitProblem(guess=guess, intensity=single))
        res2 = fit(FitProblem(guess=guess, intensity=doubled))
        for name in RATES:
            ratio = res2.std_errors[name] / res1.std_errors[name]
            assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.05)

    def test_monte_carlo_spread_within_factor_two(self):
        p, qd = device()
        clean = synthetic_intensity(p, qd, n=501)
        guess = make_guess(p, qd)
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

    def test_joint_intensity_phase_matches_fit_errors(self):
        p, qd = device()
        rng = np.random.default_rng(5)
        clean = synthetic_intensity(p, qd, n=501)
        noise = 0.01 * rng.standard_normal((2, len(clean)))
        intensity = Spectrum(clean.omega, clean.values * (1 + noise[0]))
        phase = Spectrum(clean.omega, np.angle(reflection_amplitude(p, qd, clean.omega)) + noise[1])
        problem = FitProblem(guess=make_guess(p, qd), intensity=intensity, phase=phase)
        result = fit(problem)
        assert result.converged
        errs = uncertainty(result, problem)
        for name in RATES:
            assert errs[name] == pytest.approx(result.std_errors[name], rel=1e-6)

        # independent covariance: both blocks count towards the degrees of freedom
        x = np.array([result.params[n] for n in RATES])

        def stacked(free):
            return residuals({**result.params, **dict(zip(RATES, free))}, problem)

        steps = 1e-6 * np.maximum(np.abs(x), 1.0)
        jac = np.column_stack(
            [(stacked(x + h * e) - stacked(x - h * e)) / (2 * h) for h, e in zip(steps, np.eye(x.size))]
        )
        r = stacked(x)
        sigma2 = (r @ r) / (len(intensity) + len(phase) - len(RATES))
        expected = np.sqrt(np.diag(sigma2 * np.linalg.inv(jac.T @ jac)))
        for name, value in zip(RATES, expected):
            assert errs[name] == pytest.approx(value, rel=1e-6)

    def test_cost_stall_errors_taken_at_reported_point(self):
        p, qd = device()
        rng = np.random.default_rng(4)
        clean = synthetic_intensity(p, qd, n=501)
        noisy = Spectrum(clean.omega, clean.values * (1 + 0.01 * rng.standard_normal(len(clean))))
        problem = FitProblem(guess=make_guess(p, qd), intensity=noisy)
        result = fit(problem)
        assert result.reason == "cost_stall"
        assert uncertainty(result, problem) == result.std_errors

    def test_requires_convergence(self):
        p, qd = device()
        guess = make_guess(p, qd)
        guess["g"] *= 1.5
        problem = FitProblem(guess=guess, intensity=synthetic_intensity(p, qd))
        result = fit(problem, max_iterations=1)
        assert not result.converged
        with pytest.raises(ValueError):
            uncertainty(result, problem)

    def test_parameter_at_bound_flagged_infinite(self):
        p, qd = device()
        observed = synthetic_intensity(p, qd)
        guess = make_guess(p, qd)
        guess["background"] = 0.0
        problem = FitProblem(
            guess=guess, intensity=observed, free=("g", "background")
        )
        with pytest.warns(UserWarning, match="at bounds"):
            result = fit(problem)
        assert result.std_errors["background"] == np.inf


class TestModelScale:
    def test_beta_mag_scales_intensity(self):
        p, qd = device()
        vec = np.array([p.g, p.kappa_top, p.kappa_side, p.gamma, p.omega_c, qd.omega_qd, 0.0, 2.0])
        omega = grid_around(p.omega_c, 50.0, 11)
        np.testing.assert_allclose(
            model_intensity(vec, omega), 4.0 * reflectivity(p, qd, omega), rtol=1e-12
        )
