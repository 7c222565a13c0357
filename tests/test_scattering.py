import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pillar_qed import (
    Spectrum,
    SystemParams,
    coupling_regime,
    max_conditional_phase,
    measured_intensity,
    polariton_eigenvalues,
    q_factor,
    rabi_splitting,
    reflection_amplitude,
    relative_phase,
)
from pillar_qed.scattering import (
    DegenerateModelError,
    _amplitude_partials,
    _reflection,
    _response,
)

from conftest import DEVICE, central_difference, grid_around, model_steps, rates, system_params

# independently evaluated by direct substitution of the device constants
R_COUPLED_ONRES = 0.9751521928189837
REFL_COUPLED_ONRES = 0.9509217991596723
REFL_EMPTY_ONRES = 0.8232584487410741
RABI_SPLIT = 15.628099692541
Q_DEVICE = 51490.193050193055


def all_partials(g, kap, ks, gam, wc, wqd, omega):
    """The six partials of r at a point, from the point's own response."""
    return _amplitude_partials(g, kap, _response(g, kap, ks, gam, wc, wqd, omega), range(6))


def single_expression_amplitude(g, kap, ks, gam, wc, wqd, w):
    """One-line reference evaluation used as the independent oracle."""
    return 1 - (kap * (1j * (wqd - w) + gam / 2)) / (
        (1j * (wqd - w) + gam / 2) * (1j * (wc - w) + (kap + ks) / 2) + g * g
    )


class TestReflectionAmplitude:
    def test_empty_cavity_on_resonance_closed_form(self, empty_params):
        r = reflection_amplitude(empty_params, empty_params.omega_c)
        expected = (24.7 - 1.2) / (24.7 + 1.2)
        assert r == pytest.approx(expected, abs=1e-15)
        assert abs(r.imag) < 1e-15

    def test_lossless_overcoupled_mirror_is_minus_one(self):
        p = SystemParams(g=0.0, kappa_top=7.3, kappa_side=0.0, gamma=1.0, omega_c=1000.0)
        r = reflection_amplitude(p, 1000.0)
        assert r == pytest.approx(-1.0, abs=1e-15)
        assert np.angle(r) == pytest.approx(np.pi)

    def test_device_constants_on_resonance(self, device_params):
        r = reflection_amplitude(device_params, device_params.omega_c)
        oracle = single_expression_amplitude(
            9.4, 1.2, 24.7, 5.0, 1333596.0, 1333596.0, 1333596.0
        )
        assert r == pytest.approx(oracle, rel=1e-14)
        assert r.real == pytest.approx(R_COUPLED_ONRES, abs=1e-14)
        assert r.imag == 0.0

    def test_far_detuned_limit(self, device_params):
        for sign in (-1.0, 1.0):
            r = reflection_amplitude(device_params, device_params.omega_c + sign * 1e6)
            assert abs(r - 1.0) < 1e-4

    def test_vectorized_matches_scalar(self, device_params):
        grid = grid_around(device_params.omega_c, 50.0, 101)
        vec = reflection_amplitude(device_params, grid)
        scalars = np.array([reflection_amplitude(device_params, w) for w in grid])
        np.testing.assert_allclose(vec, scalars, rtol=1e-14, atol=0)

    @given(p=system_params(), detuning=st.floats(min_value=-1e3, max_value=1e3))
    def test_passivity(self, p, detuning):
        assert abs(reflection_amplitude(p, p.omega_c + detuning)) <= 1.0 + 1e-12

    def test_passivity_bulk(self):
        rng = np.random.default_rng(11)
        n = 10**4
        worst = 0.0
        for _ in range(n):
            p = SystemParams(
                g=rng.uniform(0, 50),
                kappa_top=rng.uniform(0.05, 50),
                kappa_side=rng.uniform(0, 50),
                gamma=rng.uniform(0, 50),
                omega_c=rng.uniform(1e3, 2e6),
            )
            p = replace(p, omega_qd=p.omega_c + rng.uniform(-1e3, 1e3))
            r = reflection_amplitude(p, p.omega_c + rng.uniform(-1e3, 1e3))
            worst = max(worst, abs(r))
        assert worst <= 1.0 + 1e-12

    def test_underflowing_coupling_at_resonance(self):
        # g * g underflows to 0, yet any g > 0 makes a lossless dot on
        # resonance reflect perfectly; off resonance g^2 is negligible
        p = SystemParams(g=1e-200, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=1000.0)
        scalar = reflection_amplitude(p, 1000.0)
        assert np.ndim(scalar) == 0 and scalar == 1.0
        assert np.asarray(scalar).tobytes() == reflection_amplitude(p, np.array([1000.0])).tobytes()
        np.testing.assert_array_equal(
            reflection_amplitude(p, np.array([999.0, 1000.0])),
            [reflection_amplitude(replace(p, g=0.0), 999.0), 1.0],
        )
        # a subnormal d_qd: its reciprocal overflows, so g / d_qd must divide
        # by it, and g (g / d_qd) is negligible beside d_c
        p = SystemParams(g=1e-200, kappa_top=1.2, kappa_side=24.7, gamma=1e-310, omega_c=1333596.0, omega_qd=1333599.0)
        empty = 1.0 - 1.2 / complex(0.5 * (1.2 + 24.7), 1333596.0 - 1333599.0)
        assert reflection_amplitude(p, 1333599.0) == empty
        assert reflection_amplitude(p, np.array([1333599.0]))[0] == empty

    def test_degenerate_denominator_guard(self):
        # through the model's own steps, which take the kappa_top = 0 that SystemParams refuses
        with pytest.raises(DegenerateModelError):
            _reflection(0.0, _response(0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0, 1000.0))
        with pytest.raises(DegenerateModelError):
            _reflection(1e-320, _response(0.0, 1e-320, 0.0, 0.0, 1000.0, 1000.0, 1000.0))

    def test_polynomial_coefficients_reproduce_amplitude(self):
        """The conditional phase's polynomials give the amplitudes' ratio:
        r'_d / r'_c = 1 + eps / P(u) in the scaled offset, with and without
        a background."""
        from pillar_qed.design import _phase_polynomials, _polyval
        from pillar_qed.scattering import BackgroundModel, apply_background

        rng = np.random.default_rng(3)
        rates = np.array([
            (g, rng.uniform(0.05, 60.0), rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0), wc, wc + rng.uniform(-30.0, 30.0))
            for g, wc in zip(rng.uniform(0.0, 50.0, size=300), rng.uniform(1e3, 2e6, size=300))
        ])
        rates[::3, 0] = 0.0  # uncoupled dots: the ratio is 1
        worst = 0.0
        for i, row in enumerate(rates):
            bg = BackgroundModel(rng.uniform(0.0, 0.95), rng.uniform(-np.pi, np.pi)) if i % 2 else None
            p, *_, eps = _phase_polynomials(row[:, None], bg)
            assert p.shape == (1, 4) and eps.shape == (1,)
            g, kap, ks, gam, wc, wqd = row
            omega = wc + rng.uniform(-200.0, 200.0, size=64)
            r_d = reflection_amplitude(SystemParams(*row), omega)
            r_c = reflection_amplitude(SystemParams(0.0, *row[1:]), omega)
            if bg is not None:
                r_d, r_c = apply_background(r_d, bg), apply_background(r_c, bg)
            ratio = 1.0 + eps / _polyval(p, (omega - wc) / (kap + ks))
            worst = max(worst, np.max(np.abs(ratio - r_d / r_c)))
        assert worst <= 1e-12  # measured: 6.0e-14

    def test_partials_match_central_difference(self):
        rng = np.random.default_rng(8)
        worst = np.zeros(6)
        for trial in range(100):
            kap, ks, gam = rng.uniform(0.1, 30.0), rng.uniform(0.0, 30.0), rng.uniform(0.1, 25.0)
            g = 0.0 if trial % 10 == 0 else rng.uniform(0.5, 30.0)
            wc = 1333596.0 + rng.uniform(-20.0, 20.0)
            wqd = wc + rng.uniform(-20.0, 20.0)
            omega = grid_around(1333596.0, 100.0, 2001)
            x = np.array([g, kap, ks, gam, wc, wqd])
            response = _response(*x, omega)
            assert np.array_equal(_reflection(kap, response), reflection_amplitude(SystemParams(*x), omega))
            dr = np.array(_amplitude_partials(g, kap, response, range(6)))
            # the g column steps below g = 0 when g == 0, where SystemParams refuses
            numeric = central_difference(lambda y: _reflection(y[1], _response(*y, omega)), x, model_steps(x))
            scale = np.max(np.abs(numeric), axis=0)
            worst = np.maximum(worst, np.max(np.abs(dr.T - numeric), axis=0) / np.where(scale > 0, scale, 1.0))
        assert np.all(worst <= 1e-7)  # measured: at most 1.4e-8 (gamma)

    @pytest.mark.parametrize("g", [0.0, 9.4])
    def test_partial_columns_are_those_of_all_six(self, g):
        # any subset, in any order, gives the bits of the full set's columns
        x = (g, 1.2, 24.7, 5.0, 1333596.0, 1333599.0)
        for omega in (1333597.0, grid_around(1333596.0, 100.0, 201)):
            response = _response(*x, omega)
            every = _amplitude_partials(g, 1.2, response, range(6))
            for columns in ([], [3], [5, 0], [0, 1, 2, 3], [1, 2, 4, 5], [3, 5], list(range(6))):
                picked = _amplitude_partials(g, 1.2, response, columns)
                assert len(picked) == len(columns)
                for k, d in zip(columns, picked):
                    assert _bits(d) == _bits(every[k]), (columns, k)

    def test_partials_refuse_the_underflowing_coupling(self):
        # the amplitude has a value here (r = 1 at the dark point), but
        # dr/dgamma ~ kappa_top / g^2 is unbounded
        x = (1e-200, 1.0, 0.0, 0.0, 1000.0, 1000.0)
        with pytest.raises(DegenerateModelError, match="derivatives unbounded"):
            all_partials(*x, np.array([999.0, 1000.0]))
        for omega in (999.0, np.array([999.0, 1001.0])):
            assert len(all_partials(*x, omega)) == 6
            r = reflection_amplitude(SystemParams(*x), omega)
            assert np.array_equal(_reflection(x[1], _response(*x, omega)), r)

    @pytest.mark.parametrize("omega", [1000.0, np.array([999.0, 1000.0])], ids=["scalar", "array"])
    def test_partials_refuse_an_underflowing_square(self, omega):
        # D = g^2 = 1e-200 at the dot passes the floor, but D^2 underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateModelError, match="derivatives unbounded"):
                all_partials(1e-100, 1.0, 0.0, 0.0, 1000.0, 1000.0, omega)

    def test_partials_refuse_or_agree_wherever_the_amplitude_returns(self):
        """g and gamma each 0, moderate or down to 1e-320, at and beside the
        dot: the partials raise DegenerateModelError or give six finite
        partials while the same response gives reflection_amplitude's r,
        bits and type, and nothing warns."""
        rng = np.random.default_rng(29)

        def rate():
            kind = rng.integers(3)
            if kind == 0:
                return 0.0
            return rng.uniform(0.0, 50.0) if kind == 1 else 10.0 ** rng.uniform(-320.0, math.log10(50.0))

        checks = divided = refused = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(10000):
                wc = 1000.0 if rng.random() < 0.5 else 1333596.0
                wqd = wc if rng.random() < 0.5 else wc + rng.uniform(-30.0, 30.0)
                x = (rate(), rng.uniform(0.05, 100.0), rng.uniform(0.0, 80.0), rate(), wc, wqd)
                p = SystemParams(*x)
                beside = np.nextafter(wqd, np.inf)
                for omega in (wqd, beside, wqd - 1.0, np.array([wqd - 1.0, np.nextafter(wqd, 0.0), wqd, beside])):
                    try:
                        r = reflection_amplitude(p, omega)
                    except DegenerateModelError:
                        continue
                    checks += 1
                    response = _response(*x, omega)
                    divided += not response[2]
                    try:
                        dr = _amplitude_partials(x[0], x[1], response, range(6))
                    except DegenerateModelError:
                        refused += 1
                        continue
                    r_p = _reflection(x[1], response)
                    assert type(r_p) is type(r) and _bits(r_p) == _bits(r), (x, omega)
                    assert len(dr) == 6 and all(np.isfinite(d).all() for d in dr), (x, omega)
        # every regime is reached: measured 1280 divided forms, 2666 refusals
        assert checks == 40000 and divided > 500 and refused > 1000, (checks, divided, refused)

    @given(p=system_params(), detuning=st.floats(min_value=-1e3, max_value=1e3))
    def test_coupled_g_zero_equals_empty(self, p, detuning):
        # g = 0 is the empty cavity whatever the dot energy and linewidth
        p0 = SystemParams(0.0, p.kappa_top, p.kappa_side, p.gamma, p.omega_c)
        omega = p.omega_c + detuning
        r_empty = 1 - p.kappa_top / (1j * (p.omega_c - omega) + 0.5 * p.kappa_total)
        for q in (p0, replace(p0, omega_qd=p.omega_c + 37.0, gamma=2.0 * p.gamma + 1.0)):
            assert abs(reflection_amplitude(q, omega) - r_empty) < 1e-14

    @given(p=system_params(), delta=st.floats(min_value=1e-3, max_value=1e3))
    def test_hermitian_symmetry_at_zero_detuning(self, p, delta):
        upper = reflection_amplitude(p, p.omega_c + delta)
        lower = reflection_amplitude(p, p.omega_c - delta)
        assert abs(upper - np.conj(lower)) < 1e-12

    @given(p=system_params(omega_min=1e5))
    def test_far_detuned_decay_bound(self, p):
        # |r - 1| <= C / |omega - omega_c| with C fitted at one detuning
        d1, d2 = 1e4, 1e5
        c = abs(reflection_amplitude(p, p.omega_c + d1) - 1.0) * d1
        assert abs(reflection_amplitude(p, p.omega_c + d2) - 1.0) <= 2.0 * c / d2


def _bits(z):
    return np.asarray(z, dtype=complex).tobytes()


class TestScalarPath:
    """Scalar omegas of every type, and one-element arrays at the floors, behave alike."""

    def test_scalar_omega_types_give_identical_bits(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            wc = 1333596.0 + rng.uniform(-5.0, 5.0)
            p = SystemParams(
                0.0 if trial % 10 == 0 else rng.uniform(0.0, 30.0),
                rng.uniform(0.1, 50.0),
                rng.uniform(0.0, 30.0),
                rng.uniform(0.0, 20.0),
                wc,
                wc + rng.uniform(-20.0, 20.0),
            )
            w = wc + rng.uniform(-60.0, 60.0)
            for fn in (reflection_amplitude, relative_phase):
                expected = _bits(fn(p, w))
                for omega in (np.float64(w), np.array(w)):
                    value = fn(p, omega)
                    assert np.ndim(value) == 0
                    assert _bits(value) == expected

    @pytest.mark.parametrize(
        "x, message",
        [
            pytest.param((0.0, 0.0, 0.0, 0.0, 1000.0, 1000.0), "cavity", id="empty_cavity_floor"),
            pytest.param((1e-200, 1e-320, 0.0, 1.0, 1000.0, 1000.0), "coupled", id="coupled_floor"),
        ],
    )
    def test_underflow_raises_for_scalar_and_array(self, x, message):
        for omega in (1000.0, np.float64(1000.0), np.array([1000.0])):
            with pytest.raises(DegenerateModelError, match=f"^{message} response denominator underflow$"):
                _reflection(x[1], _response(*x, omega))


class TestReflectivity:
    def test_critically_coupled_dark_point(self):
        p = SystemParams(g=0.0, kappa_top=5.0, kappa_side=5.0, gamma=1.0, omega_c=1000.0)
        assert measured_intensity(p, 1000.0) == pytest.approx(0.0, abs=1e-30)

    def test_empty_cavity_device_constants(self, empty_params):
        value = measured_intensity(empty_params, empty_params.omega_c)
        assert value == pytest.approx(REFL_EMPTY_ONRES, abs=1e-14)

    def test_design_point_twenty_percent(self):
        p = SystemParams(g=9.4, kappa_top=37.6, kappa_side=24.7, gamma=5.0, omega_c=1333596.0)
        value = measured_intensity(p, 1333596.0)
        assert value == pytest.approx(0.1888210545319597, abs=1e-13)
        assert value == pytest.approx(0.19, abs=0.03)

    @given(p=system_params(), detuning=st.floats(min_value=-500, max_value=500))
    def test_bounded_by_one(self, p, detuning):
        value = measured_intensity(p, p.omega_c + detuning)
        assert 0.0 <= value <= 1.0 + 1e-12


class TestPhase:
    """The reflection phase: the angle of ``reflection_amplitude`` in (-pi, pi]."""

    @staticmethod
    def phase(p, omega):
        angle = np.angle(reflection_amplitude(p, omega))
        return np.where(angle == -np.pi, np.pi, angle)

    def test_far_detuned_phase_vanishes(self, device_params):
        assert abs(self.phase(device_params, device_params.omega_c + 1e6)) < 1e-4

    def test_overcoupled_lossless_phase_pi(self):
        p = SystemParams(g=0.0, kappa_top=3.0, kappa_side=0.0, gamma=0.0, omega_c=500.0)
        assert self.phase(p, 500.0) == pytest.approx(np.pi)

    def test_zero_amplitude_reads_zero(self):
        # the critically coupled dark point
        p = SystemParams(g=0.0, kappa_top=5.0, kappa_side=5.0, gamma=0.0, omega_c=1000.0)
        assert reflection_amplitude(p, 1000.0) == 0
        assert self.phase(p, 1000.0) == 0.0

    def test_empty_cavity_max_phase_grid_oracle(self, empty_params):
        # dense-grid oracle, evaluated from the one-line reference expression
        grid = np.linspace(empty_params.omega_c - 1000, empty_params.omega_c + 1000, 10**6)
        oracle = np.max(
            np.abs(np.angle(single_expression_amplitude(0.0, 1.2, 24.7, 5.0, 1333596.0, 1333596.0, grid)))
        )
        measured = np.max(np.abs(self.phase(empty_params, grid)))
        assert measured == pytest.approx(oracle, abs=1e-12)
        # closed form: the amplitude traces a circle of radius k/K about 1 - k/K
        analytic = np.arcsin((1.2 / 25.9) / (1.0 - 1.2 / 25.9))
        assert measured == pytest.approx(analytic, abs=1e-8)


class TestPolaritons:
    def test_g_zero_gives_bare_values(self):
        p = SystemParams(g=0.0, kappa_top=2.0, kappa_side=3.0, gamma=4.0, omega_c=1200.0, omega_qd=1100.0)
        lo, hi = polariton_eigenvalues(p)
        assert lo == pytest.approx(1100.0 - 2.0j, abs=1e-12)
        assert hi == pytest.approx(1200.0 - 2.5j, abs=1e-12)
        # the dot one ulp below the cavity: both energies round to one real
        # part, ordered by the imaginary part (mean - s has the larger one)
        tie = SystemParams(**{**DEVICE, "g": 0.0, "omega_qd": math.nextafter(1333596.0, 0)})
        assert polariton_eigenvalues(tie) == (1333596.0 - 12.95j, 1333596.0 - 2.5j)

    def test_device_splitting_closed_form_and_eigensolver(self, device_params):
        lo, hi = polariton_eigenvalues(device_params)
        gap = hi.real - lo.real
        assert gap == pytest.approx(RABI_SPLIT, abs=1e-9)
        matrix = np.array(
            [
                [1333596.0 - 2.5j, 9.4],
                [9.4, 1333596.0 - 0.5j * 25.9],
            ]
        )
        eigs = sorted(np.linalg.eigvals(matrix), key=lambda z: (z.real, z.imag))
        assert lo == pytest.approx(eigs[0], abs=1e-6)
        assert hi == pytest.approx(eigs[1], abs=1e-6)

    def test_large_detuning_approaches_bare_energies(self, device_params):
        delta = 1e5
        lo, hi = polariton_eigenvalues(replace(device_params, omega_qd=1333596.0 + delta))
        assert abs(lo.real - 1333596.0) < 1e-2
        assert abs(hi.real - (1333596.0 + delta)) < 1e-2

    @given(
        g=rates(),
        kappa=st.floats(min_value=0.05, max_value=50),
        ks=rates(),
        gamma=rates(),
        omega_c=st.floats(min_value=10, max_value=200),
        delta=st.floats(min_value=-50, max_value=50),
    )
    def test_characteristic_polynomial_residual(self, g, kappa, ks, gamma, omega_c, delta):
        omega_qd = omega_c + delta
        if omega_qd <= 0:
            return
        p = SystemParams(g, kappa, ks, gamma, omega_c, omega_qd)
        a = omega_qd - 0.5j * gamma
        b = omega_c - 0.5j * (kappa + ks)
        for lam in polariton_eigenvalues(p):
            residual = (lam - a) * (lam - b) - g * g
            assert abs(residual) < 1e-10


class TestScalars:
    def test_rabi_splitting_matches_eigenvalues(self, device_params):
        lo, hi = polariton_eigenvalues(device_params)
        assert rabi_splitting(device_params) == pytest.approx(hi.real - lo.real, abs=1e-9)

    def test_rabi_splitting_weak_coupling_zero(self):
        p = SystemParams(g=1.0, kappa_top=20.0, kappa_side=20.0, gamma=0.0, omega_c=1000.0)
        assert rabi_splitting(p) == 0.0

    def test_coupling_regime_device_strong(self, device_params):
        assert (1.2 + 24.7 + 5.0) / 4 == pytest.approx(7.725)
        assert coupling_regime(device_params) == "strong"

    def test_coupling_regime_boundary_strict(self):
        p = SystemParams(g=7.725, kappa_top=1.2, kappa_side=24.7, gamma=5.0, omega_c=1333596.0)
        assert coupling_regime(p) == "weak"

    def test_coupling_regime_g_zero_weak(self):
        p = SystemParams(g=0.0, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=100.0)
        assert coupling_regime(p) == "weak"

    @given(p=system_params(), scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_coupling_regime_scale_invariant(self, p, scale):
        scaled = SystemParams(
            p.g * scale, p.kappa_top * scale, p.kappa_side * scale, p.gamma * scale, p.omega_c
        )
        assert coupling_regime(scaled) == coupling_regime(p)

    def test_q_factor_device(self, device_params):
        assert q_factor(device_params) == pytest.approx(Q_DEVICE, abs=1e-6)
        assert abs(q_factor(device_params) - 51000) / 51000 < 0.02

    def test_q_factor_unity_and_scaling(self):
        p = SystemParams(g=0.0, kappa_top=40.0, kappa_side=60.0, gamma=0.0, omega_c=100.0)
        assert q_factor(p) == pytest.approx(1.0)
        doubled = SystemParams(0.0, 80.0, 120.0, 0.0, 100.0)
        assert q_factor(doubled) == pytest.approx(0.5 * q_factor(p))


VALID_PARAMS = dict(g=1.0, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=1.0, omega_qd=1.0)


class TestTypes:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g=-1.0, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=1.0),
            dict(g=0.0, kappa_top=0.0, kappa_side=0.0, gamma=0.0, omega_c=1.0),
            dict(g=0.0, kappa_top=1.0, kappa_side=-0.1, gamma=0.0, omega_c=1.0),
            dict(g=0.0, kappa_top=1.0, kappa_side=0.0, gamma=-2.0, omega_c=1.0),
            dict(g=0.0, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=0.0),
            dict(g=np.nan, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=1.0),
            dict(g=0.0, kappa_top=np.inf, kappa_side=0.0, gamma=0.0, omega_c=1.0),
            pytest.param(
                dict(g=1.0, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=1.0, omega_qd=0.0),
                id="omega_qd_zero",
            ),
            pytest.param(
                dict(g=1.0, kappa_top=1.0, kappa_side=0.0, gamma=0.0, omega_c=1.0, omega_qd=np.nan),
                id="omega_qd_nan",
            ),
            *(
                pytest.param({**VALID_PARAMS, name: value}, id=f"{name}_{value}")
                for name in VALID_PARAMS
                for value in (math.inf, -math.inf)
            ),
            # a numpy scalar is named as a float, not by its numpy repr
            pytest.param({**VALID_PARAMS, "omega_qd": np.float64(np.inf)}, id="omega_qd_np_inf"),
            pytest.param({**VALID_PARAMS, "g": np.float64(-np.inf)}, id="g_np_minus_inf"),
            *(
                pytest.param({**VALID_PARAMS, name: np.float64(np.nan)}, id=f"{name}_np_nan")
                for name in VALID_PARAMS
            ),
            pytest.param({**VALID_PARAMS, "gamma": np.array(np.inf)}, id="gamma_0d_inf"),
        ],
    )
    def test_invalid_system_params(self, kwargs):
        with pytest.raises(ValueError) as info:
            SystemParams(**kwargs)
        for name, value in kwargs.items():
            if not math.isfinite(value):
                assert str(info.value) == f"{name} must be finite, got {float(value)!r}"

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for value in ("1.0", 1.0 + 0j, None)
            for name in VALID_PARAMS
            if not (name == "omega_qd" and value is None)  # None is the zero-detuning default
        ],
    )
    def test_non_real_field_raises_type_error(self, name, value):
        with pytest.raises(TypeError):
            SystemParams(**{**VALID_PARAMS, name: value})

    @pytest.mark.parametrize(
        "convert", [int, np.int64, np.float64, np.float32, np.array, bool], ids=lambda f: f.__name__
    )
    def test_real_fields_stored_as_python_floats(self, convert):
        values = dict(g=2, kappa_top=3, kappa_side=0, gamma=1, omega_c=1000, omega_qd=999)
        if convert is bool:
            values = dict(g=True, kappa_top=True, kappa_side=False, gamma=False, omega_c=True, omega_qd=True)
        p = SystemParams(**{name: convert(value) for name, value in values.items()})
        assert all(type(getattr(p, name)) is float for name in VALID_PARAMS)
        assert [getattr(p, name) for name in VALID_PARAMS] == [float(value) for value in values.values()]
        assert type(SystemParams(np.float64(1.0), 1.0, 0.0, 0.0, np.float64(5.0)).omega_qd) is float

    def test_replace_validates(self):
        p = SystemParams(**VALID_PARAMS)
        with pytest.raises(ValueError, match="^g must be >= 0, got -1.0$"):
            replace(p, g=-1.0)
        with pytest.raises(ValueError, match="^kappa_side must be finite, got nan$"):
            replace(p, kappa_side=np.float64(np.nan))
        with pytest.raises(TypeError):
            replace(p, gamma="0.5")
        moved = replace(p, kappa_top=np.float64(2.5))
        assert type(moved.kappa_top) is float and moved.kappa_top == 2.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            moved.g = 2.0

    def test_field_types_give_identical_bits(self):
        """Fields are stored as Python floats: a numpy scalar field would take
        numpy's complex scalar division, which rounds otherwise than CPython's."""
        rng = np.random.default_rng(6)
        for _ in range(200):
            wc = 1333596.0 + rng.uniform(-5.0, 5.0)
            values = (
                rng.uniform(0.01, 30.0), rng.uniform(0.1, 50.0), rng.uniform(0.0, 30.0),
                rng.uniform(0.0, 20.0), wc, wc + rng.uniform(-20.0, 20.0),
            )
            w = wc + rng.uniform(-60.0, 60.0)
            plain = SystemParams(*map(float, values))
            for convert in (np.float64, np.array):
                p = SystemParams(*map(convert, values))
                assert all(type(getattr(p, name)) is float for name in VALID_PARAMS)
                assert _bits(reflection_amplitude(p, w)) == _bits(reflection_amplitude(plain, w))
                assert np.array(max_conditional_phase(p)).tobytes() == np.array(max_conditional_phase(plain)).tobytes()

    def test_omega_qd_defaults_to_omega_c(self):
        p = SystemParams(9.4, 1.2, 24.7, 5.0, 1333596.0)
        assert p.omega_qd == p.omega_c
        # a default, not a link: moving the cavity leaves the dot in place
        assert replace(p, omega_c=1333600.0).omega_qd == 1333596.0

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="^omega and values must be one-dimensional$"):
            Spectrum(np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="^omega grid must be finite$"):
            Spectrum(np.array([1.0, np.inf]), np.array([1.0, 2.0]))
        grid = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="^spectrum values must be real, got complex values$"):
            Spectrum(grid, 1j * grid)
        assert Spectrum(grid, [3, 4]).values.dtype == np.float64
