import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from pillar_qed import (
    BackgroundModel,
    DesignPoint,
    SystemParams,
    apply_background,
    max_conditional_phase,
    reflection_amplitude,
    relative_phase,
    sweep_kappa,
)
from pillar_qed import design
from pillar_qed.design import _real_roots
from pillar_qed import scattering
from pillar_qed.scattering import DegenerateModelError, _quotient

from conftest import DEVICE, grid_around

WC = DEVICE["omega_c"]

# frozen from the dense-grid oracle (arg-convention conditional phase)
COND_MAX_INTRINSIC = 0.0606878937
COND_MAX_OFFSET = -6.2105
COND_MAX_BG07 = 0.0229739


def oracle_relative_phase(p, omega, bg=None):
    """relative_phase at one scalar omega, through the scalar amplitudes of the
    coupled and the empty cavity and CPython's complex arithmetic."""
    r_d = reflection_amplitude(p, omega)
    r_c = reflection_amplitude(replace(p, g=0.0), omega)
    if bg is not None:
        r_d, r_c = apply_background(r_d, bg), apply_background(r_c, bg)
    z = r_d * np.conj(r_c)
    angle = float(np.arctan2(z.imag, z.real))
    return math.pi if angle == -math.pi else angle


def oracle_sweep(base, kappas):
    """sweep_kappa through per-point calls: max_conditional_phase and the
    scalar amplitude at resonance."""
    points = []
    for kappa in sorted(float(k) for k in kappas):
        p = replace(base, kappa_top=kappa, omega_qd=base.omega_c)
        magnitude, argmax = max_conditional_phase(p)
        refl = float(np.abs(reflection_amplitude(p, p.omega_c)) ** 2)
        points.append(DesignPoint(p, magnitude, argmax, refl))
    return points


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def truth_phase(mp, p, bg, omega):
    """|relative_phase| at one float omega, from the amplitudes in mpmath."""
    g, kt, ks, gam, wc, wqd = (mp.mpf(x) for x in astuple(p))
    w = mp.mpf(omega)
    d_qd, d_c = 1j * (wqd - w) + gam / 2, 1j * (wc - w) + (kt + ks) / 2
    r_d, r_c = 1 - kt * d_qd / (d_qd * d_c + g * g), 1 - kt / d_c
    if bg is not None:
        f, s = mp.sqrt(mp.mpf(bg.fraction)) * mp.expj(mp.mpf(bg.phase)), mp.sqrt(1 - mp.mpf(bg.fraction))
        r_d, r_c = f + s * r_d, f + s * r_c
    return abs(mp.arg(r_d * mp.conj(r_c)))


def truth_max_conditional_phase(mp, p, bg):
    """max_conditional_phase's magnitude at 80 digits from the exact binary
    inputs: the stationarity and branch polynomials of the scaled offset
    built in mpmath, their roots by ``polyroots`` (started from
    ``np.roots``, converged at 80 digits or an error) and the phase of the
    amplitudes at the float64 energies either side of each candidate. At a
    +-pi branch point off resonance the supremum pi falls between two
    float64 energies, and the result is a phase at a float64 energy."""
    with mp.workdps(80):
        g, kt, ks, gam, wc, wqd = (mp.mpf(x) for x in astuple(p))
        k = kt + ks
        t, coupling = kt / k, (g / k) ** 2
        q = mp.mpc(gam / (2 * k), (wqd - wc) / k)
        f, s = 0, 1
        if bg is not None:
            f, s = mp.sqrt(mp.mpf(bg.fraction)) * mp.expj(mp.mpf(bg.phase)), mp.sqrt(1 - mp.mpf(bg.fraction))
        n_c = [-1j * (f + s), (f + s) / 2 - s * t]
        poly = _convolve(n_c, [-1, -1j * q - 0.5j, q / 2 + coupling])
        eps = s * t * coupling
        stationary = _convolve(
            _convolve([3 * poly[0], 2 * poly[1], poly[2]], [mp.conj(c) for c in poly]),
            [mp.conj(c) for c in poly[:3] + [poly[3] + eps]],
        )
        candidates = [mp.mpf(0)]
        for row in ([mp.im(c) for c in stationary], [mp.im(c) for c in poly]):
            while row and row[0] == 0:
                row = row[1:]
            if len(row) > 1:
                start = np.roots([float(c) for c in row]).tolist()
                candidates += [mp.re(r) for r in mp.polyroots(row, roots_init=start)]
        best = mp.mpf(0)
        for u in candidates:
            near = float(wc + k * u)
            for omega in (np.nextafter(near, 0.0), near, np.nextafter(near, np.inf)):
                best = max(best, truth_phase(mp, p, bg, omega))
        return float(best)


def bits(points):
    """Every float field of a list of design points, as raw bits."""
    return np.array([
        (pt.max_conditional_phase, pt.argmax_omega, pt.on_resonance_reflectivity) for pt in points
    ]).view(np.uint64)


def inline_amplitude(g, kap, ks, gam, wc, wqd, w):
    return 1 - (kap * (1j * (wqd - w) + gam / 2)) / (
        (1j * (wqd - w) + gam / 2) * (1j * (wc - w) + (kap + ks) / 2) + g * g
    )


class TestConditionalPhaseSpectrum:
    def test_uncoupled_dot_gives_zero_spectrum(self):
        p = SystemParams(g=0.0, kappa_top=1.2, kappa_side=24.7, gamma=5.0, omega_c=WC)
        grid = grid_around(WC, 100.0, 2001)
        np.testing.assert_allclose(relative_phase(p, grid), 0.0, atol=1e-14)

    def test_device_intrinsic_maximum_against_grid_oracle(self):
        p = SystemParams(**DEVICE)
        grid = grid_around(WC, 100.0, 200001)
        values = relative_phase(p, grid)
        i = int(np.argmax(np.abs(values)))

        r_d = inline_amplitude(9.4, 1.2, 24.7, 5.0, WC, WC, grid)
        r_c = inline_amplitude(0.0, 1.2, 24.7, 5.0, WC, WC, grid)
        oracle = np.angle(r_d) - np.angle(r_c)  # no winding at these rates
        j = int(np.argmax(np.abs(oracle)))

        assert abs(values[i]) == pytest.approx(abs(oracle[j]), abs=1e-12)
        assert abs(values[i]) == pytest.approx(COND_MAX_INTRINSIC, abs=1e-6)
        assert grid[i] - WC == pytest.approx(COND_MAX_OFFSET, abs=0.01)

    def test_device_maximum_with_background(self):
        p = SystemParams(**DEVICE)
        grid = grid_around(WC, 100.0, 200001)
        bg = BackgroundModel(0.7)
        values = relative_phase(p, grid, bg)
        assert np.max(np.abs(values)) == pytest.approx(COND_MAX_BG07, abs=1e-6)
        magnitude, _ = max_conditional_phase(p, bg)
        assert magnitude == pytest.approx(COND_MAX_BG07, abs=1e-7)


def complex_pairs(n, seed):
    """Complex arrays ``a``, ``b`` whose parts span magnitudes 1e-150 to 1e150
    (ratios 1e-300 to 1e300) with both signs, about a tenth of them signed
    zeros, and a tenth of the ``b`` with ``|b.real| == |b.imag|``."""
    rng = np.random.default_rng(seed)
    parts = rng.choice([-1.0, 1.0], size=(4, n)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(4, n))
    parts[rng.random((4, n)) < 0.1] *= 0.0
    tied = rng.random(n) < 0.1
    parts[3, tied] = rng.choice([-1.0, 1.0], size=tied.sum()) * parts[2, tied]
    a, b = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    a.real, a.imag, b.real, b.imag = parts
    return a, b


class TestCPythonComplexArithmetic:
    """The array quotient rounds as CPython's scalar complex ``/`` (Smith's
    division) does, bit for bit. A Python whose complex arithmetic rounds
    otherwise fails here."""

    def test_quotient_matches_complex_truediv(self):
        a, b = complex_pairs(20000, 31)
        b = b[b != 0]
        a = a[:b.size]
        swapped = np.abs(b.real) < np.abs(b.imag)
        assert 0.4 < swapped.mean() < 0.6  # both of Smith's branches
        assert (np.abs(b.real) == np.abs(b.imag)).sum() > 1000
        parts = np.concatenate([a.real, a.imag, b.real, b.imag])
        assert set(np.signbit(parts[parts == 0]).tolist()) == {False, True}  # zeros of both signs
        want = np.array([x / y for x, y in zip(a.tolist(), b.tolist())])
        assert np.array_equal(_quotient(a, b).view(np.uint64), want.view(np.uint64))

    def test_quotient_broadcasts_a_column_over_a_row(self):
        # the output takes the broadcast shape, not the denominator's
        a, b = complex_pairs(400, 32)
        a, b = a[:13].reshape(13, 1), b[b != 0][:169].reshape(1, 169)
        want = np.array([[complex(x) / complex(y) for y in b[0]] for x in a[:, 0]])
        got = _quotient(a, b)
        assert got.shape == (13, 169)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRelativePhaseArray:
    """An array omega gives the bits of per-point scalar calls, and the
    phase of the ratio agrees with the amplitudes' own product."""

    @pytest.mark.parametrize(
        "overrides, bg",
        [
            pytest.param({}, None, id="device"),
            pytest.param({"g": 0.0}, None, id="uncoupled"),
            pytest.param({"omega_qd": WC + 12.5}, None, id="detuned"),
            pytest.param({"kappa_top": 37.6, "omega_qd": WC - 7.0}, BackgroundModel(0.6, 1.1), id="detuned_background"),
            pytest.param({"g": 0.0}, BackgroundModel(0.3, -2.0), id="uncoupled_background"),
        ],
    )
    def test_matches_per_point_chain(self, overrides, bg):
        p = SystemParams(**{**DEVICE, **overrides})
        grid = grid_around(WC, 80.0, 1601)
        got = relative_phase(p, grid, bg)
        want = np.array([relative_phase(p, w, bg) for w in grid])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # measured: at most 3.8e-16 from the amplitude chain
        chain = np.array([oracle_relative_phase(p, w, bg) for w in grid])
        assert np.max(np.abs(got - chain)) <= 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 1e-302, 1e-310])
    def test_underflowing_denominator_matches_per_point_chain(self, gamma):
        # g * g underflows; at omega_qd, d_qd is 0 (the dot alone reflects),
        # tiny or subnormal (its reciprocal overflows)
        p = SystemParams(g=1e-200, kappa_top=1.2, kappa_side=24.7, gamma=gamma, omega_c=WC, omega_qd=WC + 3.0)
        grid = WC + np.array([-5.0, 3.0, 7.0])
        want = np.array([oracle_relative_phase(p, w) for w in grid])
        assert np.array_equal(relative_phase(p, grid).view(np.uint64), want.view(np.uint64))
        assert relative_phase(p, WC + 3.0) == want[1]
        assert (want[1] != 0) == (gamma == 0)

    def test_empty_cavity_floor_raises(self):
        # k is subnormal and G overflows: the phases are nan
        p = SystemParams(g=1.0, kappa_top=1e-320, kappa_side=0.0, gamma=1.0, omega_c=1000.0)
        for omega in (1000.0, np.array([999.0, 1000.0])):
            with pytest.raises(DegenerateModelError, match=r"^conditional phases are not finite at g=1\.0, kappa_top=1e-320,"):
                relative_phase(p, omega)


class TestMaxConditionalPhase:
    def test_refinement_beats_dense_scan(self):
        p = SystemParams(**DEVICE)
        magnitude, argmax = max_conditional_phase(p)
        grid = grid_around(WC, 5 * 25.9, 2000001)
        dense = np.max(np.abs(relative_phase(p, grid)))
        assert magnitude >= dense - 1e-12
        assert magnitude == pytest.approx(COND_MAX_INTRINSIC, abs=1e-7)
        assert argmax - WC == pytest.approx(COND_MAX_OFFSET, abs=1e-3)

    def test_design_point_reaches_pi_at_resonance(self):
        p = SystemParams(g=9.4, kappa_top=37.6, kappa_side=24.7, gamma=5.0, omega_c=WC)
        magnitude, argmax = max_conditional_phase(p)
        # the maximum sits on the sign-flip cusp at resonance
        assert magnitude == pytest.approx(np.pi, abs=1e-6)
        assert argmax == pytest.approx(WC, abs=0.01)
        assert relative_phase(p, WC) == pytest.approx(np.pi, abs=0.0)

    def test_exact_extrema_beat_dense_grid(self):
        # rates within 20% of the device, kappa_top across the sign flip,
        # a third of the inputs detuned, a fifth under a coherent background
        rng = np.random.default_rng(11)
        cusps = 0
        for _ in range(200):
            g, ks, gam = (v * rng.uniform(0.8, 1.2) for v in (9.4, 24.7, 5.0))
            kap = rng.uniform(0.05, 60.0)
            wqd = WC + (rng.uniform(-20.0, 20.0) if rng.uniform() < 1 / 3 else 0.0)
            p = SystemParams(g=g, kappa_top=kap, kappa_side=ks, gamma=gam, omega_c=WC, omega_qd=wqd)
            bg = None
            if rng.uniform() < 0.2:
                bg = BackgroundModel(rng.uniform(0.0, 0.9), rng.uniform(-np.pi, np.pi))
            magnitude, argmax = max_conditional_phase(p, bg)

            grid = grid_around(WC, 5 * (kap + ks) + abs(wqd - WC), 400001)
            r_d = inline_amplitude(g, kap, ks, gam, WC, wqd, grid)
            r_c = inline_amplitude(0.0, kap, ks, gam, WC, wqd, grid)
            if bg is not None:
                r_d, r_c = apply_background(r_d, bg), apply_background(r_c, bg)
            assert magnitude >= np.max(np.abs(np.angle(r_d * np.conj(r_c)))) - 1e-12
            assert abs(relative_phase(p, argmax, bg)) == magnitude
            # an overcoupled empty cavity (r_c < 0) against a positive coupled
            # amplitude (4 g^2 > gamma (kappa_top - kappa_side)) at resonance:
            # the two phases differ by exactly pi there
            overcoupled = kap > ks and 4 * g * g > gam * (kap - ks)
            if wqd == WC and bg is None and overcoupled:
                cusps += 1
                assert (magnitude, argmax) == (np.pi, WC)
        assert cusps > 20

    def test_magnitude_bounded_by_pi(self):
        for kappa in (0.5, 5.0, 24.7, 60.0):
            p = SystemParams(g=9.4, kappa_top=kappa, kappa_side=24.7, gamma=5.0, omega_c=WC)
            magnitude, _ = max_conditional_phase(p)
            assert 0.0 <= magnitude <= np.pi + 1e-12


class TestSweep:
    def test_device_and_design_points(self):
        base = SystemParams(**DEVICE)
        points = sweep_kappa(base, [37.6, 1.2])
        assert [pt.params.kappa_top for pt in points] == [1.2, 37.6]

        as_built, redesigned = points
        assert not as_built.feasible
        assert as_built.max_conditional_phase == pytest.approx(COND_MAX_INTRINSIC, abs=1e-6)

        assert redesigned.feasible
        assert redesigned.max_conditional_phase == pytest.approx(np.pi, abs=1e-6)
        assert redesigned.on_resonance_reflectivity == pytest.approx(0.1888210545, abs=1e-9)
        assert redesigned.on_resonance_reflectivity == pytest.approx(0.19, abs=0.03)

    def test_vanishing_outcoupling_vanishing_phase(self):
        base = SystemParams(**DEVICE)
        (point,) = sweep_kappa(base, [1e-3])
        assert point.max_conditional_phase < 1e-3
        assert not point.feasible

    def test_empty_cavity_sign_flip_at_kappa_side(self):
        for eps in (1e-6, 1e-3):
            below = SystemParams(g=9.4, kappa_top=24.7 - eps, kappa_side=24.7, gamma=5.0, omega_c=WC)
            above = SystemParams(g=9.4, kappa_top=24.7 + eps, kappa_side=24.7, gamma=5.0, omega_c=WC)
            assert reflection_amplitude(replace(below, g=0.0), WC).real > 0
            assert reflection_amplitude(replace(above, g=0.0), WC).real < 0

    def test_feasibility_boundary_in_strongly_coupled_sweep(self):
        # with g >= (kappa + kappa_side + gamma)/4 across the sweep the
        # classification follows the sign of the empty-cavity on-resonance
        # amplitude: the boundary sits at kappa = kappa_side
        base = SystemParams(g=30.0, kappa_top=5.0, kappa_side=10.0, gamma=2.0, omega_c=WC)
        kappas = [6.0, 8.0, 9.9, 10.1, 12.0, 20.0, 40.0]
        points = sweep_kappa(base, kappas)
        for pt in points:
            assert pt.params.g >= (pt.params.kappa_total + pt.params.gamma) / 4
            assert pt.feasible == (pt.params.kappa_top > base.kappa_side)

    def test_rescaling_invariance(self):
        base = SystemParams(**DEVICE)
        scale = 3.7
        scaled = SystemParams(
            g=9.4 * scale,
            kappa_top=1.2 * scale,
            kappa_side=24.7 * scale,
            gamma=5.0 * scale,
            omega_c=WC,
        )
        mag0, arg0 = max_conditional_phase(base)
        mag1, arg1 = max_conditional_phase(scaled)
        assert mag1 == pytest.approx(mag0, abs=1e-8)
        assert (arg1 - WC) == pytest.approx(scale * (arg0 - WC), rel=1e-4)
        refl0 = abs(reflection_amplitude(base, WC)) ** 2
        refl1 = abs(reflection_amplitude(scaled, WC)) ** 2
        assert refl1 == pytest.approx(refl0, abs=1e-12)

    def test_batching_cannot_change_a_point(self):
        base = SystemParams(**DEVICE)
        kappas = np.linspace(0.5, 120.0, 47)
        batched = sweep_kappa(base, kappas)
        for k, point in zip(kappas, batched):
            assert sweep_kappa(base, [k]) == [point]

    def test_overflowing_rate_raises_without_a_warning(self):
        # the phases stay finite, the reflectivity at kappa_top=1e308 does
        # not: one error, no numpy warning first (RuntimeWarning is an error
        # under this suite's filter)
        with pytest.raises(DegenerateModelError, match="^on-resonance reflectivities are not finite at g=9.4, kappa_top=1e\\+308,"):
            sweep_kappa(SystemParams(9.4, 1.2, 24.7, 5.0, WC), [2.0, 1e308])

    @pytest.mark.parametrize("overrides", [{}, {"g": 1e-200, "gamma": 1e-310}], ids=["device", "design_underflow"])
    @pytest.mark.parametrize(
        "kappas", [[1e-300], [1e308], [1e-300, 2.0, 60.0, 1e308], np.linspace(2.0, 60.0, 30)],
        ids=["tiny", "huge", "mixed", "default_grid"],
    )
    def test_extreme_rates_match_per_point_chain_or_raise(self, overrides, kappas):
        """The reflectivity is CPython's ``abs(r) ** 2`` without an errstate:
        under an error filter on every warning, an extreme rate gives the
        per-point chain's points or one DegenerateModelError, never a warning
        or CPython's OverflowError or ZeroDivisionError."""
        base = SystemParams(**{**DEVICE, **overrides})
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                want = oracle_sweep(base, kappas)
            except ValueError:  # a phase or reflectivity that is not finite
                want = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(DegenerateModelError):
                    sweep_kappa(base, kappas)
            else:
                got = sweep_kappa(base, kappas)
                assert got == want and np.array_equal(bits(got), bits(want))
                assert all(type(pt.on_resonance_reflectivity) is float for pt in got)

    def test_empty_sweep(self):
        assert sweep_kappa(SystemParams(**DEVICE), []) == []

    def test_sweep_pins_zero_detuning(self):
        base = SystemParams(**DEVICE)
        kappas = [1.2, 24.7, 37.6]
        assert sweep_kappa(replace(base, omega_qd=base.omega_c + 5.0), kappas) == sweep_kappa(base, kappas)


class TestBatchedPolynomials:
    """The batched sweep against per-point calls (max_conditional_phase and
    the scalar amplitude at resonance), bit for bit."""

    def test_sweeps_match_per_point_chain(self):
        rng = np.random.default_rng(15)
        kappas = np.linspace(2.0, 60.0, 30)
        bases = [
            SystemParams(**{k: v * rng.uniform(0.8, 1.2) for k, v in DEVICE.items()})
            for _ in range(100)
        ]
        bases += [
            SystemParams(
                g=rng.uniform(0.01, 60.0), kappa_top=1.0, kappa_side=rng.uniform(0.0, 80.0),
                gamma=rng.uniform(0.0, 30.0), omega_c=WC * rng.uniform(0.5, 1.5),
            )
            for _ in range(100)
        ]
        for base in bases:
            got, want = sweep_kappa(base, kappas), oracle_sweep(base, kappas)
            assert got == want and np.array_equal(bits(got), bits(want)), base

    def test_wide_sweeps_match_per_point_chain(self):
        rng = np.random.default_rng(16)
        kappas = np.linspace(0.05, 200.0, 240)
        bases = [SystemParams(**DEVICE)] + [
            SystemParams(
                g=rng.uniform(0.01, 60.0), kappa_top=1.0, kappa_side=rng.uniform(0.0, 80.0),
                gamma=rng.uniform(0.0, 30.0), omega_c=WC,
            )
            for _ in range(3)
        ]
        for base in bases:
            got, want = sweep_kappa(base, kappas), oracle_sweep(base, kappas)
            assert got == want and np.array_equal(bits(got), bits(want)), base

    def test_detuned_points_with_background_match_per_point_chain(self):
        """Detuned or under a background, 200 points: the magnitude is the
        mpmath truth to 1e-12 and the phase of the scalar amplitude chain at
        the argmax to 1e-9, and a per-point relative_phase call at the
        argmax gives the magnitude bit for bit. Measured: at most 3.4e-14
        from the truth and 4.1e-10 from the chain."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = SystemParams(
                g=rng.uniform(0.01, 60.0), kappa_top=rng.uniform(0.05, 100.0),
                kappa_side=rng.uniform(0.0, 80.0), gamma=rng.uniform(0.0, 30.0),
                omega_c=WC, omega_qd=WC + rng.uniform(-40.0, 40.0),
            )
            bg = BackgroundModel(rng.uniform(0.0, 0.95), rng.uniform(-np.pi, np.pi)) if rng.random() < 0.7 else None
            magnitude, argmax = max_conditional_phase(p, bg)
            assert magnitude == pytest.approx(truth_max_conditional_phase(mp, p, bg), rel=1e-12, abs=0.0), (p, bg)
            assert magnitude == pytest.approx(abs(oracle_relative_phase(p, argmax, bg)), rel=1e-9, abs=0.0), (p, bg)
            assert abs(relative_phase(p, argmax, bg)) == magnitude, (p, bg)

    @pytest.mark.parametrize(
        "p, bg",
        [
            (
                SystemParams(g=2.9702206281948528e-05, kappa_top=36.933005608377066, kappa_side=32.57729808490784,
                             gamma=0.011366248016007052, omega_c=WC, omega_qd=WC),
                BackgroundModel(fraction=0.02179118904294357, phase=-2.4037932889785973),
            ),
            (
                SystemParams(g=1.8865736273422363e-06, kappa_top=66.44352526343027, kappa_side=3.2657538846972756,
                             gamma=19.0497719512002, omega_c=WC, omega_qd=WC),
                BackgroundModel(fraction=0.7862477357734968, phase=0.9197034572961167),
            ),
        ],
        ids=["g3e-5", "g2e-6"],
    )
    def test_stationarity_noise_trim_matches_per_point_chain(self, p, bg):
        """Nearly uncoupled dots under a background. Built from the
        difference of two nearly equal amplitudes, the stationarity
        polynomial of these points led with rounding noise that had to be
        trimmed; built from the ratio 1 + eps / P it has none. The magnitude
        is the mpmath truth to 1e-12, and a per-point relative_phase call at
        the argmax gives it bit for bit."""
        mp = pytest.importorskip("mpmath")
        magnitude, argmax = max_conditional_phase(p, bg)
        assert magnitude == pytest.approx(truth_max_conditional_phase(mp, p, bg), rel=1e-12, abs=0.0)
        assert abs(relative_phase(p, argmax, bg)) == magnitude

    def test_argmax_stable_under_one_ulp_of_kappa(self):
        """Moving kappa_top by one ulp either way moves the argmax by at most
        1e-9 kappa_total."""
        rng = np.random.default_rng(21)
        moved = []
        for _ in range(2000):
            p = SystemParams(
                g=rng.uniform(0.01, 60.0), kappa_top=rng.uniform(0.05, 100.0),
                kappa_side=rng.uniform(0.0, 80.0), gamma=rng.uniform(0.0, 30.0),
                omega_c=WC, omega_qd=WC + rng.uniform(-40.0, 40.0),
            )
            bg = BackgroundModel(rng.uniform(0.0, 0.95), rng.uniform(-np.pi, np.pi)) if rng.random() < 0.7 else None
            kappas = (p.kappa_top, np.nextafter(p.kappa_top, 0.0), np.nextafter(p.kappa_top, np.inf))
            rates = np.array([astuple(replace(p, kappa_top=k)) for k in kappas]).T
            (_, argmax), *shifted = design._max_conditional_phases(rates, bg)
            moved += [abs(w - argmax) / p.kappa_total for _, w in shifted]
        assert max(moved) <= 1e-9

    @pytest.mark.parametrize(
        "overrides, underflows",
        [({"g": 0.0}, False), ({"g": 1e-200, "gamma": 1e-310}, True)],
        ids=["uncoupled", "underflowing"],
    )
    def test_reflectivity_branches_match_per_point_chain(self, overrides, underflows, monkeypatch):
        # an uncoupled dot, and a coupled denominator below the floor at
        # resonance (g * g underflows beside a subnormal d_qd)
        calls = []
        # design holds its own reference to _quotient: this counts the
        # amplitude's divided form only
        monkeypatch.setattr(scattering, "_quotient", lambda *a: calls.append(a) or _quotient(*a))
        base = SystemParams(**{**DEVICE, **overrides})
        kappas = np.linspace(0.05, 200.0, 240)
        got = sweep_kappa(base, kappas)
        # one scalar amplitude per kappa, in the divided form if any
        assert len(calls) == (kappas.size if underflows else 0)
        want = oracle_sweep(base, kappas)
        assert got == want and np.array_equal(bits(got), bits(want))
        assert [(pt.max_conditional_phase, pt.argmax_omega) for pt in got] == [(0.0, WC)] * kappas.size

    def test_uncoupled_sweep_peaks_at_resonance(self):
        rng = np.random.default_rng(18)
        kappas = np.linspace(0.05, 200.0, 240)
        for base in [SystemParams(**DEVICE)] + [
            SystemParams(**{k: v * rng.uniform(0.8, 1.2) for k, v in DEVICE.items()}) for _ in range(5)
        ]:
            base = replace(base, g=0.0)
            points = sweep_kappa(base, kappas)
            assert [(pt.max_conditional_phase, pt.argmax_omega) for pt in points] == [(0.0, base.omega_c)] * 240
            assert points == oracle_sweep(base, kappas)

    @pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
    def test_uncoupled_dot_under_background_peaks_at_resonance(self, detuned):
        """With g == 0 every candidate has magnitude 0, so a root of rounding
        noise must not win the lowest-energy tie: each draw gives omega_c."""
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = SystemParams(
                g=0.0, kappa_top=rng.uniform(0.05, 120.0), kappa_side=rng.uniform(0.0, 50.0),
                gamma=rng.uniform(0.0, 20.0), omega_c=WC, omega_qd=WC + detuned * rng.uniform(-30.0, 30.0),
            )
            bg = BackgroundModel(rng.uniform(0.0, 0.95), rng.uniform(-np.pi, np.pi))
            got = np.array(max_conditional_phase(p, bg)).view(np.uint64)
            assert np.array_equal(got, np.array((0.0, WC)).view(np.uint64)), (p, bg)


class TestZeroDetuningParity:
    """At zero detuning without a background ``P(-u) = conj(P(u))``: the
    stationarity row is even in u and ``Im(P)`` odd, so
    :func:`_real_roots` solves both in ``u**2``."""

    def test_root_rows_are_polynomials_in_u_squared(self, monkeypatch):
        """The rows of every sweep below have exactly 0.0 at each odd power
        of the stationarity row and each even power of ``Im(P)``."""
        stacks = []
        monkeypatch.setattr(design, "_real_roots", lambda stack: stacks.append(stack.copy()) or _real_roots(stack))
        rng = np.random.default_rng(36)
        bases = [SystemParams(**{k: v * rng.uniform(0.8, 1.2) for k, v in DEVICE.items()}) for _ in range(30)]
        bases += [
            SystemParams(
                g=rng.uniform(0.01, 60.0), kappa_top=1.0, kappa_side=rng.uniform(0.0, 80.0),
                gamma=rng.uniform(0.0, 30.0), omega_c=WC * rng.uniform(0.5, 1.5),
            )
            for _ in range(30)
        ]
        bases += [SystemParams(**{**DEVICE, "g": 1e-200, "gamma": 1e-310})]
        for base in bases:
            for kappas in (np.linspace(2.0, 60.0, 30), [1e-300, 1e308]):
                try:
                    sweep_kappa(base, kappas)
                except DegenerateModelError:  # the reflectivity at 1e308
                    pass
        assert len(stacks) == 2 * len(bases)
        stack = np.concatenate(stacks)
        stationary, imag = stack[0::2], stack[1::2]  # coefficients of u**8 ... u**0
        assert stationary.any(axis=1).mean() > 0.9 and imag.any(axis=1).mean() > 0.9
        assert not stationary[:, 1::2].any() and not imag[:, 0::2].any()

    def test_detuned_rows_have_odd_and_even_powers(self, monkeypatch):
        """A detuned dot breaks both parities: its rows are solved in u."""
        stacks = []
        monkeypatch.setattr(design, "_real_roots", lambda stack: stacks.append(stack.copy()) or _real_roots(stack))
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = SystemParams(**{**DEVICE, "omega_qd": WC + rng.uniform(-30.0, 30.0)})
            max_conditional_phase(p)
        stack = np.concatenate(stacks)
        assert stack[0::2, 1::2].any(axis=1).all() and stack[1::2, 0::2].any(axis=1).all()


class TestFullDegreeRootOracle:
    """Against the same sweep with every root row solved at full degree by
    :func:`numpy.roots`, which is how the rows were solved before the
    zero-detuning rows were solved in ``u**2``."""

    @pytest.mark.parametrize("seed", [38, 39, 40])
    def test_extreme_draws_keep_the_full_degree_maximum(self, seed, monkeypatch):
        """Rates 10**U(-200, 300) at zero detuning, omega_c in {0, 1, WC}:
        the two raise together, and wherever the full-degree maximum is
        above 1e-12 rad the maximum here is at most 1e-9 relative below
        it. Measured on 30000 draws: no raise differs, and the worst point
        above 1e-12 rad is 4.1e-16 lower. Far below it the maximum here can
        be much lower: where a dot's terms underflow out of the rows,
        ``np.roots`` gives imaginary roots real parts of rounding noise
        (5e-17) that happen to land on a larger phase (2.2e-178 rad against
        9.7e-196 on one draw); in ``u**2`` those roots are exactly imaginary."""
        rng = np.random.default_rng(seed)
        for _ in range(1500):
            rates = np.array([*10.0 ** rng.uniform(-200.0, 300.0, size=4), 0.0, 0.0])
            rates[4:] = (0.0, 1.0, WC)[rng.integers(3)]
            got, want = [], []
            for out, roots in ((got, _real_roots), (want, np_roots_oracle)):
                monkeypatch.setattr(design, "_real_roots", roots)
                try:
                    out += design._max_conditional_phases(rates[:, None])
                except DegenerateModelError:
                    out.append(None)
            assert (got[0] is None) == (want[0] is None), rates
            if want[0] is not None and want[0][0] > 1e-12:
                assert got[0][0] >= want[0][0] * (1.0 - 1e-9), rates

    def test_narrow_peak_is_solved_at_full_degree(self, monkeypatch):
        """The design_narrow_peak CLI run: both root rows trip the guard, so
        the sweep is the full-degree one bit for bit. In u**2 it lost the
        peak: 8.7e-57 rad in place of 9.57e-49."""
        base = SystemParams(
            g=28.74274494891464, kappa_top=1.0, kappa_side=2.3876984544217297e-39,
            gamma=1.4257917435192681e-24, omega_c=1.0,
        )
        kappas = [1e-62, 2e-62, 3e-62]
        got = sweep_kappa(base, kappas)
        monkeypatch.setattr(design, "_real_roots", np_roots_oracle)
        want = sweep_kappa(base, kappas)
        assert np.array_equal(bits(got), bits(want))
        assert got[0].max_conditional_phase == 9.574590683000507e-49


class TestExactRatio:
    """The traps of the ratio 1 + eps / P(u): each input against the value
    the amplitudes give."""

    def test_branch_edge_reads_pi(self):
        # eps = 1 over P = -0.5 + 5e-301j gives the ratio -1 - 2e-300j, whose
        # arctan2 rounds to -pi; P = -1j gives 1 + 1j
        p = np.array([[-0.5 + 5e-301j], [-1j]])
        ratio = 1.0 + _quotient(np.ones(2), p[:, 0])
        assert ratio[0] == -1 - 2e-300j and np.arctan2(ratio.imag, ratio.real)[0] == -math.pi
        polys = (p, np.ones((2, 1), dtype=complex), np.full(2, 0.5 + 0j), np.zeros(2), np.ones(2))
        assert design._phases(polys, np.zeros(2)).tolist() == [math.pi, 0.25 * math.pi]

    def test_critical_coupling(self):
        # kappa_top == kappa_side: the empty cavity does not reflect at resonance
        p = SystemParams(g=9.4, kappa_top=24.7, kappa_side=24.7, gamma=5.0, omega_c=WC)
        assert relative_phase(p, WC) == 0.0
        magnitude, argmax = max_conditional_phase(p)
        assert magnitude == pytest.approx(2.0160838588083467, rel=1e-15)
        assert argmax == 1333590.2655010864
        assert sweep_kappa(p, [24.7])[0].max_conditional_phase == magnitude

    def test_subnormal_denominator(self):
        # G and P are subnormal: numpy's complex division by P gives nan
        mp = pytest.importorskip("mpmath")
        p = SystemParams(g=1e-155, kappa_top=1.2, kappa_side=24.7, gamma=1e-310, omega_c=WC)
        below, at, above = relative_phase(p, WC + np.array([-1.0, 0.0, 1.0]))
        assert at == 0.0 and below == -above != 0.0
        with mp.workdps(80):
            assert abs(above) == pytest.approx(float(truth_phase(mp, p, None, WC + 1.0)), rel=1e-6)
        magnitude, argmax = max_conditional_phase(p)
        assert np.isfinite([magnitude, argmax]).all()

    @pytest.mark.parametrize("g", [1e-100, 1e-200])
    def test_dot_alone_reflects_at_resonance(self, g):
        # gamma = 0: d_qd vanishes at resonance, so r_d = 1 however small
        # g * g is, against an overcoupled empty cavity's negative r_c
        p = SystemParams(g=g, kappa_top=37.6, kappa_side=24.7, gamma=0.0, omega_c=WC)
        assert max_conditional_phase(p) == (np.pi, WC)
        assert relative_phase(p, WC) == np.pi

    @pytest.mark.parametrize(
        "overrides, bg",
        [
            ({"g": 0.0}, None),
            ({"g": 1e-200}, None),
            ({"g": 1e-200, "omega_qd": WC + 3.0}, BackgroundModel(0.4, 1.0)),
            ({"g": 1e-200, "gamma": 1e-310}, None),
        ],
        ids=["uncoupled", "coupling_underflows", "underflows_detuned_background", "underflows_subnormal_gamma"],
    )
    def test_vanishing_eps_peaks_at_resonance(self, overrides, bg):
        p = SystemParams(**{**DEVICE, **overrides})
        assert max_conditional_phase(p, bg) == (0.0, WC)

    def test_mirror_ties_go_to_the_lower_energy(self):
        # at zero detuning without a background |phi| is even in the offset:
        # the two mirror maxima tie, and the lower energy wins. Roots found
        # in u**2 are exact mirrors. The narrow peak's rows trip the guard
        # and are solved in u, where np.roots puts the upper mirror ahead in
        # the last bits, as it did at the first WC set before the rows were
        # solved in u**2
        rng = np.random.default_rng(26)
        draws = [(4.4363859252427634e-05, 35.30705179903408, 14.726417790840745, 2.259891453030032)]
        for _ in range(300):
            g = rng.uniform(0.0, 20.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-6.0, -3.0)
            draws.append((g, rng.uniform(0.05, 120.0), rng.uniform(0.0, 50.0), rng.uniform(0.0, 20.0)))
        narrow = SystemParams(28.74274494891464, 1e-62, 2.3876984544217297e-39, 1.4257917435192681e-24, 1.0)
        below = 0
        for p in [narrow] + [SystemParams(*rates, WC) for rates in draws]:
            magnitude, argmax = max_conditional_phase(p)
            assert argmax <= p.omega_c, p
            assert abs(relative_phase(p, 2.0 * p.omega_c - argmax)) == magnitude, p
            below += argmax < p.omega_c
        assert below > 200

    def test_max_conditional_phase_matches_mpmath_truth(self):
        """300 draws: kappa_top 0.05-120, kappa_side 0-50, gamma 0-20,
        detuning 0 or up to 30, half under a background; g up to 20 in half
        of them and log-uniform in [1e-6, 1e-3] in the other half, where
        forming the difference of two nearly equal amplitudes lost up to
        7.6e-2 of the phase on these draws. Measured: at most 2.6e-14."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(27)
        worst = {False: 0.0, True: 0.0}
        for small in [False] * 150 + [True] * 150:
            g = 10.0 ** rng.uniform(-6.0, -3.0) if small else rng.uniform(1e-3, 20.0)
            p = SystemParams(
                g=g, kappa_top=rng.uniform(0.05, 120.0), kappa_side=rng.uniform(0.0, 50.0),
                gamma=rng.uniform(0.0, 20.0), omega_c=WC,
                omega_qd=WC + (rng.uniform(-30.0, 30.0) if rng.random() < 0.5 else 0.0),
            )
            bg = BackgroundModel(rng.uniform(0.0, 0.95), rng.uniform(-np.pi, np.pi)) if rng.random() < 0.5 else None
            magnitude, _ = max_conditional_phase(p, bg)
            truth = truth_max_conditional_phase(mp, p, bg)
            worst[small] = max(worst[small], abs(magnitude - truth) / truth)
        assert max(worst.values()) <= 1e-12, worst


class TestDesignPoint:
    def test_field_validation(self):
        p = SystemParams(**DEVICE)
        with pytest.raises(ValueError):
            DesignPoint(p, max_conditional_phase=4.0, argmax_omega=WC, on_resonance_reflectivity=0.5)
        with pytest.raises(ValueError):
            DesignPoint(p, max_conditional_phase=0.5, argmax_omega=WC, on_resonance_reflectivity=1.5)

    def test_feasible_exactly_above_half_pi(self):
        p = SystemParams(**DEVICE)
        half_pi = 0.5 * np.pi
        for magnitude, feasible in [(0.0, False), (half_pi, False), (np.nextafter(half_pi, 4.0), True), (np.pi, True)]:
            point = DesignPoint(p, magnitude, WC, 0.5)
            assert point.feasible is feasible


def padded_stack(polys, dtype=float):
    """The coefficient rows zero-padded in front to one width."""
    width = max(len(c) for c in polys)
    stack = np.zeros((len(polys), width), dtype=dtype)
    for row, c in zip(stack, polys):
        row[width - len(c):] = c
    return stack


def even_row(q, lead=0, trail=0):
    """The coefficients of ``Q(u**2)`` for Q's ``q``, behind ``lead`` zeros
    and ahead of ``trail`` zeros (roots at zero: odd polynomials for odd
    ``trail``)."""
    row = np.zeros(lead + 2 * len(q) - 1 + trail, dtype=np.result_type(q, 0.0))
    row[lead:lead + 2 * len(q) - 1:2] = q
    return row


def truth_real_roots(mp, row):
    """The sorted real parts of the roots of ``row`` and their largest
    magnitude, as eigenvalues of its companion matrix at 80 digits (which,
    unlike ``polyroots``, converge at multiple roots); trailing zeros are
    roots at zero."""
    row = np.trim_zeros(np.asarray(row), "f")
    inner = np.trim_zeros(row, "b")
    d = inner.size - 1
    with mp.workdps(80):
        coeffs = [mp.mpc(complex(c)) for c in inner]
        companion = mp.matrix(d, d)
        for j in range(d):
            companion[0, j] = -coeffs[j + 1] / coeffs[0]
            if j:
                companion[j, j - 1] = 1
        found = mp.eig(companion, left=False, right=False) if d else []
        real = sorted([float(mp.re(r)) for r in found] + [0.0] * (row.size - inner.size))
        return np.array(real), max([float(abs(r)) for r in found], default=0.0)


def np_roots_oracle(stack):
    """``np.roots(row).real`` of each row, zero-filled to the shape of
    :func:`_real_roots`' result: every row at its full degree."""
    out = np.zeros((stack.shape[0], stack.shape[1] - 1))
    for row, dest in zip(stack, out):
        roots = np.roots(row).real
        dest[:roots.size] = roots
    return out


class TestRealRoots:
    """Each row of one stack, rows of mixed sizes, against ``np.roots`` of
    the row alone: the same bits, then zeros. Rows in ``u**2`` against the
    roots at 80 digits."""

    def assert_rows_match_np_roots(self, polys, dtype=float):
        got = _real_roots(padded_stack(polys, dtype))
        assert got.shape == (len(polys), max(len(c) for c in polys) - 1)
        for c, roots in zip(polys, got):
            want = np.roots(c).real
            assert np.array_equal(roots[:want.size].view(np.uint64), want.view(np.uint64)), c
            assert not roots[want.size:].any(), c

    def test_matches_np_roots_bit_for_bit(self):
        rng = np.random.default_rng(20)
        polys = [rng.normal(size=n) for n in range(10) for _ in range(5)]
        polys += [rng.normal(size=n) + 1j * rng.normal(size=n) for n in (2, 5, 9)]
        for n in range(1, 7):
            padded = np.zeros(n + 4)
            lead, trail = rng.integers(0, 3, size=2)
            padded[lead:lead + n] = rng.normal(size=n)
            polys.append(padded[: n + lead + trail])
        polys += [
            np.zeros(5),
            np.zeros(1),
            np.array([0.0, 3.0, 0.0, 0.0]),
            np.array([1, -3, 2]),
            np.poly([0.5, 0.5, 0.5, -1.0]),  # repeated roots
            np.poly([1 + 2j, 1 - 2j, 0.3, -0.7 + 0.1j, -0.7 - 0.1j]),  # conjugate pairs
            np.poly([2.0, 2.0, 1 + 1j, 1 - 1j, 0.0]),
            np.array([0.0, 2.0 - 1j, 0.0]),
            np.zeros(4, dtype=complex),
        ]
        polys = [polys[i] for i in rng.permutation(len(polys))]
        # a complex stack has complex companions, as np.roots of a complex row
        complex_rows = [np.iscomplexobj(c) for c in polys]
        assert 0 < sum(complex_rows) < len(polys)
        self.assert_rows_match_np_roots([c for c, z in zip(polys, complex_rows) if not z])
        self.assert_rows_match_np_roots([c for c, z in zip(polys, complex_rows) if z], complex)

    def test_degenerate_inputs(self):
        assert _real_roots(np.zeros((0, 4))).shape == (0, 3)
        empty, zeros, constant, trailing = _real_roots(padded_stack([np.zeros(0), np.zeros(3), [4.0], [0.0, 3.0, 0.0, 0.0]]))
        assert not (empty.any() or zeros.any() or constant.any())
        assert np.array_equal(trailing, [0.0, 0.0, 0.0])

    def assert_rows_match_truth(self, polys, tol, mp):
        worst = 0.0
        for c in polys:
            got = _real_roots(c[None])[0]
            want, scale = truth_real_roots(mp, c)
            assert not got[want.size:].any(), c
            worst = max(worst, np.max(np.abs(np.sort(got[:want.size]) - want), initial=0.0) / scale)
        assert worst <= tol, worst
        return worst

    def test_rows_in_u_squared_match_mpmath(self):
        """Even and odd rows (``Q(u**2)`` and ``u Q(u**2)``), padded front
        and back, solved in ``v = u**2``: the sorted real parts of their
        roots against the 80-digit truth, relative to the largest root.
        Both square roots of each v count, so the multiset is the one of
        ``np.roots``. Separated roots, real or complex coefficients, and
        spreads up to 2**99 just under the guard: measured at most 7.2e-16
        (np.roots: 1.6e-15). Double and near-double roots, which float64
        coefficients split by about sqrt(eps): measured at most 1.3e-8
        (np.roots: 3.9e-8)."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(34)
        pads = lambda: rng.integers(0, 3, size=2)
        separated, clustered = [], []
        for m in range(1, 5):
            for _ in range(4):
                separated.append(even_row(rng.normal(size=m + 1), *pads()))
                separated.append(even_row(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1), *pads()))
        separated += [even_row(np.poly([1.0, 2.0 ** -e]) * rng.choice([-1, 1]), *pads()) for e in (10, 50, 80, 99)]
        for _ in range(6):
            a, b = rng.normal(), rng.normal() + 1j * rng.normal()
            clustered.append(even_row(np.poly([a, a, rng.normal()]), *pads()))  # double roots in v
            clustered.append(even_row(np.poly([b, b, b.conjugate(), b.conjugate()]).real, *pads()))
            v = rng.uniform(0.1, 4.0)
            clustered.append(even_row(np.poly([v, v * (1.0 + 10.0 ** rng.uniform(-12.0, -4.0)), rng.normal()]), *pads()))
        clustered.append(even_row(np.poly([0.25, 0.25]), 1, 1))  # exact double roots +-1/2
        self.assert_rows_match_truth(separated, 2e-15, mp)
        self.assert_rows_match_truth(clustered, 1e-7, mp)

    def test_guard_and_rows_without_parity_match_np_roots_bit_for_bit(self):
        """Rows in ``u**2`` whose nonzero coefficients span 2**100 or more,
        and rows with an odd-offset coefficient, are solved at full degree:
        ``np.roots`` bit for bit."""
        rng = np.random.default_rng(35)
        polys = [even_row(np.poly([1.0, 2.0 ** -e]), *rng.integers(0, 3, size=2)) for e in (100, 101, 160, 400)]
        # the narrow peak's shape: roots +-1e-30 beside +-1, and beside +-1e30
        polys += [even_row(np.poly([1.0, 1e-60])), even_row(np.poly([1e60, 1.0, 1e-60]), 1, 1)]
        polys += [even_row(np.poly([1.0, 2.0 ** -120]) * (1.0 + 2.0j))]
        for m in range(1, 5):  # one coefficient just behind the leading one
            lead, trail = rng.integers(0, 3, size=2)
            row = even_row(rng.normal(size=m + 1), lead, trail)
            row[lead + 1] = rng.normal()
            polys.append(row)
        self.assert_rows_match_np_roots([c for c in polys if not np.iscomplexobj(c)])
        self.assert_rows_match_np_roots([c for c in polys if np.iscomplexobj(c)], complex)
