"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
Criterion 8 checks the scan's minimum reflectivity-dip gap against the
exact dip splitting at zero detuning (the stationary points of |r|^2),
to a relative 1e-3. The dressed-state eigen-splitting (15.63 ueV) is
kept as a cross-checked lower bound: near the strong-coupling threshold
the spectral lines sit outside the dressed energies, so the dip gap
(19.93 ueV) is the larger of the two.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pillar_qed import (
    BackgroundModel,
    ReferenceArm,
    Spectrum,
    SystemParams,
    TuningModel,
    anticrossing_gap,
    apply_background,
    coupling_regime,
    extract_phase,
    fit,
    fringe_phase,
    make_guess,
    measured_intensity,
    q_factor,
    quadrature_offset,
    rabi_splitting,
    reflection_amplitude,
    relative_phase,
    scan_dip_positions,
    simulate_channels,
    sweep_kappa,
    synthesize_scan,
)
from pillar_qed.estimation import FitProblem

from conftest import DEVICE

WC = DEVICE["omega_c"]
RATES = ("g", "kappa_top", "kappa_side", "gamma")


def _report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {detail}")


def device():
    return SystemParams(**DEVICE)


def test_criterion_1_amplitude_oracle_equivalence():
    rng = np.random.default_rng(2026)
    n = 10**4
    g = rng.uniform(0.0, 50.0, n)
    kap = rng.uniform(0.1, 50.0, n)
    ks = rng.uniform(0.0, 50.0, n)
    gam = rng.uniform(0.0, 50.0, n)
    wc = rng.uniform(1e3, 2e6, n)
    wqd = wc + rng.uniform(-1e3, 1e3, n)
    w = wc + rng.uniform(-1e3, 1e3, n)

    start = time.perf_counter()
    impl = np.array(
        [
            reflection_amplitude(
                SystemParams(g[i], kap[i], ks[i], gam[i], wc[i], wqd[i]), w[i]
            )
            for i in range(n)
        ]
    )
    oracle = 1 - (kap * (1j * (wqd - w) + gam / 2)) / (
        (1j * (wqd - w) + gam / 2) * (1j * (wc - w) + (kap + ks) / 2) + g * g
    )
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(impl - oracle) / np.abs(oracle)))

    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"max relative deviation {worst:.2e} over {n} draws in {elapsed:.2f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_q_factor():
    p = device()
    q = q_factor(p)
    ok = abs(q - 51490.0) <= 1.0 and abs(q - 51000.0) / 51000.0 < 0.02
    _report(2, ok, f"Q = {q:.3f} (51490 +- 1, within 2% of 51000)")
    assert abs(q - 51490.0) <= 1.0
    assert abs(q - 51000.0) / 51000.0 < 0.02


def test_criterion_3_strong_coupling_predicate():
    p = device()
    reduced = SystemParams(7.7, 1.2, 24.7, 5.0, WC)
    ok = coupling_regime(p) == "strong" and coupling_regime(reduced) == "weak"
    _report(3, ok, f"g=9.4 -> {coupling_regime(p)}, g=7.7 -> {coupling_regime(reduced)}")
    assert coupling_regime(p) == "strong"
    assert coupling_regime(reduced) == "weak"


def test_criterion_4_fit_round_trip():
    start = time.perf_counter()
    p = device()
    grid = np.linspace(WC - 100.0, WC + 100.0, 2001)
    clean = Spectrum(grid, measured_intensity(p, grid))
    truth = make_guess(p)

    def perturbed_guess():
        guess = make_guess(p)
        for name, factor in zip(RATES, (1.2, 0.8, 1.2, 0.8)):
            guess[name] *= factor
        return guess

    result = fit(FitProblem(guess=perturbed_guess(), intensity=clean))
    noiseless_err = max(abs(result.params[n] - truth[n]) / truth[n] for n in RATES)

    errors = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noisy = Spectrum(grid, clean.values * (1 + 0.01 * rng.standard_normal(len(clean))))
        res = fit(FitProblem(guess=perturbed_guess(), intensity=noisy))
        errors.append([abs(res.params[n] - truth[n]) / truth[n] for n in RATES])
    median_err = float(np.max(np.median(np.array(errors), axis=0)))
    elapsed = time.perf_counter() - start

    ok = result.converged and noiseless_err < 0.01 and median_err < 0.10 and elapsed < 30.0
    _report(
        4,
        ok,
        f"noiseless max err {noiseless_err:.2e} (<1%), noisy median max err "
        f"{median_err:.2%} (<10%), {elapsed:.1f} s (<30 s)",
    )
    assert result.converged
    assert noiseless_err < 0.01
    assert median_err < 0.10
    assert elapsed < 30.0


def test_criterion_5_conditional_phase_fringe_readout():
    # the quoted conditional phases are fringe-normalized readings,
    # (d - a)/sqrt(h*v) = sin(phi); intrinsic and background-diluted maxima
    p = device()
    grid = np.linspace(WC - 100.0, WC + 100.0, 20001)
    ref = ReferenceArm(beta=1.0, sb_offset=quadrature_offset(1.0))

    r_d = reflection_amplitude(p, grid)
    r_c = reflection_amplitude(replace(p, g=0.0), grid)
    intrinsic = np.max(
        np.abs(
            fringe_phase(simulate_channels(r_d, ref, omega=grid))
            - fringe_phase(simulate_channels(r_c, ref, omega=grid))
        )
    )

    bg = BackgroundModel(0.7)
    m_d = apply_background(r_d, bg)
    m_c = apply_background(r_c, bg)
    measured = np.max(
        np.abs(
            fringe_phase(simulate_channels(m_d, ref, omega=grid))
            - fringe_phase(simulate_channels(m_c, ref, omega=grid))
        )
    )

    ok = abs(intrinsic - 0.12) <= 0.02 and abs(measured - 0.05) <= 0.01
    _report(
        5,
        ok,
        f"intrinsic max {intrinsic:.4f} rad (0.12 +- 0.02), "
        f"b=0.7 max {measured:.4f} rad (0.05 +- 0.01)",
    )
    assert abs(intrinsic - 0.12) <= 0.02
    assert abs(measured - 0.05) <= 0.01


def test_criterion_6_design_point():
    base = device()
    as_built, redesigned = sweep_kappa(base, [1.2, 37.6])

    design_params = redesigned.params
    on_res_phase = abs(relative_phase(design_params, WC))
    refl = redesigned.on_resonance_reflectivity

    ok = (
        redesigned.feasible
        and on_res_phase == pytest.approx(np.pi, abs=1e-12)
        and abs(refl - 0.19) <= 0.03
        and not as_built.feasible
    )
    _report(
        6,
        ok,
        f"kappa=37.6: feasible={redesigned.feasible}, on-resonance phase "
        f"{on_res_phase:.6f} (=pi), reflectivity {refl:.4f} (0.19 +- 0.03); "
        f"kappa=1.2: feasible={as_built.feasible}",
    )
    assert redesigned.feasible
    assert on_res_phase == pytest.approx(np.pi, abs=1e-12)
    assert abs(refl - 0.19) <= 0.03
    assert not as_built.feasible


def test_criterion_7_interferometer_round_trip():
    rng = np.random.default_rng(7)
    n = 10**3
    moduli = rng.uniform(0.05, 1.0, n)
    phases = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, n)
    betas = rng.uniform(0.1, 1.0, n)

    worst_phase = 0.0
    worst_conservation = 0.0
    for mod, phi, beta in zip(moduli, phases, betas):
        r = mod * np.exp(1j * phi)
        ref = ReferenceArm(beta=beta, sb_offset=quadrature_offset(beta))
        rec = simulate_channels(r, ref)
        worst_phase = max(worst_phase, abs(extract_phase(rec, ref) - phi))
        worst_conservation = max(worst_conservation, abs(rec.d + rec.a - rec.h - rec.v))

    ok = worst_phase < 1e-9 and worst_conservation < 1e-12
    _report(
        7,
        ok,
        f"round-trip max error {worst_phase:.2e} (<1e-9), "
        f"conservation max {worst_conservation:.2e} (<1e-12) over {n} draws",
    )
    assert worst_phase < 1e-9
    assert worst_conservation < 1e-12


def test_criterion_8_anticrossing_gap():
    p = device()
    model = TuningModel(
        qd_slope=-10.0, cavity_slope=-3.0, qd_ref=WC + 14.0, cavity_ref=WC, t_ref=19.0
    )
    grid = np.linspace(WC - 120.0, WC + 120.0, 24001)
    scan = synthesize_scan(p, model, np.arange(19.0, 23.01, 0.25), grid)

    # never-cross: both branches drift with temperature, so the statement
    # is per slice: wherever two dips resolve, they stay strictly apart
    slice_gaps = [
        positions[-1] - positions[0]
        for _, positions in scan_dip_positions(scan)
        if len(positions) >= 2
    ]
    never_cross = len(slice_gaps) > 0 and min(slice_gaps) > 0.5

    gap = anticrossing_gap(scan)
    # dressed-state splitting: hand-derived closed form, cross-checked
    # against a 2x2 eigensolver
    splitting = 2.0 * np.sqrt(9.4**2 - (25.9 - 5.0) ** 2 / 16.0)
    matrix = np.array([[WC - 2.5j, 9.4], [9.4, WC - 0.5j * 25.9]])
    eigs = np.sort(np.linalg.eigvals(matrix).real)
    assert splitting == pytest.approx(eigs[1] - eigs[0], abs=1e-6)
    assert rabi_splitting(p) == pytest.approx(splitting, abs=1e-9)

    dip_split = _exact_dip_splitting()
    deviation = abs(gap - dip_split) / dip_split
    ok = never_cross and deviation <= 1e-3 and rabi_splitting(p) < gap
    _report(
        8,
        ok,
        f"min dip gap {gap:.4f} ueV vs exact dip splitting {dip_split:.4f} ueV: "
        f"deviation {deviation:.1e} (tolerance 1e-3); dressed splitting "
        f"{splitting:.4f} ueV below the gap; never-cross={never_cross}",
    )
    assert never_cross
    assert deviation <= 1e-3, (
        "the scan's minimum dip gap should reproduce the exact reflectivity-dip "
        "splitting at zero detuning to within the grid spacing"
    )
    assert rabi_splitting(p) < gap, (
        "near the strong-coupling threshold the reflectivity dips sit outside "
        "the dressed-state energies, so the dip gap exceeds the eigen-splitting"
    )


def _exact_dip_splitting() -> float:
    """Separation of the two |r|^2 minima at zero dot-cavity detuning (ueV).

    With u = (omega - omega_c)^2, |r|^2 = N(u)/D(u) where
    D = (A - u)^2 + B^2 u, A = g^2 + gamma*K/4, B = (gamma + K)/2,
    K = kappa_top + kappa_side, and N is D with K' = kappa_side - kappa_top
    in place of K. dR/du = 0 reduces to one quadratic in u; the dips sit
    at +-sqrt(u+), its positive root. Cross-checked against the real roots
    of the full d|r|^2/domega numerator built from the complex amplitude.
    """
    g, kt, ks, gam = (DEVICE[k] for k in RATES)
    k, kp = kt + ks, ks - kt
    a, b = g * g + gam * k / 4, (gam + k) / 2
    ap, bp = g * g + gam * kp / 4, (gam + kp) / 2
    q, qp = b * b - 2 * a, bp * bp - 2 * ap
    u_plus = max(np.roots([q - qp, 2 * (a * a - ap * ap), qp * a * a - q * ap * ap]).real)
    closed = 2.0 * np.sqrt(u_plus)

    # independent route: amplitude numerator and denominator as complex
    # polynomials in x = omega - omega_c, then the numerator of d|r|^2/dx
    num = np.polyadd(np.polymul([-1j, gam / 2], [-1j, kp / 2]), [g * g])
    den = np.polyadd(np.polymul([-1j, gam / 2], [-1j, k / 2]), [g * g])
    n2 = np.polymul(num, np.conj(num)).real
    d2 = np.polymul(den, np.conj(den)).real
    slope = np.polysub(
        np.polymul(np.polyder(n2), d2), np.polymul(n2, np.polyder(d2))
    )
    roots = np.roots(slope)
    real = roots[np.abs(roots.imag) < 1e-9].real
    assert closed == pytest.approx(real.max() - real.min(), rel=1e-9)
    return float(closed)


def test_criterion_9_qualitative_figure_properties():
    # raw traces are not reproducible; the scans must show the double-dip
    # emergence and the scalar summaries are pinned by criteria 2, 4, 5, 6, 8
    p = device()
    model = TuningModel(
        qd_slope=-10.0, cavity_slope=-3.0, qd_ref=WC + 14.0, cavity_ref=WC, t_ref=19.0
    )
    grid = np.linspace(WC - 120.0, WC + 120.0, 24001)
    far = synthesize_scan(p, model, [5.0], grid)
    near = synthesize_scan(p, model, [21.0], grid)

    (_, far_dips), = scan_dip_positions(far)
    (_, near_dips), = scan_dip_positions(near)
    ok = len(far_dips) == 1 and len(near_dips) == 2
    _report(
        9,
        ok,
        f"far-detuned slice: {len(far_dips)} dip, resonant slice: {len(near_dips)} dips "
        "(double-dip emergence); scalar summaries pinned by criteria 2, 4, 5, 6, 8",
    )
    assert len(far_dips) == 1
    assert len(near_dips) == 2
