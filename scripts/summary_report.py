#!/usr/bin/env python3
"""Print the headline numbers of the fitted device and the redesign point.

Everything is computed from the fitted constants g=9.4, kappa_top=1.2,
kappa_side=24.7, gamma=5.0 ueV at the 1333.596 meV cavity resonance.
"""

from dataclasses import replace

import numpy as np

from pillar_qed import (
    BackgroundModel,
    ReferenceArm,
    Spectrum,
    SystemParams,
    apply_background,
    conditional_fringe_phase,
    coupling_regime,
    dip_visibility,
    infer_background_fraction,
    max_conditional_phase,
    measured_intensity,
    polariton_eigenvalues,
    q_factor,
    quadrature_offset,
    rabi_splitting,
    reflection_amplitude,
    sweep_kappa,
)


def main():
    p = SystemParams(g=9.4, kappa_top=1.2, kappa_side=24.7, gamma=5.0, omega_c=1333596.0)
    empty = replace(p, g=0.0)
    grid = np.linspace(p.omega_c - 100.0, p.omega_c + 100.0, 20001)

    print("== coupled dot-cavity device ==")
    print(f"Q factor                     : {q_factor(p):.1f}")
    print(f"coupling regime              : {coupling_regime(p)}"
          f"  (g=9.4 vs (kappa+kappa_s+gamma)/4={(p.kappa_total + p.gamma) / 4:.3f})")
    lo, hi = polariton_eigenvalues(p)
    print(f"dressed energies (ueV)       : {lo.real:.3f}, {hi.real:.3f}")
    print(f"dressed splitting (ueV)      : {rabi_splitting(p):.4f}")
    print(f"on-resonance reflectivity    : coupled {measured_intensity(p, p.omega_c):.4f}, "
          f"empty {measured_intensity(empty, p.omega_c):.4f}")

    print("\n== conditional phase ==")
    mag, argmax = max_conditional_phase(p)
    print(f"arg-convention max           : {mag:.5f} rad at {argmax - p.omega_c:+.3f} ueV")
    ref = ReferenceArm(beta=1.0, sb_offset=quadrature_offset(1.0))
    r_d = reflection_amplitude(p, grid)
    r_c = reflection_amplitude(empty, grid)
    delta = conditional_fringe_phase(r_d, r_c, ref)
    print(f"fringe-readout max           : {np.max(np.abs(delta)):.5f} rad")
    bg = BackgroundModel(0.7)
    delta = conditional_fringe_phase(apply_background(r_d, bg), apply_background(r_c, bg), ref)
    print(f"fringe-readout max, b=0.7    : {np.max(np.abs(delta)):.5f} rad")

    print("\n== mode-matching background ==")
    intrinsic = Spectrum(grid, measured_intensity(empty, grid))
    vis = dip_visibility(intrinsic)
    print(f"intrinsic empty-cavity dip visibility : {vis:.4f}")
    observed = 0.15
    b = infer_background_fraction(observed, empty, grid=grid)
    print(f"background matching visibility {observed:.2f}  : b = {b:.4f}")

    print("\n== outcoupling sweep (zero detuning) ==")
    print("kappa_top  max_phase  reflectivity  feasible")
    for pt in sweep_kappa(p, [1.2, 10.0, 24.7, 37.6, 50.0]):
        print(
            f"{pt.params.kappa_top:9.1f}  {pt.max_conditional_phase:9.4f}"
            f"  {pt.on_resonance_reflectivity:12.4f}  {str(pt.feasible).lower()}"
        )


if __name__ == "__main__":
    main()
