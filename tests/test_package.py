import types

import pillar_qed

PUBLIC_NAMES = {
    "BackgroundModel",
    "ChannelRecord",
    "DesignPoint",
    "FitProblem",
    "FitResult",
    "ReferenceArm",
    "Spectrum",
    "SystemParams",
    "TemperatureScan",
    "TuningModel",
    "anticrossing_gap",
    "apply_background",
    "conditional_fringe_phase",
    "coupling_regime",
    "dip_visibility",
    "energies_at",
    "estimate_g_from_splitting",
    "extract_phase",
    "fit",
    "fringe_phase",
    "infer_background_fraction",
    "interface_feasible",
    "make_guess",
    "max_conditional_phase",
    "measured_intensity",
    "phase",
    "polariton_eigenvalues",
    "q_factor",
    "quadrature_offset",
    "rabi_splitting",
    "reflection_amplitude",
    "reflectivity",
    "relative_phase",
    "residuals",
    "scan_dip_positions",
    "simulate_channels",
    "sweep_kappa",
    "synthesize_scan",
}


def test_public_surface():
    """The package exports exactly the names above: a new export, a
    deleted one or a lazy loader that hides one from ``dir`` shows here."""
    exported = {
        name
        for name in dir(pillar_qed)
        if not name.startswith("_") and not isinstance(getattr(pillar_qed, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
