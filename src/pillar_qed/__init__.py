"""Reflection spectroscopy of a quantum dot coupled to a pillar microcavity.

Simulation of the coupled-system reflection amplitude, the two-beam
polarization interferometer reading out its phase, parameter estimation by
damped least squares, temperature-tuned anticrossing scans, and design
sweeps of the outcoupling rate.
"""

from .design import (
    DesignPoint,
    interface_feasible,
    max_conditional_phase,
    relative_phase,
    sweep_kappa,
)
from .estimation import (
    FitProblem,
    FitResult,
    fit,
    make_guess,
    residuals,
)
from .interferometer import (
    BackgroundModel,
    ChannelRecord,
    ReferenceArm,
    apply_background,
    conditional_fringe_phase,
    dip_visibility,
    extract_phase,
    fringe_phase,
    infer_background_fraction,
    measured_intensity,
    quadrature_offset,
    simulate_channels,
)
from .scattering import (
    Spectrum,
    SystemParams,
    coupling_regime,
    phase,
    polariton_eigenvalues,
    q_factor,
    rabi_splitting,
    reflection_amplitude,
    reflectivity,
)
from .tuning import (
    TemperatureScan,
    TuningModel,
    anticrossing_gap,
    energies_at,
    estimate_g_from_splitting,
    scan_dip_positions,
    synthesize_scan,
)

__version__ = "0.1.0"
