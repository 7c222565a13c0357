"""Reflection spectroscopy of a quantum dot coupled to a pillar microcavity.

Simulation of the coupled-system reflection amplitude, the two-beam
polarization interferometer reading out its phase, parameter estimation by
damped least squares, temperature-tuned anticrossing scans, and design
sweeps of the outcoupling rate.

The public names below load their submodule on first use (PEP 562), so
``import pillar_qed`` imports no submodule and each CLI subcommand loads
only the modules it runs. A name is looked up afresh on every access and
never cached here, so ``pillar_qed.fit`` is always the current
``pillar_qed.estimation.fit``.
"""

import importlib

_EXPORTS = {
    "design": (
        "DesignPoint",
        "max_conditional_phase",
        "relative_phase",
        "sweep_kappa",
    ),
    "estimation": (
        "FitProblem",
        "FitResult",
        "fit",
        "make_guess",
    ),
    "interferometer": (
        "ReferenceArm",
        "conditional_fringe_phase",
        "dip_visibility",
        "extract_phase",
        "fringe_phase",
        "infer_background_fraction",
        "quadrature_offset",
        "simulate_channels",
    ),
    "scattering": (
        "BackgroundModel",
        "ChannelRecord",
        "Spectrum",
        "SystemParams",
        "apply_background",
        "coupling_regime",
        "measured_intensity",
        "polariton_eigenvalues",
        "q_factor",
        "rabi_splitting",
        "reflection_amplitude",
    ),
    "tuning": (
        "TemperatureScan",
        "TuningModel",
        "anticrossing_gap",
        "scan_dip_positions",
        "synthesize_scan",
    ),
}

# public name -> submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        # an AttributeError lets ``from pillar_qed import design`` fall back
        # to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_SOURCE})
