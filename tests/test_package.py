import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    "extract_phase",
    "fit",
    "fringe_phase",
    "infer_background_fraction",
    "make_guess",
    "max_conditional_phase",
    "measured_intensity",
    "polariton_eigenvalues",
    "q_factor",
    "quadrature_offset",
    "rabi_splitting",
    "reflection_amplitude",
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


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from pillar_qed import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert set(pillar_qed.__all__) == PUBLIC_NAMES


def test_exports_match_the_submodule_lists():
    """The public surface is declared twice, in ``_EXPORTS`` and in each
    submodule's ``__all__``: every export is listed in its submodule's
    ``__all__``, and every ``__all__`` name of every submodule is defined."""
    for module, names in pillar_qed._EXPORTS.items():
        missing = set(names) - set(importlib.import_module(f"pillar_qed.{module}").__all__)
        assert not missing, (module, missing)
    for info in pkgutil.iter_modules(pillar_qed.__path__):
        module = importlib.import_module(f"pillar_qed.{info.name}")
        undefined = [name for name in module.__all__ if not hasattr(module, name)]
        assert not undefined, (info.name, undefined)


def test_bare_import_loads_no_submodule():
    script = "import sys, pillar_qed; print(sorted(m for m in sys.modules if m.startswith('pillar_qed.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(pillar_qed.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_names_follow_the_submodule_attribute(monkeypatch):
    """Nothing is cached in the package, so a patched submodule attribute
    shows through and the original is back once the patch is undone."""
    import pillar_qed.estimation

    original = pillar_qed.estimation.fit
    assert pillar_qed.fit is original
    sentinel = object()
    monkeypatch.setattr(pillar_qed.estimation, "fit", sentinel)
    assert pillar_qed.fit is sentinel
    monkeypatch.undo()
    assert pillar_qed.fit is original
    assert "fit" not in vars(pillar_qed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pillar_qed.no_such_name
    assert not hasattr(pillar_qed, "_SystemParams")
    for deleted in ("phase", "estimate_g_from_splitting", "energies_at", "interface_feasible", "reflectivity"):
        with pytest.raises(AttributeError, match=deleted):
            getattr(pillar_qed, deleted)
    from pillar_qed import design

    assert isinstance(design, types.ModuleType) and design.sweep_kappa is pillar_qed.sweep_kappa


def test_version():
    assert pillar_qed.__version__ == "0.1.0"
