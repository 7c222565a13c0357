"""Smoke tests of the scripts under ``scripts/``, run as separate processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SUMMARY = """\
== coupled dot-cavity device ==
Q factor                     : 51490.2
coupling regime              : strong  (g=9.4 vs (kappa+kappa_s+gamma)/4=7.725)
dressed energies (ueV)       : 1333588.186, 1333603.814
dressed splitting (ueV)      : 15.6281
on-resonance reflectivity    : coupled 0.9509, empty 0.8233

== conditional phase ==
arg-convention max           : 0.06069 rad at -6.210 ueV
fringe-readout max           : 0.12145 rad
fringe-readout max, b=0.7    : 0.04595 rad

== mode-matching background ==
intrinsic empty-cavity dip visibility : 0.1738
background matching visibility 0.15  : b = 0.0268

== outcoupling sweep (zero detuning) ==
kappa_top  max_phase  reflectivity  feasible
      1.2     0.0607        0.9509  false
     10.0     0.5501        0.6565  false
     24.7     2.0161        0.3465  true
     37.6     3.1416        0.1888  true
     50.0     3.1416        0.0975  true
"""


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_summary_report_output(tmp_path):
    done = run_script("summary_report.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == SUMMARY


def test_generate_datasets_bundle(tmp_path):
    done = run_script("generate_datasets.py", str(tmp_path / "bundle"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    names = {p.name for p in (tmp_path / "bundle").iterdir()}
    assert names == {"synth", "synth_bg", "phase", "scan", "design"}


def test_cli_outputs_tree(tmp_path):
    done = run_script("cli_outputs.py", str(tmp_path / "tree"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    files = sorted(str(p.relative_to(tmp_path / "tree")) for p in (tmp_path / "tree").rglob("*") if p.is_file())
    synth = ["channels_coupled.csv", "channels_empty.csv", "coupled.csv", "empty.csv"]
    temperatures = [f"{19.0 + 0.25 * k:.4f}" for k in range(17)]
    assert files == sorted(
        ["design/design.csv", "design_wide/design.csv", "design_uncoupled/design.csv"]
        + ["fit/fit_report.txt", "fit_joint/fit_report.txt"]
        + ["phase/phase.csv", "phase_edges/phase.csv", "phase_noisy/phase.csv"]
        + ["scan/manifest.csv", "scan/scan_config.txt"]
        + [f"scan/scan_T{t}K.csv" for t in temperatures]
        + [f"{run}/{name}" for run in ("synth", "synth_noisy", "synth_bg") for name in synth]
    )
