#!/usr/bin/env python3
"""Write the output of every command-line subcommand variant under OUTDIR.

    PYTHONPATH=src python3 scripts/cli_outputs.py OUTDIR

Each run goes through ``pillar_qed.cli.main`` in this process and writes
into its own subdirectory. The data files are deterministic, so two
checkouts can be compared with one ``diff -r`` of their trees. OUTDIR must
be new or empty.
"""

import sys
from pathlib import Path

from pillar_qed.cli import main as cli

# a config file with a comment, unit suffixes and an auto reference, read by
# the scan_config run
RUN_CFG = """\
# device at the cavity energy, written with unit suffixes
omega_c = 1333.596 meV
kappa_side = 24.7 ueV
qd_ref = auto
temperatures = 20:22:5
"""

# (subdirectory, arguments before --out), run in order: the fits read the
# outputs of earlier runs
RUNS = (
    ("synth", ["synth"]),
    ("synth_noisy", ["synth", "--set", "noise=0.01", "--set", "seed=3"]),
    ("synth_bg", ["synth", "--set", "background=0.7"]),
    ("phase", ["phase", "{root}/synth/channels_coupled.csv"]),
    ("phase_edges", ["phase", "{root}/synth/channels_coupled.csv", "--calibrate-edges"]),
    ("phase_noisy", ["phase", "{root}/synth_noisy/channels_coupled.csv"]),
    ("fit", ["fit", "{root}/synth_noisy/coupled.csv"]),
    # beta_mag is the reference-arm magnitude only: the same report as fit/
    ("fit_beta", ["fit", "{root}/synth_noisy/coupled.csv", "--set", "beta_mag=0.9"]),
    ("fit_joint", ["fit", "{root}/synth_noisy/coupled.csv", "--phase-csv", "{root}/phase/phase.csv"]),
    # stopped after two iterations: the report is written and the run exits 0
    ("fit_nonconverged", [
        "fit", "{root}/synth_noisy/coupled.csv", "--set", "fit_max_iterations=2", "--allow-nonconverged",
    ]),
    # a phase block on a coarser grid than the intensity block
    ("synth_coarse", ["synth", "--set", "grid=1333496:1333696:1001"]),
    # g * g underflows: the grid holds omega_qd, so every coupled point takes
    # the amplitude's divided form
    ("synth_underflow", ["synth", "--set", "g=1e-200", "--set", "gamma=1e-310"]),
    ("phase_coarse", ["phase", "{root}/synth_coarse/channels_coupled.csv"]),
    ("fit_two_grids", ["fit", "{root}/synth_noisy/coupled.csv", "--phase-csv", "{root}/phase_coarse/phase.csv"]),
    # a free background, fit in s = sqrt(b)
    ("fit_background", [
        "fit", "{root}/synth_bg/coupled.csv",
        "--set", "fit_free=g,kappa_top,kappa_side,gamma,background", "--set", "background=0.5",
    ]),
    # a joint fit with all seven parameters free: the only run whose report
    # depends on the omega_c, omega_qd and background Jacobian columns
    ("fit_all_free", [
        "fit", "{root}/synth_noisy/coupled.csv", "--phase-csv", "{root}/phase/phase.csv",
        "--set", "fit_free=g,kappa_top,kappa_side,gamma,omega_c,omega_qd,background",
    ]),
    ("scan", ["scan"]),
    ("scan_config", ["scan", "--config", "{root}/run.cfg"]),
    # the scan's own resolved config, read back: must rewrite scan/ byte for byte
    ("scan_roundtrip", ["scan", "--config", "{root}/scan/scan_config.txt"]),
    # a phased, half-strength background mixed into every scan spectrum
    ("scan_bg", ["scan", "--set", "background=0.5", "--set", "background_phase=0.8", "--set", "temperatures=20:22:3"]),
    ("design", ["design"]),
    # 240 top-mirror rates, across the overcoupled cusp at kappa_side
    ("design_wide", ["design", "--set", "kappa_values=0.5:120:240"]),
    ("design_uncoupled", ["design", "--set", "g=0"]),
    # the on-resonance reflectivity of every kappa in the divided form
    ("design_underflow", ["design", "--set", "g=1e-200", "--set", "gamma=1e-310"]),
    # g = 28.7 beside a cavity 2.4e-39 and a dot 1.4e-24 wide: the root
    # polynomials' coefficients span past 2**100, so they are solved in the
    # offset u, not in u**2
    ("design_narrow_peak", [
        "design", "--set", "omega_c=1", "--set", "g=28.74274494891464", "--set", "kappa_side=2.3876984544217297e-39",
        "--set", "gamma=1.4257917435192681e-24", "--set", "kappa_values=1e-62:3e-62:3",
    ]),
)


def main():
    if len(sys.argv) != 2:
        raise SystemExit("usage: cli_outputs.py OUTDIR")
    root = sys.argv[1]
    # a reused tree would keep the files that a change stopped writing
    if Path(root).exists() and any(Path(root).iterdir()):
        raise SystemExit(f"cli_outputs.py: {root} exists and is not empty; give a new OUTDIR")
    Path(root).mkdir(parents=True, exist_ok=True)
    Path(root, "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    for name, args in RUNS:
        argv = [arg.format(root=root) for arg in args] + ["--out", f"{root}/{name}"]
        code = cli(argv)
        if code != 0:
            raise SystemExit(f"command failed with exit code {code}: {argv}")


if __name__ == "__main__":
    main()
