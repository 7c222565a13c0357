#!/usr/bin/env python3
"""Run Tier-1 against each hand-made mutant of ``src/`` and say which survive.

    python3 scripts/mutants.py

A mutant is one textual edit: its ``before`` text occurs exactly once in the
named source file (``tests/test_scripts.py`` checks that, so the list cannot
go stale). For each mutant the script copies the repository without ``.git``
into a fresh temporary directory (under ``TMPDIR``, if set), applies the edit
there and runs ``python -m pytest -x -q`` in it. It prints ``killed`` with the
first failing test, or ``survived``, and exits 1 if any mutant survived. Each
mutant takes 20-50 s on a 2-core machine, so the script is not part of Tier-1.
A change that adds a guard adds the mutant that its test kills.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, before, after)
MUTANTS = (
    ("assess_dof_without_p", "src/pillar_qed/estimation.py",
     "sigma2 = res.cost / max(res.residuals.size - len(free), 1)", "sigma2 = res.cost / max(res.residuals.size, 1)"),
    ("lm_pins_at_lower_bounds_only", "src/pillar_qed/leastsq.py",
     "free = ~(((x <= lower) & (jtr > 0)) | ((x >= upper) & (jtr < 0)))", "free = ~((x <= lower) & (jtr > 0))"),
    ("json_table_reads_minus_zero", "src/pillar_qed/io.py",
     r'if not table.all() and (b"-0," in body or b"-0\n" in body):', "if False:"),
    ("phases_keep_the_minus_pi_edge", "src/pillar_qed/design.py",
     "return np.where(n_u == 0, 0.0, np.where(phi == -np.pi, np.pi, phi))", "return np.where(n_u == 0, 0.0, phi)"),
    ("fit_accepts_a_background_phase", "src/pillar_qed/cli.py",
     "if cfg.background_phase != 0:", "if False:"),
    ("coupling_regime_at_equality", "src/pillar_qed/scattering.py",
     '"strong" if p.g > (p.kappa_total', '"strong" if p.g >= (p.kappa_total'),
    ("lm_counts_every_iteration_quiet", "src/pillar_qed/leastsq.py",
     "quiet = quiet + 1 if rel_decrease < COST_TOL else 0", "quiet = quiet + 1"),
    ("hash_starts_no_comment", "src/pillar_qed/io.py",
     'if not (line := raw.split("#", 1)[0].strip()):', "if not (line := raw.strip()):"),
    ("fit_problem_repeats_a_free_name", "src/pillar_qed/estimation.py",
     "if len(set(self.free)) != len(self.free):", "if False:"),
    ("edge_baseline_takes_an_eighth", "src/pillar_qed/interferometer.py",
     "k = max(1, values.size // 10)", "k = max(1, values.size // 8)"),
    ("fringe_clamp_counts_rounding", "src/pillar_qed/interferometer.py",
     "clamped = np.count_nonzero(over > _CLAMP_TOL)", "clamped = np.count_nonzero(over > 0)"),
    ("at_bound_within_1e-6", "src/pillar_qed/estimation.py",
     "< 1e-12 * scale:", "< 1e-6 * scale:"),
    ("design_imports_logging", "src/pillar_qed/design.py",
     "from __future__ import annotations\n\nimport math\n",
     "from __future__ import annotations\n\nimport logging\nimport math\n"),
    ("grid_writer_skips_the_readers_rule", "src/pillar_qed/io.py",
     "if (fault := _grid_fault(table.T)) is not None:", "if False:"),
    ("eigenvalue_tie_keeps_its_order", "src/pillar_qed/scattering.py",
     "if (lo.real, lo.imag) > (hi.real, hi.imag):", "if lo.real > hi.real:"),
    ("declined_table_read_again", "src/pillar_qed/io.py",
     "_read_text(path, data)", "_read_text(path)"),
    ("free_form_text_reaches_the_parser", "src/pillar_qed/io.py",
     r'if data.startswith(head) and body.endswith(b"\n") and seps == (b"," * (n - 1) + b"\n") * (len(seps) // n):',
     "if data.startswith(head):"),
    ("lm_decrement_solve_unguarded", "src/pillar_qed/leastsq.py",
     "except np.linalg.LinAlgError:\n            decrement = np.inf", "except ZeroDivisionError:\n            decrement = np.inf"),
    ("lm_damped_solve_unguarded", "src/pillar_qed/leastsq.py",
     "except np.linalg.LinAlgError:\n                lam *= 2.0", "except ZeroDivisionError:\n                lam *= 2.0"),
    ("negative_channel_names_no_energy", "src/pillar_qed/scattering.py",
     'f"channel {name} must be non-negative, {_not_met_at(self.omega, bad)}"', 'f"channel {name} must be non-negative"'),
)

_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")


def run_mutant(name, path, before, after):
    """``(killed, first failing test line)`` of Tier-1 on one mutant."""
    tree = Path(tempfile.mkdtemp(prefix=f"{name}-")) / "repo"
    try:
        shutil.copytree(ROOT, tree, ignore=_NOT_COPIED)
        target = tree / path
        target.write_text(target.read_text().replace(before, after, 1))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(tree.parent)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode != 0, failed[0] if failed else f"pytest exit code {done.returncode}"


def main():
    survived = []
    for name, path, before, after in MUTANTS:
        killed, detail = run_mutant(name, path, before, after)
        print(f"{name}: {'killed' if killed else 'survived'}" + (f" ({detail})" if killed else ""), flush=True)
        if not killed:
            survived.append(name)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
