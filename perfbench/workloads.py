"""The three benchmark workloads: input generation, one op, oracle, CLI run.

Each workload draws a pool of inputs from the seed and writes them to the
work directory during set-up; an op then sees only those files and
parameters. Ops call the library through module attributes
(``estimation.fit``, not a name bound at import) so that the tracer and the
planted-error self-test can intercept them.

Devices are the project's worked example: g = 9.4, kappa_top = 1.2,
kappa_side = 24.7, gamma = 5.0 ueV at omega_c = 1333596 ueV.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
from pillar_qed import design, estimation, interferometer, io, tuning
from pillar_qed.scattering import Spectrum, SystemParams

WC = 1333596.0
DEVICE = {"g": 9.4, "kappa_top": 1.2, "kappa_side": 24.7, "gamma": 5.0}
RATES = ("g", "kappa_top", "kappa_side", "gamma")
GRID = np.linspace(1333496.0, 1333696.0, 2001)  # CLI default grid
NOISE = 0.01
CLI_INPUTS = 11  # the CLI runs once on each of the first inputs

# fit: the acceptance criterion-4 start, every rate 20% off truth
GUESS_FACTORS = dict(zip(RATES, (1.2, 0.8, 1.2, 0.8)))
RATE_TOLERANCE = 0.10

# design: CLI default kappa_values = 2:60:30, base rates jittered +-20%
KAPPAS = np.linspace(2.0, 60.0, 30)
JITTER = 0.2
PHASE_TOL = 1e-7  # rad; a planted 0.01 rad error must fail

# scan: CLI default temperatures 19:23:17 and tuning slopes
TEMPS = np.linspace(19.0, 23.0, 17)
QD_SLOPE, CAVITY_SLOPE, T_REF = -10.0, -3.0, 19.0
DIP_TOL = 5e-3  # ueV; grid spacing is 0.1 ueV, parabolic refinement ~5e-4


def _write_csv(path, header, columns):
    """Shortest round-trip decimals, the format the library writes."""
    lines = [header]
    lines.extend(",".join(map(repr, row)) for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _quadrature_channels(r):
    """h, v, d, a for a unit reference arm at the quadrature point."""
    e_h = r * np.exp(-0.5j * np.pi)
    return np.abs(e_h) ** 2, np.ones(r.size), 0.5 * np.abs(e_h + 1.0) ** 2, 0.5 * np.abs(e_h - 1.0) ** 2


def _set_args(values: dict):
    args = []
    for key, value in values.items():
        args += ["--set", f"{key}={float(value)!r}"]
    return args


class Workload:
    calibration_io = False  # see calibration.py

    def run_ok(self):
        """Checks over all ops of a run, after the per-op oracle."""
        return True


class Fit(Workload):
    """Read intensity + channel CSVs, extract phase, joint 4-rate fit.

    A correct fit can land one rate just past 10% of truth (gamma, about
    1 op in 1000 at 1% noise), so each op must instead reach a cost no
    higher than the truth's, and the criterion-4 bound applies as in
    criterion 4: to the median error of each rate over the run.
    """

    name = "fit"
    pool = 192  # about 8% of inputs need twice the evaluations; p90 sits at their edge
    cli_files = ("fit_report.txt",)

    def __init__(self):
        self.reference = interferometer.ReferenceArm(
            beta=1.0, sb_offset=interferometer.quadrature_offset(1.0)
        )
        self.guess = {n: DEVICE[n] * GUESS_FACTORS[n] for n in RATES}
        self.guess.update(omega_c=WC, omega_qd=WC, background=0.0, beta_mag=1.0)
        self.clean = oracle.amplitude(*(DEVICE[n] for n in RATES), WC, WC, GRID)
        self.rate_errors = []

    def generate(self, rng, work: Path):
        inputs = []
        for i in range(self.pool):
            intensity = np.abs(self.clean) ** 2 * (1.0 + NOISE * rng.standard_normal(GRID.size))
            channels = [
                c * (1.0 + NOISE * rng.standard_normal(GRID.size))
                for c in _quadrature_channels(self.clean)
            ]
            paths = {name: str(work / f"{name}_{i}.csv") for name in ("intensity", "channels", "phase")}
            _write_csv(paths["intensity"], io.SPECTRUM_HEADER, (GRID, intensity))
            _write_csv(paths["channels"], io.CHANNELS_HEADER, (GRID, *channels))
            if i < CLI_INPUTS:  # `fit --phase-csv` reads the phase the oracle extracts
                _write_csv(paths["phase"], io.SPECTRUM_HEADER, (GRID, _oracle_phase(*channels)))
            inputs.append(paths)
        return inputs

    def op(self, inp, out: Path):
        intensity = io.read_spectrum_csv(inp["intensity"])
        rec = io.read_channels_csv(inp["channels"])
        phase = Spectrum(rec.omega, interferometer.extract_phase(rec, self.reference))
        problem = estimation.FitProblem(guess=self.guess, intensity=intensity, phase=phase)
        result = estimation.fit(problem)
        report = {"converged": result.converged, "reason": result.reason, "iterations": result.iterations}
        report.update(result.params)
        io.write_report(out / "fit_report.txt", report)
        return result.converged, {n: result.params[n] for n in RATES}, result.residual_norm

    def expect(self, inp):
        intensity = _columns(inp["intensity"])[1]
        phase = _oracle_phase(*_columns(inp["channels"])[1:])
        return intensity, phase, self._cost(DEVICE, intensity, phase)

    @staticmethod
    def _cost(rates, intensity, phase):
        r = oracle.amplitude(*(rates[n] for n in RATES), WC, WC, GRID)
        res = np.concatenate([np.abs(r) ** 2 - intensity, np.angle(r) - phase])
        return float(res @ res)

    def check(self, inp, expected, result):
        converged, rates, cost = result
        intensity, phase, truth_cost = expected
        self.rate_errors.append([abs(rates[n] / DEVICE[n] - 1.0) for n in RATES])
        # the reported cost is the oracle's cost at the fitted rates, and
        # no higher than at the truth
        return (
            converged
            and math.isclose(cost, self._cost(rates, intensity, phase), rel_tol=1e-6)
            and cost <= truth_cost
        )

    def run_ok(self):
        return bool(np.all(np.median(self.rate_errors, axis=0) < RATE_TOLERANCE))

    def cli_args(self, inp, out: Path):
        guess = {n: self.guess[n] for n in RATES}
        return ["fit", inp["intensity"], "--phase-csv", inp["phase"], "--out", str(out)] + _set_args(guess)

    def check_cli(self, inp, expected, out: Path):
        report = io.read_report(out / "fit_report.txt")
        result = (report["converged"] == "true", {n: float(report[n]) for n in RATES}, float(report["residual_norm"]))
        return self.check(inp, expected, result)


class Design(Workload):
    """sweep_kappa over the CLI default 30 rates, then write design.csv."""

    name = "design"
    pool = 96  # op time depends on the rates; p90 needs many of them
    cli_files = ("design.csv",)

    def generate(self, rng, work: Path):
        return [
            {n: DEVICE[n] * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for n in ("g", "kappa_side", "gamma")}
            for _ in range(self.pool)
        ]

    def op(self, inp, out: Path):
        base = SystemParams(inp["g"], DEVICE["kappa_top"], inp["kappa_side"], inp["gamma"], WC)
        points = design.sweep_kappa(base, KAPPAS)
        io.write_design_csv(out / "design.csv", points)
        return [
            (pt.params.kappa_top, pt.max_conditional_phase, pt.argmax_omega, pt.on_resonance_reflectivity, pt.feasible)
            for pt in points
        ]

    def expect(self, inp):
        g, ks, gam = inp["g"], inp["kappa_side"], inp["gamma"]
        return [
            (
                float(kappa),
                oracle.max_conditional_phase_grid(g, kappa, ks, gam),
                float(np.abs(oracle.amplitude_offset(g, kappa, ks, gam, 0.0, 0.0, 0.0)) ** 2),
            )
            for kappa in KAPPAS
        ]

    def check(self, inp, expected, result):
        if len(result) != len(expected):
            return False
        for (kappa, grid_max, refl), (k, mx, argmax, r, feasible) in zip(expected, result):
            at_argmax = float(oracle.conditional_phase_offset(inp["g"], kappa, inp["kappa_side"], inp["gamma"], argmax - WC))
            if not (
                math.isclose(k, kappa, rel_tol=1e-12)
                and mx >= grid_max - PHASE_TOL
                and abs(at_argmax - mx) <= PHASE_TOL
                and feasible == (mx > 0.5 * math.pi)
                and math.isclose(r, refl, rel_tol=1e-9, abs_tol=1e-12)
            ):
                return False
        return True

    def cli_args(self, inp, out: Path):
        return ["design", "--out", str(out)] + _set_args(inp)

    def check_cli(self, inp, expected, out: Path):
        rows = io.read_design_csv(out / "design.csv")
        result = [(r["kappa"], r["max_phase_rad"], r["argmax_ueV"], r["refl_on_res"], r["feasible"]) for r in rows]
        return self.check(inp, expected, result)


class Scan(Workload):
    """Synthesize a 17-temperature scan, track dips, write the CSVs."""

    name = "scan"
    pool = 48
    calibration_io = True
    cli_files = tuple(f"scan_T{t:.4f}K.csv" for t in TEMPS) + ("manifest.csv", "scan_config.txt")

    def generate(self, rng, work: Path):
        # g across the strong-coupling range, crossing jittered ~+-0.2 K
        return [
            {"g": float(rng.uniform(9.4, 12.0)), "qd_ref": WC + 14.0 + float(rng.uniform(-1.4, 1.4))}
            for _ in range(self.pool)
        ]

    def op(self, inp, out: Path):
        p = SystemParams(inp["g"], DEVICE["kappa_top"], DEVICE["kappa_side"], DEVICE["gamma"], WC)
        model = tuning.TuningModel(QD_SLOPE, CAVITY_SLOPE, inp["qd_ref"], WC, T_REF, 4.0, 300.0)
        scan = tuning.synthesize_scan(p, model, TEMPS, GRID)
        dips = tuning.scan_dip_positions(scan)
        gap = tuning.anticrossing_gap(scan)
        entries = []
        for t, spectrum in zip(scan.temperatures, scan.spectra):
            name = f"scan_T{t:.4f}K.csv"
            io.write_spectrum_csv(out / name, spectrum)
            entries.append((t, name))
        io.write_manifest_csv(out / "manifest.csv", entries)
        return [positions for _, positions in dips], gap

    def _energies(self, inp, t):
        return inp["qd_ref"] + QD_SLOPE * (t - T_REF), WC + CAVITY_SLOPE * (t - T_REF)

    def expect(self, inp):
        dips = []
        for t in TEMPS:
            omega_qd, omega_c = self._energies(inp, t)
            rates = (inp["g"], DEVICE["kappa_top"], DEVICE["kappa_side"], DEVICE["gamma"])
            positions, _ = oracle.reflectivity_minima(*rates, omega_c, omega_qd, GRID[0], GRID[-1])
            dips.append(positions)
        return dips

    def check(self, inp, expected, result):
        dips, gap = result
        if len(dips) != len(expected):
            return False
        for found, exact in zip(dips, expected):
            # two dips at every temperature, each on the exact minimum
            if len(found) != 2 or len(exact) != 2:
                return False
            if max(abs(a - b) for a, b in zip(found, exact)) > DIP_TOL:
                return False
        # the dips never cross: the branches keep their order and the
        # gap is the exact minimum splitting
        exact_gap = min(b - a for a, b in expected)
        return all(b - a >= gap - DIP_TOL > 0 for a, b in dips) and abs(gap - exact_gap) <= DIP_TOL

    def cli_args(self, inp, out: Path):
        return ["scan", "--out", str(out)] + _set_args(inp)

    def check_cli(self, inp, expected, out: Path):
        manifest = io.read_manifest_csv(out / "manifest.csv")
        if [round(t, 9) for t, _ in manifest] != [round(float(t), 9) for t in TEMPS]:
            return False
        for t, name in manifest:
            omega, values = _columns(out / name)
            omega_qd, omega_c = self._energies(inp, t)
            rates = (inp["g"], DEVICE["kappa_top"], DEVICE["kappa_side"], DEVICE["gamma"])
            expected = np.abs(oracle.amplitude(*rates, omega_c, omega_qd, omega)) ** 2
            if not np.allclose(values, expected, rtol=1e-9, atol=1e-12):
                return False
        return True


def _columns(path):
    """Columns of a CSV with one header line, parsed by numpy, not the library."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def _oracle_phase(h, v, d, a):
    """Reflection phase from a quadrature-calibrated unit reference arm."""
    return np.arcsin(np.clip((d - a) / (2.0 * np.sqrt(h * v)), -1.0, 1.0))


WORKLOADS = {w.name: w for w in (Fit, Design, Scan)}


def save_inputs(work: Path, inputs):
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")


def load_inputs(work: Path):
    return json.loads((work / "inputs.json").read_text(encoding="utf-8"))
