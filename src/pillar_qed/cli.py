"""Command-line front end.

Subcommands: ``synth``, ``fit``, ``phase``, ``scan``, ``design``. All
outputs are deterministic for a fixed config and seed. Exit codes:
0 success, 1 usage error (arguments, config, input file or model value),
2 numerical failure; either error prints one line on stderr. The
``PILLAR_QED_LOG`` environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import design as design_mod
from . import estimation, interferometer, io, tuning
from .config import ConfigError, RunConfig, load_config_file
from .interferometer import (
    BackgroundInversionError,
    NoSolutionError,
    ReferenceArm,
    calibrate_bias,
    extract_phase,
    quadrature_offset,
    simulate_channels,
)
from .scattering import DegenerateModelError, QdState, Spectrum, reflection_amplitude

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class NonConvergenceError(RuntimeError):
    """Fit did not converge and --allow-nonconverged was not given."""


_NUMERICAL_ERRORS = (
    NonConvergenceError,
    DegenerateModelError,
    estimation.NoDipError,
    estimation.UnresolvedSplittingError,
    NoSolutionError,
    BackgroundInversionError,
    np.linalg.LinAlgError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--seed", metavar="N", help="override the config seed")
    parser.add_argument("--background", metavar="B", help="override the background fraction")
    parser.add_argument("--grid", metavar="START:STOP:N", help="override the probe grid (ueV)")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override any config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pillar-qed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser("synth", help="synthesize intensity and channel spectra")
    _add_common(p_synth)

    p_fit = sub.add_parser("fit", help="fit the model to observed spectra")
    p_fit.add_argument("intensity_csv", help="observed intensity spectrum CSV")
    p_fit.add_argument("--phase-csv", metavar="PATH", help="optional observed phase CSV")
    p_fit.add_argument(
        "--allow-nonconverged",
        action="store_true",
        help="exit 0 even when the fit does not converge",
    )
    _add_common(p_fit)

    p_phase = sub.add_parser("phase", help="extract phase from a channel table")
    p_phase.add_argument("channels_csv", help="channel table CSV")
    p_phase.add_argument(
        "--calibrate-edges",
        action="store_true",
        help="estimate the bias from the far-detuned grid edges instead of the configured reference",
    )
    _add_common(p_phase)

    p_scan = sub.add_parser("scan", help="synthesize a temperature scan")
    _add_common(p_scan)

    p_design = sub.add_parser("design", help="sweep the outcoupling rate")
    _add_common(p_design)

    return parser


def _config_from_args(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.background is not None:
        overrides["background"] = args.background
    if args.grid is not None:
        overrides["grid"] = args.grid
    return RunConfig.build(file_values, overrides)


def _maybe_noisy(values, cfg, rng):
    if cfg.noise <= 0:
        return values
    return np.maximum(values * (1.0 + cfg.noise * rng.standard_normal(values.shape)), 0.0)


def _write(path, writer, *payload):
    writer(path, *payload)
    print(f"wrote {path}")


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    rng = np.random.default_rng(cfg.seed)
    p = cfg.system_params()
    bg = cfg.background_model()
    ref = cfg.reference_arm()
    grid = cfg.grid

    qd_states = {
        "coupled": QdState(cfg.omega_qd, coupled=True),
        "empty": QdState(cfg.omega_qd, coupled=False),
    }
    for name, qd in qd_states.items():
        amplitude = interferometer.apply_background(reflection_amplitude(p, qd, grid), bg)
        intensity = _maybe_noisy(np.abs(amplitude) ** 2, cfg, rng)
        _write(out / f"{name}.csv", io.write_spectrum_csv, Spectrum(grid, intensity))

        rec = simulate_channels(amplitude, ref, omega=grid)
        rec = interferometer.ChannelRecord(
            grid, *(_maybe_noisy(c, cfg, rng) for c in (rec.h, rec.v, rec.d, rec.a))
        )
        _write(out / f"channels_{name}.csv", io.write_channels_csv, rec)
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    intensity = io.read_spectrum_csv(args.intensity_csv)
    phase_obs = io.read_spectrum_csv(args.phase_csv) if args.phase_csv else None

    guess = {name: getattr(cfg, name) for name in estimation.PARAM_NAMES}
    problem = estimation.FitProblem(
        guess=guess, intensity=intensity, phase=phase_obs, free=cfg.fit_free
    )
    result = estimation.fit(problem, max_iterations=cfg.fit_max_iterations)

    report = {
        "converged": result.converged,
        "reason": result.reason,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "covariance_condition": result.covariance_condition,
    }
    report.update({name: result.params[name] for name in estimation.PARAM_NAMES})
    for name in result.free:
        report[f"std_error_{name}"] = result.std_errors[name]
    _write(out / "fit_report.txt", io.write_report, report)

    if not result.converged and not args.allow_nonconverged:
        raise NonConvergenceError(f"fit did not converge ({result.reason})")
    return EXIT_OK


def cmd_phase(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    rec = io.read_channels_csv(args.channels_csv)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.calibrate_edges:
            zero_bias = ReferenceArm(beta=1.0, sb_offset=quadrature_offset(1.0))
            phases = extract_phase(rec, zero_bias) - calibrate_bias(rec)
        else:
            phases = extract_phase(rec, cfg.reference_arm())
    clamped = sum(1 for w in caught if "clamping" in str(w.message))
    if clamped:
        logger.warning("%d channel rows clamped during phase extraction", clamped)

    _write(out / "phase.csv", io.write_spectrum_csv, Spectrum(rec.omega, phases))
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    p = cfg.system_params()
    bg = cfg.background_model()
    scan = tuning.synthesize_scan(p, cfg.tuning_model(), cfg.temperatures, cfg.grid, bg)

    entries = []
    for t, spectrum in zip(scan.temperatures, scan.spectra):
        name = f"scan_T{t:.4f}K.csv"
        _write(out / name, io.write_spectrum_csv, spectrum)
        entries.append((t, name))
    _write(out / "manifest.csv", io.write_manifest_csv, entries)
    _write(out / "scan_config.txt", io.write_report, dict(cfg.raw))
    return EXIT_OK


def cmd_design(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    points = design_mod.sweep_kappa(cfg.system_params(), cfg.kappa_values)
    _write(out / "design.csv", io.write_design_csv, points)
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "fit": cmd_fit,
    "phase": cmd_phase,
    "scan": cmd_scan,
    "design": cmd_design,
}


def _setup_logging():
    level_name = os.environ.get("PILLAR_QED_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"pillar-qed: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # every other ValueError (config, file format, model validation) is
        # a usage error; the numerical ValueError subclasses are caught above
        print(f"pillar-qed: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
