"""Command-line front end; ``_DESCRIPTION`` is its ``--help`` text.

Each ``cmd_*`` imports the modules that only it runs (``design``, ``estimation``,
``interferometer``, ``tuning``), so a subcommand loads none of the others.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .config import ConfigError, RunConfig, load_config_file
from .scattering import ChannelRecord, DegenerateModelError, Spectrum, apply_background, reflection_amplitude

__all__ = ["main", "build_parser"]

logger = logging.getLogger("pillar_qed.cli")

_DESCRIPTION = (
    "Subcommands: synth, fit, phase, scan, design. All outputs are deterministic for a fixed config and seed."
    " Exit codes: 0 success, 1 usage error (arguments, config, input file or model value), 2 numerical failure;"
    " either error prints one line on stderr. The PILLAR_QED_LOG environment variable sets the log level."
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class NonConvergenceError(RuntimeError):
    """Fit did not converge and --allow-nonconverged was not given."""


_NUMERICAL_ERRORS = (
    NonConvergenceError,
    DegenerateModelError,
    np.linalg.LinAlgError,
    OverflowError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _config_from_args(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = value
    return RunConfig(file_values, overrides)


def _maybe_noisy(values, cfg, rng):
    if cfg.noise <= 0:
        return values
    return np.maximum(values * (1.0 + cfg.noise * rng.standard_normal(values.shape)), 0.0)


def _write(path, writer, *payload):
    writer(path, *payload)
    print(f"wrote {path}")


def cmd_synth(args, cfg, out):
    from .interferometer import simulate_channels

    rng = np.random.default_rng(cfg.seed)
    p = cfg.system_params()
    bg = cfg.background_model()
    ref = cfg.reference_arm()
    grid = cfg.grid

    for name, params in {"coupled": p, "empty": replace(p, g=0.0)}.items():
        amplitude = apply_background(reflection_amplitude(params, omega=grid), bg)
        intensity = _maybe_noisy(np.abs(amplitude) ** 2, cfg, rng)
        _write(out / f"{name}.csv", io.write_spectrum_csv, Spectrum(grid, intensity))

        rec = simulate_channels(amplitude, ref, omega=grid)
        rec = ChannelRecord(grid, *(_maybe_noisy(c, cfg, rng) for c in (rec.h, rec.v, rec.d, rec.a)))
        _write(out / f"channels_{name}.csv", io.write_channels_csv, rec)


def cmd_fit(args, cfg, out):
    from . import estimation

    # the fitted model mixes in a zero-phase background
    if cfg.background_phase != 0:
        raise ConfigError(f"fit models a zero background_phase, got {cfg.background_phase!r}")
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
        **result.params,
        **{f"std_error_{name}": error for name, error in result.std_errors.items()},
    }
    _write(out / "fit_report.txt", io.write_report, report)

    if not result.converged and not args.allow_nonconverged:
        raise NonConvergenceError(f"fit did not converge ({result.reason})")


def cmd_phase(args, cfg, out):
    from .interferometer import ReferenceArm, calibrate_bias, extract_phase, quadrature_offset

    rec = io.read_channels_csv(args.channels_csv)

    if args.calibrate_edges:
        # the zero-bias arm's bias is exactly 0.0: raw is the bare fringe angle
        raw = extract_phase(rec, ReferenceArm(beta=1.0, sb_offset=quadrature_offset(1.0)))
        phases = raw - calibrate_bias(raw)
    else:
        phases = extract_phase(rec, cfg.reference_arm())

    _write(out / "phase.csv", io.write_spectrum_csv, Spectrum(rec.omega, phases))


def cmd_scan(args, cfg, out):
    from . import tuning

    # file names round to 0.1 mK: refuse temperatures that would share one
    files = {}
    for t in cfg.temperatures.tolist():
        name = f"scan_T{t:.4f}K.csv"
        if name in files:
            raise ConfigError(f"temperatures {files[name]!r} K and {t!r} K both write {name}")
        files[name] = t
    model = tuning.TuningModel(qd_slope=cfg.qd_slope, cavity_slope=cfg.cavity_slope, qd_ref=cfg.qd_ref,
                               cavity_ref=cfg.cavity_ref, t_ref=cfg.t_ref, t_min=cfg.t_min, t_max=cfg.t_max)
    scan = tuning.synthesize_scan(cfg.system_params(), model, cfg.temperatures, cfg.grid, cfg.background_model())

    entries = list(zip(scan.temperatures, files))
    for (_, name), spectrum in zip(entries, scan.spectra):
        _write(out / name, io.write_spectrum_csv, spectrum)
    _write(out / "manifest.csv", io.write_manifest_csv, entries)
    _write(out / "scan_config.txt", io.write_report, dict(cfg.raw))


def cmd_design(args, cfg, out):
    from . import design

    points = design.sweep_kappa(cfg.system_params(), cfg.kappa_values)
    _write(out / "design.csv", io.write_design_csv, points)


# name: (handler, help line, own arguments), each argument a flag or
# positional name and its add_argument keywords
_COMMANDS = {
    "synth": (cmd_synth, "synthesize intensity and channel spectra", ()),
    "fit": (cmd_fit, "fit the model to observed spectra", (
        ("intensity_csv", {"help": "observed intensity spectrum CSV"}),
        ("--phase-csv", {"metavar": "PATH", "help": "optional observed phase CSV"}),
        ("--allow-nonconverged", {"action": "store_true", "help": "exit 0 even when the fit does not converge"}),
    )),
    "phase": (cmd_phase, "extract phase from a channel table", (
        ("channels_csv", {"help": "channel table CSV"}),
        ("--calibrate-edges", {
            "action": "store_true",
            "help": "estimate the bias from the far-detuned grid edges instead of the configured reference",
        }),
    )),
    "scan": (cmd_scan, "synthesize a temperature scan", ()),
    "design": (cmd_design, "sweep the outcoupling rate", ()),
}

# every subcommand's arguments after its own
_COMMON = (
    ("--config", {"metavar": "PATH", "help": "flat key = value config file"}),
    ("--out", {"metavar": "DIR", "default": "out", "help": "output directory"}),
    ("--set", {
        "metavar": "KEY=VALUE", "action": "append", "default": [], "dest": "overrides",
        "help": "override any config key (repeatable)",
    }),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pillar-qed", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_line, own) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, options in (*own, *_COMMON):
            command.add_argument(flag, **options)
    return parser


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
        # a non-finite result is refused where it is written or checked
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.showwarning = lambda message, *_: logger.warning("%s", message)  # one line each
            handler = _COMMANDS[args.command][0]
            handler(args, _config_from_args(args), Path(args.out))
    except _NUMERICAL_ERRORS as exc:
        print(f"pillar-qed: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        # every other ValueError (config, file format, model validation) is
        # a usage error, as is a point count too large to allocate; the
        # numerical ValueError subclasses are caught above
        print(f"pillar-qed: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
