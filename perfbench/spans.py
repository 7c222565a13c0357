"""Per-layer tracing from outside the program.

Every public function (``__all__``) of the traced modules is replaced by a
wrapper at every module attribute that holds it, so calls through
``design.reflection_amplitude``, ``tuning.local_minima`` or a module's own
globals are all seen. A wrapper records a span: its self time is its
duration minus the spans it caused, so the self times of all spans plus
the benchmark's own time inside an op add up to the op's time. Counts are
taken from arguments and return values at the same boundary.

Blind spot: the fit model calls the private ``scattering._amplitude``
directly, so its kernel time shows under ``estimation.residuals_ms``.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("scattering", "interferometer", "estimation", "leastsq", "tuning", "design", "io")


class _Frame:
    __slots__ = ("name", "module", "children")

    def __init__(self, name, module):
        self.name = name
        self.module = module
        self.children = 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span stack, self time per function and counters per layer."""

    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.hook_s = 0.0
        self._saved = []
        self._hooks = {
            "scattering.reflection_amplitude": self._amplitude,
            "leastsq.levenberg_marquardt": self._lm,
            "leastsq.central_difference_jacobian": self._jacobian,
            "estimation.residuals": self._residuals,
            "estimation.local_minima": self._local_minima,
            "design.sweep_kappa": lambda a, k, r: self.counts.update({"design.points": len(r)}),
            "design.relative_phase": self._relative_phase,
            "tuning.synthesize_scan": lambda a, k, r: self.counts.update({"tuning.spectra": len(r.spectra)}),
            "io.read_spectrum_csv": self._read,
            "io.read_channels_csv": self._read,
            "io.atomic_write_text": self._write,
        }

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap the public functions of every traced module in place."""
        targets = {}
        for short in MODULES:
            module = importlib.import_module(f"pillar_qed.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    targets[id(fn)] = self._wrap(f"{short}.{attr}", short, fn)
        holders = [m for name, m in sys.modules.items() if name == "pillar_qed" or name.startswith("pillar_qed.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._saved.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, value in reversed(self._saved):
            setattr(holder, attr, value)
        self._saved.clear()

    def _wrap(self, name, module, fn):
        stack = self.stack
        self_s = self.self_s
        counts = self.counts
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            frame = _Frame(name, module)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self_s[name] += (t1 - t0) - frame.children
                counts[f"{module}.calls"] += 1
            if hook is not None:
                hook(args, kwargs, result)
            t2 = perf_counter()
            self.hook_s += t2 - t1
            if stack:
                stack[-1].children += t2 - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- root span around one op ---------------------------------------

    def op(self, fn, *args):
        """Run ``fn`` as the root span; returns (result, duration, own time)."""
        frame = _Frame("bench", "bench")
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            duration = perf_counter() - t0
            self.stack.pop()
        return result, duration, duration - frame.children

    def _inside(self, name):
        return any(f.name == name for f in self.stack)

    # -- count hooks ----------------------------------------------------

    def _amplitude(self, args, kwargs, result):
        omega = _arg(args, kwargs, 2, "omega")
        if np.ndim(omega) == 0:
            self.counts.update({"scattering.scalar_calls": 1, "scattering.amplitude_points": 1})
            if any(f.module == "design" for f in self.stack):
                self.counts["design.scalar_amplitude_calls"] += 1
        else:
            self.counts.update({"scattering.vector_calls": 1, "scattering.amplitude_points": np.size(omega)})

    def _lm(self, args, kwargs, result):
        # a step is accepted on every iteration except a final one that
        # stopped on the gradient or found no improving step
        rejected_last = result.reason in ("gradient", "no_improvement")
        self.counts.update({
            "leastsq.lm_calls": 1,
            "leastsq.iterations": result.iterations,
            "leastsq.accepted_steps": result.iterations - int(rejected_last),
        })

    def _jacobian(self, args, kwargs, result):
        n = np.size(_arg(args, kwargs, 1, "x"))
        self.counts.update({"leastsq.jacobian_calls": 1, "leastsq.jacobian_evals": 1 + 2 * n})

    def _residuals(self, args, kwargs, result):
        self.counts["estimation.residual_calls"] += 1
        if self._inside("leastsq.levenberg_marquardt") and not self._inside("leastsq.central_difference_jacobian"):
            self.counts["leastsq.trial_evals"] += 1

    def _local_minima(self, args, kwargs, result):
        self.counts["estimation.local_minima_points"] += np.size(_arg(args, kwargs, 1, "values"))

    def _relative_phase(self, args, kwargs, result):
        omega = _arg(args, kwargs, 2, "omega")
        if np.ndim(omega) > 0:
            self.counts["design.grid_points"] += np.size(omega)

    def _read(self, args, kwargs, result):
        rows = np.size(result.omega)
        size = os.stat(_arg(args, kwargs, 0, "path")).st_size
        self.counts.update({"io.reads": 1, "io.read_rows": rows, "io.read_bytes": size})

    def _write(self, args, kwargs, result):
        size = os.stat(_arg(args, kwargs, 0, "path")).st_size
        self.counts.update({"io.files_written": 1, "io.write_bytes": size})


def layer_metrics(self_ms: dict, counts: dict, ops_self: int, ops_counted: int):
    """Per-op layer metrics from summed self times and counts.

    ``self_ms`` maps "module.function" to total self time in ms over
    ``ops_self`` traced ops; ``counts`` are totals over ``ops_counted`` ops.
    """

    def ms(*names):
        return sum(self_ms.get(n, 0.0) for n in names) / ops_self

    def module_ms(module):
        return sum(v for k, v in self_ms.items() if k.split(".")[0] == module) / ops_self

    def per_op(name):
        return counts.get(name, 0) / ops_counted

    trials_after_start = counts.get("leastsq.trial_evals", 0) - counts.get("leastsq.lm_calls", 0)
    io_reads = [f"io.{n}" for n in ("read_spectrum_csv", "read_channels_csv", "read_design_csv", "read_manifest_csv", "read_report")]
    io_writes = [n for n in self_ms if n.startswith("io.") and n not in io_reads]
    metrics = {
        "leastsq.iterations": (per_op("leastsq.iterations"), "count"),
        "leastsq.jacobian_calls": (per_op("leastsq.jacobian_calls"), "count"),
        "leastsq.jacobian_evals": (per_op("leastsq.jacobian_evals"), "count"),
        "leastsq.trial_evals": (per_op("leastsq.trial_evals"), "count"),
        "leastsq.evals_per_iteration": (
            (counts.get("leastsq.trial_evals", 0) + counts.get("leastsq.jacobian_evals", 0)) / counts["leastsq.iterations"]
            if counts.get("leastsq.iterations") else 0.0,
            "count",
        ),
        "leastsq.step_accept_frac": (
            counts.get("leastsq.accepted_steps", 0) / trials_after_start if trials_after_start > 0 else 0.0,
            "fraction",
        ),
        "leastsq.self_ms": (module_ms("leastsq"), "ms"),
        "estimation.residual_calls": (per_op("estimation.residual_calls"), "count"),
        "estimation.residuals_ms": (ms("estimation.residuals"), "ms"),
        "estimation.fit_self_ms": (ms("estimation.fit"), "ms"),
        "estimation.local_minima_ms": (ms("estimation.local_minima"), "ms"),
        "estimation.local_minima_points": (per_op("estimation.local_minima_points"), "count"),
        "estimation.self_ms": (module_ms("estimation"), "ms"),
        "design.points": (per_op("design.points"), "count"),
        "design.max_phase_ms": (ms("design.max_conditional_phase"), "ms"),
        "design.scalar_amplitude_calls": (per_op("design.scalar_amplitude_calls"), "count"),
        "design.grid_points": (per_op("design.grid_points"), "count"),
        "design.self_ms": (module_ms("design"), "ms"),
        "tuning.synthesize_ms": (ms("tuning.synthesize_scan"), "ms"),
        "tuning.dip_tracking_ms": (ms("tuning.scan_dip_positions", "tuning.anticrossing_gap"), "ms"),
        "tuning.spectra": (per_op("tuning.spectra"), "count"),
        "tuning.self_ms": (module_ms("tuning"), "ms"),
        "scattering.amplitude_calls": (per_op("scattering.scalar_calls") + per_op("scattering.vector_calls"), "count"),
        "scattering.scalar_calls": (per_op("scattering.scalar_calls"), "count"),
        "scattering.vector_calls": (per_op("scattering.vector_calls"), "count"),
        "scattering.amplitude_points": (per_op("scattering.amplitude_points"), "count"),
        "scattering.self_ms": (module_ms("scattering"), "ms"),
        "interferometer.calls": (per_op("interferometer.calls"), "count"),
        "interferometer.self_ms": (module_ms("interferometer"), "ms"),
        "io.read_ms": (ms(*io_reads), "ms"),
        "io.read_rows": (per_op("io.read_rows"), "count"),
        "io.read_bytes": (per_op("io.read_bytes"), "B"),
        "io.write_ms": (ms(*io_writes), "ms"),
        "io.write_bytes": (per_op("io.write_bytes"), "B"),
        "io.files_written": (per_op("io.files_written"), "count"),
    }
    return metrics
