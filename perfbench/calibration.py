"""Reference kernel that tracks the current speed of this core.

On a shared host the speed of a core drifts by up to 2x over tens of
seconds, so the benchmark times every op and every child process between
two runs of a fixed kernel and scales the wall time by the kernel's
reference time over its measured time. The kernel never touches
pillar_qed, so a change to the program cannot move it.

The kernel should slow down as the timed work does. A pure-Python loop
plus numpy vector math tracks the ``fit`` and ``design`` ops best; the
file-writing ``scan`` op is tracked best by a lighter loop plus writing
two spectrum-sized CSV files with float formatting and a rename
(``io=True``). Measured on a 2-core Xeon VM: across 8 runs of 8 s, the
quartile spread of the median op time fell from 9-42% to 1-5%. Child
processes are scaled by a reference child instead (``children``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

import numpy as np

# about the fastest times on that VM of either kernel and of the reference child
REFERENCE_S = 0.006
REFERENCE_CHILD_S = 0.13


class Calibration:
    def __init__(self, work, io=False):
        self.io = io
        self.array = np.linspace(0.0, 1.0, 4000)
        self.omega = np.linspace(1333496.0, 1333696.0, 2001).tolist()
        self.values = np.linspace(0.0, 1.0, 2001).tolist()
        self.path = os.path.join(work, "calibration.txt")
        for _ in range(5):
            self()

    def __call__(self):
        """Run the kernel once; returns its wall time in seconds."""
        t0 = perf_counter()
        if self.io:
            for _ in range(10):
                self._python(1500)
                self._vector(2)
            for _ in range(2):
                text = "\n".join(f"{w!r},{v!r}" for w, v in zip(self.omega, self.values))
                tmp = self.path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, self.path)
        else:
            for _ in range(20):
                self._python(3000)
                self._vector(5)
        return perf_counter() - t0

    @staticmethod
    def _python(n):
        total = 0
        for i in range(n):
            total += i * i
        return total

    def _vector(self, n):
        for _ in range(n):
            np.exp(self.array) * np.sin(self.array)

    def scale(self, before, after):
        """Factor from wall time to reference time for work between two kernel runs."""
        return REFERENCE_S / (0.5 * (before + after))

    def children(self, cmds, **kwargs):
        """Run child processes in turn; yields (process, wall s, reference s) for each.

        A child's start-up (exec, imports) slows less than the kernel, so
        children are scaled instead by a reference child that only imports
        numpy, run before the first child and after each one.
        """
        reference = [sys.executable, "-c", "import numpy"]
        before = _wall(reference, **kwargs)[1]
        for cmd in cmds:
            proc, wall = _wall(cmd, **kwargs)
            after = _wall(reference, **kwargs)[1]
            yield proc, wall, wall * REFERENCE_CHILD_S / (0.5 * (before + after))
            before = after


def _wall(cmd, **kwargs):
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    return proc, perf_counter() - t0
