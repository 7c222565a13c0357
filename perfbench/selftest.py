#!/usr/bin/env python3
"""Harness self-test: a planted wrong result must lower ok_frac.

    python3 perfbench/selftest.py [--seed N]

For each workload, runs one pass over a small input pool as is (ok_frac
must be 1) and again with one library result made wrong from outside:
the fitted g off by 20%, every maximal conditional phase lowered by
0.01 rad, the scan synthesized with g off by 20%. Each planted run must
score ok_frac 0. Exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
from contextlib import contextmanager

import run  # pins BLAS threads and sets up paths before numpy loads

sys.path[:0] = [str(run.HERE), str(run.SRC)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402
from pillar_qed import design, estimation, tuning  # noqa: E402

POOL = 4


@contextmanager
def planted(module, name, wrong):
    original = getattr(module, name)
    setattr(module, name, lambda *a, **k: wrong(original, *a, **k))
    try:
        yield
    finally:
        setattr(module, name, original)


def fit_g_off(fit, *args, **kwargs):
    result = fit(*args, **kwargs)
    result.params = dict(result.params, g=1.2 * result.params["g"])
    return result


def phase_lowered(sweep, *args, **kwargs):
    return [
        dataclasses.replace(pt, max_conditional_phase=max(pt.max_conditional_phase - 0.01, 0.0))
        for pt in sweep(*args, **kwargs)
    ]


def scan_g_off(synthesize, p, *args, **kwargs):
    return synthesize(dataclasses.replace(p, g=1.2 * p.g), *args, **kwargs)


PLANTS = {
    "fit": (estimation, "fit", fit_g_off, "fitted g off by 20%"),
    "design": (design, "sweep_kappa", phase_lowered, "max phase lowered by 0.01 rad"),
    "scan": (tuning, "synthesize_scan", scan_g_off, "scan synthesized with g off by 20%"),
}


def ok_frac(wl, inputs, expected, out):
    result = run.run_ops(wl, inputs, expected, out, 0.0, Calibration(out), min_ops=len(inputs))
    return result["passed"] / result["attempted"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    good = True
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        wl.pool = POOL
        work = run.ROOT / ".perfbench_work" / f"selftest-{name}-{os.getpid()}"
        try:
            work.mkdir(parents=True)
            inputs = wl.generate(np.random.default_rng(args.seed), work)
            expected = [wl.expect(inp) for inp in inputs]
            out = work / "out"
            out.mkdir()
            clean = ok_frac(wl, inputs, expected, out)
            module, attr, wrong, label = PLANTS[name]
            with planted(module, attr, wrong):
                dirty = ok_frac(wl, inputs, expected, out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        passed = clean == 1.0 and dirty == 0.0
        good &= passed
        print(f"{name:7s} ok_frac {clean:.2f} as is, {dirty:.2f} with {label}: {'ok' if passed else 'FAILED'}")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
