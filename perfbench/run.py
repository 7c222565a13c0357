#!/usr/bin/env python3
"""pillar-qed benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 15 --trace 0

Run from the repository root. Set-up draws the workload's input pool from
``--seed`` and writes it under ``.perfbench_work/``; a single client then
runs ops back to back (a closed loop) for ``--seconds`` and checks every
result against the closed-form oracle in ``oracle.py``.

``--trace 0`` prints the end-to-end metrics: throughput, op latency, the
share of ops that pass the oracle, set-up time, the matching CLI
subcommand's wall time and peak memory. ``--trace 1`` prints per-layer
metrics: a third of the time runs untraced, the rest with every public
library function wrapped (see ``spans.py``). The last line of standard
output is the result as one JSON object; lines before it give provenance
and detail. BLAS threads are pinned to 1 here and in every child process.

Times are given at a reference machine speed: every op and every child
process runs between two runs of a fixed kernel (``calibration.py``) and
its wall time is scaled by the kernel's reference time over its measured
time. The process and its children are pinned to one CPU so that the
kernel and the timed work share a core. Raw wall-clock figures are
printed in the detail line.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7  # each on its own input
CHILD_TIMEOUT_S = 60
MIN_LATENCY_SAMPLES = 100  # p90 then has at least ten samples beyond it


def _children(cal, cmds, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return cal.children(cmds, cwd=cwd, env=env, timeout=CHILD_TIMEOUT_S)


def run_ops(wl, inputs, expected, out, seconds, cal, min_ops=0, tracer=None):
    """Closed loop over the input pool, checking each result.

    Runs until ``seconds`` have passed and at least ``min_ops`` ops were
    attempted. Each op is timed in wall seconds and at reference speed;
    oracle and calibration time are not op time.
    """
    wall, latencies, op_counts = [], [], []
    attempted = passed = 0
    bench_s = 0.0
    deadline = perf_counter() + seconds
    before = cal()
    while attempted < min_ops or perf_counter() < deadline:
        k = attempted % len(inputs)
        attempted += 1
        counts_before = Counter(tracer.counts) if tracer else None
        t0 = perf_counter()
        try:
            if tracer:
                result, duration, own = tracer.op(wl.op, inputs[k], out)
                bench_s += own
            else:
                result = wl.op(inputs[k], out)
                duration = perf_counter() - t0
        except Exception as exc:  # an op that raises counts as failed
            print(f"op {attempted - 1} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            op_counts.append(None)
            before = cal()
            continue
        after = cal()
        wall.append(duration)
        latencies.append(duration * cal.scale(before, after))
        before = after
        passed += bool(wl.check(inputs[k], expected[k], result))
        if tracer:
            op_counts.append(tracer.counts - counts_before)
    if not latencies:
        raise RuntimeError("no op completed")
    return {
        "wall": wall,
        "latencies": latencies,
        "attempted": attempted,
        "passed": passed,
        "throughput": len(latencies) / sum(latencies),
        "bench_s": bench_s,
        "op_counts": op_counts,
    }


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_cli(wl, inputs, expected, work, cal):
    """Median CLI subcommand time (wall, reference) over the first inputs.

    Every run's output must pass the oracle, and a second run on input 0
    must write byte-identical data files. Runs after the first reuse one
    output directory, as the ops do, so that the timed runs replace files.
    """
    from workloads import CLI_INPUTS

    order = (*range(CLI_INPUTS), 0)
    outs = [work / "cli_first"] + [work / "cli"] * CLI_INPUTS
    cmds = ([sys.executable, "-m", "pillar_qed.cli", *wl.cli_args(inputs[k], out)] for k, out in zip(order, outs))
    wall, ref, ok = [], [], True
    for k, out, (proc, w, r) in zip(order, outs, _children(cal, cmds, work)):
        wall.append(w)
        ref.append(r)
        if proc.returncode != 0:
            print(f"CLI run failed ({proc.returncode}): {proc.stderr.strip()}", file=sys.stderr)
            ok = False
        elif not wl.check_cli(inputs[k], expected[k], out):
            print(f"CLI output on input {k} fails the oracle", file=sys.stderr)
            ok = False
    if ok and any((outs[0] / name).read_bytes() != (outs[-1] / name).read_bytes() for name in wl.cli_files):
        print("CLI data files differ between two runs on one input", file=sys.stderr)
        ok = False
    return statistics.median(wall), statistics.median(ref), len(wall), ok


def time_setup(workload, work, cal):
    """Median time (wall, reference) of a fresh interpreter importing pillar_qed and running one op."""
    cmds = ([sys.executable, str(HERE / "probe.py"), workload, str(work), str(k)] for k in range(SETUP_RUNS))
    wall, ref = [], []
    for proc, w, r in _children(cal, cmds, work):
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        wall.append(w)
        ref.append(r)
    return statistics.median(wall), statistics.median(ref)


def provenance(args):
    import numpy as np

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(wl, args, inputs, expected, work, out, cal):
    run = run_ops(wl, inputs, expected, out, args.seconds, cal, min_ops=MIN_LATENCY_SAMPLES)
    cli_wall, cli_ref, cli_runs, cli_ok = time_cli(wl, inputs, expected, work, cal)
    setup_wall, setup_ref = time_setup(args.workload, work, cal)
    lat = [1e3 * x for x in run["latencies"]]
    metrics = {
        "throughput_ops_s": (run["throughput"], "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (_percentile(lat, 90), "ms"),
        "ok_frac": (run["passed"] / run["attempted"], "fraction"),
        "setup_s": (setup_ref, "s"),
        "cli_p50_ms": (1e3 * cli_ref, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = [1e3 * x for x in run["wall"]]
    detail = {
        "ops": run["attempted"],
        "latency_samples": len(lat),
        "wall_latency_p50_ms": statistics.median(wall),
        "wall_latency_p90_ms": _percentile(wall, 90),
        "wall_cli_p50_ms": 1e3 * cli_wall,
        "wall_setup_s": setup_wall,
        "cli_runs": cli_runs,
        "cli_ok": cli_ok,
        "setup_runs": SETUP_RUNS,
    }
    return run, metrics, cli_ok, detail


def per_layer(wl, args, inputs, expected, out, cal):
    import spans

    pool = len(inputs)
    plain = run_ops(wl, inputs, expected, out, args.seconds / 3.0, cal)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # one full pass gives the counts; some ops of a second pass check them
        traced = run_ops(wl, inputs, expected, out, args.seconds * 2.0 / 3.0, cal, min_ops=pool + 8, tracer=tracer)
    finally:
        tracer.uninstall()

    # op k and op k + pool see the same input: every count must repeat
    counts = traced["op_counts"]
    repeat_ok = all(
        counts[k] is not None and counts[k] == counts[k - pool] for k in range(pool, len(counts))
    )
    first_pass = sum((c for c in counts[:pool] if c is not None), Counter())
    n = len(traced["wall"])
    op_s = sum(traced["wall"])
    # self times are wall seconds; report them at reference speed too
    ms = 1e3 * sum(traced["latencies"]) / op_s
    self_ms = {name: ms * s for name, s in tracer.self_s.items()}
    metrics = spans.layer_metrics(self_ms, first_pass, n, pool)
    accounted = sum(tracer.self_s.values()) + tracer.hook_s + traced["bench_s"]
    metrics.update({
        "trace.overhead_frac": (plain["throughput"] / traced["throughput"] - 1.0, "fraction"),
        "trace.op_ms": (ms * op_s / n, "ms"),
        "trace.bench_self_ms": (ms * traced["bench_s"] / n, "ms"),
        "trace.tracer_ms": (ms * tracer.hook_s / n, "ms"),
        "trace.accounted_frac": (accounted / op_s, "fraction"),
    })
    run = {
        "attempted": plain["attempted"] + traced["attempted"],
        "passed": plain["passed"] + traced["passed"],
    }
    detail = {"untraced_ops": plain["attempted"], "traced_ops": traced["attempted"], "pool": pool, "counts_repeat": repeat_ok}
    return run, metrics, repeat_ok, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "design", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pillar_qed" / "__init__.py").is_file():
        print(f"error: no pillar_qed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import numpy as np

    import workloads
    from calibration import Calibration

    wl = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        inputs = wl.generate(np.random.default_rng(args.seed), work)
        workloads.save_inputs(work, inputs)
        expected = [wl.expect(inp) for inp in inputs]
        out = work / "out"
        out.mkdir()
        wl.op(inputs[0], out)  # warm-up, untimed
        cal = Calibration(work, io=wl.calibration_io)
        if args.trace:
            run, metrics, extra_ok, detail = per_layer(wl, args, inputs, expected, out, cal)
        else:
            run, metrics, extra_ok, detail = end_to_end(wl, args, inputs, expected, work, out, cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    failed = run["attempted"] - run["passed"]
    extra_ok = extra_ok and wl.run_ok()
    print(json.dumps({"provenance": provenance(args)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and extra_ok,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
