#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py --workloads fit design scan --seeds 10

For each workload, runs ``run.py`` once per seed and reports, for every
end-to-end metric, the median and the spread between the first and third
quartile as a share of the median, against a third of the metric's bound.
``--repeat-counts`` also makes two traced runs at one seed and requires
every per-layer count to repeat exactly. Exits 1 if any run is incorrect,
prints other metrics than BENCHMARK.json names, a spread reaches its bound
(``setup_s`` excepted) or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = {"ms", "s", "1/s"}


def run(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    names = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != names:
        raise SystemExit(f"{workload} seed {seed}: metrics {sorted(set(result['metrics']) ^ names)} differ from BENCHMARK.json")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--repeat-counts", action="store_true")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        results = [run(workload, seed, 0) for seed in range(args.first_seed, args.first_seed + args.seeds)]
        if not all(r["correct"] for r in results):
            print(f"{workload}: incorrect run", flush=True)
            ok = False
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < metric["bound"] / 3.0 or metric["name"] == "setup_s"
            ok &= spread < metric["bound"] or metric["name"] == "setup_s"
            print(f"{workload:7s} {metric['name']:17s} median {median:10.4f} {metric['unit']:8s} "
                  f"spread {spread:7.2%} bound {metric['bound']:.0%} {'ok' if steady else 'WIDE'} "
                  f"[{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
            if metric["unit"] in TIME_UNITS and len(set(values)) == 1:
                print(f"{workload}: {metric['name']} reads the same on every run", flush=True)
                ok = False
        if args.repeat_counts:
            first, second = (run(workload, args.first_seed, 1) for _ in range(2))
            counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
            differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
            print(f"{workload:7s} per-layer counts {'repeat exactly' if not differ else f'DIFFER: {differ}'}", flush=True)
            ok &= not differ and first["correct"] and second["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
