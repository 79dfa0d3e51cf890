"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py [--first-seed 1]

Runs the command of BENCHMARK.json once per seed (RUNS seeds from
--first-seed) and workload, with the workloads interleaved (seed 1 of every
workload, then seed 2, ...) so that drift of a shared machine spreads over
all of them.  For each workload and end-to-end metric it prints the median
and the quartile spread (Q3 - Q1) / median of
statistics.quantiles(values, n=4), against the metric's bound.  Exits 1 if a
run fails or a spread exceeds its bound.  Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: {m: [] for m in bounds} for name in names}
    ok = True
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0 else {}
            if not result.get("correct") or set(result["metrics"]) != set(bounds):
                print(f"{name} seed {seed}: bad run, exit {out.returncode}\n{out.stdout}{out.stderr}")
                ok = False
                continue
            for m, v in result["metrics"].items():
                values[name][m].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()), flush=True)

    for name in names:
        for m, vals in values[name].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[m] / 3 else (" ABOVE BOUND/3" if spread <= bounds[m] else " ABOVE BOUND")
            print(f"{name:10s} {m:12s} median={med:.4f} spread={spread:.4f} bound={bounds[m]}{flag}")
            if spread > bounds[m]:
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
