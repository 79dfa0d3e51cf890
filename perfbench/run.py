"""rotorwalk benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each operation is a fresh worker process (worker.py), one after another, so
the loop is closed with one caller.  Operations start until the next one is
expected to end after S seconds, with at least MIN_OPS of them; a run that
ends with fewer good operations (HARD_CAP_S reached) is not correct.

--trace 0 prints the end-to-end metrics, medians over the operations:
  wall_s       interpreter start until the last output is written
  setup_s      interpreter start until the first call into `harmonic`
               (import, graph build with validation, mechanism)
  peak_rss_mb  peak resident memory of the worker process
--trace 1 alternates untraced and traced operations and prints the
per-layer metrics, medians over the traced operations;
traced.overhead_s is the traced minus the untraced median wall time.  The
spans of the last traced run of a workload are kept in
.perfbench_work/spans-WORKLOAD.json.

The metrics, with their units, are those listed in BENCHMARK.json.
The last line of stdout is one JSON object: correct, attempted, failed
(operations that raised, exited non-zero or failed an output check; a count
that differs between traced operations of one seed also fails) and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_OPS = 3            # untraced run: operations, so setup_s and wall_s are medians
MIN_TRACED_PAIRS = 2   # traced run: (untraced, traced) pairs, so counts are compared
OP_TIMEOUT_S = 60
HARD_CAP_S = 110       # start no operation expected to end later than this

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")  # must repeat between operations


@dataclass
class Op:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    error: str = ""
    observed: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _wait(proc: subprocess.Popen):
    """Wait for the worker, killing it after OP_TIMEOUT_S; returns (exit code, its resource usage)."""
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_op(name: str, seed: int, traced: bool, expected: dict | None, workdir: Path) -> Op:
    """One operation: spawn the worker, time it, check its outputs.

    With expected None the observables are only extracted, for record.py.
    """
    wl = workloads.WORKLOADS[name]
    d = Path(tempfile.mkdtemp(dir=workdir))
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(d), str(int(traced))]
    op = Op(traced)
    with open(d / "stderr.txt", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _wait(proc)
        op.wall_s = op.setup_s = time.monotonic() - t_spawn
    op.peak_rss_mb = usage.ru_maxrss / 1024.0
    try:
        if code != 0:
            tail = (d / "stderr.txt").read_text().strip().splitlines()[-1:] or [""]
            raise workloads.CheckFailed(f"worker exited {code}: {tail[0]}")
        res = json.loads((d / "result.json").read_text())
        op.wall_s = res["t_end"] - t_spawn
        if res["t_first_harmonic"] is None:
            raise workloads.CheckFailed("the operation never called into harmonic")
        op.setup_s = res["t_first_harmonic"] - t_spawn
        op.observed = wl.observe(d)
        if expected is not None:
            workloads.compare(op.observed, expected)
        if traced:
            rows = op.observed.get("trace_rows", 0)
            size = (d / wl.trace_file).stat().st_size if wl.trace_file else 0
            op.spans = res["spans"]
            op.layer = layers.layer_metrics(res["spans"], res["counts"], res["residuals"],
                                            rows, size, res["t_end"] - res["t_main"])
            unlisted = set(op.layer) ^ ({name for name, _ in PER_LAYER} - {"traced.overhead_s"})
            if unlisted:
                raise workloads.CheckFailed(f"per-layer metrics not as in BENCHMARK.json: {sorted(unlisted)}")
    except Exception as exc:  # any failure of one operation is counted, and the run goes on
        op.error = "".join(traceback.format_exception_only(exc)).strip()
    shutil.rmtree(d)
    return op


def measure(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> list[Op]:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_TRACED_PAIRS if trace else MIN_OPS
    ops: list[Op] = []
    try:
        start = time.monotonic()
        rounds = 0
        while True:
            ops += [run_op(name, seed, traced, expected, workdir) for traced in kinds]
            rounds += 1
            elapsed = time.monotonic() - start
            per_round = elapsed / rounds
            if elapsed + per_round > HARD_CAP_S:
                break
            if rounds >= min_rounds and elapsed + per_round > seconds:
                break
    finally:
        shutil.rmtree(workdir)
    return ops


def _check_counts(ops: list[Op]) -> None:
    """A count that differs between traced operations of one seed fails the later one."""
    ref = None
    for op in ops:
        if not op.traced or op.error:
            continue
        counts = {k: op.layer[k] for k in COUNTS}
        if ref is None:
            ref = counts
        elif counts != ref:
            diff = sorted(k for k in counts if counts[k] != ref[k])
            op.error = f"counts differ between operations of one seed: {diff}"


def summarize(name: str, seed: int, trace: bool, ops: list[Op]) -> dict:
    if trace:
        _check_counts(ops)
    failed = sum(1 for op in ops if op.error)
    good = [op for op in ops if not op.error] or ops

    plain = [op for op in good if not op.traced]
    traced = [op for op in good if op.traced and op.layer]
    if trace:
        shortfall = max(0, MIN_TRACED_PAIRS - len(plain), MIN_TRACED_PAIRS - len(traced))
    else:
        shortfall = max(0, MIN_OPS - len(plain))
    metrics = {}
    if trace:
        for metric, unit in PER_LAYER:
            if metric == "traced.overhead_s":
                value = median([op.wall_s for op in traced or good]) - median([op.wall_s for op in plain or good])
            elif metric in COUNTS:
                value = traced[0].layer[metric] if traced else 0  # equal in every traced op
            else:
                value = median([op.layer[metric] for op in traced]) if traced else 0.0
            metrics[metric] = {"value": value, "unit": unit}
        spans = [op.spans for op in traced]
        if spans:
            (WORK / f"spans-{name}.json").write_text(json.dumps(
                {"workload": name, "seed": seed,
                 "fields": ["name", "start", "end", "parent", "rss0_kb", "rss1_kb"],
                 "operations": spans}))
    else:
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": median([getattr(op, metric) for op in good]), "unit": unit}

    versions = " ".join(f"{p}={metadata.version(p)}" for p in ("numpy", "scipy"))
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} {versions}")
    print(f"workload={name} input_seed={seed} trace={int(trace)} operations={len(ops)} "
          f"failed={failed} failed_frac={failed / len(ops):.4g}")
    for op in ops:
        if op.error:
            print(f"  failed ({'traced' if op.traced else 'untraced'}): {op.error}")
    if shortfall:
        print(f"  too few good operations for the medians: {shortfall} short (cap {HARD_CAP_S} s)")
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0 and not shortfall, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rotorwalk" / "__init__.py").is_file():
        print(f"error: no rotorwalk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % workloads.POOL
    expected = json.loads((HERE / "expected.json").read_text())[args.workload][str(seed)]
    ops = measure(args.workload, seed, args.seconds, bool(args.trace), expected)
    print(json.dumps(summarize(args.workload, seed, bool(args.trace), ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
