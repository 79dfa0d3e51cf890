"""The benchmark's workloads: what one operation runs, and how its outputs are checked.

An operation is one fresh worker process.  `run` executes in the worker,
after the package is imported, and drives it through the `rotorwalk` CLI
(`cli.main`) or the package's public functions.  `observe` executes in the
benchmark process afterwards: it reads what the operation wrote, checks what
can be checked from the outputs alone, and returns the observables that
expected.json records per input seed.

Seeds: the benchmark's --seed picks one of POOL input seeds (seed mod POOL),
which the program sees as `--seed-mech` or as the `random_ensemble` seed.
expected.json holds the outputs of every pool seed, recorded by record.py.
"""
from __future__ import annotations

import contextlib
import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

POOL = 16

ENSEMBLE_N = 1000
ENSEMBLE_TRIALS = 100
OBSERVE_D = 3  # lattice dimension of the traced run; its origin has degree 2d
OBSERVE_N = 500


class CheckFailed(Exception):
    """An output of the operation is wrong."""


def _cli(mods, argvs, workdir: Path) -> None:
    for k, argv in enumerate(argvs):
        with open(workdir / f"stdout{k}.txt", "w") as fh, contextlib.redirect_stdout(fh):
            rc = mods["cli"].main(argv)
        if rc != 0:
            raise CheckFailed(f"rotorwalk {' '.join(argv)} exited {rc}")


def _run_cmd(lattice, n, seed) -> list[str]:
    return ["run", "--lattice", *map(str, lattice), "--n", str(n),
            "--mechanism", "shuffled", "--seed-mech", str(seed)]


def _parse_run(text: str) -> dict:
    """Escaped count and alpha from `rotorwalk run` stdout, cross-checked with its JSON report."""
    lines = text.splitlines()
    m = re.fullmatch(r"n=(\d+) escaped=(\d+) rate=(\S+) gap=(\S+)", lines[0])
    if m is None:
        raise CheckFailed(f"unexpected first line {lines[0]!r}")
    n, escaped = int(m.group(1)), int(m.group(2))
    if not lines[1].startswith("alpha="):
        raise CheckFailed(f"unexpected second line {lines[1]!r}")
    alpha = float(lines[1].removeprefix("alpha="))
    first = next(i for i, line in enumerate(lines) if line.startswith("{"))
    report = json.loads("\n".join(lines[first:]))
    run = report["runs"][0]
    if (len(report["runs"]) != 1 or run["n"] != n or run["escaped"] != escaped
            or run["rate"] != escaped / n or float(m.group(3)) != escaped / n
            or report["alpha"] != alpha):
        raise CheckFailed("stdout summary and JSON report disagree")
    return {"escaped": escaped, "alpha": alpha}


def _parse_verify(text: str) -> None:
    lines = text.splitlines()
    records = [re.match(r"(\S+)\s+(pass|FAIL)\s+max_dev=", line) for line in lines[:-1]]
    if not records or None in records or lines[-1] != "all checks passed":
        raise CheckFailed("verify output is not a list of records ending in 'all checks passed'")
    failed = [r.group(1) for r in records if r.group(2) != "pass"]
    if failed:
        raise CheckFailed(f"verify records failed: {failed}")


def _parse_trace(path: Path, n: int, alpha: float, escaped: int) -> dict:
    """Row count and final survivors of a trace; checks its invariant column.

    The conserved quantity must stay at n*v(origin) = n / (alpha * deg(origin))
    within 1e-8 relative on every row.
    """
    target = n / (alpha * 2 * OBSERVE_D)
    tol = 1e-8 * max(1.0, target)
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows)[-2:] != ["survivors", "invariant"]:
            raise CheckFailed("trace header lacks survivors and invariant columns")
        count, survivors, worst = 0, None, 0.0
        for row in rows:
            count += 1
            survivors = int(row[-2])
            worst = max(worst, abs(float(row[-1]) - target))
    if worst > tol:
        raise CheckFailed(f"trace invariant deviates by {worst:.3e} > {tol:.3e}")
    if survivors != escaped:
        raise CheckFailed(f"trace ends with {survivors} survivors, report says {escaped}")
    return {"trace_rows": count, "trace_survivors": survivors}


@dataclass(frozen=True)
class Workload:
    run: Callable     # run(mods, seed, workdir, tracer), in the worker
    observe: Callable  # observe(workdir) -> observables, in the benchmark process
    trace_file: str = ""


def _single_run(lattice, n) -> dict:
    """run and observe of a workload that is one `rotorwalk run` on a lattice ball."""
    return dict(
        run=lambda mods, seed, workdir, tracer: _cli(mods, [_run_cmd(lattice, n, seed)], workdir),
        observe=lambda workdir: _parse_run((workdir / "stdout0.txt").read_text()),
    )


def _ensemble_run(mods, seed, workdir, tracer) -> None:
    pkg = mods["rotorwalk"]
    g = pkg.build_bary_tree(3, 8)
    mech = pkg.default_mechanism(g)
    summary = pkg.random_ensemble(g, mech, n=ENSEMBLE_N, trials=ENSEMBLE_TRIALS, seed=seed)
    with tracer.span("bench.write"):
        (workdir / "ensemble.json").write_text(json.dumps(
            {"n": summary.n, "trials": summary.trials, "alpha": summary.alpha, "rates": summary.rates}))


def _ensemble_observe(workdir: Path) -> dict:
    doc = json.loads((workdir / "ensemble.json").read_text())
    n, rates = doc["n"], doc["rates"]
    escaped = [round(r * n) for r in rates]
    if doc["trials"] != ENSEMBLE_TRIALS or len(rates) != ENSEMBLE_TRIALS or \
            any(r != e / n for r, e in zip(rates, escaped)):
        raise CheckFailed("ensemble rates are not survivor counts over n, one per trial")
    return {"escaped": escaped, "alpha": doc["alpha"]}


def _observe_run(mods, seed, workdir, tracer) -> None:
    traced_run = _run_cmd((OBSERVE_D, 8), OBSERVE_N, seed) + [
        "--check-invariant", "--trace", str(workdir / "trace.csv")]
    _cli(mods, [["verify", "--graph", "lattice:2,5"], traced_run], workdir)


def _observe_observe(workdir: Path) -> dict:
    _parse_verify((workdir / "stdout0.txt").read_text())
    out = _parse_run((workdir / "stdout1.txt").read_text())
    out.update(_parse_trace(workdir / "trace.csv", OBSERVE_N, out["alpha"], out["escaped"]))
    return out


WORKLOADS = {
    "precompute": Workload(**_single_run((3, 22), 1000)),
    "settle": Workload(**_single_run((2, 40), 50_000)),
    "ensemble": Workload(_ensemble_run, _ensemble_observe),
    "observe": Workload(_observe_run, _observe_observe, trace_file="trace.csv"),
}


def compare(observed: dict, expected: dict) -> None:
    """Exact match on every observable except alpha, which must agree to 1e-12 relative."""
    if set(observed) != set(expected):
        raise CheckFailed(f"observables {sorted(observed)} != recorded {sorted(expected)}")
    for key, want in expected.items():
        got = observed[key]
        ok = abs(got - want) <= 1e-12 * abs(want) if key == "alpha" else got == want
        if not ok:
            raise CheckFailed(f"{key}: got {got!r}, recorded {want!r}")
