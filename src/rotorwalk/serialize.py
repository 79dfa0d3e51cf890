"""CSV and JSON text formats for profiles, weights, configurations, reports.

Everything is emitted as a string; callers decide where it goes.  Numbers
are written with repr-precision so identical inputs give byte-identical
output (reports hold no run timings).
"""
from __future__ import annotations

import csv
import io
import json
from typing import IO, Iterable

from .analysis import EscapeReport
from .errors import GraphInvalid
from .graphs import Graph, RotorMechanism
from .harmonic import HarmonicProfile
from .weights import RotorConfig, WeightTable, check_config


def _fmt(x: float) -> str:
    return repr(float(x))


def profile_csv(g: Graph, profile: HarmonicProfile) -> str:
    """Per-vertex table: vertex_label, degree, h, green."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex_label", "degree", "h", "green"])
    for x in range(g.num_vertices):
        w.writerow([g.labels[x], g.degree(x), _fmt(profile.voltage[x]), _fmt(profile.green[x])])
    return buf.getvalue()


def weights_csv(g: Graph, mech: RotorMechanism, wt: WeightTable) -> str:
    """Per-edge table: vertex_label, mechanism_index, target_label, weight."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex_label", "mechanism_index", "target_label", "weight"])
    indptr, targets, values = mech.indptr.tolist(), mech.flat.tolist(), wt.values.tolist()
    for x in range(g.num_vertices):
        for k in range(indptr[x], indptr[x + 1]):
            w.writerow([g.labels[x], k - indptr[x], g.labels[targets[k]], _fmt(values[k])])
    return buf.getvalue()


def config_csv(g: Graph, config: RotorConfig) -> str:
    """Rotor positions of non-sink vertices: vertex_label, rotor_index."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex_label", "rotor_index"])
    for x, p in enumerate(config.pos.tolist()):
        if p >= 0:
            w.writerow([g.labels[x], p])
    return buf.getvalue()


def load_config_csv(g: Graph, source: str | IO[str]) -> RotorConfig:
    """Parse a config_csv document back into a validated RotorConfig."""
    text = source if isinstance(source, str) else source.read()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["vertex_label", "rotor_index"]:
        raise GraphInvalid("config file must start with header vertex_label,rotor_index")

    pos = [-1] * g.num_vertices
    seen = set()
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 2:
            raise GraphInvalid(f"config line {lineno}: expected 2 fields, got {len(row)}")
        label, idx_s = row
        x = g.label_to_id.get(label)
        if x is None:
            raise GraphInvalid(f"config line {lineno}: unknown vertex {label!r}")
        if x in seen:
            raise GraphInvalid(f"config line {lineno}: duplicate vertex {label!r}")
        seen.add(x)
        try:
            idx = int(idx_s)
        except ValueError:
            raise GraphInvalid(f"config line {lineno}: rotor_index {idx_s!r} is not an integer")
        pos[x] = idx

    config = RotorConfig(pos=pos)
    try:
        check_config(g, config)
    except Exception as exc:
        raise GraphInvalid(f"config file invalid: {exc}") from exc
    return config


def report_dict(report: EscapeReport) -> dict:
    """JSON-compatible document of a sweep report."""
    return {
        "graph": report.graph,
        "mechanism": report.mechanism,
        "config": report.config,
        "alpha": report.alpha,
        "runs": [
            {
                "n": n,
                "escaped": round(rate * n),
                "rate": rate,
                "gap": gap,
                "steps": steps,
            }
            for n, rate, gap, steps in zip(
                report.n_values, report.rates, report.gaps, report.steps
            )
        ],
        "max_invariant_dev": report.max_invariant_dev,
    }


def report_json(report: EscapeReport) -> str:
    return json.dumps(report_dict(report), indent=2, sort_keys=True) + "\n"


def report_csv(report: EscapeReport) -> str:
    """Sweep table: n, rate, alpha, gap, steps, max_invariant_dev."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "rate", "alpha", "gap", "steps", "max_invariant_dev"])
    dev = "" if report.max_invariant_dev is None else _fmt(report.max_invariant_dev)
    for n, rate, gap, steps in zip(report.n_values, report.rates, report.gaps, report.steps):
        w.writerow([n, _fmt(rate), _fmt(report.alpha), _fmt(gap), steps, dev])
    return buf.getvalue()


def trace_header() -> list[str]:
    return ["t", "mover", "from_label", "to_label", "status_change", "survivors", "invariant"]


def trace_writer(sink: IO[str]):
    """csv.writer preconfigured for per-step traces."""
    w = csv.writer(sink, lineterminator="\n")
    w.writerow(trace_header())
    return w
