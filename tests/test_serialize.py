import csv
import io
import json

import pytest

from rotorwalk import GraphInvalid, escape_sweep, min_weight_config, random_config
from rotorwalk.serialize import (
    config_csv,
    load_config_csv,
    profile_csv,
    report_csv,
    report_dict,
    report_json,
    trace_header,
    weights_csv,
)


def test_profile_csv_content(p3_solved):
    g, _, profile, _ = p3_solved
    rows = list(csv.DictReader(io.StringIO(profile_csv(g, profile))))
    assert [r["vertex_label"] for r in rows] == ["0", "1", "2"]
    assert [float(r["h"]) for r in rows] == [2.0, 1.0, 0.0]
    assert [float(r["green"]) for r in rows] == [2.0, 2.0, 0.0]
    assert [int(r["degree"]) for r in rows] == [1, 2, 1]


def test_weights_csv_content(p3_solved):
    g, mech, _, wt = p3_solved
    rows = list(csv.DictReader(io.StringIO(weights_csv(g, mech, wt))))
    by_edge = {(r["vertex_label"], r["target_label"]): float(r["weight"]) for r in rows}
    assert by_edge == {("0", "1"): 0.0, ("1", "0"): -1.0, ("1", "2"): 0.0}
    assert all(int(r["mechanism_index"]) in (0, 1) for r in rows)


def test_config_round_trip(small_graph):
    g = small_graph
    cfg = random_config(g, 4)
    text = config_csv(g, cfg)
    back = load_config_csv(g, text)
    assert back == cfg


def test_load_config_rejects_garbage(p3):
    g = p3
    with pytest.raises(GraphInvalid, match="header"):
        load_config_csv(g, "nope\n")
    head = "vertex_label,rotor_index\n"
    with pytest.raises(GraphInvalid, match="unknown vertex"):
        load_config_csv(g, head + "zz,0\n")
    with pytest.raises(GraphInvalid, match="duplicate"):
        load_config_csv(g, head + "0,0\n1,0\n0,0\n")
    with pytest.raises(GraphInvalid, match="not an integer"):
        load_config_csv(g, head + "0,x\n")
    with pytest.raises(GraphInvalid, match="invalid"):
        load_config_csv(g, head + "0,0\n1,5\n")
    with pytest.raises(GraphInvalid, match="invalid"):
        load_config_csv(g, head + "0,0\n")  # vertex 1 missing


def test_report_documents(p3_solved):
    g, mech, _, wt = p3_solved
    cfg = min_weight_config(g, wt)
    rep = escape_sweep(g, mech, cfg, [2, 4], check_invariant=True)

    doc = report_dict(rep)
    assert doc["alpha"] == 0.5
    assert [run["n"] for run in doc["runs"]] == [2, 4]
    assert [run["escaped"] for run in doc["runs"]] == [1, 2]
    assert "runtime_s" not in doc

    parsed = json.loads(report_json(rep))
    assert parsed == doc

    rows = list(csv.DictReader(io.StringIO(report_csv(rep))))
    assert [int(r["n"]) for r in rows] == [2, 4]
    assert [float(r["rate"]) for r in rows] == [0.5, 0.5]
    assert all(float(r["gap"]) == 0.0 for r in rows)
    assert all(r["max_invariant_dev"] == "0.0" for r in rows)


def test_reports_byte_identical_across_runs(p3_solved):
    g, mech, _, wt = p3_solved
    cfg = min_weight_config(g, wt)
    a = escape_sweep(g, mech, cfg, [2, 4])
    b = escape_sweep(g, mech, cfg, [2, 4])
    assert report_json(a) == report_json(b)
    assert report_csv(a) == report_csv(b)


def test_trace_header_columns():
    assert trace_header() == [
        "t", "mover", "from_label", "to_label", "status_change", "survivors", "invariant",
    ]
