import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from rotorwalk import build_bary_tree
from rotorwalk.cli import _parse_graph_spec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_green_path(capsys):
    code, out, _ = run_cli(capsys, "green", "--path", "3")
    assert code == 0
    assert "alpha=0.5" in out
    assert "residual=" in out


def test_green_lattice_keyword_tokens(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "green", "--lattice", "d=2", "r=3", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "profile.csv").exists()
    rows = read_rows(tmp_path / "profile.csv")
    assert rows[0]["vertex_label"] == "0,0"


@pytest.mark.parametrize("tokens", [("d=3", "r=2"), ("r=2", "d=3"), ("3", "r=2"), ("r=2", "3")])
def test_lattice_keys_bind_by_name(capsys, tokens):
    code, out, _ = run_cli(capsys, "green", "--lattice", *tokens)
    assert code == 0
    assert out.splitlines()[0] == "graph: lattice(d=3, r=2)"


def test_graph_spec_keys_bind_by_name():
    assert _parse_graph_spec("lattice:r=2,d=3").describe() == "lattice(d=3, r=2)"
    assert _parse_graph_spec("tree:depth=3,b=2").describe() == build_bary_tree(2, 3).describe()


@pytest.mark.parametrize("argv, err", [
    (("--lattice", "d=3", "x=2"), "error: lattice has no parameter 'x'; use d, r\n"),
    (("--lattice", "d=3", "d=2"), "error: lattice parameter 'd' given twice\n"),
    (("--tree", "b=2", "d=3"), "error: tree has no parameter 'd'; use b, depth\n"),
    (("--path", "n=3"), "error: path has no parameter 'n'; use k\n"),
])
def test_graph_family_bad_key(capsys, argv, err):
    code, _, printed = run_cli(capsys, "green", *argv)
    assert code == 2
    assert printed == err


@pytest.mark.parametrize("flag", ["--n", "--seed-mech", "--seed-config", "--max-steps"])
def test_integer_options_take_no_keys(capsys, flag):
    code, _, err = run_cli(capsys, "run", "--path", "3", "--mechanism", "shuffled",
                           "--config", "random", flag, "x=2")
    assert code == 2
    assert err == "error: expected an integer, got 'x=2'\n"


@pytest.mark.parametrize("argv", [("--seed-mech", "-1"), ("--seed-mech=-1",),
                                  ("--seed-mech", str(1 << 128))])
def test_seed_outside_128_bits_exits_2(capsys, tmp_path, argv):
    """A seed that would alias an in-range one once masked to 128 bits is a usage error."""
    code, _, err = run_cli(capsys, "rho-min", "--lattice", "2", "3", "--mechanism", "shuffled",
                           *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("error: seed must be in [0, 2^128), got ")
    assert not (tmp_path / "weights.csv").exists()


@pytest.mark.parametrize("flag", ["--seed-mech", "--seed-config"])
@pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
def test_run_seed_outside_128_bits_exits_2(capsys, flag, seed):
    code, _, err = run_cli(capsys, "run", "--path", "3", "--mechanism", "shuffled",
                           "--config", "random", f"{flag}={seed}")
    assert code == 2
    assert err == f"error: seed must be in [0, 2^128), got {seed}\n"


def test_green_missing_edges_file(capsys):
    code, _, err = run_cli(capsys, "green", "--edges", "missing.txt",
                           "--origin", "o", "--sinks", "s")
    assert code == 2
    assert "error" in err


def test_green_requires_exactly_one_graph(capsys):
    code, _, err = run_cli(capsys, "green", "--path", "3", "--tree", "2", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "green")
    assert code == 2


def test_rho_min_p3(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "rho-min", "--path", "3", "--out-dir", str(tmp_path))
    assert code == 0
    assert "tie-break events: 0" in out
    rows = read_rows(tmp_path / "config.csv")
    assert {r["vertex_label"]: r["rotor_index"] for r in rows} == {"0": "0", "1": "0"}
    weights = read_rows(tmp_path / "weights.csv")
    assert len(weights) == 3


def test_run_p3_rates(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "run", "--path", "3", "--config", "rho-min", "--n", "2,4,8",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [r["rate"] for r in doc["runs"]] == [0.5, 0.5, 0.5]
    assert (tmp_path / "report.csv").exists()


def test_run_reports_byte_identical(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "run", "--tree", "2", "3", "--config", "random",
            "--seed-config", "42", "--n", "5,25", "--check-invariant",
            "--out-dir", str(out),
        )
        assert code == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def test_run_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "run", "--path", "3", "--n", "4,2")
    assert code == 2
    code, _, err = run_cli(capsys, "run", "--path", "3", "--n", "0")
    assert code == 2


def test_run_aborts_on_max_steps(capsys):
    code, _, err = run_cli(
        capsys, "run", "--lattice", "2", "3", "--config", "rho-min",
        "--n", "50", "--max-steps", "10",
    )
    assert code == 3
    assert "error" in err


def test_run_config_from_file(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "rho-min", "--path", "3", "--out-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "run", "--path", "3",
        "--config", str(tmp_path / "config.csv"), "--n", "2",
    )
    assert code == 0
    assert '"rate": 0.5' in out


def test_run_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "run", "--path", "3", "--config", "rho-min", "--n", "2",
        "--trace", str(trace), "--out-dir", str(tmp_path),
    )
    assert code == 0
    rows = read_rows(trace)
    assert [r["t"] for r in rows] == ["0", "1", "2", "3"]
    assert rows[0]["from_label"] == "0" and rows[0]["to_label"] == "1"
    assert rows[0]["status_change"] == "left-origin"
    assert rows[2]["status_change"] == "absorbed"
    assert rows[3]["status_change"] == "returned"
    assert all(float(r["invariant"]) == 4.0 for r in rows)
    assert [r["survivors"] for r in rows] == ["2", "2", "2", "1"]


def test_trace_marks_absorption_from_the_origin(capsys, tmp_path):
    """A move from the origin straight onto a sink is an absorption, not a departure."""
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "run", "--path", "2", "--n", "3", "--trace", str(trace),
                         "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(trace)
    assert [r["status_change"] for r in rows] == ["absorbed"] * 3
    assert [r["survivors"] for r in rows] == ["3"] * 3


def test_run_trace_multiple_n(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "run", "--path", "3", "--config", "rho-min", "--n", "2,4",
        "--trace", str(trace), "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "trace-n2.csv").exists()
    assert (tmp_path / "trace-n4.csv").exists()


def test_config_file_supplies_options_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "graph:\n  path: 3\nconfig: rho-min\nn: [2, 4]\ncheck_invariant: true\n"
    )
    code, out, _ = run_cli(capsys, "run", "--config-file", str(cfg))
    assert code == 0
    assert '"rate": 0.5' in out
    assert "max_invariant_dev=0.0" in out

    # the command line overrides the file's n
    code, out, _ = run_cli(capsys, "run", "--config-file", str(cfg), "--n", "8")
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert [r["n"] for r in doc["runs"]] == [8]


def test_config_file_yaml_error_is_an_input_error(capsys, tmp_path):
    import yaml

    text = "n: [2, 4\n"
    with pytest.raises(yaml.YAMLError) as exc:
        yaml.safe_load(text)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    code, _, err = run_cli(capsys, "run", "--path", "3", "--config-file", str(cfg))
    assert code == 2
    assert err == f"error: {exc.value}\n"


def test_importing_the_cli_leaves_yaml_unloaded():
    """Only --config-file needs PyYAML, so a run without one does not pay for its import."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rotorwalk.cli; print('yaml' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("command, text, unknown", [
    ("run", "path: 3\nbogus: 1\n", ["bogus"]),
    ("green", "path: 3\nn: 5\ncheck_invariant: true\ntrace: t.csv\n", ["check_invariant", "n", "trace"]),
    ("rho-min", "path: 3\nn: 5\n", ["n"]),
    ("green", "path: 3\nmechanism: shuffled\n", ["mechanism"]),
], ids=["run-bogus", "green-run-keys", "rho-min-n", "green-mechanism"])
def test_config_file_rejects_unknown_keys(capsys, tmp_path, monkeypatch, command, text, unknown):
    """A file holds only the options of its own subcommand."""
    monkeypatch.chdir(tmp_path)
    Path("f.yaml").write_text(text)
    code, out, err = run_cli(capsys, command, "--config-file", "f.yaml")
    assert code == 2
    assert out == ""
    assert err == f"error: unknown config file keys: {unknown}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.yaml"]


def test_rho_min_config_file_flags_win(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("f.yaml").write_text("path: 3\nmechanism: shuffled\nseed_mech: 4\n")
    code, out, _ = run_cli(capsys, "rho-min", "--config-file", "f.yaml")
    assert code == 0
    assert out.splitlines()[0] == "graph: path(3) mechanism: shuffled(seed=4)"

    code, out, _ = run_cli(capsys, "rho-min", "--config-file", "f.yaml", "--mechanism", "default")
    assert code == 0
    assert out.splitlines()[0] == "graph: path(3) mechanism: default"


def test_config_file_null_keeps_the_default(capsys, tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("path: 3\nn:\nmechanism: null\ncheck_invariant:\n")
    code, out, _ = run_cli(capsys, "run", "--config-file", str(cfg))
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert [r["n"] for r in doc["runs"]] == [1]
    assert doc["mechanism"] == "default"
    assert doc["max_invariant_dev"] is None


@pytest.mark.parametrize("text, code, result", [
    ("path: 3\ntrace: 5\n", 0, "5"),
    ("path: 3\nout_dir: 7\n", 0, "7/report.json"),
    ("path: 3\nconfig: 5\n", 2, "error: [Errno 2] No such file or directory: '5'\n"),
    ("lattice: {d: 2, r: 3}\n", 2,
     "error: config file key 'lattice' takes a value or a list, not a mapping\n"),
], ids=["trace", "out_dir", "config", "lattice"])
def test_config_file_values_read_as_flag_text(capsys, tmp_path, monkeypatch, text, code, result):
    """A file value arrives as the command line would give it: trace: 5 writes ./5, as --trace 5 does."""
    monkeypatch.chdir(tmp_path)
    Path("run.yaml").write_text(text)
    got, _, err = run_cli(capsys, "run", "--config-file", "run.yaml")
    assert got == code
    if code == 0:
        assert err == ""
        assert Path(result).is_file()
    else:
        assert err == result


def test_config_file_check_invariant_must_be_a_boolean(capsys, tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text('path: 3\ncheck_invariant: "false"\n')
    code, out, err = run_cli(capsys, "run", "--config-file", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: config file key 'check_invariant' must be true or false, got 'false'\n"

    cfg.write_text("path: 3\ncheck_invariant: false\n")
    code, out, _ = run_cli(capsys, "run", "--config-file", str(cfg))
    assert code == 0
    assert json.loads(out[out.index("{"):])["max_invariant_dev"] is None


def test_config_file_rejects_a_graph_section_that_is_not_a_mapping(capsys, tmp_path):
    """A graph section given as a string fails, with or without a graph option on the command line."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text('graph: "lattice:2,5"\n')
    for graph_args in ((), ("--lattice", "2", "3")):
        code, out, err = run_cli(capsys, "run", *graph_args, "--config-file", str(cfg))
        assert code == 2
        assert out == ""
        assert "config file section 'graph' must be a mapping" in err


def test_edges_file_workflow(capsys, tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("o a\na b\nb s\n")
    code, out, _ = run_cli(
        capsys, "run", "--edges", str(edges), "--origin", "o", "--sinks", "s",
        "--config", "rho-min", "--n", "2,4",
    )
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert doc["alpha"] == pytest.approx(1 / 3)


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--graph", "path:3")
    assert code == 0
    assert "all checks passed" in out
    assert "invariant-constancy" in out


def test_verify_corruption_control(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--quick", "--graph", "path:3", "--inject-corruption"
    )
    assert code == 1
    assert "FAIL" in out
    assert "verification FAILED" in err


def test_verify_bad_graph_spec(capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", "torus:3")
    assert code == 2
    assert err == "error: bad graph spec 'torus:3'; use path:K, lattice:D,R or tree:B,DEPTH\n"
    code, _, err = run_cli(capsys, "verify", "--graph", "lattice:2")
    assert code == 2
    assert err == "error: bad graph spec 'lattice:2'; use path:K, lattice:D,R or tree:B,DEPTH\n"


@pytest.mark.parametrize("text", ["lattice: [2, 3, 4]\n", "tree: 3\n"])
def test_config_file_family_arity_is_an_input_error(capsys, tmp_path, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    code, _, err = run_cli(capsys, "run", "--config-file", str(cfg))
    assert code == 2
    assert err.startswith("error: ")


def test_path_takes_one_integer(capsys):
    code, _, err = run_cli(capsys, "green", "--path", "3,4")
    assert code == 2
    assert err == "error: --path takes 1 integer, got '3,4'\n"


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["run", "--help"]) == 0


GOLDEN = Path(__file__).parent / "data" / "golden"
LATTICE_2_4 = ("--lattice", "2", "4", "--mechanism", "shuffled", "--seed-mech", "3")


def test_rho_min_config_matches_golden(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "rho-min", *LATTICE_2_4, "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "config.csv").read_bytes() == (GOLDEN / "config.csv").read_bytes()


@pytest.mark.parametrize("name, argv, files", [
    ("rho-min-lattice-3-4",
     ("rho-min", "--lattice", "3", "4", "--mechanism", "shuffled", "--seed-mech", "3"),
     ("weights.csv", "config.csv")),
    ("green-tree-3-4", ("green", "--tree", "3", "4"), ("profile.csv",)),
])
def test_precompute_outputs_match_golden(capsys, tmp_path, name, argv, files):
    """Weights and voltages are written with repr, so these pin their last bits."""
    code, _, _ = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0
    for fname in files:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("rho-min", (*LATTICE_2_4, "--n", "20,100", "--config", "rho-min", "--check-invariant")),
    ("random-5", (*LATTICE_2_4, "--n", "20,100", "--config", "random", "--seed-config", "5",
                  "--check-invariant")),
    ("config-csv", (*LATTICE_2_4, "--n", "20,100", "--config", str(GOLDEN / "config.csv"),
                    "--check-invariant")),
    # n·V = 1.31M, above the per-move budget: the invariant is sampled about once per round
    ("sampled-lattice-2-40-n400",
     ("--lattice", "2", "40", "--n", "400", "--mechanism", "shuffled", "--seed-mech", "5",
      "--check-invariant")),
    # the benchmark's settle workload at seed 3, unchecked: no hook, 283,505,659 steps
    ("settle-lattice-2-40-n50000",
     ("--lattice", "2", "40", "--n", "50000", "--mechanism", "shuffled", "--seed-mech", "3")),
    # 729 sinks, each with its own finished code: three unchecked settles, steps included
    ("tree-3-6",
     ("--tree", "3", "6", "--n", "100,1000,5000", "--mechanism", "shuffled", "--seed-mech", "4",
      "--config", "random", "--seed-config", "4")),
])
def test_run_reports_match_golden(capsys, tmp_path, name, argv):
    code, _, _ = run_cli(capsys, "run", *argv, "--out-dir", str(tmp_path))
    assert code == 0
    for fname in ("report.json", "report.csv"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes()


def test_run_colocated_particles_matches_golden(capsys, tmp_path):
    """Thousands of particles share vertices each round; pins the settle's steps too."""
    code, _, _ = run_cli(
        capsys, "run", "--lattice", "2", "8", "--n", "1,500,5000", "--mechanism", "shuffled",
        "--seed-mech", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    for fname in ("report.json", "report.csv"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / "lattice-2-8" / fname).read_bytes()


def test_run_trace_matches_golden(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "run", *LATTICE_2_4, "--n", "2,7",
        "--trace", str(tmp_path / "trace.csv"), "--out-dir", str(tmp_path),
    )
    assert code == 0
    for fname in ("trace-n2.csv", "trace-n7.csv"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes()


def test_trace_creates_its_directory(capsys, tmp_path):
    """As --out-dir does, --trace creates the directories its files go in."""
    sub = tmp_path / "new" / "sub"
    code, _, _ = run_cli(capsys, "run", *LATTICE_2_4, "--n", "2,7", "--trace", str(sub / "trace.csv"))
    assert code == 0
    for fname in ("trace-n2.csv", "trace-n7.csv"):
        assert (sub / fname).read_bytes() == (GOLDEN / fname).read_bytes()


def test_trace_of_long_rounds_matches_golden(capsys, tmp_path):
    """Rounds of up to 60 moves, some visiting new vertices mid-round: the trace and
    report recorded from the stepwise engine, byte for byte."""
    code, _, _ = run_cli(
        capsys, "run", "--lattice", "2", "4", "--n", "60", "--mechanism", "shuffled",
        "--seed-mech", "7", "--check-invariant", "--trace", str(tmp_path / "trace.csv"),
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    for fname in ("trace.csv", "report.json"):
        golden = GOLDEN / "trace-lattice-2-4-n60" / fname
        assert (tmp_path / fname).read_bytes() == golden.read_bytes()


def test_observe_trace_matches_its_digest(capsys, tmp_path):
    """The benchmark's traced observe run: 8,070 moves in rounds of up to 500, every one
    evaluated.  The trace's sha256, in sha256sum's format, was recorded with the earlier
    block-matrix evaluator, which split these rounds into many blocks."""
    code, _, _ = run_cli(
        capsys, "run", "--lattice", "3", "8", "--n", "500", "--mechanism", "shuffled",
        "--seed-mech", "3", "--check-invariant", "--trace", str(tmp_path / "trace.csv"),
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    digest, name = (GOLDEN / "observe-trace-lattice-3-8-n500.sha256").read_text().split()
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_workload_size_precompute_matches_its_digest(capsys, tmp_path):
    """The benchmark's precompute size, lattice(3,22): 15,226 live rows of degree 6, more
    than fill one weight_table block, and 97,428 directed entries.  The sha256 of both
    files, in sha256sum's format, was recorded with int64 validation keys and an
    unblocked weight table."""
    code, _, _ = run_cli(capsys, "rho-min", "--lattice", "3", "22", "--mechanism", "shuffled",
                         "--seed-mech", "7", "--out-dir", str(tmp_path))
    assert code == 0
    lines = (GOLDEN / "rho-min-lattice-3-22-shuffled-7.sha256").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        digest, name = line.split()
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_aborted_trace_matches_golden(capsys, tmp_path):
    """A cap inside a round: the trace keeps the moves before it, and the error names
    the first turn past it, as recorded from the stepwise engine."""
    code, _, err = run_cli(
        capsys, "run", "--lattice", "2", "3", "--n", "5,9", "--mechanism", "shuffled",
        "--seed-mech", "2", "--config", "random", "--seed-config", "3", "--max-steps", "40",
        "--check-invariant", "--trace", str(tmp_path / "trace.csv"),
    )
    assert code == 3
    assert err == "error: experiment not settled after 44 steps\n"
    for fname in ("trace-n5.csv", "trace-n9.csv"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / "trace-abort" / fname).read_bytes()


def test_traced_report_equals_untraced(capsys, tmp_path):
    """The trace observer must not change the report, max_invariant_dev included."""
    args = ("run", *LATTICE_2_4, "--n", "20,100", "--check-invariant")
    code, _, _ = run_cli(capsys, *args, "--out-dir", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--trace", str(tmp_path / "t.csv"),
                         "--out-dir", str(tmp_path / "b"))
    assert code == 0
    for fname in ("report.json", "report.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


@pytest.mark.parametrize("name, argv, exit_code", [
    ("quick-inject-corruption", ("--quick", "--inject-corruption"), 1),
    ("lattice-2-5", ("--graph", "lattice:2,5"), 0),
    ("full", (), 0),
])
def test_verify_matches_golden(capsys, name, argv, exit_code):
    """Covers check_lower_bound, the corruption controls (the same checks on corrupted tables),
    and every default fixture of the full run (lattice(2,5), lattice(3,6), tree(2,6); n up to 50)."""
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == exit_code
    assert out.encode() == (GOLDEN / "verify" / f"{name}.txt").read_bytes()


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_pipe_ends_quietly(tmp_path):
    """A reader that went away (`| head`) ends the command by SIGPIPE, not exit 2."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    n_values = ",".join(str(n) for n in range(1, 21))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rotorwalk.cli", "run", "--lattice", "2", "6",
             "--n", n_values],
            stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert proc.stderr == b""
