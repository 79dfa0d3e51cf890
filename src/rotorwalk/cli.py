"""Command-line interface.

Subcommands:
    green    solve the voltage/Green profile, print alpha and residual
    rho-min  build the weight table and the weight-minimizing configuration
    run      run the n-particle escape experiment and write reports
    verify   run the built-in property suite

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 runtime abort (non-convergence or step-budget exhaustion).  A closed
stdout pipe ends the `rotorwalk` command by SIGPIPE, like other Unix filters.

A YAML config file can stand in for flags (--config-file).  Its keys are the
snake_case names of its own subcommand's options, and its values become that
subcommand's defaults, so flags given on the command line win.

All randomness is seeded; defaults are fixed constants, never the clock, so
identical invocations give identical bytes in every written artifact.
"""
from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import escape_sweep
from .errors import (
    AbortedMaxSteps,
    DimensionMismatch,
    GraphInvalid,
    InvalidParameter,
    NonConvergence,
)
from .experiment import DEFAULT_MAX_STEPS, ParticleStatus
from .graphs import (
    Graph,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    default_mechanism,
    load_edge_list,
    shuffled_mechanism,
)
from .harmonic import solve_harmonic
from .serialize import (
    config_csv,
    load_config_csv,
    profile_csv,
    report_csv,
    report_json,
    trace_writer,
    weights_csv,
)
from .verify import all_passed, run_verification
from .weights import count_min_weight_ties, min_weight_config, random_config, weight_table

def _int_token(tok) -> int:
    try:
        return int(str(tok))
    except ValueError:
        raise InvalidParameter(f"expected an integer, got {tok!r}")


def _str_list(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [tok.strip() for tok in str(value).split(",") if tok.strip()]


def _config_file_values(ns: argparse.Namespace) -> dict:
    """The --config-file values of ns's subcommand's options, as its flags would give them; nulls left out."""
    if vars(ns).get("config_file") is None:
        return {}
    import yaml  # only config files need it, so other runs skip its import

    text = Path(ns.config_file).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InvalidParameter(str(exc))
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise InvalidParameter("config file must be a mapping of option names to values")
    graph_section = data.pop("graph", None)
    if graph_section is not None:
        if not isinstance(graph_section, dict):
            raise InvalidParameter("config file section 'graph' must be a mapping of option names to values")
        data.update(graph_section)
    unknown = set(data) - (set(vars(ns)) - {"command", "func", "config_file"})
    if unknown:
        raise InvalidParameter(f"unknown config file keys: {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        # a value arrives as its flag would give it: text, a list of text, or --check-invariant's bool
        if value is None:
            continue
        elif key == "check_invariant":
            if not isinstance(value, bool):
                raise InvalidParameter(f"config file key 'check_invariant' must be true or false, got {value!r}")
        elif isinstance(value, dict):
            raise InvalidParameter(f"config file key {key!r} takes a value or a list, not a mapping")
        elif isinstance(value, list):
            value = [str(v) for v in value]
        else:
            value = str(value)
        values[key] = value
    return values


# the graph families of --path/--lattice/--tree and of --graph specs: kind -> (builder, parameter names)
_FAMILIES = {
    "path": (build_path, ("k",)),
    "lattice": (build_lattice_ball, ("d", "r")),
    "tree": (build_bary_tree, ("b", "depth")),
}


def _family_graph(kind: str, value, error: str) -> Graph:
    """The family's graph on the tokens in value; InvalidParameter(error) on a bad kind or count.

    A key=value token binds the parameter it names; bare integers fill the others in order.
    """
    builder, names = _FAMILIES.get(kind, (None, ()))
    tokens = _str_list(value)
    if builder is None or len(tokens) != len(names):
        raise InvalidParameter(error)
    bound, bare = {}, []
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            bare.append(_int_token(tok))
        elif key not in names:
            raise InvalidParameter(f"{kind} has no parameter {key!r}; use {', '.join(names)}")
        elif key in bound:
            raise InvalidParameter(f"{kind} parameter {key!r} given twice")
        else:
            bound[key] = _int_token(val)
    bound.update(zip([name for name in names if name not in bound], bare))
    return builder(*(bound[name] for name in names))


def _build_graph(ns: argparse.Namespace) -> Graph:
    given = [k for k in ("path", "lattice", "tree", "edges") if getattr(ns, k) is not None]
    if len(given) != 1:
        raise InvalidParameter(
            "exactly one of --path, --lattice, --tree, --edges is required"
        )
    kind = given[0]
    if kind != "edges":
        value, arity = getattr(ns, kind), len(_FAMILIES[kind][1])
        plural = "s" if arity > 1 else ""
        return _family_graph(kind, value, f"--{kind} takes {arity} integer{plural}, got {value!r}")
    if ns.origin is None or ns.sinks is None:
        raise InvalidParameter("--edges needs --origin and --sinks")
    text = Path(ns.edges).read_text()
    return load_edge_list(text, ns.origin, _str_list(ns.sinks))


def _parse_graph_spec(spec: str) -> Graph:
    """Compact graph spec: path:3, lattice:2,5, tree:2,6."""
    kind, _, rest = spec.partition(":")
    return _family_graph(
        kind, rest, f"bad graph spec {spec!r}; use path:K, lattice:D,R or tree:B,DEPTH"
    )


def _build_mechanism(g: Graph, ns: argparse.Namespace):
    if ns.mechanism == "default":
        return default_mechanism(g)
    if ns.mechanism == "shuffled":
        return shuffled_mechanism(g, _int_token(ns.seed_mech))
    raise InvalidParameter(f"unknown mechanism {ns.mechanism!r}")


def _build_config(g: Graph, ns: argparse.Namespace):
    """The --config choice; None stands for the min-weight configuration."""
    choice = ns.config
    if choice == "rho-min":
        return None
    if choice == "random":
        return random_config(g, _int_token(ns.seed_config))
    return load_config_csv(g, Path(choice).read_text())


def _parse_n(ns: argparse.Namespace) -> list[int]:
    values = [_int_token(tok) for tok in _str_list(ns.n)]
    if not values or any(v < 1 for v in values):
        raise InvalidParameter("--n must list positive particle counts")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidParameter("--n must be strictly ascending")
    return values


def _out_dir(ns: argparse.Namespace) -> Optional[Path]:
    if ns.out_dir is None:
        return None
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_green(ns: argparse.Namespace) -> int:
    g = _build_graph(ns)
    profile = solve_harmonic(g)
    print(f"graph: {g.describe()}")
    print(f"alpha={profile.escape_probability!r} residual={profile.residual:.3e}")
    out = _out_dir(ns)
    if out is not None:
        (out / "profile.csv").write_text(profile_csv(g, profile))
        print(f"wrote {out / 'profile.csv'}")
    return 0


def cmd_rho_min(ns: argparse.Namespace) -> int:
    g = _build_graph(ns)
    mech = _build_mechanism(g, ns)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = min_weight_config(g, wt)
    ties = count_min_weight_ties(g, wt)
    print(f"graph: {g.describe()} mechanism: {mech.describe()}")
    print(f"tie-break events: {ties}")
    out = _out_dir(ns) or Path(".")
    (out / "weights.csv").write_text(weights_csv(g, mech, wt))
    (out / "config.csv").write_text(config_csv(g, config))
    print(f"wrote {out / 'weights.csv'} and {out / 'config.csv'}")
    return 0


def _trace_path(base: Path, n: int, multiple: bool) -> Path:
    if not multiple:
        return base
    return base.with_name(f"{base.stem}-n{n}{base.suffix or '.csv'}")


class _TraceWriter:
    """escape_sweep observer writing one CSV row per move, a round at a time, one file per n."""

    # status_change column: returned, absorbed, left the origin, or none of these
    _CHANGES = np.array(["", "returned", "absorbed", "left-origin"], dtype=object)

    def __init__(self, base: Path, multiple: bool):
        self._base = base
        self._multiple = multiple
        self._n = None
        self._fh = None
        self._w = None
        self._labels = None

    def __call__(self, st, moves) -> None:
        if st.n != self._n:
            self.close()
            self._n = st.n
            self._fh = open(_trace_path(self._base, st.n, self._multiple), "w")
            self._w = trace_writer(self._fh)
            self._labels = np.array(st.graph.labels, dtype=object)
        change = np.where(moves.source == st.graph.origin, 3, 0)
        change[moves.status == ParticleStatus.ABSORBED] = 2
        change[moves.status == ParticleStatus.RETURNED] = 1
        labels = self._labels
        # Python ints and floats, so each float is written as its repr
        self._w.writerows(zip(
            moves.t.tolist(), moves.mover.tolist(), labels[moves.source].tolist(),
            labels[moves.target].tolist(), self._CHANGES[change].tolist(),
            moves.survivors.tolist(), moves.invariant.tolist(),
        ))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def cmd_run(ns: argparse.Namespace) -> int:
    max_steps = _int_token(ns.max_steps)
    g = _build_graph(ns)
    mech = _build_mechanism(g, ns)
    config = _build_config(g, ns)
    n_values = _parse_n(ns)

    trace = _TraceWriter(Path(ns.trace), len(n_values) > 1) if ns.trace else None
    try:
        report = escape_sweep(
            g, mech, config, n_values,
            check_invariant=ns.check_invariant,
            max_steps=max_steps,
            observer=trace,
        )
    finally:
        if trace is not None:
            trace.close()

    for n, rate, gap in zip(report.n_values, report.rates, report.gaps):
        print(f"n={n} escaped={round(rate * n)} rate={rate!r} gap={gap!r}")
    print(f"alpha={report.alpha!r}")
    if report.max_invariant_dev is not None:
        print(f"max_invariant_dev={report.max_invariant_dev!r}")

    out = _out_dir(ns)
    if out is not None:
        (out / "report.json").write_text(report_json(report))
        (out / "report.csv").write_text(report_csv(report))
        print(f"wrote {out / 'report.json'} and {out / 'report.csv'}")
    else:
        sys.stdout.write(report_json(report))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    graphs = None
    if ns.graph is not None:
        graphs = [_parse_graph_spec(ns.graph)]
    records = run_verification(quick=ns.quick, graphs=graphs, inject_corruption=ns.inject_corruption)
    name_w = max(len(r.name) for r in records)
    for r in records:
        status = "pass" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail and not r.ok else ""
        print(f"{r.name:<{name_w}}  {status}  max_dev={r.max_dev:.3e}  tol={r.tol:.3e}{detail}")
    if all_passed(records):
        print("all checks passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 1


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path", metavar="K", help="path graph on K vertices")
    p.add_argument("--lattice", nargs=2, metavar=("D", "R"),
                   help="lattice ball, e.g. --lattice d=3 r=8 (keys bind by name)")
    p.add_argument("--tree", nargs=2, metavar=("B", "DEPTH"),
                   help="complete B-ary tree with sink leaves, e.g. --tree b=2 depth=6")
    p.add_argument("--edges", metavar="FILE", help="edge-list file")
    p.add_argument("--origin", help="origin label (edge-list graphs)")
    p.add_argument("--sinks", help="comma-separated sink labels (edge-list graphs)")
    p.add_argument("--config-file", metavar="FILE",
                   help="YAML file supplying any of these options; flags win")


def _add_mech_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mechanism", choices=["default", "shuffled"], default="default",
                   help="edge ordering at each vertex (default: default)")
    p.add_argument("--seed-mech", default="0", help="seed for --mechanism shuffled (default 0)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and its sub-parsers by subcommand name."""
    parser = argparse.ArgumentParser(
        prog="rotorwalk",
        description="Escape-rate experiments for rotor walks on sink-truncated graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_green = sub.add_parser("green", help="solve the voltage profile")
    _add_graph_flags(p_green)
    p_green.add_argument("--out-dir", help="write profile.csv here")
    p_green.set_defaults(func=cmd_green)

    p_rho = sub.add_parser("rho-min", help="build the weight-minimizing configuration")
    _add_graph_flags(p_rho)
    _add_mech_flags(p_rho)
    p_rho.add_argument("--out-dir", help="write weights.csv and config.csv here (default .)")
    p_rho.set_defaults(func=cmd_rho_min)

    p_run = sub.add_parser("run", help="run the escape experiment")
    _add_graph_flags(p_run)
    _add_mech_flags(p_run)
    p_run.add_argument("--config", default="rho-min",
                       help="rotor configuration: rho-min, random, or a config.csv path")
    p_run.add_argument("--seed-config", default="0", help="seed for --config random (default 0)")
    p_run.add_argument("--n", default="1", help="comma-separated ascending particle counts")
    p_run.add_argument("--check-invariant", action="store_true",
                       help="track the conserved quantity during the run")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write a per-move CSV trace (FILE-n{n}.csv for multiple n)")
    p_run.add_argument("--out-dir", help="write report.json and report.csv here")
    p_run.add_argument("--max-steps", default=DEFAULT_MAX_STEPS,
                       help="abort unsettled runs past this step count")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the property suite")
    p_ver.add_argument("--quick", action="store_true",
                       help="small fixtures and sample counts")
    p_ver.add_argument("--graph", metavar="SPEC",
                       help="verify one graph only: path:K, lattice:D,R or tree:B,DEPTH")
    p_ver.add_argument("--inject-corruption", action="store_true",
                       help="add negative controls that must fail")
    p_ver.set_defaults(func=cmd_verify)

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = build_parser()
    try:
        ns = parser.parse_args(argv)
        values = _config_file_values(ns)
        if values:
            # file values become the subcommand's defaults, so a flag on the command line wins
            commands[ns.command].set_defaults(**values)
            ns = parser.parse_args(argv)
        return ns.func(ns)
    except SystemExit as exc:  # argparse --help (0) or usage error (2)
        code = exc.code
        return code if isinstance(code, int) else 2
    except (GraphInvalid, InvalidParameter, DimensionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, AbortedMaxSteps) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    # a closed stdout pipe (`| head`) ends the process quietly, as for other
    # Unix filters, instead of surfacing as an input error
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
