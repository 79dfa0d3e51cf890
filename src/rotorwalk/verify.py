"""Self-contained property suite behind the `verify` command.

Runs every identity the construction rests on over a set of built-in
fixtures: solver residuals, the rotor-advance weight identity, full-orbit
telescope sums, conserved-quantity constancy, the minimizing configuration's
escaped-fraction lower bound, and Monte Carlo cross-checks of the harmonic
quantities.  Each check yields a CheckRecord with its worst deviation; the
suite passes iff every record does.

With inject_corruption the suite adds negative controls that feed corrupted
weights and a weight-maximizing configuration through the same checks;
those records are expected to fail, demonstrating the checks have teeth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import escape_sweep, srw_escape_mc, theorem_check
from .graphs import (
    Graph,
    RotorMechanism,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    default_mechanism,
    shuffled_mechanism,
)
from .harmonic import mc_green, solve_harmonic
from .weights import (
    RotorConfig,
    WeightTable,
    random_config,
    weight_increment,
    weight_table,
)

_MECH_SEEDS = (11, 12)
_CONFIG_SEEDS = (21, 22, 23)
_MC_SEED = 20240801


@dataclass
class CheckRecord:
    name: str
    ok: bool
    max_dev: float
    tol: float
    detail: str = ""


def quick_fixtures() -> list[Graph]:
    return [
        build_path(3),
        build_path(5),
        build_lattice_ball(1, 3),
        build_lattice_ball(2, 3),
        build_bary_tree(2, 3),
    ]


def full_fixtures() -> list[Graph]:
    return quick_fixtures() + [
        build_lattice_ball(2, 5),
        build_lattice_ball(3, 6),
        build_bary_tree(2, 6),
    ]


def _mechanisms(g: Graph) -> list[RotorMechanism]:
    return [default_mechanism(g)] + [shuffled_mechanism(g, s) for s in _MECH_SEEDS]


def check_residual(graphs: list[Graph], tol: float = 1e-12) -> CheckRecord:
    worst, where = 0.0, ""
    for g in graphs:
        r = solve_harmonic(g).residual
        if r > worst:
            worst, where = r, g.describe()
    return CheckRecord("harmonic-residual", worst <= tol, worst, tol, where)


def check_weight_increment(graphs: list[Graph], tol: float = 1e-12) -> CheckRecord:
    """weight_increment must equal -v(next target) + neighbor-mean of v."""
    worst, where = 0.0, ""
    for g in graphs:
        profile = solve_harmonic(g)
        v = profile.voltage
        for mech in _mechanisms(g):
            for x in range(g.num_vertices):
                if g.is_sink[x]:
                    continue
                order = mech.order[x]
                d = len(order)
                mean = float(np.mean(v[np.fromiter(order, dtype=np.int64, count=d)]))
                for i in range(d):
                    expected = -float(v[order[(i + 1) % d]]) + mean
                    dev = abs(weight_increment(g, mech, profile, x, i) - expected)
                    if dev > worst:
                        worst, where = dev, f"{g.describe()} at {g.labels[x]}[{i}]"
    return CheckRecord("weight-increment", worst <= tol, worst, tol, where)


def check_telescope(graphs: list[Graph], tol: float = 1e-12) -> CheckRecord:
    """Summing the increment around a vertex's full orbit must give zero."""
    worst, where = 0.0, ""
    for g in graphs:
        profile = solve_harmonic(g)
        for mech in _mechanisms(g):
            for x in range(g.num_vertices):
                if g.is_sink[x]:
                    continue
                total = sum(
                    weight_increment(g, mech, profile, x, i) for i in range(g.degree(x))
                )
                if abs(total) > worst:
                    worst, where = abs(total), f"{g.describe()} at {g.labels[x]}"
    return CheckRecord("weight-telescope", worst <= tol, worst, tol, where)


def check_invariant(graphs: list[Graph], n_values, tol: float = 1e-8) -> CheckRecord:
    """Conserved quantity stays at n*v(origin), relatively within tol."""
    worst, where = 0.0, ""
    for g in graphs:
        profile = solve_harmonic(g)
        scale = max(1.0, profile.voltage[g.origin])
        for mech in _mechanisms(g):
            # None: the min-weight configuration, built inside escape_sweep
            configs = [None] + [random_config(g, s) for s in _CONFIG_SEEDS]
            for config in configs:
                rep = escape_sweep(
                    g, mech, config, n_values, profile=profile, check_invariant=True
                )
                dev = (rep.max_invariant_dev or 0.0) / scale
                if dev > worst:
                    worst, where = dev, f"{g.describe()} mech={mech.describe()}"
    return CheckRecord("invariant-constancy", worst <= tol, worst, tol, where)


def check_lower_bound(graphs: list[Graph], n_values, tol: float = 1e-9) -> CheckRecord:
    """survivors/n >= alpha - tol at every t >= n under the minimizing config.

    Survivors never increase during a run, so the settled rate is the minimum
    of survivors/n over t >= n: one unobserved escape_sweep per mechanism
    decides the check on the fast settle path.
    """
    worst, where = 0.0, ""
    ok = True
    for g in graphs:
        profile = solve_harmonic(g)
        for mech in _mechanisms(g):
            rep = escape_sweep(g, mech, None, n_values, profile=profile)
            short = [rep.alpha - rate for rate in rep.rates if rate < rep.alpha - tol]
            if short:
                ok = False
                if max(short) > worst:
                    worst, where = max(short), f"{g.describe()} mech={mech.describe()}"
    return CheckRecord("min-config-lower-bound", ok, worst, tol, where)


def check_mc_green(graphs: list[Graph], walks: int, z_max: float = 3.0) -> CheckRecord:
    """Monte Carlo visit counts within z_max standard errors of solved values."""
    worst, where = 0.0, ""
    for g in graphs:
        profile = solve_harmonic(g)
        est = mc_green(g, walks, _MC_SEED)
        live = [x for x in range(g.num_vertices) if not g.is_sink[x]]
        probes = sorted({live[0], live[len(live) // 2], live[-1], g.origin})
        for x in probes:
            se = est.stderr[x]
            diff = abs(est.visits[x] - profile.green[x])
            if se == 0.0:
                if diff > 0.0:
                    worst, where = float("inf"), f"{g.describe()} at {g.labels[x]}"
                continue
            z = diff / se
            if z > worst:
                worst, where = z, f"{g.describe()} at {g.labels[x]}"
    return CheckRecord("mc-green-zscore", worst <= z_max, worst, z_max, where)


def check_srw_escape(graphs: list[Graph], walks: int, z_max: float = 3.0) -> CheckRecord:
    """Monte Carlo escape probability within z_max standard errors of 1/G(o)."""
    worst, where = 0.0, ""
    for g in graphs:
        alpha = solve_harmonic(g).escape_probability
        p, se = srw_escape_mc(g, walks, _MC_SEED)
        if se == 0.0:
            se = np.sqrt(0.25 / walks)  # conservative when p lands on 0 or 1
        z = abs(p - alpha) / se
        if z > worst:
            worst, where = z, g.describe()
    return CheckRecord("srw-escape-zscore", worst <= z_max, worst, z_max, where)


def _corruption_controls() -> list[CheckRecord]:
    """Negative controls: corrupted inputs must make the checks fail."""
    g = build_path(3)
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)

    # corrupt one weight and re-test the advance identity against it
    bad_values = wt.values.copy()
    bad_values[int(wt.indptr[1])] += 0.125
    bad = WeightTable(values=bad_values, indptr=wt.indptr)
    dev = 0.0
    for x in range(g.num_vertices):
        if g.is_sink[x]:
            continue
        d = g.degree(x)
        for i in range(d):
            table_inc = bad.at(x, (i + 1) % d) - bad.at(x, i)
            dev = max(dev, abs(table_inc - weight_increment(g, mech, profile, x, i)))
    rec_weights = CheckRecord(
        "corrupted-weights-control", dev <= 1e-12, dev, 1e-12,
        "expected failure: one weight perturbed by 0.125",
    )

    # weight-maximizing configuration must break the lower bound
    pos = tuple(
        -1 if g.is_sink[x] else int(np.argmax(wt.vertex_slice(x)))
        for x in range(g.num_vertices)
    )
    res = theorem_check(g, mech, [1, 2], config=RotorConfig(pos=pos))
    shortfall = max(
        (res.alpha - v.value for v in res.violations if v.kind == "lower-bound"),
        default=0.0,
    )
    rec_bound = CheckRecord(
        "corrupted-config-control", res.lower_bound_ok, shortfall, 1e-9,
        "expected failure: weight-maximizing configuration",
    )
    return [rec_weights, rec_bound]


def run_verification(
    quick: bool = True,
    graphs: list[Graph] | None = None,
    inject_corruption: bool = False,
) -> list[CheckRecord]:
    """Run every check; returns one record per check."""
    if graphs is None:
        graphs = quick_fixtures() if quick else full_fixtures()
    n_values = [1, 2, 7] if quick else [1, 2, 7, 50]
    bound_ns = [2, 8, 32] if quick else [10, 100, 1000]
    walks = 20_000 if quick else 100_000

    records = [
        check_residual(graphs),
        check_weight_increment(graphs),
        check_telescope(graphs),
        check_invariant(graphs, n_values),
        check_lower_bound(graphs, bound_ns),
        check_mc_green(graphs, walks),
        check_srw_escape(graphs, walks),
    ]
    if inject_corruption:
        records += _corruption_controls()
    return records


def all_passed(records: list[CheckRecord]) -> bool:
    return all(r.ok for r in records)
