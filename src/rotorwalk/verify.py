"""Self-contained property suite behind the `verify` command.

Runs every identity the construction rests on over a set of built-in
fixtures: solver residuals, the rotor-advance and row-sum identities of the
weight table the engine reads (see weights.py), conserved-quantity
constancy, the minimizing configuration's escaped-fraction lower bound, and
Monte Carlo cross-checks of the harmonic quantities.  Each fixture is solved
once and its mechanisms and weight tables built once; every check reads
that Fixture.  Each check yields a CheckRecord with its worst deviation; the
suite passes iff every record does.  The row sum stands where a cyclic sum of increments
would not: that sum is zero for any table, corrupted or not.

The Monte Carlo visit-count check, the longest, runs in a worker forked
after the fixtures are built, while this process runs the other checks;
the records come back in the same order and with the same values as when
the checks run one after another.  Where the platform has no fork, every
check runs in this process.

With inject_corruption the suite adds negative controls: check_weight_increment
and check_lower_bound run on corrupted weight tables and are expected to
fail, demonstrating the checks have teeth.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .analysis import escape_sweep
from .graphs import (
    Graph,
    RotorMechanism,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    default_mechanism,
    shuffled_mechanism,
)
from .harmonic import HarmonicProfile, mc_green, solve_harmonic, srw_escape_mc
from .weights import WeightTable, random_config, weight_table

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


class Fixture(NamedTuple):
    """A graph with its one solve, the mechanisms every check runs on and their weight tables."""

    graph: Graph
    profile: HarmonicProfile
    mechanisms: tuple[RotorMechanism, ...]
    tables: tuple[WeightTable, ...]


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


def _fixture(g: Graph) -> Fixture:
    mechs = (default_mechanism(g),) + tuple(shuffled_mechanism(g, s) for s in _MECH_SEEDS)
    profile = solve_harmonic(g)
    return Fixture(g, profile, mechs, tuple(weight_table(g, m, profile) for m in mechs))


def _weight_identity_devs(profile: HarmonicProfile, mech: RotorMechanism, values: np.ndarray):
    """Deviations of a flat weight table from the advance and row-sum identities.

    Returns one deviation per table slot (the increment off that position)
    and one per vertex (0 at sinks, which have no slots).
    """
    indptr = mech.indptr
    deg = np.diff(indptr)
    live = np.flatnonzero(deg)
    tv = profile.voltage[mech.flat]
    nbr_sum = np.zeros(deg.size)
    nbr_sum[live] = np.add.reduceat(tv, indptr[live])

    nxt = np.arange(1, values.size + 1)
    nxt[indptr[live + 1] - 1] = indptr[live]  # the last position advances to the first
    expected = -tv[nxt] + np.repeat(nbr_sum[live] / deg[live], deg[live])
    inc_dev = np.abs(values[nxt] - values - expected)

    row_dev = np.zeros(deg.size)
    row_dev[live] = np.abs(
        np.add.reduceat(values, indptr[live]) + (deg[live] - 1) / 2 * nbr_sum[live]
    )
    return inc_dev, row_dev


def check_residual(fixtures: list[Fixture], tol: float = 1e-12) -> CheckRecord:
    worst, where = 0.0, ""
    for g, profile, *_ in fixtures:
        if profile.residual > worst:
            worst, where = profile.residual, g.describe()
    return CheckRecord("harmonic-residual", worst <= tol, worst, tol, where)


def check_weight_increment(fixtures: list[Fixture], tol: float = 1e-12) -> CheckRecord:
    """Table increment w(x, i+1) - w(x, i) must equal -v(next target) + neighbor-mean of v."""
    worst, where = 0.0, ""
    for g, profile, mechs, tables in fixtures:
        for mech, wt in zip(mechs, tables):
            devs, _ = _weight_identity_devs(profile, mech, wt.values)
            e = int(np.argmax(devs))
            if devs[e] > worst:
                x = int(np.searchsorted(mech.indptr, e, side="right")) - 1
                worst = float(devs[e])
                where = f"{g.describe()} at {g.labels[x]}[{e - int(mech.indptr[x])}]"
    return CheckRecord("weight-increment", worst <= tol, worst, tol, where)


def check_telescope(fixtures: list[Fixture], tol: float = 1e-12) -> CheckRecord:
    """Row sum of w(x, .) must equal -(deg(x) - 1)/2 * sum of v over the neighbors of x."""
    worst, where = 0.0, ""
    for g, profile, mechs, tables in fixtures:
        for mech, wt in zip(mechs, tables):
            _, devs = _weight_identity_devs(profile, mech, wt.values)
            x = int(np.argmax(devs))
            if devs[x] > worst:
                worst, where = float(devs[x]), f"{g.describe()} at {g.labels[x]}"
    return CheckRecord("weight-row-sum", worst <= tol, worst, tol, where)


def check_invariant(fixtures: list[Fixture], n_values, tol: float = 1e-8) -> CheckRecord:
    """Conserved quantity stays at n*v(origin), relatively within tol."""
    worst, where = 0.0, ""
    for g, profile, mechs, tables in fixtures:
        scale = max(1.0, profile.voltage[g.origin])
        for mech, wt in zip(mechs, tables):
            # None: the min-weight configuration, built inside escape_sweep
            configs = [None] + [random_config(g, s) for s in _CONFIG_SEEDS]
            for config in configs:
                rep = escape_sweep(
                    g, mech, config, n_values, profile=profile, wt=wt, check_invariant=True
                )
                dev = (rep.max_invariant_dev or 0.0) / scale
                if dev > worst:
                    worst, where = dev, f"{g.describe()} mech={mech.describe()}"
    return CheckRecord("invariant-constancy", worst <= tol, worst, tol, where)


def check_lower_bound(fixtures: list[Fixture], n_values, tol: float = 1e-9) -> CheckRecord:
    """survivors/n >= alpha - tol at every t >= n under the minimizing config.

    Survivors never increase during a run, so the settled rate is the minimum
    of survivors/n over t >= n: one unobserved escape_sweep per mechanism
    decides the check on the fast settle path.
    """
    worst, where = 0.0, ""
    for g, profile, mechs, tables in fixtures:
        for mech, wt in zip(mechs, tables):
            rep = escape_sweep(g, mech, None, n_values, profile=profile, wt=wt)
            short = max((rep.alpha - r for r in rep.rates if r < rep.alpha - tol), default=0.0)
            if short > worst:
                worst, where = short, f"{g.describe()} mech={mech.describe()}"
    return CheckRecord("min-config-lower-bound", worst <= tol, worst, tol, where)


def check_mc_green(fixtures: list[Fixture], walks: int, z_max: float = 3.0) -> CheckRecord:
    """Monte Carlo visit counts within z_max standard errors of solved values."""
    worst, where = 0.0, ""
    for g, profile, *_ in fixtures:
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


def check_srw_escape(fixtures: list[Fixture], walks: int, z_max: float = 3.0) -> CheckRecord:
    """Monte Carlo escape probability within z_max standard errors of 1/G(o)."""
    worst, where = 0.0, ""
    for g, profile, *_ in fixtures:
        alpha = profile.escape_probability
        p, se = srw_escape_mc(g, walks, _MC_SEED)
        if se == 0.0:
            se = np.sqrt(0.25 / walks)  # conservative when p lands on 0 or 1
        z = abs(p - alpha) / se
        if z > worst:
            worst, where = z, g.describe()
    return CheckRecord("srw-escape-zscore", worst <= z_max, worst, z_max, where)


def _corruption_controls() -> list[CheckRecord]:
    """Negative controls: the shipped checks must fail on corrupted path(3) tables.

    The negated table's min-weight configuration, the one escape_sweep picks,
    maximizes the true weights, so check_lower_bound must find a shortfall.
    """
    g = build_path(3)
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    bad_values = wt.values.copy()
    bad_values[int(wt.indptr[1])] += 0.125
    bad = Fixture(g, profile, (mech,), (WeightTable(bad_values, wt.indptr),))
    negated = Fixture(g, profile, (mech,), (WeightTable(-wt.values, wt.indptr),))
    return [
        replace(check_weight_increment([bad]), name="corrupted-weights-control",
                detail="expected failure: one weight perturbed by 0.125"),
        replace(check_lower_bound([negated], [1, 2]), name="corrupted-config-control",
                detail="expected failure: weight-maximizing configuration"),
    ]


_forked_job: Callable | None = None  # set only in the forked worker, by the pool's initializer


def _set_forked_job(job: Callable) -> None:
    global _forked_job
    _forked_job = job


def _run_forked_job():
    return _forked_job()


def _fork_context():
    """The fork start method, or None on a platform without one."""
    import multiprocessing  # here, so that a process that never verifies does not load it

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


@contextmanager
def _overlapped(job: Callable) -> Iterator[Callable]:
    """Start job() in a forked one-worker pool; yields a callable that waits for its result.

    The job crosses to the worker by fork, not by pickle: the worker
    inherits it, and every module-level name it reads, as the pool forks;
    only its result, or its exception, is pickled back.  fork, not the
    platform default, because a spawned or forkserver worker would import
    numpy and the package again; the executor forks its worker before it
    starts its own thread.  The pool is shut down, its worker joined, on the way
    out.  Without fork, the callable runs job() in this process.
    """
    ctx = _fork_context()
    if ctx is None:
        yield job
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(1, mp_context=ctx, initializer=_set_forked_job, initargs=(job,)) as pool:
        yield pool.submit(_run_forked_job).result


def run_verification(
    quick: bool = True,
    graphs: list[Graph] | None = None,
    inject_corruption: bool = False,
) -> list[CheckRecord]:
    """Run every check; returns one record per check, check_mc_green's from a forked worker."""
    if graphs is None:
        graphs = quick_fixtures() if quick else full_fixtures()
    n_values = [1, 2, 7] if quick else [1, 2, 7, 50]
    bound_ns = [2, 8, 32] if quick else [10, 100, 1000]
    walks = 20_000 if quick else 100_000

    fixtures = [_fixture(g) for g in graphs]
    with _overlapped(functools.partial(check_mc_green, fixtures, walks)) as mc_green_record:
        records = [
            check_residual(fixtures),
            check_weight_increment(fixtures),
            check_telescope(fixtures),
            check_invariant(fixtures, n_values),
            check_lower_bound(fixtures, bound_ns),
        ]
        srw_record = check_srw_escape(fixtures, walks)
        records += [mc_green_record(), srw_record]
    if inject_corruption:
        records += _corruption_controls()
    return records


def all_passed(records: list[CheckRecord]) -> bool:
    return all(r.ok for r in records)
