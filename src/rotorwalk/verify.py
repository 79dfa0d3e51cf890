"""Self-contained property suite behind the `verify` command.

Runs every identity the construction rests on over a set of built-in
fixtures: solver residuals, the rotor-advance and row-sum identities of the
weight table the engine reads (see weights.py), conserved-quantity
constancy, the minimizing configuration's escaped-fraction lower bound, and
Monte Carlo cross-checks of the harmonic quantities.  Each fixture is solved
once and its mechanisms and weight tables built once; every check reads
that Fixture.  Each check yields (deviation, where) pairs, and one reduction
makes them its CheckRecord; the suite passes iff every record does.  The row
sum stands where a cyclic sum of increments would not: that sum is zero for
any table, corrupted or not.

The Monte Carlo visit-count check, the longest, runs in a child forked after
the fixtures are built (see _overlapped), while this process runs the others;
the records are the same as when the checks run one after another.

With inject_corruption the suite adds negative controls: check_weight_increment
and check_lower_bound run on corrupted weight tables and are expected to
fail, demonstrating the checks have teeth.
"""
from __future__ import annotations

import functools
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .analysis import BOUND_SLACK, INVARIANT_TOL, escape_sweep
from .graphs import (Graph, RotorMechanism, build_bary_tree, build_lattice_ball, build_path,
                     default_mechanism, shuffled_mechanism)
from .harmonic import DEFAULT_TOL, HarmonicProfile, mc_green, solve_harmonic, srw_escape_mc
from .weights import WeightTable, random_config, weight_table

_MECH_SEEDS = (11, 12)
_CONFIG_SEEDS = (21, 22, 23)
_MC_SEED = 20240801
_WEIGHT_TOL = 1e-12
_Z_MAX = 3.0  # standard errors a Monte Carlo estimate may lie from the solved value


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
    return [build_path(3), build_path(5), build_lattice_ball(1, 3), build_lattice_ball(2, 3),
            build_bary_tree(2, 3)]


def full_fixtures() -> list[Graph]:
    return quick_fixtures() + [build_lattice_ball(2, 5), build_lattice_ball(3, 6), build_bary_tree(2, 6)]


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


def _reduced(name: str, tol: float):
    """Turn a generator of (deviation, where) pairs into a check that returns the CheckRecord
    of the largest deviation; the first of equal ones wins, and no pairs record 0.0."""
    def decorate(pairs: Callable[..., Iterator[tuple[float, str]]]) -> Callable[..., CheckRecord]:
        @functools.wraps(pairs)
        def check(*args) -> CheckRecord:
            worst, where = 0.0, ""
            for dev, at in pairs(*args):
                if dev > worst:
                    worst, where = dev, at
            return CheckRecord(name, worst <= tol, worst, tol, where)
        return check
    return decorate


@_reduced("harmonic-residual", DEFAULT_TOL)
def check_residual(fixtures: list[Fixture]):
    for g, profile, *_ in fixtures:
        yield profile.residual, g.describe()


@_reduced("weight-increment", _WEIGHT_TOL)
def check_weight_increment(fixtures: list[Fixture]):
    """Table increment w(x, i+1) - w(x, i) must equal -v(next target) + neighbor-mean of v."""
    for g, profile, mechs, tables in fixtures:
        for mech, wt in zip(mechs, tables):
            devs, _ = _weight_identity_devs(profile, mech, wt.values)
            e = int(np.argmax(devs))
            x = int(np.searchsorted(mech.indptr, e, side="right")) - 1
            yield float(devs[e]), f"{g.describe()} at {g.labels[x]}[{e - int(mech.indptr[x])}]"


@_reduced("weight-row-sum", _WEIGHT_TOL)
def check_telescope(fixtures: list[Fixture]):
    """Row sum of w(x, .) must equal -(deg(x) - 1)/2 * sum of v over the neighbors of x."""
    for g, profile, mechs, tables in fixtures:
        for mech, wt in zip(mechs, tables):
            _, devs = _weight_identity_devs(profile, mech, wt.values)
            x = int(np.argmax(devs))
            yield float(devs[x]), f"{g.describe()} at {g.labels[x]}"


@_reduced("invariant-constancy", INVARIANT_TOL)
def check_invariant(fixtures: list[Fixture], n_values):
    """Conserved quantity stays at n*v(origin), relatively within INVARIANT_TOL."""
    for g, profile, mechs, tables in fixtures:
        scale = max(1.0, profile.voltage[g.origin])
        for mech, wt in zip(mechs, tables):
            # None: the min-weight configuration, built inside escape_sweep
            for config in [None] + [random_config(g, s) for s in _CONFIG_SEEDS]:
                rep = escape_sweep(g, mech, config, n_values, profile=profile, wt=wt,
                                   check_invariant=True)
                yield (rep.max_invariant_dev or 0.0) / scale, f"{g.describe()} mech={mech.describe()}"


@_reduced("min-config-lower-bound", BOUND_SLACK)
def check_lower_bound(fixtures: list[Fixture], n_values):
    """survivors/n >= alpha - BOUND_SLACK at every t >= n under the minimizing config.

    Survivors never increase during a run, so the settled rate is the minimum
    of survivors/n over t >= n: one unobserved escape_sweep per mechanism
    decides the check on the fast settle path.
    """
    for g, profile, mechs, tables in fixtures:
        for mech, wt in zip(mechs, tables):
            rep = escape_sweep(g, mech, None, n_values, profile=profile, wt=wt)
            short = max((rep.alpha - r for r in rep.rates if r < rep.alpha - BOUND_SLACK), default=0.0)
            yield short, f"{g.describe()} mech={mech.describe()}"


@_reduced("mc-green-zscore", _Z_MAX)
def check_mc_green(fixtures: list[Fixture], walks: int):
    """Monte Carlo visit counts within _Z_MAX standard errors of solved values."""
    for g, profile, *_ in fixtures:
        est = mc_green(g, walks, _MC_SEED)
        live = [x for x in range(g.num_vertices) if not g.is_sink[x]]
        for x in sorted({live[0], live[len(live) // 2], live[-1], g.origin}):
            se = est.stderr[x]
            diff = abs(est.visits[x] - profile.green[x])
            # zero stderr: the estimate is exact, or infinitely far off
            z = diff / se if se != 0.0 else (float("inf") if diff > 0.0 else 0.0)
            yield z, f"{g.describe()} at {g.labels[x]}"


@_reduced("srw-escape-zscore", _Z_MAX)
def check_srw_escape(fixtures: list[Fixture], walks: int):
    """Monte Carlo escape probability within _Z_MAX standard errors of 1/G(o)."""
    for g, profile, *_ in fixtures:
        p, se = srw_escape_mc(g, walks, _MC_SEED)
        if se == 0.0:
            se = np.sqrt(0.25 / walks)  # conservative when p lands on 0 or 1
        yield abs(p - profile.escape_probability) / se, g.describe()


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


@contextmanager
def _overlapped(job: Callable) -> Iterator[Callable]:
    """Start job() in a forked child; yields a callable that returns its result or raises.

    The child inherits the job by fork, sends back its pickled (result,
    exception) through a pipe and ends in os._exit, never returning into the
    caller's frames.  On the way out the read end is closed, so a child still
    writing gets EPIPE, and the child is reaped.  Without os.fork, the
    callable runs job() in this process.
    """
    if not hasattr(os, "fork"):
        yield job
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (job(), None)
            except BaseException as exc:  # raised again in the parent
                outcome = (None, exc)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(outcome, out)
        finally:
            os._exit(0)
    os.close(write_fd)
    reader = os.fdopen(read_fd, "rb")

    def result():
        try:
            value, exc = pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError("the forked check exited without a result") from None
        if exc is not None:
            raise exc
        return value

    try:
        yield result
    finally:
        reader.close()
        os.waitpid(pid, 0)


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
