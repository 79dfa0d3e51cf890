import os
from collections import Counter

import numpy as np
import pytest

import rotorwalk.analysis as analysis
import rotorwalk.verify as verify
from rotorwalk import (AbortedMaxSteps, build_path, default_mechanism, random_config,
                       solve_harmonic, theorem_check, weight_table)
from rotorwalk.weights import WeightTable


@pytest.fixture
def corrupted_p3():
    """The corruption control's table: path(3), one weight perturbed by 0.125."""
    g = build_path(3)
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    bad = wt.values.copy()
    bad[int(wt.indptr[1])] += 0.125
    return g, mech, profile, WeightTable(values=bad, indptr=wt.indptr)


def test_row_sum_fails_on_corrupted_table_where_cyclic_sum_passes(corrupted_p3):
    g, mech, profile, bad = corrupted_p3
    inc_dev, row_dev = verify._weight_identity_devs(profile, mech, bad.values)
    assert inc_dev.max() == pytest.approx(0.125, abs=1e-12)
    assert row_dev.max() == pytest.approx(0.125, abs=1e-12)
    # the quantity weight-telescope used to check: zero for any table
    for x in np.flatnonzero(~g.is_sink):
        row = bad.vertex_slice(x)
        assert abs(np.sum(np.roll(row, -1) - row)) <= 1e-12


def test_weight_checks_read_the_engine_table(monkeypatch, corrupted_p3):
    g, mech, profile, bad = corrupted_p3
    monkeypatch.setattr(verify, "default_mechanism", lambda g: mech)
    monkeypatch.setattr(verify, "_MECH_SEEDS", ())
    monkeypatch.setattr(verify, "weight_table", lambda *args: bad)
    fixture = verify._fixture(g)
    assert fixture.mechanisms == (mech,) and fixture.tables == (bad,)
    for check in (verify.check_weight_increment, verify.check_telescope):
        rec = check([fixture])
        assert not rec.ok
        assert rec.max_dev == pytest.approx(0.125, abs=1e-12)


def test_weight_identities_hold_on_every_full_fixture():
    fixtures = [verify._fixture(g) for g in verify.full_fixtures()]
    for check in (verify.check_weight_increment, verify.check_telescope):
        assert check(fixtures).ok


def test_each_fixture_solved_once(monkeypatch):
    solved = Counter()

    def counting_solve(g, *args, **kwargs):
        solved[g.describe()] += 1
        return solve_harmonic(g, *args, **kwargs)

    monkeypatch.setattr(verify, "solve_harmonic", counting_solve)
    monkeypatch.setattr(analysis, "solve_harmonic", counting_solve)
    verify.run_verification(quick=True, inject_corruption=True)
    expected = Counter(g.describe() for g in verify.quick_fixtures())
    # the corruption controls' own path(3), whose solve both controls reuse
    expected[build_path(3).describe()] += 1
    assert solved == expected


@pytest.mark.parametrize("quick", [True, False])
def test_one_weight_table_per_fixture_mechanism(monkeypatch, quick):
    built = Counter()

    def counting_table(g, mech, profile):
        built[g.describe(), mech.describe()] += 1
        return weight_table(g, mech, profile)

    monkeypatch.setattr(verify, "weight_table", counting_table)
    monkeypatch.setattr(analysis, "weight_table", counting_table)
    records = verify.run_verification(quick=quick, inject_corruption=True)
    fixtures = verify.quick_fixtures() if quick else verify.full_fixtures()
    expected = Counter((g.describe(), name) for g in fixtures
                       for name in ("default", "shuffled(seed=11)", "shuffled(seed=12)"))
    # the corruption controls' path(3) table, which both corrupted tables derive from
    expected[build_path(3).describe(), "default"] += 1
    assert built == expected
    assert sum(built.values()) == (16 if quick else 25)
    assert [r.ok for r in records[:-2]] == [True] * 7


def test_random_configs_drawn_once_per_fixture(monkeypatch):
    drawn = Counter()

    def counting_config(g, seed):
        drawn[g.describe(), seed] += 1
        return random_config(g, seed)

    monkeypatch.setattr(verify, "random_config", counting_config)
    verify.run_verification(quick=True)
    assert drawn == Counter({(g.describe(), s): 1 for g in verify.quick_fixtures()
                             for s in verify._CONFIG_SEEDS})


def test_lower_bound_verdict_agrees_with_theorem_check():
    """The corrupted-config control's negated path(3) table at n = 1, 2: check_lower_bound's
    deviation is theorem_check's largest alpha - rate, and both fail the bound."""
    g = build_path(3)
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    negated = WeightTable(-wt.values, wt.indptr)
    rec = verify.check_lower_bound([verify.Fixture(g, profile, (mech,), (negated,))], [1, 2])
    with pytest.warns(RuntimeWarning, match="conserved quantity"):  # it breaks the invariant too
        res = theorem_check(g, mech, [1, 2], profile=profile, wt=negated)
    shortfalls = [v.bound - v.value for v in res.violations if v.kind == "lower-bound"]
    assert not rec.ok and not res.lower_bound_ok
    assert shortfalls and rec.max_dev == max(shortfalls)


def test_invariant_verdict_agrees_with_theorem_check(monkeypatch, corrupted_p3):
    """The +0.125 table, n from 1: check_invariant on the min-weight configuration alone
    reads theorem_check's relative deviation, and both fail the invariant."""
    g, mech, profile, bad = corrupted_p3
    monkeypatch.setattr(verify, "_CONFIG_SEEDS", ())
    rec = verify.check_invariant([verify.Fixture(g, profile, (mech,), (bad,))], [1, 2, 4])
    with pytest.warns(RuntimeWarning, match="conserved quantity"):
        res = theorem_check(g, mech, [1, 2, 4], profile=profile, wt=bad)
    assert not rec.ok and not res.invariant_ok
    assert rec.max_dev == res.max_invariant_dev


def test_negative_controls_run_the_shipped_checks(monkeypatch):
    def passing(fixtures, *args):
        return verify.CheckRecord("stub", True, 0.0, 1.0)

    monkeypatch.setattr(verify, "check_weight_increment", passing)
    monkeypatch.setattr(verify, "check_lower_bound", passing)
    records = verify._corruption_controls()
    assert [(r.name, r.ok) for r in records] == [
        ("corrupted-weights-control", True), ("corrupted-config-control", True),
    ]


def test_reduction_keeps_the_first_of_equal_deviations():
    @verify._reduced("pairs", 0.5)
    def pairs(devs):
        for k, dev in enumerate(devs):
            yield dev, f"at {k}"

    def record(ok, max_dev, detail):
        return verify.CheckRecord("pairs", ok, max_dev, 0.5, detail)

    assert pairs([0.0, 0.25, 0.75, 0.75, 0.5]) == record(False, 0.75, "at 2")
    assert pairs([0.0, 0.5, 0.5]) == record(True, 0.5, "at 1")
    # nothing above the starting 0.0: no where, and inf is a deviation like any other
    assert pairs([0.0, 0.0]) == record(True, 0.0, "")
    assert pairs([float("inf"), float("inf")]) == record(False, float("inf"), "at 0")


# each Monte Carlo check, its record's name and its place among the records
_MC_CHECKS = [("check_mc_green", "mc-green-zscore", 5), ("check_srw_escape", "srw-escape-zscore", 6)]
_MC_IDS = [check for check, *_ in _MC_CHECKS]


def _pid_record(name):
    """A stand-in check whose record carries the name and the pid of the process it ran in."""
    def check(fixtures, walks):
        return verify.CheckRecord(name, True, 0.0, 3.0, str(os.getpid()))
    return check


def _assert_no_child():
    """No child of this process is left running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("check, name, at", _MC_CHECKS, ids=_MC_IDS)
def test_mc_green_check_runs_in_a_forked_worker(monkeypatch, check, name, at):
    monkeypatch.setattr(verify, check, _pid_record(name))
    records = verify.run_verification(quick=True)
    assert records[at].name == name and records[at].detail != str(os.getpid())
    _assert_no_child()
    monkeypatch.delattr(os, "fork")
    records = verify.run_verification(quick=True)
    assert records[at].name == name and records[at].detail == str(os.getpid())
    _assert_no_child()


def test_monte_carlo_checks_run_in_one_worker(monkeypatch):
    """Both Monte Carlo records come from one forked child, the only fork of the run."""
    for check, name, _ in _MC_CHECKS:
        monkeypatch.setattr(verify, check, _pid_record(name))
    fork, forked_by = os.fork, []

    def counting_fork():
        forked_by.append(os.getpid())  # the child appends to its own copy
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    records = verify.run_verification(quick=True, inject_corruption=True)
    pids = {records[at].detail for *_, at in _MC_CHECKS}
    assert len(pids) == 1 and str(os.getpid()) not in pids
    assert forked_by == [os.getpid()]
    _assert_no_child()


def test_records_equal_with_and_without_the_worker(monkeypatch):
    forked = verify.run_verification(quick=True, inject_corruption=True)
    _assert_no_child()
    monkeypatch.delattr(os, "fork")
    assert verify.run_verification(quick=True, inject_corruption=True) == forked
    assert [r.name for r in forked] == [
        "harmonic-residual", "weight-increment", "weight-row-sum", "invariant-constancy",
        "min-config-lower-bound", "mc-green-zscore", "srw-escape-zscore",
        "corrupted-weights-control", "corrupted-config-control",
    ]


@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize("check", _MC_IDS)
def test_mc_green_check_failure_reaches_the_caller(monkeypatch, check, forked):
    def fail(fixtures, walks):
        raise AbortedMaxSteps(f"walk cap reached in {check}")

    # the forked worker inherits the patched module attribute
    monkeypatch.setattr(verify, check, fail)
    if not forked:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(AbortedMaxSteps, match=f"walk cap reached in {check}"):
        verify.run_verification(quick=True)
    _assert_no_child()


@pytest.mark.deadline(30)
@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize("check, name, at", _MC_CHECKS, ids=_MC_IDS)
def test_worker_that_exits_without_a_result_raises(monkeypatch, check, name, at, forked):
    """A child that dies before it sends an outcome is an error in the caller, not a hang."""
    caller = os.getpid()

    def exit_in_child(fixtures, walks):
        if os.getpid() != caller:
            os._exit(1)
        return _pid_record(name)(fixtures, walks)

    monkeypatch.setattr(verify, check, exit_in_child)
    if forked:
        with pytest.raises(ChildProcessError, match="exited without a result"):
            verify.run_verification(quick=True)
    else:
        monkeypatch.delattr(os, "fork")
        assert verify.run_verification(quick=True)[at].detail == str(caller)
    _assert_no_child()


@pytest.mark.deadline(30)
@pytest.mark.parametrize("forked", [True, False])
def test_caller_failure_does_not_wait_on_a_writing_worker(monkeypatch, forked):
    """A result larger than a pipe's buffer, never read: the child gets EPIPE and is reaped."""
    if not forked:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(KeyError, match="before the result is read"):
        with verify._overlapped(lambda: bytes(1 << 22)):
            raise KeyError("before the result is read")
    _assert_no_child()


@pytest.mark.deadline(30)
@pytest.mark.parametrize("forked", [True, False])
def test_caller_failure_does_not_wait_on_nested_writing_workers(monkeypatch, forked):
    """Two nested children, each with a result larger than a pipe's buffer: the inner one
    inherits the outer read end, and still neither hangs the caller."""
    if not forked:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(KeyError, match="before the results are read"):
        with verify._overlapped(lambda: bytes(1 << 22)), verify._overlapped(lambda: bytes(1 << 22)):
            raise KeyError("before the results are read")
    _assert_no_child()
