import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest

import rotorwalk.analysis as analysis
import rotorwalk.verify as verify
from rotorwalk import AbortedMaxSteps, build_path, default_mechanism, solve_harmonic, weight_table
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
    # the corruption controls' own path(3), which theorem_check reuses
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
    # the corruption controls' path(3) table, which theorem_check reuses
    expected[build_path(3).describe(), "default"] += 1
    assert built == expected
    assert sum(built.values()) == (16 if quick else 25)
    assert [r.ok for r in records[:-2]] == [True] * 7


def _pid_record(fixtures, walks):
    return verify.CheckRecord("mc-green-zscore", True, 0.0, 3.0, str(os.getpid()))


def test_mc_green_check_runs_in_a_forked_worker(monkeypatch):
    monkeypatch.setattr(verify, "check_mc_green", _pid_record)
    records = verify.run_verification(quick=True)
    assert records[5].detail != str(os.getpid())
    monkeypatch.setattr(verify, "_fork_context", lambda: None)
    records = verify.run_verification(quick=True)
    assert records[5].detail == str(os.getpid())
    assert multiprocessing.active_children() == []


def test_records_equal_with_and_without_the_worker(monkeypatch):
    forked = verify.run_verification(quick=True, inject_corruption=True)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(verify, "_fork_context", lambda: None)
    assert verify.run_verification(quick=True, inject_corruption=True) == forked
    assert [r.name for r in forked] == [
        "harmonic-residual", "weight-increment", "weight-row-sum", "invariant-constancy",
        "min-config-lower-bound", "mc-green-zscore", "srw-escape-zscore",
        "corrupted-weights-control", "corrupted-config-control",
    ]


@pytest.mark.parametrize("forked", [True, False])
def test_mc_green_check_failure_reaches_the_caller(monkeypatch, forked):
    def fail(fixtures, walks):
        raise AbortedMaxSteps("walk cap reached in check_mc_green")

    # the forked worker inherits the patched module attribute
    monkeypatch.setattr(verify, "check_mc_green", fail)
    if not forked:
        monkeypatch.setattr(verify, "_fork_context", lambda: None)
    with pytest.raises(AbortedMaxSteps, match="walk cap reached in check_mc_green"):
        verify.run_verification(quick=True)
    assert multiprocessing.active_children() == []
