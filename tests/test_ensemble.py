"""random_ensemble's trials settled together, in groups, on one round kernel.

experiment.settle_trials must give every trial the survivors of its own
run, whatever the group size: reference_ensemble in oracles.py is the
one-run-at-a-time loop.
"""
import tracemalloc

import pytest

from rotorwalk import (
    GraphInvalid,
    InvalidParameter,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    default_mechanism,
    init_experiment,
    load_edge_list,
    random_config,
    random_ensemble,
    run_until_settled,
    shuffled_mechanism,
    solve_harmonic,
)
from rotorwalk import experiment
from rotorwalk.experiment import settle_trials

from oracles import mechanism_from_rows, random_edge_list, reference_ensemble

# paths, trees and lattice balls have one or two degree classes; the random
# edge lists mix many degrees in one group's flat rotor array
GRAPHS = [build_path(7), build_bary_tree(2, 5), build_bary_tree(3, 4),
          build_lattice_ball(2, 6), build_lattice_ball(3, 4),
          *(load_edge_list(*random_edge_list(seed)) for seed in range(3))]
GRAPH_IDS = [g.describe() for g in GRAPHS[:5]] + [f"random-edge-list({s})" for s in range(3)]
TRIALS = 23  # a multiple of no group size below


def _configs(g, seed, trials=TRIALS):
    return (random_config(g, seed + k) for k in range(trials))


def _group_of(monkeypatch, g, n, size):
    """Make settle_trials settle `size` trials per group."""
    monkeypatch.setattr(experiment, "_TRIAL_ELEMENTS", size * max(n, g.num_vertices))


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("n", [1, 7, 200])
@pytest.mark.parametrize("mech_seed", [None, 5], ids=["default", "shuffled5"])
@pytest.mark.parametrize("g", GRAPHS, ids=GRAPH_IDS)
def test_settle_trials_equals_reference(monkeypatch, g, mech_seed, n, seed):
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    survivors = reference_ensemble(g, mech, n, TRIALS, seed)
    assert settle_trials(g, mech, _configs(g, seed), n) == survivors
    for size in (1, 2, 3):
        _group_of(monkeypatch, g, n, size)
        assert settle_trials(g, mech, _configs(g, seed), n) == survivors
    rates = random_ensemble(g, mech, n, TRIALS, seed).rates
    assert rates == [s / n for s in survivors]
    assert all(type(r) is float for r in rates)


def test_settle_trials_equals_single_runs_with_many_sinks(monkeypatch):
    """On tree(3,5) every leaf is a sink, 243 finished codes: each trial's survivors are its own
    run_until_settled's, in one group or several."""
    g = build_bary_tree(3, 5)
    mech = shuffled_mechanism(g, 4)
    configs = [random_config(g, 30 + k) for k in range(TRIALS)]
    n = 300
    survivors = [run_until_settled(init_experiment(g, mech, config, n)).survivors for config in configs]
    assert settle_trials(g, mech, configs, n) == survivors
    for size in (2, 3):
        _group_of(monkeypatch, g, n, size)
        assert settle_trials(g, mech, configs, n) == survivors


def test_random_ensemble_validates_once(monkeypatch):
    calls = {"check_mechanism": 0, "check_config": 0}

    def counting(name):
        fn = getattr(experiment, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(experiment, name, counting(name))
    g = build_bary_tree(2, 5)
    _group_of(monkeypatch, g, 7, 3)
    random_ensemble(g, default_mechanism(g), n=7, trials=TRIALS, seed=1)
    assert calls == {"check_mechanism": 1, "check_config": TRIALS}


def test_ensemble_rejects_zero_particles():
    g = build_path(5)
    with pytest.raises(InvalidParameter, match=r"^particle count must be >= 1, got 0$"):
        random_ensemble(g, default_mechanism(g), n=0, trials=3, seed=0)


def test_bad_mechanism_raises_before_any_trial_settles(monkeypatch):
    g = build_path(5)
    rows = [tuple(r) for r in default_mechanism(g).order]
    rows[1] = (rows[1][0],) * 2  # not a permutation of vertex 1's two neighbours
    bad = mechanism_from_rows(rows)
    moved = []
    monkeypatch.setattr(experiment, "_round_step", lambda *args: moved.append(args))
    drawn = []
    configs = (drawn.append(k) or random_config(g, k) for k in range(TRIALS))
    with pytest.raises(GraphInvalid):
        settle_trials(g, bad, configs, 3)
    with pytest.raises(GraphInvalid):
        random_ensemble(g, bad, n=3, trials=TRIALS, seed=0)
    assert moved == [] and drawn == []


def test_ensemble_memory_does_not_grow_with_trials():
    g = build_bary_tree(3, 8)
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    assert experiment._TRIAL_ELEMENTS // g.num_vertices < 10  # both counts span several groups
    peaks = []
    for trials in (10, 100):
        tracemalloc.start()
        try:
            random_ensemble(g, mech, n=1000, trials=trials, seed=2, profile=profile)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.25 * min(peaks), peaks


def test_settle_memory_per_particle():
    """An unhooked settle of many more particles than vertices holds at most 40 bytes per particle.

    Its arrays per particle are the key, the finished keys and, in a round,
    the rotors, the slots and one gather; the per-settle tables scale with
    the graph, here 50,000 particles on 3,282 vertices.
    """
    g = build_lattice_ball(2, 40)
    mech = shuffled_mechanism(g, 7)
    n = 50_000
    state = init_experiment(g, mech, random_config(g, 7), n)
    tracemalloc.start()
    try:
        run_until_settled(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.settled
    assert peak <= 40 * n, peak / n
