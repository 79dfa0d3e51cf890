import contextlib
import functools

import numpy as np
import pytest

from rotorwalk import experiment
from rotorwalk import (
    AbortedMaxSteps,
    DimensionMismatch,
    InvalidParameter,
    ParticleStatus,
    RotorConfig,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    compute_invariant,
    default_mechanism,
    escape_sweep,
    init_experiment,
    min_weight_config,
    random_config,
    run_until_settled,
    shuffled_mechanism,
    solve_harmonic,
    step,
    weight_table,
)

from oracles import (
    reference_compute_invariant,
    reference_ensemble,
    reference_invariant,
    reference_run,
    reference_settle_any_order,
)
from rotorwalk.experiment import settle_trials
from stepwise import settle_stepwise


def test_p3_two_particle_trace(p3_solved):
    """Every intermediate state of the n=2 run, frozen by hand.

    Particle 1 moves at even t, particle 0 at odd t.  Expected states by t:
    positions of particle 0: o o a a o; particle 1: o a a s s;
    rotor index at a:        0 0 0 1 0.
    """
    g, mech, profile, wt = p3_solved
    cfg = min_weight_config(g, wt)
    state = init_experiment(g, mech, cfg, 2)

    o, a, s = 0, 1, 2
    expect_p0 = [o, o, a, a, o]
    expect_p1 = [o, a, a, s, s]
    expect_rho_a = [0, 0, 0, 1, 0]

    for t in range(5):
        assert state.t == t
        assert state.positions[0] == expect_p0[t]
        assert state.positions[1] == expect_p1[t]
        assert state.rho[a] == expect_rho_a[t]
        assert compute_invariant(state, profile, wt) == 4.0
        if t < 4:
            step(state)

    assert state.settled
    assert state.statuses == [ParticleStatus.RETURNED, ParticleStatus.ABSORBED]
    assert state.survivors == 1
    assert state.range == {o, a, s}


def test_p3_even_counts_escape_exactly_half(p3_solved):
    g, mech, profile, wt = p3_solved
    cfg = min_weight_config(g, wt)
    for k in range(1, 9):
        state = init_experiment(g, mech, cfg, 2 * k)
        run_until_settled(state)
        assert state.survivors == k
        assert compute_invariant(state, profile, wt) == pytest.approx(
            4.0 * k, abs=1e-12
        )


def test_single_particle_bad_config_returns(p3_solved):
    # rotor at a parked on the sink edge: the advance sends the walker home
    g, mech, profile, wt = p3_solved
    state = init_experiment(g, mech, RotorConfig(pos=(0, 1, -1)), 1)
    run_until_settled(state)
    assert state.survivors == 0
    assert state.t == 2
    assert state.statuses == [ParticleStatus.RETURNED]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
@pytest.mark.parametrize("mech_seed", [None, 5, 6])
@pytest.mark.parametrize("config_kind", ["min", "random"])
def test_engine_matches_reference(small_graph, n, mech_seed, config_kind):
    g = small_graph
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = min_weight_config(g, wt) if config_kind == "min" else random_config(g, n)

    ref = reference_run(g, mech, config, n)
    state = init_experiment(g, mech, config, n)
    run_until_settled(state, max_steps=ref.t + n)

    assert state.t == ref.t
    assert state.positions.tolist() == ref.positions
    assert state.rho.tolist() == ref.rho
    assert state.survivors == ref.survivors
    assert state.range == ref.visited
    for i in range(n):
        assert (state.status[i] == ParticleStatus.RETURNED) == ref.returned[i]


def test_stepwise_equals_reference_history(small_graph):
    g = small_graph
    mech = shuffled_mechanism(g, 2)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = random_config(g, 77)
    n = 3

    ref = reference_run(g, mech, config, n)
    state = init_experiment(g, mech, config, n)
    for t, positions, rho in ref.history:
        assert state.t == t
        assert tuple(state.positions) == positions
        assert tuple(state.rho) == rho
        if t < ref.t:
            step(state)
    assert state.settled


def test_invariant_matches_reference_formula(small_graph):
    g = small_graph
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = random_config(g, 3)
    n = 4
    state = init_experiment(g, mech, config, n)

    def weight_of(x, i):
        return wt.vertex_slice(x)[i]

    visited = {g.origin}
    while not state.settled:
        step(state)
        if state.last_event is not None:
            visited.add(state.last_event[2])
        expected = reference_invariant(
            g, profile.voltage, weight_of,
            state.positions, state.rho, config.pos.tolist(), visited, state.t, n,
        )
        assert compute_invariant(state, profile, wt) == pytest.approx(expected, abs=1e-12)


def test_resume_after_manual_steps(small_graph):
    g = small_graph
    mech = shuffled_mechanism(g, 1)
    config = random_config(g, 9)
    n = 5

    full = init_experiment(g, mech, config, n)
    run_until_settled(full)

    resumed = init_experiment(g, mech, config, n)
    for _ in range(7):  # stop mid-round on purpose
        if resumed.settled:
            break
        step(resumed)
    run_until_settled(resumed)

    assert resumed.t == full.t
    assert resumed.positions.tolist() == full.positions.tolist()
    assert resumed.rho.tolist() == full.rho.tolist()
    assert resumed.status.tolist() == full.status.tolist()


def test_on_round_sees_every_move_after_a_mid_round_resume(small_graph):
    # idle turns of finished particles are skipped; actual moves are not,
    # those of a partial first round included
    g = small_graph
    mech = shuffled_mechanism(g, 4)
    cfg = random_config(g, 13)
    n = 4
    ref = reference_run(g, mech, cfg, n)
    acting = [
        t for t, (prev, cur) in enumerate(zip(ref.history, ref.history[1:]))
        if prev[1] != cur[1]
    ]
    for resume in range(2 * n + 2):
        state = init_experiment(g, mech, cfg, n)
        for _ in range(resume):
            step(state)
        turns = []
        run_until_settled(state, max_steps=ref.t + n,
                          on_round=lambda movers, t, *rest: turns.extend(t.tolist()))
        assert turns == [t for t in acting if t >= resume]


def test_max_steps_aborts(p3_solved):
    g, mech, _, wt = p3_solved
    cfg = min_weight_config(g, wt)
    state = init_experiment(g, mech, cfg, 8)
    with pytest.raises(AbortedMaxSteps):
        run_until_settled(state, max_steps=3)
    state2 = init_experiment(g, mech, cfg, 8)
    with pytest.raises(AbortedMaxSteps):
        settle_stepwise(state2, max_steps=3)


def test_settled_run_is_idempotent(p3_solved):
    g, mech, _, wt = p3_solved
    cfg = min_weight_config(g, wt)
    state = init_experiment(g, mech, cfg, 2)
    run_until_settled(state)
    t, positions = state.t, state.positions.tolist()
    run_until_settled(state)
    step(state)  # terminal mover: a no-op that still advances the clock
    assert state.positions.tolist() == positions
    assert state.t == t + 1


def test_input_validation(p3_solved):
    g, mech, profile, wt = p3_solved
    cfg = min_weight_config(g, wt)
    with pytest.raises(InvalidParameter):
        init_experiment(g, mech, cfg, 0)
    state = init_experiment(g, mech, cfg, 1)
    with pytest.raises(InvalidParameter):
        run_until_settled(state, max_steps=0)
    other = solve_harmonic(build_path(5))
    with pytest.raises(DimensionMismatch):
        compute_invariant(state, other, wt)
    with pytest.raises(DimensionMismatch):
        experiment.InvariantTracker(state, other, wt)


CROSS_GRAPHS = {
    "lattice(2,6)": build_lattice_ball(2, 6),
    "tree(3,4)": build_bary_tree(3, 4),
    "lattice(3,3)": build_lattice_ball(3, 3),
}


def settled_fields(state):
    """The fields a settle writes, by name, copied."""
    return {"t": state.t, "positions": state.positions.copy(), "rho": state.rho.copy(),
            "status": state.status.copy(), "survivors": state.survivors,
            "remaining": state.remaining, "range_order": state.range_order.copy(),
            "range mask": state._range_mask.copy()}


def assert_fields_equal(got, want):
    """Assert two settled_fields equal, one named field at a time.

    Arrays are compared with np.array_equal, so a failure names its field
    and is quick to print however long the arrays are.
    """
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert np.array_equal(value, want[name]), f"{name} differs"


def _no_hook(*round_moves):
    """An on_round that does nothing: a hooked settle must write what an unhooked one does."""


@pytest.mark.parametrize("graph_name", CROSS_GRAPHS)
@pytest.mark.parametrize("n", [100, 1000, 3000])
@pytest.mark.parametrize("mech_seed", [None, 11])
@pytest.mark.parametrize("config_kind", ["min", "random"])
def test_batched_settle_matches_stepwise(graph_name, n, mech_seed, config_kind):
    """The kernel moves whole rounds at once, hooked or not; settle_stepwise goes through step().

    Its keys are uint16 at n = 100 (and on lattice(3,3) at n = 1000) and
    uint32 otherwise; test_mid_round_resume_matches_stepwise gives uint8
    keys at n = 1 and 2 (and on path(5) at n = 7).
    """
    g = CROSS_GRAPHS[graph_name]
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    if config_kind == "min":
        config = min_weight_config(g, weight_table(g, mech, solve_harmonic(g)))
    else:
        config = random_config(g, 21)

    stepwise = settle_stepwise(init_experiment(g, mech, config, n))
    for on_round in (None, _no_hook):
        # a kernel fault that leaves particles cycling aborts one round past the stepwise steps
        batched = run_until_settled(init_experiment(g, mech, config, n), max_steps=stepwise.t + n,
                                    on_round=on_round)
        assert batched.settled
        assert_fields_equal(settled_fields(batched), settled_fields(stepwise))


@pytest.mark.parametrize("graph_name", ["lattice(2,6)", "tree(3,4)"])
def test_abort_leaves_the_stepwise_state(graph_name):
    """A cap inside a round: the kernel, hooked or not, moves the particles whose turns come
    first, as step() does."""
    g = CROSS_GRAPHS[graph_name]
    mech = shuffled_mechanism(g, 11)
    config = random_config(g, 21)
    n = 100
    full = settle_stepwise(init_experiment(g, mech, config, n))
    hooked = functools.partial(run_until_settled, on_round=_no_hook)
    for cap in (1, n - 1, n, n + 37, full.t // 3, full.t // 2 + 1, full.t - 1):
        aborted = []
        for settle in (settle_stepwise, run_until_settled, hooked):
            state = init_experiment(g, mech, config, n)
            with pytest.raises(AbortedMaxSteps) as exc:
                settle(state, max_steps=cap)
            aborted.append((str(exc.value), settled_fields(state)))
        for message, fields in aborted[1:]:
            assert message == aborted[0][0]
            assert_fields_equal(fields, aborted[0][1])


@pytest.mark.parametrize("graph_name", ["lattice(2,6)", "tree(3,4)"])
def test_abort_then_resume_equals_uninterrupted(graph_name):
    g = CROSS_GRAPHS[graph_name]
    mech = shuffled_mechanism(g, 11)
    config = random_config(g, 21)
    n = 1000
    full = run_until_settled(init_experiment(g, mech, config, n))

    state = init_experiment(g, mech, config, n)
    with pytest.raises(AbortedMaxSteps):
        run_until_settled(state, max_steps=full.t // 2)
    assert 0 < state.t < full.t
    assert state.survivors == sum(s != ParticleStatus.RETURNED for s in state.status)
    assert state.remaining == sum(s < ParticleStatus.RETURNED for s in state.status)

    run_until_settled(state, max_steps=full.t + n)
    assert_fields_equal(settled_fields(state), settled_fields(full))


def _resumed(g, mech, config, n, k):
    """A fresh state after k calls of step(), or fewer if it settles first."""
    state = init_experiment(g, mech, config, n)
    for _ in range(k):
        if state.settled:
            break
        step(state)
    return state


def test_run_until_settled_never_calls_step(monkeypatch):
    g = CROSS_GRAPHS["lattice(2,6)"]
    mech = shuffled_mechanism(g, 11)
    config = random_config(g, 21)
    n = 100
    full = settle_stepwise(init_experiment(g, mech, config, n))
    states = [_resumed(g, mech, config, n, k) for k in (1, 3, 150)]

    def refuse(state):
        raise AssertionError("run_until_settled called step()")

    monkeypatch.setattr(experiment, "step", refuse)
    for state in states:
        run_until_settled(state, max_steps=full.t + n)
        assert_fields_equal(settled_fields(state), settled_fields(full))


EXACT_GRAPHS = {
    "path(5)": build_path(5),
    "lattice(2,6)": build_lattice_ball(2, 6),
    "tree(3,4)": build_bary_tree(3, 4),
    "lattice(3,4)": build_lattice_ball(3, 4),
}


@pytest.mark.parametrize("graph_name", EXACT_GRAPHS)
@pytest.mark.parametrize("mech_seed", [None, 11])
@pytest.mark.parametrize("config_kind", ["min", "random"])
def test_invariant_equals_scalar_loop_after_every_move(graph_name, mech_seed, config_kind):
    """The vectorized conserved quantity is the scalar loop's value, bit for bit.

    Checked after every move of a stepwise run, and on a state the round
    kernel wrote before aborting on max_steps and that step() then resumes.
    """
    g = EXACT_GRAPHS[graph_name]
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = min_weight_config(g, wt) if config_kind == "min" else random_config(g, 21)
    n = 200

    def check(st):
        assert compute_invariant(st, profile, wt) == reference_compute_invariant(st, profile, wt)

    state = init_experiment(g, mech, config, n)
    check(state)
    settle_stepwise(state, observer=check)
    assert state.t > 0

    resumed = init_experiment(g, mech, config, n)
    with pytest.raises(AbortedMaxSteps):
        run_until_settled(resumed, max_steps=state.t // 2)
    assert 0 < resumed.t < state.t
    check(resumed)
    settle_stepwise(resumed, observer=check)
    assert_fields_equal(settled_fields(resumed), settled_fields(state))


def _round_kernel_moves(g, mech, config, n, profile, max_steps):
    """Every move of an escape_sweep observer's rounds, as stacked columns."""
    rounds = []
    escape_sweep(g, mech, config, [n], profile=profile, max_steps=max_steps,
                 observer=lambda st, moves: rounds.append(moves))
    return [np.concatenate(column) for column in zip(*rounds)]


def _stepwise_moves(g, mech, config, n, profile, wt):
    """The same columns from the stepwise engine, with compute_invariant after every move."""
    rows = []

    def record(st):
        mover, x, y = st.last_event
        rows.append((st.t - 1, mover, x, y, st.status.item(mover), st.survivors,
                     compute_invariant(st, profile, wt)))

    settle_stepwise(init_experiment(g, mech, config, n), observer=record)
    return [np.array(column) for column in zip(*rows)]


EVALUATOR_GRAPHS = {
    "lattice(3,8)": build_lattice_ball(3, 8),
    "lattice(2,5)": build_lattice_ball(2, 5),
    "lattice(2,6)": build_lattice_ball(2, 6),
    "tree(3,4)": build_bary_tree(3, 4),
    "lattice(3,4)": build_lattice_ball(3, 4),
    "path(5)": build_path(5),
}


@pytest.mark.parametrize("graph_name", EVALUATOR_GRAPHS)
@pytest.mark.parametrize("mech_seed", [None, 11])
@pytest.mark.parametrize("config_kind", ["min", "random"])
@pytest.mark.parametrize("n", [1, 2, 7, 50, 500])
def test_round_invariants_equal_compute_invariant_after_every_move(graph_name, mech_seed, config_kind, n):
    """The round kernel's per-move values are compute_invariant's, bit for bit.

    Rounds of one move up to 500 moves, some visiting new vertices mid-round.
    """
    g = EVALUATOR_GRAPHS[graph_name]
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = min_weight_config(g, wt) if config_kind == "min" else random_config(g, 21)

    *expected_moves, expected = _stepwise_moves(g, mech, config, n, profile, wt)
    # one round past the stepwise run's last move
    t, mover, source, target, status, survivors, invariant = _round_kernel_moves(
        g, mech, config, n, profile, max_steps=int(expected_moves[0][-1]) + 1 + n)
    for got, want in zip((t, mover, source, target, status, survivors), expected_moves):
        assert np.array_equal(got, want)
    assert invariant.dtype == expected.dtype
    assert invariant.tobytes() == expected.tobytes()


def test_round_invariants_resume_after_abort():
    """A tracker built on a state the kernel left at an abort starts from that state's rotors."""
    g = build_lattice_ball(2, 6)
    mech = shuffled_mechanism(g, 11)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = random_config(g, 21)
    n = 200
    t, *_, expected = _stepwise_moves(g, mech, config, n, profile, wt)

    # a cap at a round's start stops the kernel between rounds
    cap = int(t[-1]) // 2 // n * n
    state = init_experiment(g, mech, config, n)
    with pytest.raises(AbortedMaxSteps):
        run_until_settled(state, max_steps=cap)
    resumed_at = state.t
    assert resumed_at == cap > 0
    got = []
    tracker = experiment.InvariantTracker(state, profile, wt, lambda st, moves: got.append(moves.invariant))
    run_until_settled(state, max_steps=int(t[-1]) + 1 + n, on_round=tracker.on_round)
    assert np.concatenate(got).tobytes() == expected[t >= resumed_at].tobytes()


def _mutant_round_step(kind, calls):
    """experiment._round_step with one seeded fault, counting its calls in `calls`.

    The ranks come from a running maximum over the group starts, not from
    per-rotor offsets, so the fault-free parts are a second implementation
    of the step.
    """

    def round_step(key, b, c, rho, deg, indptr, slot_key, ranks):
        calls.append(key.size)
        key.sort()
        rotor = (key >> b).astype(np.intp)
        x = rotor >> c
        m = key.size
        run_edge = np.ones(m + 1, dtype=bool)
        run_edge[1:m] = rotor[1:] != rotor[:-1]
        k = np.arange(m)
        start = np.maximum.accumulate(np.where(run_edge[:m], k, 0))
        rank = k - start
        if kind == "rank-dropped":         # every leaver takes the first position
            rank[:] = 0
        elif kind == "rank-reversed":      # leavers take the positions in reverse turn order
            end = np.flatnonzero(run_edge[1:])[np.cumsum(run_edge[:m]) - 1]
            rank = end - k
        r = (rho[rotor] + rank + 1) % deg[x]
        # the leaver of the highest rank sets the rotor, or the first one
        first = kind in ("first-sets-rotor", "rank-reversed")
        setter = np.flatnonzero(run_edge[:m] if first else run_edge[1:])
        if kind == "last-write-dropped":   # the last group's rotor keeps its old position
            setter = setter[:-1]
        rho[rotor[setter]] = r[setter]
        if kind == "rotor-overshoots":     # the rotor ends one position past the last leaver's
            rho[rotor[setter]] = (r[setter] + 1) % deg[x[setter]]
        slot = r + indptr[x]
        # the next key carries the turn and the trial, or the turn only
        carried = (1 << (b if kind == "trial-bits-dropped" else b + c)) - 1
        return slot, slot_key[slot] | (key & carried)

    return round_step


def _visit_in_key_order(state, key, b):
    """experiment._visit_first with a seeded fault: fresh vertices in key order, not by first arrival."""
    y = (key >> b).astype(np.intp)
    y = y[~state._range_mask[y]]
    _, first = np.unique(y, return_index=True)
    y = y[np.sort(first)]
    state._range_mask[y] = True
    state._visits[state._num_visited : state._num_visited + y.size] = y
    state._num_visited += y.size


TRIALS = 5


def _trial_survivors(g, mech, n):
    """settle_trials' survivors of TRIALS random configurations, and the reference's."""
    got = settle_trials(g, mech, (random_config(g, 21 + k) for k in range(TRIALS)), n)
    return got, reference_ensemble(g, mech, n, TRIALS, 21)


@pytest.mark.parametrize("kind", ["rank-dropped", "rank-reversed", "first-sets-rotor",
                                  "rotor-overshoots", "last-write-dropped"])
def test_kernel_mutations_fail_stepwise_and_invariant(monkeypatch, kind):
    """Each seeded round-step fault differs from the stepwise engine and breaks the checked invariant.

    The kernel may run one round past the stepwise steps, so a fault that
    leaves particles cycling, as last-write-dropped does, aborts at once; an
    abort counts as differing.  rank-reversed leaves every round's end state
    conserved; only the per-move values inside the round show it.
    settle_trials runs the same step: every fault but rank-reversed changes
    some run's survivors there, while rank-reversed only swaps which of a
    rotor's leavers takes which move, which survivors cannot see.
    settle_trials takes no max_steps, so last-write-dropped is not run there.
    """
    calls = []
    monkeypatch.setattr(experiment, "_round_step", _mutant_round_step(kind, calls))
    trials_end = kind != "last-write-dropped"
    survivors_differ = False
    for g in CROSS_GRAPHS.values():
        for mech in (default_mechanism(g), shuffled_mechanism(g, 11)):
            profile = solve_harmonic(g)
            wt = weight_table(g, mech, profile)
            for config in (min_weight_config(g, wt), random_config(g, 21)):
                n = 100
                stepwise = settle_stepwise(init_experiment(g, mech, config, n))
                cap = stepwise.t + n
                batched = init_experiment(g, mech, config, n)
                with contextlib.suppress(AbortedMaxSteps):
                    run_until_settled(batched, max_steps=cap)
                with pytest.raises(AssertionError):
                    assert_fields_equal(settled_fields(batched), settled_fields(stepwise))

                checked = init_experiment(g, mech, config, n)
                tracker = experiment.InvariantTracker(checked, profile, wt)
                with contextlib.suppress(AbortedMaxSteps):
                    run_until_settled(checked, max_steps=cap, on_round=tracker.on_round)
                assert tracker.finish() > 1e-8 * tracker.target

            if trials_end:
                calls.clear()
                got, expected = _trial_survivors(g, mech, 20)
                assert calls  # settle_trials moved its rounds on the faulty step
                survivors_differ |= got != expected
    if trials_end:
        assert survivors_differ is (kind != "rank-reversed")


def test_trial_bits_mutation_fails_the_ensemble(monkeypatch):
    """Next keys that keep the turn but drop the trial move every run onto trial 0's rotors.

    settle_trials' survivors then differ from the reference's.  A single
    run has no trial bits, so run_until_settled, on the same faulty step,
    still equals the stepwise engine.
    """
    calls = []
    monkeypatch.setattr(experiment, "_round_step", _mutant_round_step("trial-bits-dropped", calls))
    for g in CROSS_GRAPHS.values():
        mech = shuffled_mechanism(g, 11)
        got, expected = _trial_survivors(g, mech, 20)
        assert got != expected
        calls.clear()
        config = random_config(g, 21)
        stepwise = settle_stepwise(init_experiment(g, mech, config, 100))
        batched = run_until_settled(init_experiment(g, mech, config, 100), max_steps=stepwise.t + 100)
        assert calls
        assert_fields_equal(settled_fields(batched), settled_fields(stepwise))


def test_range_order_mutation_fails_stepwise(monkeypatch):
    """Fresh vertices recorded in key order, not by their first arrival turn, break range_order only.

    The keys of a round are in vertex order, so the fault shows against
    settle_stepwise.  Everything else the kernel writes still equals the
    stepwise engine's, and settle_trials, which records no range, still
    gives the reference survivors.
    """
    monkeypatch.setattr(experiment, "_visit_first", _visit_in_key_order)
    order_differs = False
    for g in CROSS_GRAPHS.values():
        mech = shuffled_mechanism(g, 11)
        for config in (random_config(g, 21), min_weight_config(g, weight_table(g, mech, solve_harmonic(g)))):
            stepwise = settle_stepwise(init_experiment(g, mech, config, 100))
            batched = settled_fields(run_until_settled(init_experiment(g, mech, config, 100),
                                                       max_steps=stepwise.t + 100))
            stepwise = settled_fields(stepwise)
            order_differs |= not np.array_equal(batched.pop("range_order"), stepwise.pop("range_order"))
            assert_fields_equal(batched, stepwise)
        got, expected = _trial_survivors(g, mech, 20)
        assert got == expected
    assert order_differs


def test_uint64_keys_settle_as_the_narrow_ones(monkeypatch):
    """The round step on keys widened to uint64 reaches the narrow keys' end state.

    The key type is the narrowest unsigned type that holds the largest key;
    the cross tests cover uint8, uint16 and uint32 (checked here, see
    test_batched_settle_matches_stepwise).  uint64 keys need (V - 1)·2^b >=
    2^32, which no test graph reaches cheaply, so _key_layout is patched to
    widen the slot keys, and with them every particle key: a settle, an
    abort and a hooked resume, and settle_trials, must end as with narrow keys.
    """
    layout = experiment._key_layout
    for name, n, width in [("path(5)", 7, np.uint8), ("lattice(2,6)", 100, np.uint16),
                           ("lattice(3,3)", 1000, np.uint16), ("lattice(2,6)", 1000, np.uint32)]:
        g = EXACT_GRAPHS.get(name) or CROSS_GRAPHS[name]
        assert layout(g.num_vertices, default_mechanism(g), n, 1)[2].dtype == width

    g = CROSS_GRAPHS["lattice(2,6)"]
    mech = shuffled_mechanism(g, 11)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = random_config(g, 21)
    n = 100

    def settle_all():
        full = run_until_settled(init_experiment(g, mech, config, n))
        state = init_experiment(g, mech, config, n)
        with pytest.raises(AbortedMaxSteps) as exc:
            run_until_settled(state, max_steps=full.t // 2 + 7)
        aborted = settled_fields(state)
        invariants = []
        tracker = experiment.InvariantTracker(state, profile, wt, lambda st, moves: invariants.append(
            moves.invariant))
        run_until_settled(state, on_round=tracker.on_round)
        return ((settled_fields(full), aborted, settled_fields(state)),
                (str(exc.value), np.concatenate(invariants).tobytes(), _trial_survivors(g, mech, 20)[0]))

    narrow_fields, narrow = settle_all()
    widths = []
    step_ = experiment._round_step
    monkeypatch.setattr(experiment, "_key_layout",
                        lambda *args: (*layout(*args)[:2], layout(*args)[2].astype(np.uint64)))
    monkeypatch.setattr(experiment, "_round_step",
                        lambda key, *args: widths.append(key.dtype) or step_(key, *args))
    wide_fields, wide = settle_all()
    assert set(widths) == {np.dtype(np.uint64)}
    assert wide == narrow
    for got, want in zip(wide_fields, narrow_fields):
        assert_fields_equal(got, want)


@pytest.mark.parametrize("graph_name", EXACT_GRAPHS)
@pytest.mark.parametrize("config_kind", ["min", "random"])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_mid_round_resume_matches_stepwise(graph_name, config_kind, n):
    """From every resume point the kernel settles, aborts and reports moves as settle_stepwise does.

    Caps fall inside the partial round, at its end and past it; every value
    a tracker built at the resumed state returns is compute_invariant's
    after the same move of settle_stepwise.
    """
    g = EXACT_GRAPHS[graph_name]
    mech = shuffled_mechanism(g, 11)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = min_weight_config(g, wt) if config_kind == "min" else random_config(g, 21)
    for k in range(2 * n + 4) if n <= 7 else (1, 3, 37, 99, 100, 101, 150, 250):
        stepwise = _resumed(g, mech, config, n, k)
        start = stepwise.t
        expected = []
        settle_stepwise(stepwise, observer=lambda st: expected.append(
            (st.t - 1, st.last_event[0], compute_invariant(st, profile, wt))))

        state = _resumed(g, mech, config, n, k)
        got = []
        tracker = experiment.InvariantTracker(state, profile, wt, lambda st, moves: got.extend(
            zip(moves.t.tolist(), moves.mover.tolist(), moves.invariant.tolist())))
        run_until_settled(state, max_steps=stepwise.t + n, on_round=tracker.on_round)
        assert_fields_equal(settled_fields(state), settled_fields(stepwise))
        assert got == expected

        round_end = start - start % n + n
        for cap in {start + 1, start + n // 2 + 1, round_end - 1, round_end, round_end + 1,
                    round_end + n // 2 + 1, stepwise.t - 1}:
            aborted = []
            for settle in (run_until_settled, settle_stepwise):
                resumed = _resumed(g, mech, config, n, k)
                try:
                    settle(resumed, max_steps=max(cap, 1))
                    message = None
                except AbortedMaxSteps as exc:
                    message = str(exc)
                aborted.append((message, settled_fields(resumed)))
            assert aborted[0][0] == aborted[1][0]
            assert_fields_equal(aborted[0][1], aborted[1][1])


@pytest.mark.deadline(5)  # the any-order oracle gives no step count to cap the settle
@pytest.mark.parametrize("graph_name", EXACT_GRAPHS)
@pytest.mark.parametrize("mech_seed", [None, 11])
@pytest.mark.parametrize("config_kind", ["min", "random"])
def test_settled_state_does_not_depend_on_move_order(graph_name, mech_seed, config_kind):
    """Escapes, final rotors and departures from each vertex are the kernel's in any move order.

    Checked against particle-by-particle and uniformly random orders; steps
    depend on the order, so they are left out.
    """
    g = EXACT_GRAPHS[graph_name]
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    wt = weight_table(g, mech, solve_harmonic(g))
    config = min_weight_config(g, wt) if config_kind == "min" else random_config(g, 21)
    for n in (1, 7, 100):
        state = init_experiment(g, mech, config, n)
        sources = []
        run_until_settled(state, on_round=lambda movers, turns, source, *rest: sources.append(source))
        departures = np.bincount(np.concatenate(sources), minlength=g.num_vertices).tolist()
        for seed in (None, 5):
            expected = reference_settle_any_order(g, mech, config, n, seed)
            assert (state.survivors, state.rho.tolist(), departures) == expected


@pytest.mark.parametrize("calls", [1, 3])
def test_tracker_on_a_resumed_state_equals_compute_invariant(calls):
    """A tracker built after step() sees the partial round too: no false deviation."""
    g = build_lattice_ball(2, 6)
    mech = shuffled_mechanism(g, 11)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = random_config(g, 21)
    n = 100
    expected = []
    stepwise = settle_stepwise(_resumed(g, mech, config, n, calls),
                               observer=lambda st: expected.append(compute_invariant(st, profile, wt)))

    state = _resumed(g, mech, config, n, calls)
    got = []
    tracker = experiment.InvariantTracker(state, profile, wt, lambda st, moves: got.append(moves.invariant))
    run_until_settled(state, max_steps=stepwise.t + n, on_round=tracker.on_round)
    assert np.concatenate(got).tobytes() == np.array(expected).tobytes()
    assert tracker.finish() <= 1e-8 * tracker.target
