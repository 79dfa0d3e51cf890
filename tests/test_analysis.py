import numpy as np
import pytest

from rotorwalk import analysis, experiment
from rotorwalk.weights import WeightTable
from rotorwalk import (
    InvalidParameter,
    RotorConfig,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    default_mechanism,
    escape_sweep,
    init_experiment,
    load_edge_list,
    min_weight_config,
    random_config,
    random_ensemble,
    run_until_settled,
    shuffled_mechanism,
    solve_harmonic,
    srw_escape_mc,
    theorem_check,
    weight_table,
)

from oracles import random_edge_list, reference_sampled_invariants, reference_settle_any_order
from stepwise import settle_stepwise

# most tests here settle on the round kernel with no step cap, against
# results that give no step count: a kernel fault that leaves particles
# cycling fails them here instead of running for minutes (each passes in
# well under a second)
pytestmark = pytest.mark.deadline(5)


def test_escape_sweep_p3(p3_solved):
    g, mech, profile, wt = p3_solved
    cfg = min_weight_config(g, wt)
    rep = escape_sweep(g, mech, cfg, [2, 4, 8], check_invariant=True)
    assert rep.alpha == 0.5
    assert rep.rates == [0.5, 0.5, 0.5]
    assert rep.gaps == [0.0, 0.0, 0.0]
    assert rep.steps == [4, 8, 16]
    assert rep.max_invariant_dev == 0.0
    assert rep.config == "min-weight"
    assert rep.graph == "path(3)"
    assert escape_sweep(g, mech, None, [2, 4, 8], check_invariant=True) == rep


def test_escape_sweep_matches_direct_run(small_graph):
    g = small_graph
    mech = shuffled_mechanism(g, 3)
    cfg = random_config(g, 8)
    rep = escape_sweep(g, mech, cfg, [1, 3, 9], check_invariant=True)
    for n, rate, steps in zip(rep.n_values, rep.rates, rep.steps):
        state = init_experiment(g, mech, cfg, n)
        run_until_settled(state)
        assert rate == state.survivors / n
        assert steps == state.t
    assert all(0.0 <= r <= 1.0 for r in rep.rates)
    assert rep.max_invariant_dev <= 1e-10
    min_cfg = min_weight_config(g, weight_table(g, mech, solve_harmonic(g)))
    assert rep.config == "custom" or cfg == min_cfg

    # config None is the min-weight configuration, reported as such
    rep_none = escape_sweep(g, mech, None, [1, 3, 9], check_invariant=True)
    rep_min = escape_sweep(g, mech, min_cfg, [1, 3, 9], check_invariant=True)
    assert rep_none == rep_min
    assert rep_none.config == "min-weight"


def test_escape_sweep_transient_path():
    # one edge to the sink: every particle is absorbed immediately, any config
    g = build_path(2)
    mech = default_mechanism(g)
    wt = weight_table(g, mech, solve_harmonic(g))
    for cfg in (min_weight_config(g, wt), random_config(g, seed=9)):
        rep = escape_sweep(g, mech, cfg, [5])
        assert rep.alpha == 1.0
        assert rep.rates == [1.0]
        assert rep.gaps == [0.0]


def test_escape_sweep_input_validation(p3_solved):
    g, mech, _, wt = p3_solved
    cfg = min_weight_config(g, wt)
    with pytest.raises(InvalidParameter):
        escape_sweep(g, mech, cfg, [])
    with pytest.raises(InvalidParameter):
        escape_sweep(g, mech, cfg, [0, 2])


def test_srw_escape_mc_matches_alpha(small_graph):
    alpha = solve_harmonic(small_graph).escape_probability
    p, se = srw_escape_mc(small_graph, 40_000, seed=3)
    assert abs(p - alpha) <= 3 * max(se, 1e-12)


def test_srw_escape_mc_deterministic(p3):
    assert srw_escape_mc(p3, 5_000, seed=1) == srw_escape_mc(p3, 5_000, seed=1)


def test_srw_escape_mc_z3_ball():
    g = build_lattice_ball(3, 10)
    alpha = solve_harmonic(g).escape_probability
    p, se = srw_escape_mc(g, 100_000, seed=11)
    assert abs(p - alpha) <= 3 * se


def test_random_ensemble_summary(p3):
    mech = default_mechanism(p3)
    summary = random_ensemble(p3, mech, n=100, trials=20, seed=0)
    again = random_ensemble(p3, mech, n=100, trials=20, seed=0)
    assert summary == again
    assert summary.trials == 20
    assert all(0.0 <= r <= 1.0 for r in summary.rates)
    assert summary.min_rate <= summary.mean_rate <= summary.max_rate
    assert summary.stderr >= 0.0
    # on P3 every configuration is half-escaping at n=100 up to the
    # one-particle parity correction
    assert summary.max_rate <= summary.alpha + 1 / 100 + 1e-12


def test_random_ensemble_tree_reports_stderr():
    g = build_bary_tree(2, 4)
    summary = random_ensemble(g, default_mechanism(g), n=200, trials=10, seed=5)
    assert summary.stderr > 0.0 or summary.min_rate == summary.max_rate
    assert 0.0 <= summary.frac_at_alpha <= 1.0


def test_theorem_check_p3_exact(p3):
    res = theorem_check(p3, default_mechanism(p3), [2, 4, 8])
    assert res.ok
    assert res.alpha == 0.5
    assert res.rates == [0.5, 0.5, 0.5]
    assert res.max_invariant_dev == 0.0
    assert res.violations == []


def test_theorem_check_flags_bad_config(p3):
    # rotor at a parked on the sink edge: the first walker comes straight back
    mech = default_mechanism(p3)
    cfg = RotorConfig(pos=(0, 1, -1))
    n_values = [1, 2, 3, 4]
    res = theorem_check(p3, mech, n_values, config=cfg)
    assert not res.lower_bound_ok
    assert not res.ok
    first = next(v for v in res.violations if v.kind == "lower-bound")
    assert first.n == 1
    assert first.t == 2
    assert first.value == 0.0
    # the conserved quantity holds for every configuration, good or bad
    assert res.invariant_ok

    # one lower-bound violation per failing n, at that n's settle time
    rep = escape_sweep(p3, mech, cfg, n_values)
    failing = [n for n, rate in zip(n_values, rep.rates) if rate < rep.alpha - 1e-9]
    assert failing == [1, 3]
    for n in failing:
        found = [v for v in res.violations if v.kind == "lower-bound" and v.n == n]
        assert len(found) == 1
        assert found[0].t == rep.steps[n_values.index(n)]
        assert found[0].value == rep.rates[n_values.index(n)]
    assert all(v.n in failing for v in res.violations if v.kind == "lower-bound")


def test_theorem_check_warns_on_a_corrupted_table(p3_solved):
    """One weight moved by 0.125, as verify's corrupted-weights control does: the
    conserved quantity drifts, and theorem_check both records it and warns."""
    g, mech, profile, wt = p3_solved
    bad = wt.values.copy()
    bad[int(wt.indptr[1])] += 0.125
    with pytest.warns(RuntimeWarning, match=r"^conserved quantity deviated beyond 1e-08$"):
        res = theorem_check(g, mech, [1, 2, 4], profile=profile, wt=WeightTable(bad, wt.indptr))
    assert not res.invariant_ok
    assert [v.kind for v in res.violations if v.kind == "invariant"] == ["invariant"]


def _weight_max_config(g, wt):
    return RotorConfig(pos=tuple(
        -1 if g.is_sink[x] else int(np.argmax(wt.vertex_slice(x)))
        for x in range(g.num_vertices)
    ))


@pytest.mark.parametrize("g", [build_path(3), build_lattice_ball(2, 3)], ids=lambda g: g.describe())
@pytest.mark.parametrize("config_kind", ["min-weight", "random", "weight-max"])
def test_survivors_never_increase(g, config_kind):
    """What checking the lower bound at settle rests on: survivors only go down,
    so min over t >= n of survivors/n is the settled rate."""
    mech = default_mechanism(g)
    wt = weight_table(g, mech, solve_harmonic(g))
    cfg = {
        "min-weight": min_weight_config(g, wt),
        "random": random_config(g, 4),
        "weight-max": _weight_max_config(g, wt),
    }[config_kind]
    n_values = list(range(1, 21))
    rep = escape_sweep(g, mech, cfg, n_values)
    for n, settled_rate in zip(n_values, rep.rates):
        state = init_experiment(g, mech, cfg, n)
        history = [(0, n)]  # (t, survivors) after every move
        settle_stepwise(state, observer=lambda st, _: history.append((st.t, st.survivors)))
        counts = [s for _, s in history]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        # survivors are constant between moves: the value at t = n is the
        # last one recorded at or before n
        at_n = [s for t, s in history if t <= n][-1]
        later = [s for t, s in history if t > n]
        assert min([at_n] + later) / n == state.survivors / n == settled_rate


def test_theorem_check_transient_fixture():
    g = build_bary_tree(2, 5)
    res = theorem_check(g, default_mechanism(g), [10, 100, 1000])
    assert res.ok
    assert res.lower_bound_ok and res.gaps_monotone_ok
    assert all(gap >= -1e-9 for gap in res.gaps)


def test_theorem_check_z3_ball():
    g = build_lattice_ball(3, 6)
    res = theorem_check(g, default_mechanism(g), [100, 1000, 10000])
    assert res.ok
    assert not res.violations
    assert res.gaps[-1] <= 0.02


def test_theorem_check_records_gap_regression():
    # tiny n values on a path wiggle around alpha; the checker must flag
    # any increase rather than hide it
    g = build_path(4)
    res = theorem_check(g, default_mechanism(g), [1, 2, 3, 4, 5, 6])
    if not res.gaps_monotone_ok:
        assert any(v.kind == "gap-increase" for v in res.violations)
    assert res.max_invariant_dev <= 1e-10


def test_theorem_check_ok_ignores_a_rising_gap():
    # min-weight on path(5): the gap rises from 0 at n = 4 to 0.15 at n = 5,
    # while the lower bound and the invariant, the guarantees, both hold
    g = build_path(5)
    res = theorem_check(g, default_mechanism(g), [4, 5])
    assert res.gaps[0] == 0.0 and res.gaps[1] > 0.1
    assert not res.gaps_monotone_ok
    assert [v.kind for v in res.violations] == ["gap-increase"]
    assert res.lower_bound_ok and res.invariant_ok
    assert res.ok


@pytest.mark.parametrize("seed", range(60))
def test_theorem_on_irregular_graphs(seed):
    """The guarantees off lattices and trees: seeded random connected graphs with
    irregular degrees and one to three sinks, under the default and a shuffled mechanism.

    The lower bound and the invariant hold, the conserved quantity stays within
    1e-9 relative under min-weight and a random configuration, and the kernel
    settles to the escapes and rotors of particle-by-particle and random move orders,
    and to the escape curve of one particle-by-particle pass at each n.
    """
    g = load_edge_list(*random_edge_list(seed))
    profile = solve_harmonic(g)
    n_values = [1, 7, 40]
    for mech in (default_mechanism(g), shuffled_mechanism(g, seed)):
        wt = weight_table(g, mech, profile)
        res = theorem_check(g, mech, n_values, profile=profile, wt=wt)
        assert res.ok, res.violations
        for config in (min_weight_config(g, wt), random_config(g, seed)):
            rep = escape_sweep(g, mech, config, n_values, profile=profile, wt=wt,
                               check_invariant=True)
            assert rep.max_invariant_dev <= 1e-9 * max(1.0, profile.voltage[g.origin])
            # particle by particle, each prefix of k stopped particles is the k-particle settle
            curve = reference_settle_any_order(g, mech, config, max(n_values), None)[3]
            for n in n_values:
                state = init_experiment(g, mech, config, n)
                run_until_settled(state)
                assert state.survivors == curve[n - 1]
                for order_seed in (None, seed):
                    escapes, rho, _, _ = reference_settle_any_order(g, mech, config, n, order_seed)
                    assert (state.survivors, state.rho.tolist()) == (escapes, rho)


def test_ensemble_input_validation(p3):
    with pytest.raises(InvalidParameter):
        random_ensemble(p3, default_mechanism(p3), n=10, trials=0, seed=0)
    with pytest.raises(InvalidParameter):
        srw_escape_mc(p3, 0, seed=0)


@pytest.mark.parametrize("g", [build_lattice_ball(2, 5), build_bary_tree(3, 4),
                               build_lattice_ball(3, 4), build_path(5)],
                         ids=lambda g: g.describe())
@pytest.mark.parametrize("mech_seed", [None, 11])
@pytest.mark.parametrize("config_kind", ["min", "random"])
def test_sampled_invariant_follows_the_stepwise_rule(monkeypatch, g, mech_seed, config_kind):
    """Above the per-move budget the kernel checks the moves the stepwise tracker sampled."""
    monkeypatch.setattr(experiment, "_EVENT_CHECK_BUDGET", 0)
    checked = []

    class Recorded(experiment.InvariantTracker):
        def _evaluate(self, movers, turns, source, target, moved_terms, cols, first, stop, out):
            super()._evaluate(movers, turns, source, target, moved_terms, cols, first, stop, out)
            checked.extend(zip((turns[first:stop] + 1).tolist(), out.tolist()))

    monkeypatch.setattr(analysis, "InvariantTracker", Recorded)
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    config = min_weight_config(g, wt) if config_kind == "min" else random_config(g, 21)

    for n in [1, 7, 50, 500]:
        checked.clear()
        samples = reference_sampled_invariants(
            init_experiment(g, mech, config, n), profile, wt,
            lambda st, observe: settle_stepwise(st, observer=lambda s, _: observe(s)),
        )
        rep = escape_sweep(g, mech, config, [n], profile=profile, check_invariant=True,
                           max_steps=samples[-1][0] + n)
        assert checked == samples[1:-1]
        target = float(n * profile.voltage[g.origin])
        assert rep.max_invariant_dev == max(abs(value - target) for _, value in samples)


@pytest.mark.parametrize("observed, check_invariant", [(False, True), (True, False), (True, True)])
def test_checked_sweeps_settle_on_the_round_kernel(monkeypatch, observed, check_invariant):
    """compute_invariant runs only at t=0 and at the end of each run."""
    calls = 0
    compute_invariant = experiment.compute_invariant

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return compute_invariant(*args, **kwargs)

    monkeypatch.setattr(experiment, "compute_invariant", counted)
    g = build_lattice_ball(2, 5)
    rounds = []
    n_values = [1, 7, 50]
    rep = escape_sweep(g, shuffled_mechanism(g, 11), None, n_values, check_invariant=check_invariant,
                       observer=(lambda st, moves: rounds.append(moves)) if observed else None)
    assert calls <= 2 * len(n_values)
    assert bool(rounds) == observed
    assert (rep.max_invariant_dev is not None) == check_invariant


def test_observed_sweep_evaluates_every_move_above_the_budget(monkeypatch):
    """An observer gets every move's value even above the per-move budget, to the same bits."""
    g = build_lattice_ball(2, 5)
    mech = shuffled_mechanism(g, 11)

    def observed_sweep():
        rounds = []
        rep = escape_sweep(g, mech, random_config(g, 21), [1, 7, 50], check_invariant=True,
                           observer=lambda st, moves: rounds.append(moves))
        return rep.max_invariant_dev, rounds

    dev, rounds = observed_sweep()
    monkeypatch.setattr(experiment, "_EVENT_CHECK_BUDGET", 0)
    sampled_dev, sampled_rounds = observed_sweep()
    assert all(moves.invariant.size == moves.t.size > 0 for moves in sampled_rounds)
    assert len(sampled_rounds) == len(rounds)
    for got, want in zip(sampled_rounds, rounds):
        assert got.invariant.tobytes() == want.invariant.tobytes()
    assert sampled_dev == dev
