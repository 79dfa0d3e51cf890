"""The float engine against exact rationals on small graphs.

tests/oracles.py solves the voltage and evaluates the weight definition in
fractions.Fraction, so the min-weight choice, its tie count, the escape
lower bound and the conserved quantity are checked here with no tolerance,
on lattice balls, a path, a tree and seeded random edge lists.
"""
from fractions import Fraction

import pytest

from oracles import (
    exact_voltage,
    exact_weights,
    random_edge_list,
    reference_invariant,
    reference_settle_any_order,
)
from stepwise import settle_stepwise
from rotorwalk import (
    build_bary_tree,
    build_lattice_ball,
    build_path,
    count_min_weight_ties,
    default_mechanism,
    init_experiment,
    load_edge_list,
    min_weight_config,
    random_config,
    run_until_settled,
    shuffled_mechanism,
    solve_harmonic,
    weight_table,
)

GRAPHS = {
    "path(7)": lambda: build_path(7),
    "tree(2,4)": lambda: build_bary_tree(2, 4),
    "lattice(2,3)": lambda: build_lattice_ball(2, 3),
    "lattice(2,4)": lambda: build_lattice_ball(2, 4),
    "lattice(3,3)": lambda: build_lattice_ball(3, 3),
    # irregular degrees, several sinks, sink edges that repeat
    **{f"random-edge-list({seed})": lambda seed=seed: load_edge_list(*random_edge_list(seed))
       for seed in range(12)},
}


@pytest.fixture(scope="module", params=list(GRAPHS))
def solved(request):
    """A graph, its float solve and its exact voltage, each computed once per module."""
    g = GRAPHS[request.param]()
    return g, solve_harmonic(g), exact_voltage(g)


@pytest.mark.deadline(5)  # an uncapped settle per n: a cycling kernel fails here, not hangs
@pytest.mark.parametrize("mech_seed", [None, 3, 11], ids=["default", "shuffled3", "shuffled11"])
def test_min_weight_config_and_lower_bound_hold_exactly(solved, mech_seed):
    g, profile, v = solved
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    wt = weight_table(g, mech, profile)
    exact = exact_weights(g, mech, v)
    config = min_weight_config(g, wt)

    ties = 0
    for x in range(g.num_vertices):
        if g.is_sink[x]:
            continue
        low = min(exact[x])
        assert exact[x][int(config.pos[x])] == low, f"not an exact minimizer at {g.labels[x]}"
        ties += exact[x].count(low) > 1
    assert count_min_weight_ties(g, wt) == ties

    # alpha = 1/G(o), G(o) = deg(o) v(o): I_n/n >= alpha as integers times a rational, at
    # every n <= 1000 from one particle-by-particle pass, whose k-th escape count is the
    # k-particle settle's; the kernel's settles meet that curve
    green_o = g.degree(g.origin) * v[g.origin]
    curve = reference_settle_any_order(g, mech, config, 1000, None)[3]
    assert len(curve) == 1000
    for n, escapes in enumerate(curve, 1):
        assert escapes * green_o >= n, f"n={n}"
    for n in (1, 2, 7, 50, 100):
        state = init_experiment(g, mech, config, n)
        run_until_settled(state)
        assert state.survivors == curve[n - 1], f"n={n}"


@pytest.mark.parametrize("mech_seed", [None, 3], ids=["default", "shuffled3"])
@pytest.mark.parametrize("config_seed", [None, 5], ids=["min-weight", "random5"])
def test_conserved_quantity_is_exact_after_every_move(solved, mech_seed, config_seed):
    """sum v(positions) + min(t, n)/deg(o) + sum over the visited live x of
    w(rho(x)) - w(rho0(x)) equals n v(o) exactly, before and after every move."""
    g, profile, v = solved
    mech = default_mechanism(g) if mech_seed is None else shuffled_mechanism(g, mech_seed)
    exact = exact_weights(g, mech, v)
    if config_seed is None:
        config = min_weight_config(g, weight_table(g, mech, profile))
    else:
        config = random_config(g, config_seed)

    for n in (1, 7, 20):
        def check(state, event=None):
            value = reference_invariant(
                g, v, lambda x, i: exact[x][i], state.positions, state.rho, state.rho0,
                state.range_order.tolist(), state.t, n,
            )
            assert value == n * v[g.origin], f"n={n} t={state.t}"

        state = init_experiment(g, mech, config, n)
        check(state)
        settle_stepwise(state, observer=check)
        assert state.settled


def test_tree_voltage_by_level_exactly():
    """On tree(b, h) a unit current from the root splits evenly, so the voltage at
    level l is the resistance sum_{j>l} b^-j down to the leaves, (b^-l - b^-h)/(b - 1)."""
    checked = 0
    for b in range(2, 6):
        for h in range(1, 9):
            level_starts = [(b**level - 1) // (b - 1) for level in range(h + 2)]
            if level_starts[-1] > 400:
                continue
            by_id = [(Fraction(1, b**level) - Fraction(1, b**h)) / (b - 1)
                     for level in range(h + 1)
                     for _ in range(level_starts[level], level_starts[level + 1])]
            g = build_bary_tree(b, h)
            assert exact_voltage(g) == [by_id[int(label)] for label in g.labels], g.describe()
            checked += 1
    assert checked == 19
