"""The float engine against exact rationals on small graphs.

tests/oracles.py solves the voltage and evaluates the weight definition in
fractions.Fraction, so the min-weight choice, its tie count and the escape
lower bound are checked here with no tolerance.
"""
import pytest

from oracles import exact_voltage, exact_weights
from rotorwalk import (
    build_bary_tree,
    build_lattice_ball,
    build_path,
    count_min_weight_ties,
    default_mechanism,
    init_experiment,
    min_weight_config,
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
}


@pytest.fixture(scope="module", params=list(GRAPHS))
def solved(request):
    """A graph, its float solve and its exact voltage, each computed once per module."""
    g = GRAPHS[request.param]()
    return g, solve_harmonic(g), exact_voltage(g)


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

    # alpha = 1/G(o), G(o) = deg(o) v(o): survivors/n >= alpha as integers times a rational
    green_o = g.degree(g.origin) * v[g.origin]
    for n in range(1, 101):
        state = init_experiment(g, mech, config, n)
        run_until_settled(state)
        assert state.survivors * green_o >= n, f"n={n}"
