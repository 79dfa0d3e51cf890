"""
Edge weights and the minimum-weight rotor configuration
=======================================================

Every non-sink vertex carries a rotor that cycles through its outgoing edges
in a fixed order. Which edge each rotor points at initially determines the
whole deterministic evolution, and some initial configurations let more
particles escape than others.

Each directed edge gets a real weight built from the voltages of the vertices
its rotor cycle visits. Pointing every rotor at a minimum-weight edge yields
a configuration whose escape rate meets the theoretical maximum. This script
computes the weights, verifies the two identities they satisfy, and builds
that minimizing configuration.
"""
from rotorwalk import (
    build_path,
    count_min_weight_ties,
    default_mechanism,
    load_edge_list,
    min_weight_config,
    solve_harmonic,
    weight_table,
)
from rotorwalk.serialize import config_csv, weights_csv

g = build_path(3)
mech = default_mechanism(g)
profile = solve_harmonic(g)
wt = weight_table(g, mech, profile)

print("three-vertex path, default rotor order")
print(weights_csv(g, mech, wt))

# Identity 1: advancing a rotor changes the weight by the voltage balance
# that the conservation proof needs. Check it at every edge of the table.
worst = 0.0
for x in range(g.num_vertices):
    if g.is_sink[x]:
        continue
    d = g.degree(x)
    nbr_mean = sum(profile.voltage[y] for y in g.adjacency[x]) / d
    row = wt.vertex_slice(x)
    for i in range(d):
        lhs = row[(i + 1) % d] - row[i]
        nxt = mech.order[x][(i + 1) % d]
        rhs = -profile.voltage[nxt] + nbr_mean
        worst = max(worst, abs(lhs - rhs))
print("max increment-identity defect:", worst)

# Identity 2: the weights around each vertex sum to a fixed multiple of its
# neighbours' voltages, sum_i w(x, i) = -(deg(x) - 1)/2 * sum_{y~x} v(y).
# (The increments around a vertex sum to zero for any table, so that sum
# would check nothing.)
for x in range(g.num_vertices):
    if g.is_sink[x]:
        continue
    row_sum = sum(wt.vertex_slice(x))
    expected = -(g.degree(x) - 1) / 2 * sum(profile.voltage[y] for y in g.adjacency[x])
    print(f"weight row sum at {g.labels[x]}: {row_sum} (identity gives {expected})")

# The minimizing configuration picks, at each vertex, the smallest-weight
# edge (lowest rotor index on ties). On the path that means the middle
# vertex points back at the origin.
cfg = min_weight_config(g, wt)
print("\nminimum-weight configuration")
print(config_csv(g, cfg))
print("tie-break events:", count_min_weight_ties(g, wt))

# A star whose leaves are all sinks has voltage zero everywhere except the
# hub, so all its edge weights tie at zero and the tie-break keeps index 0.
star = load_edge_list("o l0\no l1\no l2\no l3", "o", {"l0", "l1", "l2", "l3"})
swt = weight_table(star, default_mechanism(star), solve_harmonic(star))
scfg = min_weight_config(star, swt)
print("star with sink leaves: rotor index at hub =", scfg.pos[0])
print("tie-break events:", count_min_weight_ties(star, swt))
