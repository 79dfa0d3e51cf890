"""
The n-particle escape experiment and its conserved quantity
===========================================================

Place n particles at the origin. At step t, particle (t+1) mod n acts: if it
has already returned to the origin or sits on a sink it does nothing;
otherwise the rotor at its vertex advances one position and the particle
follows the new rotor edge. The run settles once every particle has either
returned to the origin or been absorbed by a sink (absorption is escape).

Throughout the run, a single number stays exactly constant: the sum of the
particles' voltages, plus min(t, n) divided by the origin degree, plus the
net change in rotor weights over the visited region. Its conservation is
what pins the escape rate of the minimum-weight configuration to the
theoretical maximum.
"""
from rotorwalk import (
    InvariantTracker,
    ParticleStatus,
    build_lattice_ball,
    build_path,
    compute_invariant,
    default_mechanism,
    init_experiment,
    min_weight_config,
    run_until_settled,
    solve_harmonic,
    weight_table,
)

# Start small: the three-vertex path with two particles, rotors at their
# minimum-weight positions. Print every move, as an invariant tracker's
# observer sees it after each round.
g = build_path(3)
mech = default_mechanism(g)
profile = solve_harmonic(g)
wt = weight_table(g, mech, profile)
cfg = min_weight_config(g, wt)

st = init_experiment(g, mech, cfg, n=2)
positions = st.positions.tolist()
print("two particles on the three-vertex path")
print(f"  t={st.t}  positions={positions}  survivors={st.survivors}"
      f"  M={compute_invariant(st, profile, wt)}")


def print_moves(st, moves):
    for t, mover, target, survivors, m in zip(moves.t.tolist(), moves.mover.tolist(),
                                              moves.target.tolist(), moves.survivors.tolist(),
                                              moves.invariant.tolist()):
        positions[mover] = target
        print(f"  t={t + 1}  mover={mover}  positions={positions}"
              f"  survivors={survivors}  M={m}")


run_until_settled(st, on_round=InvariantTracker(st, profile, wt, observer=print_moves).on_round)
print("  statuses:", [ParticleStatus(s).name for s in st.status.tolist()])
print("  visited vertices:", sorted(g.labels[x] for x in st.range_order.tolist()))

# The invariant starts at n * voltage(origin) and never moves, so with the
# minimum-weight rotors the survivor fraction can never drop below
# alpha = 1/G(o) once every particle has had a turn. Watch the fraction
# settle on a truncated Z^3 ball as n grows.
g3 = build_lattice_ball(3, 6)
mech3 = default_mechanism(g3)
profile3 = solve_harmonic(g3)
wt3 = weight_table(g3, mech3, profile3)
cfg3 = min_weight_config(g3, wt3)
alpha = profile3.escape_probability

print(f"\nZ^3 ball R=6: alpha = {alpha:.6f}")
for n in (10, 100, 1000, 10000):
    st = init_experiment(g3, mech3, cfg3, n)
    run_until_settled(st)
    m = compute_invariant(st, profile3, wt3)
    drift = abs(m - n * profile3.voltage[0])
    print(f"  n = {n:5d}:  escaped {st.survivors:5d}  rate = {st.survivors / n:.6f}"
          f"  (rate - alpha = {st.survivors / n - alpha:+.6f},"
          f"  invariant drift = {drift:.2e},  {st.t} steps)")
