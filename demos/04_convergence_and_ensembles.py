"""
Escape-rate convergence, the two-sided squeeze, and random rotors
=================================================================

Three quantitative claims come out of the machinery in the first three demos:

1. With minimum-weight rotors the survivor fraction is at least alpha at
   every step from t = n on, so the settled rate sits above alpha.
2. No configuration beats alpha in the limit, so for large n every random
   configuration lands near alpha from above as well.
3. alpha itself is just the chance that a simple random walk never returns,
   so an independent coin-flip simulation must agree with the solver.

This script checks all three on a truncated Z^3 ball, then sets the rotor
walk on larger balls beside the escape probability of Z^3 itself.
"""
import math

from rotorwalk import (
    build_lattice_ball,
    default_mechanism,
    escape_sweep,
    min_weight_config,
    random_ensemble,
    solve_harmonic,
    srw_escape_mc,
    theorem_check,
    weight_table,
)
from rotorwalk.serialize import report_json

g = build_lattice_ball(3, 6)
mech = default_mechanism(g)
profile = solve_harmonic(g)
alpha = profile.escape_probability
print(f"Z^3 ball R=6: {g.num_vertices} vertices, alpha = {alpha:.6f}")

# Claim 1: theorem_check reads one escape_sweep with the invariant checked at
# every event.  Survivors never increase during a run, so the settled rate is
# the minimum of survivors/n over every t >= n and checking it at settle covers
# every step.  Whether the gaps shrink along the n list is only reported.
res = theorem_check(g, mech, [100, 1000, 10000])
print("\nper-step lower bound + invariant:",
      "pass" if res.ok else "FAIL")
for n, rate, gap in zip(res.n_values, res.rates, res.gaps):
    print(f"  n = {n:5d}:  rate = {rate:.6f}  gap = {gap:.6f}")
print(f"  max invariant deviation: {res.max_invariant_dev:.2e}")

# The same sweep as a machine-readable report (what the CLI writes).
wt = weight_table(g, mech, profile)
rep = escape_sweep(g, mech, min_weight_config(g, wt), [100, 1000, 10000],
                   profile=profile, check_invariant=True)
print("\nreport document:")
print(report_json(rep))

# Claim 2, empirically: escape rates of uniformly random configurations at
# n = 2000 cluster just above alpha.
summary = random_ensemble(g, mech, n=2000, trials=20, seed=0)
print(f"random configurations (20 trials, n = {summary.n}):")
print(f"  rates in [{summary.min_rate:.6f}, {summary.max_rate:.6f}],"
      f" mean = {summary.mean_rate:.6f} +- {summary.stderr:.6f}")
print(f"  fraction within {summary.eps} of alpha: {summary.frac_at_alpha:.2f}")

# Claim 3: direct simulation of the never-return event.
p_hat, se = srw_escape_mc(g, 100_000, seed=4)
z = abs(p_hat - alpha) / se
print(f"\nsimple-random-walk escape frequency: {p_hat:.4f} +- {se:.4f}"
      f"  ({z:.1f} standard errors from 1/G(o))")

# The paper's question is about Z^3 itself.  Simple random walk on Z^3
# escapes with probability p_inf = 1/G(0), where G(0) is Watson's integral,
# sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)
# (Glasser and Zucker's form).  On balls of growing radius r, alpha_r and the
# min-weight rate at n = 10^5 approach it.  A report only: the O(1/n)
# constant of the rate grows with r.
green0 = math.sqrt(6) / (32 * math.pi**3) * math.prod(math.gamma(k / 24) for k in (1, 5, 7, 11))
print("\nZ^3 balls, min-weight rotors at n = 100000, against p_inf = 1/G(0):")
print("   r  rate      alpha_r   p_inf")
for r in (10, 20, 30):
    ball = build_lattice_ball(3, r)
    sweep = escape_sweep(ball, default_mechanism(ball), None, [100_000])
    print(f"  {r:2d}  {sweep.rates[0]:.6f}  {sweep.alpha:.6f}  {1 / green0:.6f}")
