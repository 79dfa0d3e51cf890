"""Acceptance suite: the eight headline guarantees, each printing one line.

Each test prints `[k/8] <what was checked>: PASS|FAIL (<measured detail>)`
straight to the terminal (bypassing capture) and then asserts.  Tolerances
are fixed here and nowhere else; the inputs are the standard fixture set:
the three-vertex path, lattice balls of Z^1/Z^2/Z^3, and binary trees.
"""
import time

import pytest

from rotorwalk import (
    build_bary_tree,
    build_lattice_ball,
    build_path,
    default_mechanism,
    escape_sweep,
    init_experiment,
    compute_invariant,
    mc_green,
    min_weight_config,
    random_config,
    run_until_settled,
    shuffled_mechanism,
    solve_harmonic,
    srw_escape_mc,
    step,
    theorem_check,
    weight_table,
)

MC_SEED = 20250815


def _emit(capsys, k, text, ok, detail):
    with capsys.disabled():
        print(f"\n[{k}/8] {text}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{text}: {detail}"


def small_fixtures():
    return [
        build_path(3),
        build_path(4),
        build_lattice_ball(1, 2),
        build_lattice_ball(2, 2),
        build_bary_tree(2, 2),
    ]


def all_fixtures():
    return small_fixtures() + [
        build_lattice_ball(2, 5),
        build_lattice_ball(3, 6),
        build_lattice_ball(3, 10),
        build_bary_tree(2, 6),
    ]


def test_1_conserved_quantity_constant(capsys):
    """Max relative drift of the conserved quantity across randomized cases."""
    budget_s = 120.0
    tol = 1e-8
    t0 = time.perf_counter()
    cases = 0
    worst = 0.0

    for g in small_fixtures():
        profile = solve_harmonic(g)
        # the target value n*v(origin) is smallest at n=1; dividing the
        # absolute drift by that is conservative for every n in the sweep
        scale = float(profile.voltage[g.origin])
        mechs = [default_mechanism(g)] + [shuffled_mechanism(g, s) for s in range(10)]
        for mech in mechs:
            wt = weight_table(g, mech, profile)
            configs = [min_weight_config(g, wt)]
            configs += [random_config(g, s) for s in range(10)]
            for config in configs:
                rep = escape_sweep(
                    g, mech, config, [1, 2, 7, 50],
                    profile=profile, check_invariant=True,
                )
                worst = max(worst, rep.max_invariant_dev / scale)
                cases += len(rep.n_values)

    elapsed = time.perf_counter() - t0
    ok = worst <= tol and cases >= 200 and elapsed <= budget_s
    _emit(capsys, 1, "conserved quantity constant",
          ok, f"{cases} cases, max relative drift {worst:.2e}, {elapsed:.1f}s")


def test_2_min_config_lower_bound(capsys):
    """survivors/n >= alpha - 1e-9 at every step t >= n for the minimizer."""
    budget_s = 60.0
    t0 = time.perf_counter()
    graphs = [
        build_path(3),
        build_lattice_ball(3, 6),
        build_lattice_ball(3, 10),
        build_bary_tree(2, 6),
    ]
    ok = True
    detail = []
    for g in graphs:
        res = theorem_check(g, default_mechanism(g), [10, 100, 1000])
        if not (res.lower_bound_ok and res.invariant_ok):
            ok = False
            first = res.violations[0]
            detail.append(f"{g.describe()} violates at n={first.n} t={first.t}")
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        ok = False
    detail.append(f"{elapsed:.1f}s")
    _emit(capsys, 2, "escaped fraction never below its floor", ok, ", ".join(detail))


def test_3_gap_closes_with_more_particles(capsys):
    """Gap to alpha nonnegative, non-increasing, and small by n = 10^4."""
    budget_s = 300.0
    t0 = time.perf_counter()
    ok = True
    details = []
    for g in (build_lattice_ball(3, 6), build_bary_tree(2, 6)):
        profile = solve_harmonic(g)
        mech = default_mechanism(g)
        wt = weight_table(g, mech, profile)
        rep = escape_sweep(
            g, mech, min_weight_config(g, wt), [100, 1000, 10000], profile=profile
        )
        gaps = rep.gaps
        if not all(gap >= -1e-12 for gap in gaps):
            ok = False
        if not all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])):
            ok = False
        if gaps[-1] > 0.02:
            ok = False
        details.append(f"{g.describe()} gaps " + "/".join(f"{gap:.5f}" for gap in gaps))
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        ok = False
    details.append(f"{elapsed:.1f}s")
    _emit(capsys, 3, "escape rate converges to alpha from above", ok, ", ".join(details))


def test_4_three_vertex_path_exact(capsys):
    """Hand-checked fixture: every number exact, not approximate."""
    g = build_path(3)
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    wt = weight_table(g, mech, profile)
    cfg = min_weight_config(g, wt)

    ok = profile.escape_probability == 0.5
    ok = ok and wt.values.tolist() == [0.0, -1.0, 0.0]
    ok = ok and mech.order[1][cfg.pos[1]] == 0

    for k in range(1, 9):
        state = init_experiment(g, mech, cfg, 2 * k)
        run_until_settled(state)
        ok = ok and state.survivors * 2 == 2 * k

    state = init_experiment(g, mech, cfg, 2)
    ok = ok and compute_invariant(state, profile, wt) == 4.0
    while not state.settled:
        step(state)
        ok = ok and compute_invariant(state, profile, wt) == 4.0

    _emit(capsys, 4, "three-vertex path matches hand computation", ok,
          "alpha, weights, minimizer, rates and conserved quantity all exact")


def test_5_harmonic_solver_and_monte_carlo(capsys):
    """Residuals at solver precision; Monte Carlo agrees within 3 sigma."""
    walks = 100_000
    worst_res = 0.0
    worst_z = 0.0
    ok = True
    for g in all_fixtures():
        profile = solve_harmonic(g)
        worst_res = max(worst_res, profile.residual)

        est = mc_green(g, walks, MC_SEED)
        live = [x for x in range(g.num_vertices) if not g.is_sink[x]]
        probes = sorted({live[0], live[len(live) // 3], live[-1], g.origin})
        for x in probes:
            diff = abs(est.visits[x] - profile.green[x])
            if est.stderr[x] == 0.0:
                ok = ok and diff == 0.0
            else:
                worst_z = max(worst_z, diff / est.stderr[x])

        p, se = srw_escape_mc(g, walks, MC_SEED)
        worst_z = max(worst_z, abs(p - profile.escape_probability) / max(se, 1e-12))

    ok = ok and worst_res <= 1e-12 and worst_z <= 3.0
    _emit(capsys, 5, "harmonic solver exact and Monte Carlo consistent", ok,
          f"max residual {worst_res:.2e}, worst z-score {worst_z:.2f} at {walks} walks")


def test_6_weight_identities(capsys):
    """Advance increment identity on every edge, row-sum identity of every table row."""
    tol = 1e-12
    worst_inc = 0.0
    worst_row = 0.0
    for g in all_fixtures():
        profile = solve_harmonic(g)
        v = profile.voltage
        for mech in (default_mechanism(g), shuffled_mechanism(g, 0), shuffled_mechanism(g, 1)):
            wt = weight_table(g, mech, profile)
            for x in range(g.num_vertices):
                if g.is_sink[x]:
                    continue
                order = mech.order[x]
                d = len(order)
                nbr_sum = sum(float(v[y]) for y in order)
                mean = nbr_sum / d
                row = wt.vertex_slice(x)
                for i in range(d):
                    inc = float(row[(i + 1) % d] - row[i])
                    expected = -float(v[order[(i + 1) % d]]) + mean
                    worst_inc = max(worst_inc, abs(inc - expected))
                # sum_i w(x, i) = -(deg(x) - 1)/2 * sum_{y~x} v(y)
                worst_row = max(worst_row, abs(float(sum(row)) + (d - 1) / 2 * nbr_sum))
    ok = worst_inc <= tol and worst_row <= tol
    _emit(capsys, 6, "edge-weight identities hold on every edge", ok,
          f"max increment dev {worst_inc:.2e}, max row-sum dev {worst_row:.2e}")


def test_7_random_configs_stay_near_alpha(capsys):
    """Upper-side sanity at n = 10^4: reported, only range errors fail."""
    g = build_lattice_ball(3, 6)
    mech = default_mechanism(g)
    profile = solve_harmonic(g)
    alpha = profile.escape_probability
    n = 10_000

    ok = True
    over = []
    worst = 0.0
    for seed in range(50):
        state = init_experiment(g, mech, random_config(g, seed), n)
        run_until_settled(state)
        rate = state.survivors / n
        ok = ok and 0.0 <= rate <= 1.0
        worst = max(worst, rate - alpha)
        if rate > alpha + 0.05:
            over.append(seed)

    detail = f"50 configs, worst rate-alpha {worst:+.5f}"
    if over:
        detail += f", above alpha+0.05 for seeds {over} (reported, not failed)"
    _emit(capsys, 7, "random configurations stay near alpha at large n", ok, detail)


def test_8_recurrent_truncations_escape_less(capsys):
    """alpha of Z^1/Z^2 balls strictly decreases as the radius grows."""
    ok = True
    details = []
    for d in (1, 2):
        alphas = [
            solve_harmonic(build_lattice_ball(d, r)).escape_probability
            for r in (5, 10, 20)
        ]
        ok = ok and alphas[0] > alphas[1] > alphas[2]
        details.append("Z^%d %.4f>%.4f>%.4f" % (d, *alphas))
    _emit(capsys, 8, "escape probability shrinks with truncation radius", ok,
          ", ".join(details))
