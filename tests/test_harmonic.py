import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rotorwalk.harmonic as harmonic
from rotorwalk import (
    AbortedMaxSteps,
    DimensionMismatch,
    InvalidParameter,
    NonConvergence,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    mc_green,
    residual,
    solve_harmonic,
    srw_escape_mc,
)

from oracles import dense_green, reference_mc_green, reference_srw_escape_mc


def test_p3_exact_values(p3):
    profile = solve_harmonic(p3)
    assert profile.voltage == pytest.approx([2.0, 1.0, 0.0], abs=1e-14)
    assert profile.green == pytest.approx([2.0, 2.0, 0.0], abs=1e-14)
    assert profile.escape_probability == pytest.approx(0.5, abs=1e-14)
    assert profile.residual <= 1e-12


def test_path_closed_form():
    # walk on 0..k-1 absorbed at k-1: G(origin) = k-1; k=2 escapes immediately
    for k in (2, 3, 5, 9):
        profile = solve_harmonic(build_path(k))
        assert profile.green[0] == pytest.approx(k - 1, rel=1e-13)
        assert profile.escape_probability == pytest.approx(1 / (k - 1), rel=1e-13)


def test_interval_closed_form():
    # symmetric interval of Z truncated at distance R+1: escape prob 1/(R+1)
    for r in (2, 5, 10):
        profile = solve_harmonic(build_lattice_ball(1, r))
        assert profile.escape_probability == pytest.approx(1 / (r + 1), rel=1e-13)


def test_z3_truncation_monotone():
    # growing the ball only adds return routes: G_R(o) up, alpha_R down
    greens = []
    alphas = []
    for r in (2, 4, 6, 8, 10):
        profile = solve_harmonic(build_lattice_ball(3, r))
        greens.append(float(profile.green[0]))
        alphas.append(profile.escape_probability)
    assert greens == sorted(greens)
    assert alphas == sorted(alphas, reverse=True)


def test_z3_large_ball_escape_near_limit():
    # radius-20 ball: escape probability close to the infinite-lattice
    # value (about 0.66), cross-checked by direct simulation
    g = build_lattice_ball(3, 20)
    alpha = solve_harmonic(g).escape_probability
    assert 0.6 < alpha < 0.7
    p, se = srw_escape_mc(g, 100_000, seed=7)
    assert abs(p - alpha) <= 3 * se


def test_tree_closed_form():
    # below the root of tree(b, h) the depth is a biased walk, down with
    # probability b/(b+1) and up with 1/(b+1); gambler's ruin from depth 1
    # to the leaves at depth h before the root gives (b-1) / (b (1 - b^-h)).
    # A unit current from the root splits evenly, so the voltage at level l
    # is the resistance sum_{j>l} b^-j down to the leaves, (b^-l - b^-h)/(b-1)
    for b in range(2, 6):
        for h in range(1, 9):
            if (b ** (h + 1) - 1) // (b - 1) > 10**5:
                continue
            g = build_bary_tree(b, h)
            profile = solve_harmonic(g)
            alpha = profile.escape_probability
            assert alpha == pytest.approx((b - 1) / (b * (1 - b**-h)), rel=1e-14, abs=0)
            ids = [int(label) for label in g.labels]
            level = np.searchsorted(np.cumsum(b ** np.arange(h + 1)), ids, side="right")
            voltage = (b ** (h - level) - 1) / ((b - 1) * b**h)  # integers below 2^53
            assert profile.voltage == pytest.approx(voltage, rel=1e-14, abs=0)


def test_z3_ball_extrapolates_to_watson():
    # Watson's integral: the simple random walk on Z^3 has Green's function
    # G(0) = sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)
    # at the origin, and escapes forever with probability 1/G(0); a least
    # squares fit a + b/(r+1) + c/(r+1)^2 to the balls' alpha extrapolates it
    green = (math.sqrt(6) / (32 * math.pi**3)
             * math.prod(math.gamma(k / 24) for k in (1, 5, 7, 11)))
    radii = np.array([10, 15, 20, 25, 30])
    alphas = [solve_harmonic(build_lattice_ball(3, int(r))).escape_probability for r in radii]
    x = 1.0 / (radii + 1)
    (a, _, _), *_ = np.linalg.lstsq(np.stack([np.ones_like(x), x, x**2], axis=1), alphas, rcond=None)
    assert abs(a - 1 / green) <= 5e-5


def test_matches_dense_oracle(small_graph):
    profile = solve_harmonic(small_graph)
    green, voltage, alpha = dense_green(small_graph)
    assert profile.green == pytest.approx(green, rel=1e-11, abs=1e-11)
    assert profile.voltage == pytest.approx(voltage, rel=1e-11, abs=1e-11)
    assert profile.escape_probability == pytest.approx(alpha, rel=1e-11)


def test_matches_dense_oracle_large():
    for g in (build_lattice_ball(3, 4), build_bary_tree(3, 4)):
        profile = solve_harmonic(g)
        green, voltage, alpha = dense_green(g)
        assert profile.green == pytest.approx(green, rel=1e-10, abs=1e-10)
        assert profile.escape_probability == pytest.approx(alpha, rel=1e-10)


def test_voltages_nonnegative_zero_on_sinks(small_graph):
    profile = solve_harmonic(small_graph)
    assert np.all(profile.voltage >= 0)
    for s in small_graph.sinks:
        assert profile.voltage[s] == 0.0


def test_residual_of_perturbed_profile(p3):
    v = np.array([2.0, 1.1, 0.0])
    assert residual(p3, v) == pytest.approx(0.1, abs=1e-14)
    assert residual(p3, np.zeros(3)) == pytest.approx(1.0, abs=1e-14)


def test_residual_rejects_bad_shape(p3):
    with pytest.raises(DimensionMismatch):
        residual(p3, np.zeros(5))


def test_solver_parameter_validation(p3):
    with pytest.raises(InvalidParameter):
        solve_harmonic(p3, tol=0.0)
    with pytest.raises(NonConvergence):
        solve_harmonic(build_lattice_ball(2, 4), tol=1e-30)


def test_stalled_solve_stops_on_its_residual(monkeypatch):
    """Below reach of rounding, the solve gives up a check or so after the residual stops
    improving; without that rule it would go on until the recurrence underflows, about
    70 checks here, or to the iteration cap of 10 per vertex."""
    calls = []

    def counting_residual(g, profile):
        calls.append(1)
        return residual(g, profile)

    monkeypatch.setattr(harmonic, "residual", counting_residual)
    with pytest.raises(NonConvergence):
        solve_harmonic(build_lattice_ball(3, 12), tol=1e-30)
    assert 0 < len(calls) <= 20


def test_import_path_has_no_scipy():
    """Importing the package and solving, running or verifying, load no scipy,
    numpy.ma, multiprocessing or concurrent.futures module."""
    # a solve, and a shuffled run that meets fresh range vertices in its
    # settle, after importing every layer module the benchmark imports
    calls = {
        "solve": "rotorwalk.solve_harmonic(rotorwalk.build_lattice_ball(3, 6))\n",
        "run": (
            "from rotorwalk import analysis, cli, experiment, graphs, harmonic, serialize, verify, weights\n"
            "assert cli.main(['run', '--lattice', '3', '6', '--n', '50',"
            " '--mechanism', 'shuffled', '--seed-mech', '1']) == 0\n"
        ),
        # a verify forks its Monte Carlo check without a process pool
        "verify": (
            "from rotorwalk import cli\n"
            "assert cli.main(['verify', '--quick']) == 0\n"
        ),
    }
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, call in calls.items():
        code = (
            "import sys, rotorwalk\n" + call
            + "print(sorted(m for m in sys.modules if m.split('.')[0] in"
            " ('scipy', 'multiprocessing', 'concurrent') or m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == "[]", name


def test_profile_arrays_frozen(p3):
    profile = solve_harmonic(p3)
    with pytest.raises(ValueError):
        profile.voltage[0] = 3.0


def test_mc_green_agrees_with_solver(p3):
    profile = solve_harmonic(p3)
    est = mc_green(p3, 40_000, seed=5)
    for x in range(p3.num_vertices):
        diff = abs(est.visits[x] - profile.green[x])
        assert diff <= 3 * max(est.stderr[x], 1e-12) or diff == 0.0


def test_mc_green_deterministic(p3):
    a = mc_green(p3, 2_000, seed=9)
    b = mc_green(p3, 2_000, seed=9)
    assert np.array_equal(a.visits, b.visits)
    assert np.array_equal(a.stderr, b.stderr)
    c = mc_green(p3, 2_000, seed=10)
    assert not np.array_equal(a.visits, c.visits)


def test_mc_green_single_walk(p3):
    est = mc_green(p3, 1, seed=0)
    assert est.walks == 1
    assert np.all(est.stderr == 0.0)
    assert est.visits[p3.origin] >= 1


def test_mc_green_input_validation(p3):
    with pytest.raises(InvalidParameter):
        mc_green(p3, 0, seed=0)
    with pytest.raises(AbortedMaxSteps):
        mc_green(build_path(6), 32, seed=0, max_steps=2)


MC_GRAPHS = [build_path(5), build_lattice_ball(2, 5), build_lattice_ball(3, 6), build_bary_tree(2, 6)]


@functools.cache
def _reference_loops(graph_index, walks):
    g = MC_GRAPHS[graph_index]
    return reference_mc_green(g, walks, 20240801), reference_srw_escape_mc(g, walks, 20240801)


@pytest.mark.parametrize("draw_block", [None, 1], ids=["draw-block", "tiny-draw-block"])
@pytest.mark.parametrize("group", [1, 2, 3, None], ids=["1-chunk", "2-chunks", "3-chunks", "default"])
@pytest.mark.parametrize("gi", range(len(MC_GRAPHS)), ids=[g.describe() for g in MC_GRAPHS])
@pytest.mark.parametrize("walks", [1, 511, 513, 4097, 20_000])
def test_walk_kernel_matches_reference_loops(monkeypatch, gi, walks, group, draw_block):
    """Both estimators on the shared step kernel equal their old per-step loops, bit for bit.

    mc_green advances `group` chunks of walks together (by default as many
    as _WALK_CELLS holds); with a tiny _DRAW_BLOCK a stream's row holds one
    chunk of draws, so it runs out between steps and refills, keeping what
    it had left, while other streams go on reading theirs.
    """
    g = MC_GRAPHS[gi]
    if group is not None:
        monkeypatch.setattr(harmonic, "_WALK_CELLS", group * harmonic._MC_CHUNK * g.num_vertices)
    if draw_block is not None:
        monkeypatch.setattr(harmonic, "_DRAW_BLOCK", draw_block)
    (visits, stderr), escape = _reference_loops(gi, walks)
    est = mc_green(g, walks, seed=20240801)
    assert np.array_equal(est.visits, visits)
    assert np.array_equal(est.stderr, stderr)
    assert srw_escape_mc(g, walks, seed=20240801) == escape


def test_mc_green_memory_stays_bounded():
    """Grouped chunks hold one count array of _WALK_CELLS int64 cells, not one per walk."""
    g = build_lattice_ball(2, 5)
    tracemalloc.start()
    try:
        mc_green(g, 100_000, seed=20240801)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * harmonic._WALK_CELLS * 8


def test_walks_ending_on_the_last_allowed_step_do_not_abort():
    """The cap aborts only walks still running after max_steps, for both estimators."""
    g = build_path(2)  # every walk steps onto the sink at once
    assert srw_escape_mc(g, 10, 0, max_steps=1) == (1.0, 0.0)
    assert mc_green(g, 10, 0, max_steps=1).visits[g.origin] == 1.0
    with pytest.raises(AbortedMaxSteps):
        srw_escape_mc(build_path(6), 32, 0, max_steps=2)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_walk_cap_below_one_is_a_usage_error(max_steps):
    """As in run_until_settled, a cap below one step is an InvalidParameter, not an abort."""
    g = build_path(2)
    with pytest.raises(InvalidParameter, match="max_steps must be >= 1"):
        mc_green(g, 10, 0, max_steps=max_steps)
    with pytest.raises(InvalidParameter, match="max_steps must be >= 1"):
        srw_escape_mc(g, 10, 0, max_steps=max_steps)


def test_largest_uniform_never_picks_past_the_last_edge():
    """Why the walk kernel needs no clamp: u <= 1 - 2**-53 keeps floor(u * d) <= d - 1."""
    u = np.nextafter(1.0, 0.0)
    d = np.concatenate((np.arange(1, 1 << 20), (1 << 52) - np.arange(1, 1 << 10)))
    assert u == 1 - 2.0**-53
    assert np.all((u * d.astype(np.float64)).astype(np.int64) <= d - 1)
