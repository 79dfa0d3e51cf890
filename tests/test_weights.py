import numpy as np
import pytest

from rotorwalk import (
    DimensionMismatch,
    InvalidParameter,
    RotorConfig,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    check_config,
    count_min_weight_ties,
    default_mechanism,
    load_edge_list,
    min_weight_config,
    random_config,
    shuffled_mechanism,
    solve_harmonic,
    weight_table,
)

from rotorwalk.rng import philox_generator
from rotorwalk.weights import TIE_TOL, WeightTable, _near_min_scan

from oracles import dense_green, reference_edge_weight, reference_weight_increment


def table_increment(wt, x, i):
    """Weight change in the table when the rotor at x advances off position i."""
    row = wt.vertex_slice(x)
    return row[(i + 1) % row.size] - row[i]


def star(leaves: int):
    """Origin at the hub, every leaf a sink; all edge weights tie at 0."""
    lines = "\n".join(f"o l{k}" for k in range(leaves))
    return load_edge_list(lines, "o", [f"l{k}" for k in range(leaves)])


def test_p3_frozen_weights(p3_solved):
    g, mech, profile, wt = p3_solved
    assert wt.vertex_slice(0)[0] == 0.0    # o -> a
    assert wt.vertex_slice(1)[0] == -1.0   # a -> o
    assert wt.vertex_slice(1)[1] == 0.0    # a -> sink
    cfg = min_weight_config(g, wt)
    assert cfg.pos.tolist() == [0, 0, -1]
    assert mech.order[1][cfg.pos[1]] == 0  # rotor at a points home
    assert count_min_weight_ties(g, wt) == 0


def test_p3_frozen_increments(p3_solved):
    g, mech, profile, wt = p3_solved
    for x, i, expected in ((1, 0, 1.0), (1, 1, -1.0), (0, 0, 0.0)):
        assert table_increment(wt, x, i) == pytest.approx(expected, abs=1e-14)
        assert reference_weight_increment(g, mech, profile.voltage, x, i) == pytest.approx(
            expected, abs=1e-14
        )


def test_table_matches_edge_weight(small_graph):
    profile = solve_harmonic(small_graph)
    for mech in (default_mechanism(small_graph), shuffled_mechanism(small_graph, 3)):
        wt = weight_table(small_graph, mech, profile)
        for x in range(small_graph.num_vertices):
            if small_graph.is_sink[x]:
                continue
            for i in range(small_graph.degree(x)):
                assert wt.vertex_slice(x)[i] == pytest.approx(
                    reference_edge_weight(small_graph, mech, profile.voltage, x, i), abs=1e-13
                )


def test_edge_weight_matches_reference(small_graph):
    # same numbers out of an independently solved voltage and a plain loop
    _, voltage, _ = dense_green(small_graph)
    mech = shuffled_mechanism(small_graph, 17)
    wt = weight_table(small_graph, mech, solve_harmonic(small_graph))
    for x in range(small_graph.num_vertices):
        if small_graph.is_sink[x]:
            continue
        for i in range(small_graph.degree(x)):
            assert wt.vertex_slice(x)[i] == pytest.approx(
                reference_edge_weight(small_graph, mech, voltage, x, i), abs=1e-11
            )


def test_increment_identity(small_graph):
    # advancing off position i changes the weight by
    # -v(new target) + mean of v over the neighbors
    profile = solve_harmonic(small_graph)
    v = profile.voltage
    mech = shuffled_mechanism(small_graph, 23)
    wt = weight_table(small_graph, mech, profile)
    for x in range(small_graph.num_vertices):
        if small_graph.is_sink[x]:
            continue
        order = mech.order[x]
        d = len(order)
        mean = sum(v[y] for y in order) / d
        for i in range(d):
            expected = -v[order[(i + 1) % d]] + mean
            assert table_increment(wt, x, i) == pytest.approx(expected, abs=1e-12)
            assert table_increment(wt, x, i) == pytest.approx(
                reference_weight_increment(small_graph, mech, v, x, i), abs=1e-12
            )


def row_sum_devs(g, profile, wt):
    """|sum_i w(x, i) + (deg(x) - 1)/2 * sum of v over the neighbours of x| per live x."""
    v = profile.voltage
    return [
        abs(sum(wt.vertex_slice(x)) + (g.degree(x) - 1) / 2 * sum(v[y] for y in g.adjacency[x]))
        for x in range(g.num_vertices)
        if not g.is_sink[x]
    ]


def test_full_orbit_telescopes_to_zero(small_graph):
    """Row sums of weight_table: sum_i w(x, i) = -(deg(x) - 1)/2 * sum_{y~x} v(y).

    Not the cyclic sum of the increments around x, which telescopes to zero
    for any table; the row sum catches one weight moved by 0.125.
    """
    profile = solve_harmonic(small_graph)
    for mech in (default_mechanism(small_graph), shuffled_mechanism(small_graph, 3)):
        wt = weight_table(small_graph, mech, profile)
        assert max(row_sum_devs(small_graph, profile, wt)) <= 1e-12

        bad = wt.values.copy()
        bad[int(wt.indptr[small_graph.origin])] += 0.125
        corrupted = WeightTable(values=bad, indptr=wt.indptr)
        assert max(row_sum_devs(small_graph, profile, corrupted)) == pytest.approx(0.125)


def test_star_all_ties_resolve_to_index_zero():
    g = star(4)
    mech = default_mechanism(g)
    wt = weight_table(g, mech, solve_harmonic(g))
    assert np.allclose(wt.vertex_slice(g.origin), 0.0, atol=1e-15)
    assert count_min_weight_ties(g, wt) == 1
    assert min_weight_config(g, wt).pos[g.origin] == 0


def _reference_near_min_scan(g, wt):
    """Row by row: the first index within TIE_TOL of the row's minimum (the entry count
    if none, as with NaN weights; -1 at sinks), and the rows with several such indices."""
    first, ties = [], 0
    for x in range(g.num_vertices):
        row = wt.vertex_slice(x)
        near = [i for i, w in enumerate(row.tolist()) if w <= row.min(initial=np.inf) + TIE_TOL]
        first.append(-1 if g.is_sink[x] or not row.size else near[0] if near else wt.values.size)
        ties += not g.is_sink[x] and len(near) > 1
    return first, ties


@pytest.mark.parametrize("g", [build_lattice_ball(2, 50), build_bary_tree(3, 4), star(4)],
                         ids=lambda g: g.describe())
def test_near_min_scan_equals_row_loop(g):
    """lattice(2,50) has 5,101 live rows of degree 4, more than one weight_table block.
    Rounded weights tie in many rows; a NaN row has no near-minimal entry."""
    mech = shuffled_mechanism(g, 5)
    wt = weight_table(g, mech, solve_harmonic(g))
    rounded = WeightTable(values=np.round(wt.values, 2), indptr=wt.indptr)
    with_nan = wt.values.copy()
    with_nan[wt.indptr[g.origin]:wt.indptr[g.origin + 1]] = np.nan
    for table in (wt, rounded, WeightTable(values=with_nan, indptr=wt.indptr)):
        first, ties = _reference_near_min_scan(g, table)
        pos, count = _near_min_scan(g, table)
        assert pos.dtype == np.int64
        assert (pos.tolist(), count) == (first, ties)
        assert min_weight_config(g, table).pos.tolist() == first
        assert count_min_weight_ties(g, table) == ties
    assert _reference_near_min_scan(g, rounded)[1] > 0


def test_min_config_is_argmin(small_graph):
    profile = solve_harmonic(small_graph)
    for seed in (1, 2):
        mech = shuffled_mechanism(small_graph, seed)
        wt = weight_table(small_graph, mech, profile)
        cfg = min_weight_config(small_graph, wt)
        for x in range(small_graph.num_vertices):
            if small_graph.is_sink[x]:
                assert cfg.pos[x] == -1
            else:
                ws = wt.vertex_slice(x)
                assert ws[cfg.pos[x]] <= ws.min() + 1e-12


def test_random_config_bounds_and_determinism(small_graph):
    a = random_config(small_graph, 42)
    b = random_config(small_graph, 42)
    assert a == b
    check_config(small_graph, a)
    seen_different = any(
        random_config(small_graph, s) != a for s in range(10, 16)
    )
    assert seen_different


@pytest.mark.parametrize("g", [build_path(6), build_lattice_ball(2, 5), build_bary_tree(3, 4)],
                         ids=lambda g: g.describe())
def test_random_config_matches_scalar_draws(g):
    """The one vectorized draw equals one scalar draw per non-sink vertex in id order."""
    for seed in range(20):
        rng = philox_generator(seed)
        pos = [-1 if g.is_sink[x] else int(rng.integers(0, g.degree(x)))
               for x in range(g.num_vertices)]
        assert random_config(g, seed).pos.tolist() == pos


@pytest.mark.parametrize("seed, stream", [(-1, 0), (1 << 128, 0), (0, -1), (0, 1 << 128)])
def test_philox_rejects_seeds_and_streams_outside_128_bits(seed, stream):
    """A seed or stream the 128-bit key or counter cannot hold is an error, not an alias
    of the value it would be masked to."""
    with pytest.raises(InvalidParameter, match=r"must be in \[0, 2\^128\)"):
        philox_generator(seed, stream)


def test_philox_takes_both_128_bit_boundaries():
    """Seed and stream 0 and 2^128 - 1 give four different streams, each reproducible."""
    top = (1 << 128) - 1
    pairs = [(0, 0), (top, 0), (0, top), (top, top)]
    draws = [philox_generator(seed, stream).random(4).tobytes() for seed, stream in pairs]
    assert len(set(draws)) == 4
    assert [philox_generator(seed, stream).random(4).tobytes() for seed, stream in pairs] == draws


def test_random_config_uniform_marginal(p3):
    # vertex a has degree 2; its rotor index should be a fair coin across seeds
    hits = sum(random_config(p3, seed=k).pos[1] == 0 for k in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_weights_invariant_under_relabeling():
    # same structure, different labels, different discovery order; per-vertex
    # neighbor order is preserved so the mechanisms match up
    g1 = load_edge_list("o a\no b\na s", "o", {"s"})
    g2 = load_edge_list("A O\nA S\nO B", "O", {"S"})
    wt1 = weight_table(g1, default_mechanism(g1), solve_harmonic(g1))
    wt2 = weight_table(g2, default_mechanism(g2), solve_harmonic(g2))
    for lbl1, lbl2 in (("o", "O"), ("a", "A"), ("b", "B")):
        x1 = g1.label_to_id[lbl1]
        x2 = g2.label_to_id[lbl2]
        for i in range(g1.degree(x1)):
            assert wt2.vertex_slice(x2)[i] == pytest.approx(wt1.vertex_slice(x1)[i], abs=1e-12)


def test_check_config_rejections(p3):
    with pytest.raises(DimensionMismatch):
        check_config(p3, RotorConfig(pos=(0, 0)))
    with pytest.raises(DimensionMismatch):
        check_config(p3, RotorConfig(pos=(0, 2, -1)))
    with pytest.raises(DimensionMismatch):
        check_config(p3, RotorConfig(pos=(0, 0, 0)))
    # several failing vertices: the lowest id is named, with its own message
    with pytest.raises(DimensionMismatch, match="^rotor index 2 out of range at 1"):
        check_config(p3, RotorConfig(pos=(0, 2, 0)))
    with pytest.raises(DimensionMismatch, match=r"^rotor index 1\.5 out of range at 0"):
        check_config(p3, RotorConfig(pos=(1.5, 2, 0)))
    with pytest.raises(DimensionMismatch, match=f"^rotor index {2**70} out of range at 1"):
        check_config(p3, RotorConfig(pos=(0, 2**70, 0)))
    # entries that are not whole numbers fail as out-of-range indices, lowest vertex first
    with pytest.raises(DimensionMismatch, match=r"^rotor index 0\.5 out of range at 0"):
        check_config(p3, RotorConfig(pos=(0.5, 1.7, -1)))
    with pytest.raises(DimensionMismatch, match=r"^rotor index 1\.7 out of range at 1"):
        check_config(p3, RotorConfig(pos=(0, 1.7, -1)))
    with pytest.raises(DimensionMismatch, match="^rotor index x out of range at 1"):
        check_config(p3, RotorConfig(pos=(0, "x", -1)))
    with pytest.raises(DimensionMismatch, match="^rotor index nan out of range at 1"):
        check_config(p3, RotorConfig(pos=(0, float("nan"), -1)))
    with pytest.raises(DimensionMismatch, match="^config must be one-dimensional"):
        check_config(p3, RotorConfig(pos=[[0], [1], [-1]]))
    check_config(p3, RotorConfig(pos=(0, 1.0, -1)))
    h = load_edge_list("s o\no a\na t", "o", ["s", "t"])  # ids s=0, o=1, a=2, t=3
    with pytest.raises(DimensionMismatch, match="^sink s must carry rotor index -1"):
        check_config(h, RotorConfig(pos=(0, 0, 5, 0)))
    check_config(h, RotorConfig(pos=(-1, 0, 1, -1)))


def test_config_pos_is_a_read_only_copy():
    given = [0, 1, -1]
    cfg = RotorConfig(pos=given)
    assert isinstance(cfg.pos, np.ndarray) and cfg.pos.ndim == 1
    with pytest.raises(ValueError):
        cfg.pos[0] = 1
    given[0] = 1
    array = np.array([0, 1, -1])
    from_array = RotorConfig(pos=array)
    array[0] = 1
    assert cfg.pos.tolist() == from_array.pos.tolist() == [0, 1, -1]


def test_config_equality():
    assert RotorConfig(pos=(0, 1, -1)) == RotorConfig(pos=np.array([0, 1, -1]))
    assert RotorConfig(pos=(0, 1, -1)) != RotorConfig(pos=(0, 0, -1))
    assert RotorConfig(pos=(0, 1, -1)) != RotorConfig(pos=(0, 1))
    assert RotorConfig(pos=(0, 1, -1)) != (0, 1, -1)


def test_weight_table_rejects_mismatched_profile(p3_solved):
    g, mech, _, _ = p3_solved
    other = solve_harmonic(build_path(5))
    with pytest.raises(DimensionMismatch):
        weight_table(g, mech, other)


def test_package_exports():
    """Every exported name resolves; the removed scalar weight path is gone."""
    import rotorwalk

    for name in rotorwalk.__all__:
        assert hasattr(rotorwalk, name), name
    for name in ("edge_weight", "weight_increment", "IndexOutOfRange", "SinkHasNoRotor"):
        assert not hasattr(rotorwalk, name), name
    assert not hasattr(WeightTable, "at")
