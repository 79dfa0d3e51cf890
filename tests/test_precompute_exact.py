"""The vectorized precompute path equals today's scalar loops exactly.

Graph build, validation and the weight table are numpy code over CSR
arrays; `oracles` keeps the per-vertex loops they replaced.  Every
comparison is exact: CSR arrays and weights by np.array_equal (weights with
the sign bit), labels and derived tuple views by ==, error messages by
string.  The one exception is the harmonic solve, refereed by a sparse LU
of the scalar-loop Dirichlet system: voltages to 1e-13 relative, and the
integer answers built on them exactly.
"""
import random
import tracemalloc

import numpy as np
import pytest

from rotorwalk import (
    Graph,
    GraphInvalid,
    RotorMechanism,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    check_graph,
    check_mechanism,
    count_min_weight_ties,
    default_mechanism,
    load_edge_list,
    min_weight_config,
    shuffled_mechanism,
    solve_harmonic,
    weight_table,
)

from oracles import (
    graph_from_rows,
    random_edge_list,
    reference_bary_tree,
    reference_check_graph,
    reference_check_mechanism,
    reference_default_mechanism,
    reference_graph_from_edges,
    reference_lattice_ball,
    reference_path,
    reference_shuffled_mechanism,
    reference_solve,
    reference_weight_table,
)
from test_experiment import EXACT_GRAPHS

# string labels; right-out and left-far are repeated sink edges
EDGE_LIST = "hub left\nleft right\nright hub\nleft out\nright out\nhub out\nout right\nleft far\nfar left\n"
EDGE_LIST_SINKS = ("out", "far")


def _edge_list_reference(text, origin, sinks):
    ids: dict[str, int] = {}
    edges = [tuple(ids.setdefault(tok, len(ids)) for tok in line.split())
             for line in text.splitlines()]
    return reference_graph_from_edges(
        edges, ids[origin], {ids[s] for s in sinks}, list(ids), name="edge-list"
    )


CASES = {
    "path(2)": (lambda: build_path(2), lambda: reference_path(2)),
    "path(9)": (lambda: build_path(9), lambda: reference_path(9)),
    **{
        f"lattice({d},{r})": (lambda d=d, r=r: build_lattice_ball(d, r),
                              lambda d=d, r=r: reference_lattice_ball(d, r))
        # lattice(2,50): 5,101 live rows of degree 4, more than one weight_table block
        for d, r in [(d, r) for d in (1, 2, 3, 4) for r in (1, 3, 5)] + [(5, 3), (2, 40), (2, 50), (3, 22)]
    },
    "tree(2,6)": (lambda: build_bary_tree(2, 6), lambda: reference_bary_tree(2, 6)),
    "tree(3,8)": (lambda: build_bary_tree(3, 8), lambda: reference_bary_tree(3, 8)),
    "edge-list": (lambda: load_edge_list(EDGE_LIST, "hub", EDGE_LIST_SINKS),
                  lambda: _edge_list_reference(EDGE_LIST, "hub", EDGE_LIST_SINKS)),
    # irregular degrees: most runs of equal consecutive degree have length 1
    **{
        f"random-edge-list({seed})": (lambda seed=seed: load_edge_list(*random_edge_list(seed)),
                                      lambda seed=seed: _edge_list_reference(*random_edge_list(seed)))
        for seed in range(8)
    },
}


@pytest.fixture(scope="module", params=list(CASES), ids=list(CASES))
def graph(request):
    return CASES[request.param][0]()


@pytest.mark.parametrize("name", list(CASES))
def test_builders_equal_scalar_loops(name):
    build, reference = CASES[name]
    g, ref = build(), reference()
    for attr in ("adj_indptr", "adj_flat"):
        got, want = getattr(g, attr), getattr(ref, attr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), attr
    assert (g.origin, g.sinks, g.labels, g.name) == (ref.origin, ref.sinks, ref.labels, ref.name)
    # the derived view holds the reference's rows, entry for entry
    rows = [g.adj_flat[a:b].tolist() for a, b in zip(g.adj_indptr[:-1], g.adj_indptr[1:])]
    assert g.adjacency == tuple(map(tuple, rows)) == ref.adjacency


@pytest.mark.parametrize("seed", [None, 0, 3, 11, 2**64 + 5],
                         ids=["default", "s0", "s3", "s11", "s2^64+5"])
def test_mechanisms_equal_scalar_loops(graph, seed):
    if seed is None:
        mech, ref = default_mechanism(graph), reference_default_mechanism(graph)
    else:
        mech, ref = shuffled_mechanism(graph, seed), reference_shuffled_mechanism(graph, seed)
    for attr in ("indptr", "flat"):
        got, want = getattr(mech, attr), getattr(ref, attr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), attr
    assert mech.order == ref.order
    assert mech.name == ref.name


SOLVE_GRAPHS = {**{name: build() for name, (build, _) in CASES.items()}, **EXACT_GRAPHS}


@pytest.mark.parametrize("name", list(SOLVE_GRAPHS))
def test_solve_matches_sparse_lu_reference(name):
    """Voltages within 1e-13 * max|v| of splu's, and the same min-weight rotors and tie counts."""
    g = SOLVE_GRAPHS[name]
    profile, ref = solve_harmonic(g), reference_solve(g)
    assert np.abs(profile.voltage - ref.voltage).max() <= 1e-13 * np.abs(ref.voltage).max()
    for seed in (None, 0, 3, 11):
        mech = default_mechanism(g) if seed is None else shuffled_mechanism(g, seed)
        wt, ref_wt = weight_table(g, mech, profile), weight_table(g, mech, ref)
        assert min_weight_config(g, wt) == min_weight_config(g, ref_wt)
        assert count_min_weight_ties(g, wt) == count_min_weight_ties(g, ref_wt)


@pytest.mark.parametrize("seed", [None, 0, 3, 11], ids=["default", "s0", "s3", "s11"])
def test_weight_table_equals_per_edge_dot(graph, seed):
    mech = default_mechanism(graph) if seed is None else shuffled_mechanism(graph, seed)
    profile = solve_harmonic(graph)
    got = weight_table(graph, mech, profile).values
    want = reference_weight_table(mech, profile.voltage)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _message(check, g):
    try:
        check(g)
    except GraphInvalid as exc:
        return str(exc)
    return None


def _graph(adjacency, sinks, origin=0):
    return graph_from_rows(adjacency, origin, sinks, [f"v{x}" for x in range(len(adjacency))])


# every graph holds two or more faults, and the lowest failing vertex (and,
# within it, the first failing neighbour) decides; 4 is the sink unless noted
MULTI_FAULT = {
    "empty row before a self-loop": (
        [(1, 4), (0, 2), (), (3, 4), (0, 3)], {4}, "vertex v2 has no edges"),
    "self-loop before an empty row": (
        [(1, 4), (1, 0, 2), (1,), (), (0,)], {4}, "self-loop at vertex v1"),
    "negative id before a too-large one": (
        [(1, 4), (0, -1, 2), (1, 7), (4,), (0, 3)], {4},
        "neighbor id -1 out of range at v1"),
    "negative id whose key collides with the row above": (
        [(1,), (0, 2), (1, 3), (2, 4), (3, -1, 9)], {2},
        "neighbor id -1 out of range at v4"),
    "too-large id before a duplicate": (
        [(1, 4), (0, 5, 2, 2), (1, 1, 4), (4,), (0, 2, 3)], {4},
        "neighbor id 5 out of range at v1"),
    "duplicate before a self-loop": (
        [(1, 1, 4), (0, 0, 2), (1, 2), (4,), (0, 3)], {4},
        "duplicate edge between non-sink vertices v0 and v1"),
    "first distinct neighbour decides within a row": (
        [(4, 1, 9, 1), (0, 0, 2), (1, 4), (4,), (0, 2, 3)], {4},
        "duplicate edge between non-sink vertices v0 and v1"),
    "asymmetric sink multiplicity before a one-way edge": (
        [(1, 4, 4), (0, 2, 3), (1, 4), (4,), (0, 2, 3)], {4},
        "asymmetric adjacency between v0 and v4"),
    "one-way edge named at the lower vertex": (
        [(1, 4), (0, 3), (4,), (2,), (0, 2)], {4},
        "asymmetric adjacency between v1 and v3"),
    "disconnected with two unreachable vertices": (
        [(4,), (4,), (3,), (2,), (0, 1)], {4, 3},
        "graph is disconnected (vertex v2 unreachable)"),
    "three components, the lowest unreachable vertex named": (
        [(3,), (5,), (4,), (0, 6), (2,), (1,), (3,)], {6},
        "graph is disconnected (vertex v1 unreachable)"),
}


@pytest.mark.parametrize("name", list(MULTI_FAULT), ids=list(MULTI_FAULT))
def test_check_graph_message_parity(name):
    adjacency, sinks, message = MULTI_FAULT[name]
    g = _graph(adjacency, sinks)
    assert _message(reference_check_graph, g) == message
    with pytest.raises(GraphInvalid) as exc:
        check_graph(g)
    assert str(exc.value) == message


def _disjoint_union(a, b, origin_in_b, rng):
    """Two valid graphs side by side under shuffled ids: valid but for connectivity."""
    n = a.num_vertices + b.num_vertices
    new_id = rng.sample(range(n), n)
    rows, labels = [None] * n, [None] * n
    for shift, tag, part in ((0, "a", a), (a.num_vertices, "b", b)):
        for x, adj in enumerate(part.adjacency):
            rows[new_id[shift + x]] = [new_id[shift + y] for y in adj]
            labels[new_id[shift + x]] = f"{tag}{part.labels[x]}"
    sinks = {new_id[s] for s in a.sinks} | {new_id[a.num_vertices + s] for s in b.sinks}
    origin = new_id[a.num_vertices + b.origin] if origin_in_b else new_id[a.origin]
    return graph_from_rows(rows, origin, sinks, labels)


def test_check_graph_matches_scalar_loop_on_random_corruptions():
    """Seeded edits of valid graphs; both checks must raise the same message or both pass.

    Then seeded disjoint unions of a lattice ball and a tree or path, the
    origin in either part: both must name the same lowest unreachable vertex.
    """
    rng = random.Random(5)
    bases = [build_path(5), build_lattice_ball(2, 2), build_bary_tree(2, 3),
             load_edge_list(EDGE_LIST, "hub", EDGE_LIST_SINKS),
             load_edge_list("s o\no a\na b\nb s\nb o", "o", ["s"])]  # last id live
    raised = 0
    for _ in range(1500):
        base = rng.choice(bases)
        n = base.num_vertices
        adj = [list(a) for a in base.adjacency]
        for _ in range(rng.randint(1, 3)):
            x = rng.randrange(n)
            kind = rng.randrange(5)
            if kind == 0:
                adj[x] = []
            elif kind == 1 and adj[x]:
                del adj[x][rng.randrange(len(adj[x]))]
            elif kind == 2:
                adj[x].insert(rng.randint(0, len(adj[x])), rng.randrange(-2, n + 2))
            elif kind == 3 and adj[x]:
                adj[x].append(rng.choice(adj[x]))
            else:
                rng.shuffle(adj[x])
        g = graph_from_rows(adj, base.origin, base.sinks, base.labels)
        want = _message(reference_check_graph, g)
        assert _message(check_graph, g) == want, adj
        raised += want is not None
    assert raised > 1000
    for k in range(60):
        other = rng.choice([build_bary_tree(2, rng.randint(1, 3)), build_path(rng.randint(2, 7))])
        g = _disjoint_union(build_lattice_ball(2, rng.randint(1, 3)), other, k % 2, rng)
        want = _message(reference_check_graph, g)
        assert want.startswith("graph is disconnected")
        assert _message(check_graph, g) == want


@pytest.fixture(scope="module", params=[65_535, 65_536], ids=["V=65535", "V=65536"])
def long_path(request):
    """A path on each side of the validation keys' switch from uint32 to uint64."""
    g = build_path(request.param)
    assert np.min_scalar_type(g.num_vertices**2) == (np.uint32 if g.num_vertices < 65_536 else np.uint64)
    return g


def _with_entry(g, index, value):
    """g with adjacency entry index set to value."""
    flat = g.adj_flat.copy()
    flat[index] = value
    return Graph(g.adj_indptr, flat, g.origin, g.sinks, g.labels)


def test_check_graph_on_both_sides_of_the_key_type_switch(long_path):
    """Faults at the highest ids, whose keys are the largest, name the reference's fault."""
    g, v = long_path, long_path.num_vertices  # build_path has run check_graph on it
    last = int(g.adj_indptr[v - 2])  # the last live row: v-3, then the sink v-1
    corrupted = {
        "one-way edge": _with_entry(g, last, v - 1),
        "self-loop": _with_entry(g, last, v - 2),
        "id out of range": _with_entry(g, last + 1, v),
        "live duplicate": _with_entry(g, int(g.adj_indptr[v - 3]), v - 2),  # v-3 lists v-2 twice
    }
    for name, bad in corrupted.items():
        want = _message(reference_check_graph, bad)
        assert want is not None, name
        assert _message(check_graph, bad) == want, name


def test_check_mechanism_on_both_sides_of_the_key_type_switch(long_path):
    g, v = long_path, long_path.num_vertices
    mech = default_mechanism(g)
    check_mechanism(g, mech)
    check_mechanism(g, shuffled_mechanism(g, 3))
    last = int(mech.indptr[v - 2])  # the last live row: v-3, then the sink v-1

    def edited(value, offset=0):
        flat = mech.flat.copy()
        flat[last + offset] = value
        return RotorMechanism(mech.indptr, flat)

    swapped = mech.flat.copy()
    swapped[[last, last + 1]] = swapped[[last + 1, last]]
    check_mechanism(g, RotorMechanism(mech.indptr, swapped))
    corrupted = {
        "sink twice": edited(v - 1),
        "id out of range": edited(v, offset=1),
        "negative id": edited(-1, offset=1),
        "sink row not empty": RotorMechanism(np.append(mech.indptr[:-1], last + 3),
                                             np.append(mech.flat, v - 2)),
    }
    for name, bad in corrupted.items():
        want = _message(lambda m: reference_check_mechanism(g, m), bad)
        assert want is not None, name
        assert _message(lambda m: check_mechanism(g, m), bad) == want, name


def test_precompute_memory_per_entry():
    """The precompute path on lattice(3,22), shuffled(7), peaks below 58 bytes per directed entry.

    At the end it holds about 41 bytes per entry: 24 in the E-long arrays (the
    adjacency's and the mechanism's int64 targets, the float64 weights) and the
    rest in the labels and the V-long arrays, here one vertex per 6.4 entries.
    The peak, 53 bytes per entry, is check_mechanism's: three E-long uint32
    arrays (the mechanism's sorted keys, the adjacency's cast targets and its
    keys) and one bool mask on top.  Build and validation, the shuffle, the
    solve, the weight table and the min-weight scan each stay below it.
    """
    tracemalloc.start()
    try:
        g = build_lattice_ball(3, 22)
        mech = shuffled_mechanism(g, 7)
        wt = weight_table(g, mech, solve_harmonic(g))
        config = min_weight_config(g, wt)
        check_mechanism(g, mech)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.pos.size == g.num_vertices
    assert g.adj_flat.size == 97_428
    assert peak <= 58 * g.adj_flat.size, peak / g.adj_flat.size
