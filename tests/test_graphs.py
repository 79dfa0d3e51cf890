import io

import numpy as np
import pytest

from rotorwalk import (
    Graph,
    GraphInvalid,
    InvalidParameter,
    RotorMechanism,
    build_bary_tree,
    build_lattice_ball,
    build_path,
    check_graph,
    check_mechanism,
    default_mechanism,
    load_edge_list,
    save_edge_list,
    shuffled_mechanism,
)

from oracles import graph_from_rows, mechanism_from_rows


def test_path_shape():
    g = build_path(4)
    assert g.num_vertices == 4
    assert g.origin == 0
    assert g.sinks == frozenset({3})
    assert g.adjacency == ((1,), (0, 2), (1, 3), (2,))
    assert g.labels == ("0", "1", "2", "3")


def test_path_requires_two_vertices():
    with pytest.raises(InvalidParameter):
        build_path(1)


def test_lattice_ball_origin_is_center():
    g = build_lattice_ball(2, 3)
    assert g.labels[g.origin] == "0,0"
    assert g.origin == 0


def test_lattice_ball_counts():
    # |{x in Z^2 : |x|_1 <= 5}| = 61; one shared sink on top
    g = build_lattice_ball(2, 5)
    assert g.num_vertices == 62
    assert len(g.sinks) == 1
    # 3d counts used by the larger experiments
    assert build_lattice_ball(3, 6).num_vertices == 378
    assert build_lattice_ball(3, 10).num_vertices == 1562


def test_lattice_ball_full_degree_via_parallel_sink_edges():
    g = build_lattice_ball(3, 1)
    assert g.num_vertices == 8
    sink = next(iter(g.sinks))
    for x in range(g.num_vertices):
        if x == sink:
            continue
        assert g.degree(x) == 6
        if g.labels[x] != "0,0,0":
            # a surface point keeps one live edge back to the center
            assert g.adjacency[x].count(sink) == 5
    assert g.degree(sink) == 30


def test_lattice_ball_1d_is_a_path_with_shared_sink():
    g = build_lattice_ball(1, 2)
    assert g.num_vertices == 6
    sink = next(iter(g.sinks))
    assert g.degree(sink) == 2
    assert g.labels[g.origin] == "0"


def test_bary_tree_shape():
    g = build_bary_tree(2, 3)
    assert g.num_vertices == 15
    assert len(g.sinks) == 8
    assert g.degree(0) == 2
    g3 = build_bary_tree(3, 2)
    assert g3.degree(g3.origin) == 3
    internal = g3.adjacency[g3.origin][0]
    assert g3.degree(internal) == 4


def test_bary_tree_sinks_are_leaves():
    g = build_bary_tree(2, 2)
    for s in g.sinks:
        assert g.degree(s) == 1


def test_check_graph_rejects_origin_sink():
    g = build_path(3)
    bad = Graph(g.adj_indptr, g.adj_flat, origin=2, sinks=g.sinks, labels=g.labels)
    with pytest.raises(GraphInvalid):
        check_graph(bad)


def test_check_graph_rejects_self_loop():
    bad = graph_from_rows(
        ((1, 0, 0), (0,)),
        origin=0,
        sinks=frozenset({1}),
        labels=("a", "b"),
    )
    with pytest.raises(GraphInvalid, match="self-loop"):
        check_graph(bad)


def test_check_graph_rejects_live_parallel_edges():
    bad = graph_from_rows(
        ((1, 1, 2), (0, 0), (0,)),
        origin=0,
        sinks=frozenset({2}),
        labels=("a", "b", "s"),
    )
    with pytest.raises(GraphInvalid, match="duplicate edge"):
        check_graph(bad)


def test_check_graph_rejects_asymmetry():
    bad = graph_from_rows(
        ((1, 2), (0,), (0, 1)),
        origin=0,
        sinks=frozenset({2}),
        labels=("a", "b", "s"),
    )
    with pytest.raises(GraphInvalid, match="asymmetric"):
        check_graph(bad)


def test_check_graph_rejects_disconnected():
    bad = graph_from_rows(
        ((1,), (0,), (3,), (2,)),
        origin=0,
        sinks=frozenset({1, 3}),
        labels=("a", "s1", "b", "s2"),
    )
    with pytest.raises(GraphInvalid, match="disconnected"):
        check_graph(bad)


def test_check_graph_accepts_vertices_behind_sinks():
    # c attaches to the rest of the graph only through a sink; a particle
    # there is absorbed on its first move, so the graph is legal
    behind = graph_from_rows(
        ((1,), (0, 2), (1, 3), (2,)),
        origin=1,
        sinks=frozenset({0, 2}),
        labels=("s1", "a", "s2", "c"),
    )
    check_graph(behind)


def test_edge_list_round_trip():
    g = build_lattice_ball(2, 2)
    text = save_edge_list(g)
    g2 = load_edge_list(text, g.labels[g.origin], [g.labels[s] for s in g.sinks])
    assert g2.labels[g2.origin] == g.labels[g.origin]
    adj_by_label = {
        g.labels[x]: tuple(g.labels[y] for y in g.adjacency[x])
        for x in range(g.num_vertices)
    }
    adj2_by_label = {
        g2.labels[x]: tuple(g2.labels[y] for y in g2.adjacency[x])
        for x in range(g2.num_vertices)
    }
    assert adj_by_label == adj2_by_label


def test_load_edge_list_comments_and_io():
    text = "# a triangle with a tail\no a\na b # inline\n\nb o\nb s\n"
    g = load_edge_list(io.StringIO(text), "o", ["s"])
    assert g.num_vertices == 4
    assert g.labels == ("o", "a", "b", "s")
    assert g.adjacency[g.origin] == (1, 2)


def test_load_edge_list_integer_labels_build_p3():
    g = load_edge_list("0 1\n1 2", 0, {2})
    assert g.adjacency == ((1,), (0, 2), (1,))
    assert g.sinks == {2}


def test_load_edge_list_rejects_duplicate_and_disconnected():
    with pytest.raises(GraphInvalid):
        load_edge_list("0 1\n1 0", 0, set())  # duplicate edge, empty sinks
    with pytest.raises(GraphInvalid, match="disconnected"):
        load_edge_list("0 1\n2 3", 0, {3})


def test_load_edge_list_rejects_malformed():
    with pytest.raises(GraphInvalid, match="expected 'u v'"):
        load_edge_list("o a b\n", "o", ["a"])
    with pytest.raises(GraphInvalid, match="origin"):
        load_edge_list("o a\n", "x", ["a"])
    with pytest.raises(GraphInvalid, match="sink labels"):
        load_edge_list("o a\n", "o", ["x"])
    with pytest.raises(GraphInvalid, match="empty"):
        load_edge_list("# nothing\n", "o", ["a"])


def test_default_mechanism_follows_adjacency(small_graph):
    mech = default_mechanism(small_graph)
    check_mechanism(small_graph, mech)
    for x in range(small_graph.num_vertices):
        if x in small_graph.sinks:
            assert mech.order[x] == ()
        else:
            assert mech.order[x] == small_graph.adjacency[x]


def test_shuffled_mechanism_is_valid_and_seeded(small_graph):
    a = shuffled_mechanism(small_graph, 7)
    b = shuffled_mechanism(small_graph, 7)
    c = shuffled_mechanism(small_graph, 8)
    check_mechanism(small_graph, a)
    assert a.order == b.order
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.flat, b.flat)
    # a different seed should move something on any graph with a degree-3+ vertex
    if max(small_graph.degrees) >= 3:
        assert a.order != c.order


def test_check_mechanism_rejects_bad_orders():
    g = build_path(3)
    with pytest.raises(GraphInvalid, match="not a permutation"):
        check_mechanism(g, mechanism_from_rows(((1,), (2, 2), ())))
    with pytest.raises(GraphInvalid, match="empty mechanism"):
        check_mechanism(g, mechanism_from_rows(((1,), (0, 2), (1,))))
    with pytest.raises(GraphInvalid, match="length"):
        check_mechanism(g, mechanism_from_rows(((1,), (0, 2))))

    # several failing vertices: the lowest id is named, with its own message
    with pytest.raises(GraphInvalid, match="^mechanism at 0 is not a permutation"):
        check_mechanism(g, mechanism_from_rows(((2,), (2, 2), (1,))))
    with pytest.raises(GraphInvalid, match="^mechanism at 1 is not a permutation"):
        check_mechanism(g, mechanism_from_rows(((1,), (0, 0), (1,))))
    # ids s=0, o=1, a=2, t=3: a sink below a failing non-sink
    h = load_edge_list("s o\no a\na t", "o", ["s", "t"])
    with pytest.raises(GraphInvalid, match="^sink s must have an empty mechanism"):
        check_mechanism(h, mechanism_from_rows(((1,), (2,), (1, 3), ())))
    # wrong degree, out-of-range targets (which must not implicate a lower
    # vertex whose keys they collide with) and wrong multiplicity
    for order_a in ((1,), (1, 3, 3), (1, 5), (-3, 3), (1, 1)):
        with pytest.raises(GraphInvalid, match="^mechanism at a is not a permutation"):
            check_mechanism(h, mechanism_from_rows(((), (0, 2), order_a, ())))
    check_mechanism(h, mechanism_from_rows(((), (2, 0), (3, 1), ())))


# path(3) as CSR rows, each malformed in one way: only the named check can
# catch it, and the numpy code behind it would raise or read the wrong entries
ADJ = ([0, 1, 3, 4], [1, 0, 2, 1])
MECH = ([0, 1, 3, 3], [1, 0, 2])
MALFORMED_ROWS = {
    "2-D row pointer": (lambda p, f: (p[None, :], f), "1-D integer"),
    "2-D entries": (lambda p, f: (p, f[None, :]), "1-D integer"),
    "float row pointer": (lambda p, f: (p.astype(float), f), "1-D integer"),
    "bool entries": (lambda p, f: (p, f.astype(bool)), "1-D integer"),
    "empty row pointer": (lambda p, f: (p[:0], f), "rise from 0"),
    "offset row pointer": (lambda p, f: (p + 1, np.concatenate(([9], f))), "rise from 0"),
    "decreasing row pointer": (lambda p, f: (np.array([0, 2, 1, p[-1]]), f), "rise from 0"),
    "trailing entry": (lambda p, f: (p, np.concatenate((f, [1]))), "rise from 0"),
}


@pytest.mark.parametrize("name", list(MALFORMED_ROWS), ids=list(MALFORMED_ROWS))
def test_malformed_rows_are_graph_invalid(name):
    malform, message = MALFORMED_ROWS[name]
    g = build_path(3)
    indptr, flat = malform(*(np.array(a) for a in ADJ))
    bad = Graph(indptr, flat, origin=0, sinks=g.sinks, labels=g.labels)
    with pytest.raises(GraphInvalid, match=f"^adjacency .*{message}"):
        check_graph(bad)
    indptr, flat = malform(*(np.array(a) for a in MECH))
    with pytest.raises(GraphInvalid, match=f"^mechanism .*{message}"):
        check_mechanism(g, RotorMechanism(indptr, flat))


def test_graph_and_mechanism_arrays_are_read_only():
    g = build_lattice_ball(2, 2)
    for mech in (default_mechanism(g), shuffled_mechanism(g, 3), mechanism_from_rows([(1,), ()])):
        for a in (mech.indptr, mech.flat):
            with pytest.raises(ValueError):
                a[0] = 1
    for graph in (g, graph_from_rows([(1,), (0,)], 0, {1}, ("o", "s"))):
        for a in (graph.adj_indptr, graph.adj_flat):
            with pytest.raises(ValueError):
                a[0] = 1


def test_equality_is_identity():
    g = build_path(3)
    assert g == g and g != build_path(3)
    assert default_mechanism(g) != default_mechanism(g)


def test_describe_names():
    assert build_path(3).describe() == "path(3)"
    assert build_lattice_ball(2, 5).describe() == "lattice(d=2, r=5)"
    assert build_bary_tree(2, 6).describe() == "tree(b=2, depth=6)"
