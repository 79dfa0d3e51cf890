"""Finite sink-truncated graphs and rotor mechanisms.

A graph here is a connected simple graph together with a designated origin
and a nonempty set of absorbing sink vertices.  Sinks stand in for "escaped
to infinity" on a truncation of an infinite graph; particles reaching a sink
stay there.  One relaxation of simplicity is allowed: parallel edges are
permitted when one endpoint is a sink, because redirecting all boundary
edges of a lattice ball into a single shared sink necessarily produces them.
The live (non-sink) part of the graph is always strictly simple.

Vertices are dense integer ids 0..n-1; every graph carries a parallel tuple
of unique string labels for file IO and reporting.  Adjacency lists and rotor
orders are stored once, as read-only CSR arrays; tuple views are derived.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from .errors import GraphInvalid, InvalidParameter
from .rng import philox_generator


def _rows(indptr: np.ndarray, flat: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The CSR rows as a tuple of tuples of ints."""
    entries, bounds = flat.tolist(), indptr.tolist()
    return tuple(tuple(entries[a:b]) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with ordered adjacency lists.

    Row x of the CSR arrays (adj_indptr, adj_flat), adjacency[x] as a tuple, lists
    the neighbours of x in construction order, the order the default rotor
    mechanism follows.  Both arrays are made read-only; == is identity.
    """

    adj_indptr: np.ndarray
    adj_flat: np.ndarray
    origin: int
    sinks: frozenset[int]
    labels: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        self.adj_indptr.setflags(write=False)
        self.adj_flat.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.adj_indptr.size - 1

    def describe(self) -> str:
        if self.name:
            return self.name
        return f"graph(V={self.num_vertices}, sinks={len(self.sinks)})"

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adj_indptr)

    @cached_property
    def is_sink(self) -> np.ndarray:
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[list(self.sinks)] = True
        return mask

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _rows(self.adj_indptr, self.adj_flat)

    @cached_property
    def label_to_id(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def degree(self, x: int) -> int:
        return int(self.adj_indptr[x + 1] - self.adj_indptr[x])


@dataclass(frozen=True, eq=False)
class RotorMechanism:
    """Cyclic ordering of each non-sink vertex's incident edges.

    Row x of the CSR arrays (indptr, flat), order[x] as a tuple, is a permutation
    of adjacency[x] (as a multiset); the rotor at x steps through it cyclically,
    so advancing deg(x) times is the identity.  Sinks have empty rows.  Both
    arrays are made read-only; == is identity.
    """

    indptr: np.ndarray
    flat: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.flat.setflags(write=False)

    def describe(self) -> str:
        return self.name

    @cached_property
    def order(self) -> tuple[tuple[int, ...], ...]:
        return _rows(self.indptr, self.flat)


def _check_rows(indptr: np.ndarray, flat: np.ndarray, what: str) -> None:
    """Raise GraphInvalid unless (indptr, flat) are 1-D integer arrays forming CSR rows."""
    if any(a.ndim != 1 or not np.issubdtype(a.dtype, np.integer) for a in (indptr, flat)):
        raise GraphInvalid(f"{what} arrays must be 1-D integer arrays")
    if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != flat.size or (indptr[1:] < indptr[:-1]).any():
        raise GraphInvalid(f"{what} row pointer must rise from 0 to the entry count")


def check_graph(g: Graph) -> None:
    """Validate every structural invariant; raise GraphInvalid on the first failure.

    Checks: CSR row arrays, dense ids, labels unique, origin/sink sanity,
    no self-loops, live-pair simplicity, symmetric adjacency (with
    multiplicity), and connectivity.  Connectivity already implies that every
    vertex reaches a sink without passing another sink first (truncate any
    sink-bound path at its first sink), which is what experiment termination
    rests on.
    """
    _check_rows(g.adj_indptr, g.adj_flat, "adjacency")
    n = g.num_vertices
    if n < 2:
        raise GraphInvalid("graph needs at least an origin and a sink")
    if len(g.labels) != n:
        raise GraphInvalid("labels length does not match vertex count")
    if len(set(g.labels)) != n:
        raise GraphInvalid("vertex labels are not unique")
    if not (0 <= g.origin < n):
        raise GraphInvalid(f"origin id {g.origin} out of range")
    if g.origin in g.sinks:
        raise GraphInvalid("origin must not be a sink")
    if not g.sinks:
        raise GraphInvalid("sink set is empty")
    for s in g.sinks:
        if not (0 <= s < n):
            raise GraphInvalid(f"sink id {s} out of range")

    _check_adjacency(g)

    # connectivity of the whole graph (the adjacency is symmetric by now)
    missing = np.flatnonzero(~_reached_from_zero(g))
    if missing.size:
        raise GraphInvalid(f"graph is disconnected (vertex {g.labels[missing[0]]} unreachable)")


def _reached_from_zero(g: Graph) -> np.ndarray:
    """Mask of the vertices that vertex 0 reaches, by breadth-first frontiers over the CSR arrays."""
    seen = np.zeros(g.num_vertices, dtype=bool)
    seen[0] = True
    slot = np.empty(g.num_vertices, dtype=np.intp)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        counts = g.degrees[frontier]
        # the entries of the frontier's rows: each row's start, plus 0..count-1
        ends = np.cumsum(counts)
        entries = np.arange(ends[-1]) + np.repeat(g.adj_indptr[frontier] - (ends - counts), counts)
        reached = g.adj_flat[entries]
        reached = reached[~seen[reached]]
        # drop repeats without a sort: of the copies of a vertex, exactly one
        # finds its own index in the vertex's slot, whichever write was kept
        ids = np.arange(reached.size)
        slot[reached] = ids
        frontier = reached[slot[reached] == ids]
        seen[frontier] = True
    return seen


def _check_adjacency(g: Graph) -> None:
    """Empty rows, ids, self-loops, live duplicates and symmetry, over the CSR arrays.

    A valid adjacency is accepted from its sorted row*V+target keys alone:
    repeated keys must touch a sink, and the keys must equal their mirror
    images target*V+row as a multiset.  Anything else goes to
    _raise_first_fault for the message.
    """
    n = g.num_vertices
    flat = g.adj_flat
    row = np.repeat(np.arange(n), g.degrees)
    if g.degrees.all() and flat.min() >= 0 and flat.max() < n and not (flat == row).any():
        keys = row * n
        keys += flat
        keys.sort()
        repeated = keys[1:][keys[1:] == keys[:-1]]
        mirror = flat * n
        mirror += row
        mirror.sort()
        sink = g.is_sink
        if (sink[repeated // n] | sink[repeated % n]).all() and np.array_equal(keys, mirror):
            return
    _raise_first_fault(g, row)


def _raise_first_fault(g: Graph, row: np.ndarray) -> None:
    """Raise for the lowest failing vertex, as a scan of each row's distinct neighbours would.

    Empty rows, out-of-range ids, self-loops and duplicate live pairs come
    first, then symmetry with multiplicity.  The entries with one (x, y) pair
    all fail alike, so the first failing entry of a row is the first
    appearance of its neighbour.  Called only for an adjacency that
    _check_adjacency rejected, so some entry fails.
    """
    n = g.num_vertices
    deg = g.degrees
    flat = g.adj_flat
    sink = g.is_sink
    in_range = (flat >= 0) & (flat < n)
    # out-of-range entries get a key no valid entry has, so they cannot pose
    # as a duplicate in a neighbouring row
    keys = np.where(in_range, row * n + flat, -1)
    sorted_keys = np.sort(keys)
    mult = _count_in(sorted_keys, keys)
    target = np.where(in_range, flat, row)
    bad = ~in_range | (flat == row) | ((mult > 1) & ~sink[row] & ~sink[target])

    empty = np.flatnonzero(deg == 0)
    if empty.size and (not bad.any() or empty[0] < row[np.argmax(bad)]):
        raise GraphInvalid(f"vertex {g.labels[empty[0]]} has no edges")
    if bad.any():
        e = int(np.argmax(bad))
        x, y = int(row[e]), int(flat[e])
        if not in_range[e]:
            raise GraphInvalid(f"neighbor id {y} out of range at {g.labels[x]}")
        if y == x:
            raise GraphInvalid(f"self-loop at vertex {g.labels[x]}")
        raise GraphInvalid(
            f"duplicate edge between non-sink vertices {g.labels[x]} and {g.labels[y]}"
        )

    e = int(np.argmax(mult != _count_in(sorted_keys, flat * n + row)))
    raise GraphInvalid(
        f"asymmetric adjacency between {g.labels[row[e]]} and {g.labels[flat[e]]}"
    )


def _count_in(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Number of occurrences of each of keys in sorted_keys."""
    return (np.searchsorted(sorted_keys, keys, side="right")
            - np.searchsorted(sorted_keys, keys, side="left"))


def _graph_from_edges(edges: np.ndarray, origin, sinks, labels, name="") -> Graph:
    """Assemble adjacency from an (E, 2) int array, then validate.

    Each vertex lists its neighbours in edge sequence, both directions of an
    edge at its place: a stable sort of the interleaved (u, v), (v, u) pairs
    by source.
    """
    sources = edges.ravel()
    targets = edges[:, ::-1].ravel()[np.argsort(sources, kind="stable")]
    g = Graph(
        adj_indptr=np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=len(labels))))),
        adj_flat=targets,
        origin=origin,
        sinks=frozenset(sinks),
        labels=tuple(labels),
        name=name,
    )
    check_graph(g)
    return g


def build_path(k: int) -> Graph:
    """Path on k vertices: origin at one end, the single sink at the other."""
    if k < 2:
        raise InvalidParameter(f"build_path needs k >= 2, got {k}")
    ids = np.arange(k)
    edges = np.stack([ids[:-1], ids[1:]], axis=1)
    return _graph_from_edges(edges, 0, {k - 1}, [str(i) for i in range(k)], name=f"path({k})")


def build_lattice_ball(d: int, radius: int) -> Graph:
    """L1 ball of Z^d with every boundary-leaving edge redirected to one shared sink.

    All lattice points with L1 norm <= radius are live vertices; each edge
    that would leave the ball becomes an edge to the shared sink, so every
    live vertex keeps its full lattice degree 2d (boundary vertices may hold
    several parallel sink edges).  Ids follow (L1 norm, coordinates) order,
    so the origin is 0; each point lists its edges axis by axis, + before -.
    """
    if d < 1:
        raise InvalidParameter(f"build_lattice_ball needs d >= 1, got {d}")
    if radius < 1:
        raise InvalidParameter(f"build_lattice_ball needs radius >= 1, got {radius}")

    # the L1 norms of the cube [-r-1, r+1]^d in lexicographic order, one
    # np.add.outer per axis, so a stable sort by norm gives (norm,
    # coordinates) order; the cube's margin holds every neighbour of the
    # ball, and the index table maps each cube cell to its vertex id, or to
    # the sink outside the ball
    side = 2 * radius + 3
    axis_norm = np.abs(np.arange(-radius - 1, radius + 2, dtype=np.int32))
    norm = axis_norm
    for _ in range(d - 1):
        norm = np.add.outer(norm, axis_norm)
    norm = norm.ravel()
    in_ball = np.flatnonzero(norm <= radius)
    in_ball = in_ball[np.argsort(norm[in_ball], kind="stable")]
    sink = in_ball.size
    index = np.full(side**d, sink, dtype=np.int64)
    index[in_ball] = np.arange(sink)

    # cell offsets of the directions axis by axis, + before -
    offsets = np.kron(side ** np.arange(d - 1, -1, -1), [1, -1])
    j = index[in_ball[:, None] + offsets]
    i = np.broadcast_to(np.arange(sink)[:, None], j.shape)
    keep = (j == sink) | (j > i)
    edges = np.stack([i[keep], j[keep]], axis=1)

    # "x,y,z" labels, one column of coordinate text per axis; a ball
    # coordinate c sits at cube cell c + r + 1
    text = np.array([str(c) for c in range(-radius, radius + 1)], dtype=object)
    columns = (text[cell - 1].tolist() for cell in np.unravel_index(in_ball, (side,) * d))
    labels = [*map(",".join, zip(*columns)), "sink"]
    return _graph_from_edges(edges, 0, {sink}, labels, name=f"lattice(d={d}, r={radius})")


def build_bary_tree(b: int, depth: int) -> Graph:
    """Complete b-ary tree rooted at the origin; every depth-level leaf is its own sink."""
    if b < 2:
        raise InvalidParameter(f"build_bary_tree needs b >= 2, got {b}")
    if depth < 1:
        raise InvalidParameter(f"build_bary_tree needs depth >= 1, got {depth}")

    # breadth-first ids: level l occupies a contiguous block, and the
    # children of p are p*b + 1 .. p*b + b
    n = (b ** (depth + 1) - 1) // (b - 1)
    leaves = b**depth
    child = np.arange(1, n)
    edges = np.stack([(child - 1) // b, child], axis=1)
    return _graph_from_edges(
        edges, 0, range(n - leaves, n), [str(i) for i in range(n)],
        name=f"tree(b={b}, depth={depth})",
    )


def _normalize_label(value) -> str:
    return value if isinstance(value, str) else str(value)


def load_edge_list(source: str | IO[str] | Iterable[str], origin, sinks) -> Graph:
    """Parse whitespace-separated "u v" lines into a validated Graph.

    Vertex labels are arbitrary whitespace-free tokens, compacted to dense
    0-based ids in first-appearance order; '#' starts a comment.  The origin
    and sinks are given by label.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = list(source)

    label_ids: dict[str, int] = {}
    labels: list[str] = []

    def intern(tok: str) -> int:
        if tok not in label_ids:
            label_ids[tok] = len(labels)
            labels.append(tok)
        return label_ids[tok]

    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise GraphInvalid(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        edges.append((intern(toks[0]), intern(toks[1])))

    if not edges:
        raise GraphInvalid("edge list is empty")

    sink_labels = {_normalize_label(s) for s in sinks}
    origin_label = _normalize_label(origin)
    if origin_label not in label_ids:
        raise GraphInvalid(f"origin label {origin_label!r} does not appear in the edge list")
    unknown = sink_labels - label_ids.keys()
    if unknown:
        raise GraphInvalid(f"sink labels not in the edge list: {sorted(unknown)}")

    return _graph_from_edges(
        np.array(edges, dtype=np.int64), label_ids[origin_label],
        {label_ids[s] for s in sink_labels}, labels, name="edge-list",
    )


def save_edge_list(g: Graph) -> str:
    """Emit "u v" lines (by label) whose parse reproduces g's adjacency order.

    Each vertex's incident edges must appear in adjacency order, so the edge
    sequence is recovered by repeatedly emitting an edge that sits at the
    current front of both endpoints' lists.
    """
    front = [0] * g.num_vertices
    remaining = sum(g.degrees) // 2
    out = []
    while remaining:
        progressed = False
        for x in range(g.num_vertices):
            while front[x] < g.degree(x):
                y = g.adjacency[x][front[x]]
                if front[y] < g.degree(y) and g.adjacency[y][front[y]] == x:
                    out.append(f"{g.labels[x]} {g.labels[y]}")
                    front[x] += 1
                    front[y] += 1
                    remaining -= 1
                    progressed = True
                else:
                    break
        if not progressed:
            raise GraphInvalid("adjacency order is not serializable as an edge list")
    return "\n".join(out) + "\n"


def default_mechanism(g: Graph) -> RotorMechanism:
    """Mechanism whose cyclic order is each vertex's adjacency order."""
    live = ~g.is_sink
    indptr = np.concatenate(([0], np.cumsum(np.where(live, g.degrees, 0))))
    return RotorMechanism(indptr, g.adj_flat[np.repeat(live, g.degrees)], name="default")


def shuffled_mechanism(g: Graph, seed: int) -> RotorMechanism:
    """Mechanism with a seeded uniform permutation of each vertex's edges."""
    rng = philox_generator(seed)
    live = ~g.is_sink
    deg = g.degrees[live]
    # one rng.permuted call per run of equal consecutive degrees, in id order:
    # it shuffles the run's rows one after another with the draws of one
    # rng.permutation(deg) per non-sink vertex, on which the goldens rest
    starts = np.flatnonzero(np.diff(deg, prepend=-1))
    runs = zip(deg[starts].tolist(), np.diff(starts, append=deg.size).tolist())
    entry = np.concatenate([rng.permuted(np.broadcast_to(np.arange(d), (k, d)), axis=1).ravel()
                            for d, k in runs])
    entry += np.repeat(g.adj_indptr[:-1][live], deg)
    indptr = np.concatenate(([0], np.cumsum(np.where(live, g.degrees, 0))))
    return RotorMechanism(indptr, g.adj_flat[entry], name=f"shuffled(seed={seed})")


def check_mechanism(g: Graph, mech: RotorMechanism) -> None:
    """Validate that mech matches g: sinks empty, others permute their adjacency.

    Malformed row arrays raise GraphInvalid first; otherwise it names the
    lowest failing vertex.  Rows are compared over the CSR arrays: a non-sink
    row of matching degree and in-range targets is a permutation when its
    sorted (row, target) keys equal the adjacency's.
    """
    _check_rows(mech.indptr, mech.flat, "mechanism")
    n = g.num_vertices
    if mech.indptr.size - 1 != n:
        raise GraphInvalid("mechanism length does not match vertex count")
    sink = g.is_sink
    deg = np.diff(mech.indptr)
    row = np.repeat(np.arange(n), deg)
    bad = np.where(sink, deg != 0, deg != g.degrees)
    bad[row[(mech.flat < 0) | (mech.flat >= n)]] = True

    # the rows still good have their adjacency's degree, so their keys align
    same = ~bad & ~sink
    keys = _sorted_row_keys(row, mech.flat, same)
    adj_keys = _sorted_row_keys(np.repeat(np.arange(n), g.degrees), g.adj_flat, same)
    bad[adj_keys[keys != adj_keys] // n] = True

    if bad.any():
        x = int(np.argmax(bad))
        if sink[x]:
            raise GraphInvalid(f"sink {g.labels[x]} must have an empty mechanism")
        raise GraphInvalid(f"mechanism at {g.labels[x]} is not a permutation of its edges")


def _sorted_row_keys(row: np.ndarray, target: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sorted keys row * V + target of the CSR entries in the rows where keep is set."""
    pick = keep[row]
    keys = row[pick] * keep.size
    keys += target[pick]
    keys.sort()
    return keys
