"""Independent reference implementations used only by tests.

Deliberately naive: the Green function is solved densely in visit-count form
(the package solves a sparse voltage-form system), and the experiment is a
line-by-line transcription of its defining recurrence with no bookkeeping
shortcuts.  Agreement between these and the package is the main correctness
evidence, so nothing here may import from the modules it checks beyond the
plain data containers and the seeded Philox streams.
"""
from __future__ import annotations

import random
from collections import Counter, deque
from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from rotorwalk.errors import AbortedMaxSteps, GraphInvalid
from rotorwalk.graphs import Graph, RotorMechanism
from rotorwalk.harmonic import HarmonicProfile
from rotorwalk.rng import philox_generator


def _csr(rows):
    """(indptr, flat) int64 arrays of a sequence of rows."""
    rows = [tuple(r) for r in rows]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
    flat = np.array([y for r in rows for y in r], dtype=np.int64)
    return indptr, flat


def graph_from_rows(rows, origin, sinks, labels, name=""):
    """Graph whose adjacency row x is rows[x]; not validated."""
    indptr, flat = _csr(rows)
    return Graph(adj_indptr=indptr, adj_flat=flat, origin=origin,
                 sinks=frozenset(sinks), labels=tuple(labels), name=name)


def mechanism_from_rows(rows, name="custom"):
    """RotorMechanism whose cyclic order at x is rows[x]; not validated."""
    indptr, flat = _csr(rows)
    return RotorMechanism(indptr=indptr, flat=flat, name=name)


def dense_green(g):
    """Visit counts G, voltage v = G/deg and escape probability 1/G(origin).

    Solves (I - P^T) G = e_origin densely, where P(y, x) is the one-step
    transition probability (with edge multiplicity) and sinks kill the walk.
    """
    n = g.num_vertices
    live = [x for x in range(n) if x not in g.sinks]
    pos = {x: k for k, x in enumerate(live)}

    mat = np.eye(len(live))
    for y in live:
        deg = len(g.adjacency[y])
        for x in g.adjacency[y]:
            if x in pos:
                mat[pos[x], pos[y]] -= 1.0 / deg
    rhs = np.zeros(len(live))
    rhs[pos[g.origin]] = 1.0

    sol = np.linalg.solve(mat, rhs)
    green = np.zeros(n)
    for x, k in pos.items():
        green[x] = sol[k]
    voltage = np.zeros(n)
    for x in range(n):
        voltage[x] = green[x] / len(g.adjacency[x])
    return green, voltage, 1.0 / green[g.origin]


class ReferenceRun:
    """Result of the naive simulation: final state plus full history."""

    def __init__(self, positions, returned, rho, t, history, visited):
        self.positions = positions
        self.returned = returned
        self.rho = rho
        self.t = t
        self.history = history  # list of (t, positions tuple, rho tuple)
        self.visited = visited

    @property
    def survivors(self) -> int:
        return sum(1 for r in self.returned if not r)


def reference_run(g, mech, config, n, max_steps=10**7) -> ReferenceRun:
    """Transcribe the recurrence: at step t, particle (t+1) mod n acts.

    A particle that has returned to the origin or sits on a sink does
    nothing; otherwise the rotor at its vertex advances and the particle
    follows it.  Runs until no particle can act; t then equals one past the
    final acting step (trailing idle steps are not executed).
    """
    positions = [g.origin] * n
    returned = [False] * n
    rho = config.pos.tolist()
    visited = {g.origin}
    history = [(0, tuple(positions), tuple(rho))]
    t = 0

    def someone_can_act():
        return any(
            not returned[i] and positions[i] not in g.sinks for i in range(n)
        )

    while someone_can_act():
        if t >= max_steps:
            raise RuntimeError(f"reference run unsettled after {t} steps")
        i = (t + 1) % n
        if not returned[i] and positions[i] not in g.sinks:
            x = positions[i]
            rho[x] = (rho[x] + 1) % len(mech.order[x])
            positions[i] = mech.order[x][rho[x]]
            visited.add(positions[i])
            if positions[i] == g.origin:
                returned[i] = True
        t += 1
        history.append((t, tuple(positions), tuple(rho)))

    return ReferenceRun(positions, returned, rho, t, history, visited)


def reference_ensemble(g, mech, n, trials, seed, max_steps=10**9):
    """Survivors and final t of `trials` runs of n particles, one run after another.

    Run k starts from one Philox draw below deg(x) per non-sink vertex x in
    id order, stream seed + k (the package's random_config).  Each round,
    every live particle moves once, in turn order 1, ..., n-1, 0, particle i
    at turn round_start + (i-1) mod n; one that reaches the origin or a sink
    stops.  t ends one past the last move.  A live turn at or past max_steps
    raises AbortedMaxSteps naming that turn, so the first run that does not
    settle raises.
    """
    order = mech.order
    survivors, steps = [], []
    for k in range(trials):
        rng = philox_generator(seed + k)
        rho = [-1 if x in g.sinks else int(rng.integers(0, len(order[x])))
               for x in range(g.num_vertices)]
        positions = [g.origin] * n
        live = [i % n for i in range(1, n + 1)]
        round_start = 0
        while live:
            still = []
            for i in live:
                turn = round_start + (i - 1) % n
                if turn >= max_steps:
                    raise AbortedMaxSteps(f"experiment not settled after {turn} steps")
                x = positions[i]
                rho[x] = (rho[x] + 1) % len(order[x])
                positions[i] = y = order[x][rho[x]]
                if y != g.origin and y not in g.sinks:
                    still.append(i)
            live = still
            round_start += n
        survivors.append(n - positions.count(g.origin))
        steps.append(turn + 1)
    return survivors, steps


def reference_settle_any_order(g, mech, config, n, seed):
    """Escapes, final rotors and departures from each vertex of n particles, moved in any order.

    The origin holds n particles and keeps each one that returns; a sink keeps
    each one it absorbs.  Each move is made by a particle that can still move,
    picked by a Philox draw from stream seed, or with seed None particle by
    particle: one moves until it stops before the next starts.  By the abelian
    property of rotor-routing (Holroyd, Levine, Meszaros, Peres, Propp and
    Wilson, "Chip-firing and rotor-routing on directed graphs", 2008) the three
    results are the same for every order; the number of steps is not.
    """
    order = mech.order
    rho = config.pos.tolist()
    departures = [0] * g.num_vertices
    positions = [g.origin] * n
    movable = list(range(n))
    rng = None if seed is None else philox_generator(seed)
    escapes = 0
    while movable:
        k = len(movable) - 1 if rng is None else int(rng.integers(0, len(movable)))
        i = movable[k]
        x = positions[i]
        departures[x] += 1
        rho[x] = (rho[x] + 1) % len(order[x])
        positions[i] = y = order[x][rho[x]]
        if y == g.origin or y in g.sinks:
            escapes += y != g.origin
            movable[k] = movable[-1]
            movable.pop()
    return escapes, rho, departures


def reference_invariant(g, voltage, weight_of, positions, rho, rho0, visited, t, n):
    """Conserved quantity from a raw snapshot.

    weight_of(x, i) gives the weight of edge i at vertex x; the rotor-weight
    displacement is summed over visited non-sink vertices only.  With
    Fraction voltages and weights the sum is exact.
    """
    total = sum(voltage[p] for p in positions)
    total += Fraction(min(t, n), len(g.adjacency[g.origin]))  # a float total stays float
    for x in visited:
        if x not in g.sinks:
            total += weight_of(x, rho[x]) - weight_of(x, rho0[x])
    return total


def reference_compute_invariant(state, profile, wt):
    """compute_invariant as a scalar loop, one vertex at a time.

    Same sums in the same order: particle voltages by np.sum, the origin
    term, then w(rho(x)) - w(rho0(x)) added onto the total for each live x
    of the range in first-visit order.  The package must equal it exactly.
    """
    total = float(np.sum(profile.voltage[state.positions]))
    g = state.graph
    total += min(state.t, state.n) / int(g.degrees[g.origin])

    values = wt.values
    mi = state.mechanism.indptr.tolist()
    rho = state.rho
    rho0 = state.rho0
    sink = g.is_sink.tolist()
    for x in state.range_order.tolist():
        if not sink[x]:
            base = mi[x]
            total += float(values[base + rho[x]]) - float(values[base + rho0[x]])
    return total


def reference_sampled_invariants(state, profile, wt, run_observed):
    """(t, conserved quantity) at the samples of the once-per-round rule.

    The rule the stepwise tracker followed above its per-move budget: sample
    at the start, then at the first move whose t (after the move) reaches
    the next check, which then becomes that t + n, and once more after the
    run.  run_observed(state, observer) steps the state to settle, calling
    observer after every move.
    """
    samples = [(state.t, reference_compute_invariant(state, profile, wt))]
    next_check = state.t + state.n

    def observe(st):
        nonlocal next_check
        if st.t >= next_check:
            next_check = st.t + st.n
            samples.append((st.t, reference_compute_invariant(st, profile, wt)))

    run_observed(state, observe)
    samples.append((state.t, reference_compute_invariant(state, profile, wt)))
    return samples


def reference_edge_weight(g, mech, voltage, x, i):
    """Definition of the edge weight, written as the plain modular sum."""
    order = mech.order[x]
    d = len(order)
    return -sum(j * voltage[order[(i + j + 1) % d]] for j in range(d)) / d


def reference_weight_increment(g, mech, voltage, x, i):
    """Weight change when the rotor at x advances off the edge at position i."""
    d = len(mech.order[x])
    return (reference_edge_weight(g, mech, voltage, x, (i + 1) % d)
            - reference_edge_weight(g, mech, voltage, x, i))


# --- exact rationals --------------------------------------------------------
# The package compares floats under tolerances.  On small graphs the voltage
# and the weights are computed here exactly, in fractions.Fraction.


def exact_voltage(g):
    """Voltage as Fractions: deg(x) v(x) - sum of v over the neighbors of x is 1 at
    the origin and 0 at every other live x; v = 0 at sinks.

    Gaussian elimination in vertex order, without pivoting: the matrix is
    symmetric positive definite, and its elimination keeps the pattern
    symmetric, so the rows below a pivot that hold its column are the
    pivot row's own later entries.  Zero entries are never stored.
    """
    live = [x for x in range(g.num_vertices) if x not in g.sinks]
    rows = {}
    for x in live:
        row = {x: Fraction(len(g.adjacency[x]))}
        for y in g.adjacency[x]:
            if y not in g.sinks:
                row[y] = row.get(y, 0) - 1
        rows[x] = row
    rhs = {x: Fraction(int(x == g.origin)) for x in live}

    for k in live:
        pivot, pivot_row = rows[k][k], rows[k]
        for j in [j for j in pivot_row if j > k]:
            factor = rows[j].pop(k) / pivot
            for c, a in pivot_row.items():
                if c > k:
                    value = rows[j].get(c, 0) - factor * a
                    if value:
                        rows[j][c] = value
                    else:
                        rows[j].pop(c, None)
            rhs[j] -= factor * rhs[k]

    v = [Fraction(0)] * g.num_vertices
    for k in reversed(live):
        v[k] = (rhs[k] - sum(a * v[c] for c, a in rows[k].items() if c > k)) / rows[k][k]
    return v


def exact_weights(g, mech, v):
    """Per vertex, the Fraction weights w(x, i) of the weights.py definition over mech.order."""
    weights = []
    for order in mech.order:
        d = len(order)
        weights.append([-sum(j * v[order[(i + j + 1) % d]] for j in range(d)) / d
                        for i in range(d)])
    return weights


# --- scalar precompute loops ------------------------------------------------
# The package builds graphs, validates them, assembles the Dirichlet system and
# fills the weight table with whole-array numpy code over CSR arrays.  These
# are the per-vertex loops it replaced; the tests require exact equality with
# them (graphs, labels, messages, CSC arrays and weight bits alike).


def reference_check_graph(g):
    """Raise GraphInvalid on the first structural failure, in the package's check order."""
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

    sink = [x in g.sinks for x in range(n)]
    for x, adj in enumerate(g.adjacency):
        if not adj:
            raise GraphInvalid(f"vertex {g.labels[x]} has no edges")
        counts = Counter(adj)
        for y, c in counts.items():
            if not (0 <= y < n):
                raise GraphInvalid(f"neighbor id {y} out of range at {g.labels[x]}")
            if y == x:
                raise GraphInvalid(f"self-loop at vertex {g.labels[x]}")
            if c > 1 and not (sink[x] or sink[y]):
                raise GraphInvalid(
                    f"duplicate edge between non-sink vertices {g.labels[x]} and {g.labels[y]}"
                )

    for x, adj in enumerate(g.adjacency):
        cx = Counter(adj)
        for y, c in cx.items():
            if Counter(g.adjacency[y])[x] != c:
                raise GraphInvalid(
                    f"asymmetric adjacency between {g.labels[x]} and {g.labels[y]}"
                )

    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    if not all(seen):
        missing = next(g.labels[i] for i, s in enumerate(seen) if not s)
        raise GraphInvalid(f"graph is disconnected (vertex {missing} unreachable)")


def reference_graph_from_edges(edges, origin, sinks, labels, name=""):
    """Append both directions of each (u, v) in sequence, then validate."""
    adj = [[] for _ in labels]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    g = graph_from_rows(adj, origin, sinks, labels, name=name)
    reference_check_graph(g)
    return g


def reference_path(k):
    edges = [(i, i + 1) for i in range(k - 1)]
    return reference_graph_from_edges(edges, 0, {k - 1}, [str(i) for i in range(k)],
                                      name=f"path({k})")


def reference_lattice_ball(d, radius):
    """L1 ball of Z^d, points ordered by (norm, coords), leaving edges sent to one sink."""
    points = [p for p in product(range(-radius, radius + 1), repeat=d)
              if sum(abs(c) for c in p) <= radius]
    points.sort(key=lambda p: (sum(abs(c) for c in p), p))
    index = {p: i for i, p in enumerate(points)}
    sink = len(points)

    directions = []
    for axis in range(d):
        for sign in (1, -1):
            directions.append(tuple(sign if a == axis else 0 for a in range(d)))

    edges = []
    for p in points:
        i = index[p]
        for dvec in directions:
            q = tuple(a + b for a, b in zip(p, dvec))
            j = index.get(q)
            if j is None:
                edges.append((i, sink))
            elif j > i:
                edges.append((i, j))

    labels = [",".join(str(c) for c in p) for p in points] + ["sink"]
    return reference_graph_from_edges(
        edges, index[tuple([0] * d)], {sink}, labels, name=f"lattice(d={d}, r={radius})"
    )


def reference_bary_tree(b, depth):
    level_start = [0]
    for lvl in range(depth + 1):
        level_start.append(level_start[-1] + b**lvl)
    n = level_start[-1]
    edges = []
    for lvl in range(depth):
        for k in range(b**lvl):
            parent = level_start[lvl] + k
            for c in range(b):
                edges.append((parent, level_start[lvl + 1] + k * b + c))
    sinks = set(range(level_start[depth], n))
    return reference_graph_from_edges(
        edges, 0, sinks, [str(i) for i in range(n)], name=f"tree(b={b}, depth={depth})"
    )


def random_edge_list(seed):
    """(text, origin label, sink labels) of a seeded random connected graph for load_edge_list.

    A random spanning tree on 5-39 vertices (each vertex after the first
    joins an earlier one), then up to 2V extra edges, a random origin and
    1-3 sinks.  An extra edge is dropped if it is a self-loop or repeats a
    pair of live vertices; edges at a sink may repeat.  The edges are listed
    in shuffled order and direction, so ids (first appearance) and degrees
    follow no pattern.
    """
    rng = random.Random(seed)
    n = rng.randint(5, 39)
    sinks = rng.sample(range(n), rng.randint(1, 3))
    origin = rng.choice([x for x in range(n) if x not in sinks])
    edges = [(rng.randrange(x), x) for x in range(1, n)]
    pairs = {frozenset(e) for e in edges}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u in sinks or v in sinks or frozenset((u, v)) not in pairs):
            edges.append((u, v))
            pairs.add(frozenset((u, v)))
    rng.shuffle(edges)
    lines = [f"v{u} v{v}" if rng.random() < 0.5 else f"v{v} v{u}" for u, v in edges]
    return "\n".join(lines) + "\n", f"v{origin}", [f"v{s}" for s in sinks]


def reference_default_mechanism(g):
    """Each non-sink vertex's adjacency tuple, sinks empty."""
    order = tuple(() if x in g.sinks else tuple(adj) for x, adj in enumerate(g.adjacency))
    return mechanism_from_rows(order, name="default")


def reference_shuffled_mechanism(g, seed):
    """One rng.permutation(deg) per non-sink vertex in id order, applied to its adjacency tuple."""
    rng = philox_generator(seed)
    order = []
    for x, adj in enumerate(g.adjacency):
        if x in g.sinks:
            order.append(())
        else:
            perm = rng.permutation(len(adj))
            order.append(tuple(adj[i] for i in perm))
    return mechanism_from_rows(order, name=f"shuffled(seed={seed})")


def reference_dirichlet_system(g):
    """(live ids, CSC matrix, rhs) of the voltage system, one COO entry per loop step."""
    live = np.flatnonzero([x not in g.sinks for x in range(g.num_vertices)])
    pos = -np.ones(g.num_vertices, dtype=np.int64)
    pos[live] = np.arange(live.size)

    rows, cols, vals = [], [], []
    for li, x in enumerate(live):
        rows.append(li)
        cols.append(li)
        vals.append(float(len(g.adjacency[int(x)])))
        for y in g.adjacency[x]:
            if pos[y] >= 0:
                rows.append(li)
                cols.append(pos[y])
                vals.append(-1.0)
    mat = sp.csc_matrix(
        (vals, (rows, cols)), shape=(live.size, live.size), dtype=np.float64
    )
    rhs = np.zeros(live.size)
    rhs[pos[g.origin]] = 1.0
    return live, mat, rhs


def reference_solve(g):
    """HarmonicProfile from a sparse LU (scipy's splu) of reference_dirichlet_system.

    Its residual is the largest |(D - A) v - rhs| / deg over the live rows.
    """
    live, mat, rhs = reference_dirichlet_system(g)
    hv = splu(mat).solve(rhs)
    v = np.zeros(g.num_vertices)
    v[live] = hv
    green = v * np.array([len(a) for a in g.adjacency])
    return HarmonicProfile(
        voltage=v,
        green=green,
        escape_probability=1.0 / float(green[g.origin]),
        residual=float(np.max(np.abs(mat @ hv - rhs) / mat.diagonal())),
    )


def reference_weight_table(mech, voltage):
    """Flat weights in mechanism-position order, one np.dot per directed edge."""
    sizes = [len(o) for o in mech.order]
    values = np.zeros(sum(sizes))
    base = 0
    for order, d in zip(mech.order, sizes):
        if d:
            tv = voltage[np.fromiter(order, dtype=np.int64, count=d)]
            j = np.arange(d)
            for i in range(d):
                values[base + i] = -float(np.dot(j, tv[(i + 1 + j) % d])) / d
        base += d
    return values


def reference_mc_green(g, walks, seed):
    """(visits, stderr) of absorbed walks from the origin, one dense count row per walk.

    The per-step loop mc_green ran before its walks moved to a shared step
    kernel: walk i draws from Philox stream i // chunk, one uniform per
    running walk per step, in walk order.
    """
    nv = g.num_vertices
    deg = np.array([len(a) for a in g.adjacency])
    indptr = np.concatenate(([0], np.cumsum(deg)))
    flat = np.array([y for a in g.adjacency for y in a], dtype=np.int64)
    sink = np.array([x in g.sinks for x in range(nv)])

    chunk = 512
    total = np.zeros(nv)
    total_sq = np.zeros(nv)
    for start in range(0, walks, chunk):
        m = min(chunk, walks - start)
        rng = philox_generator(seed, stream=start // chunk)
        counts = np.zeros((m, nv), dtype=np.int64)
        counts[:, g.origin] = 1
        pos = np.full(m, g.origin, dtype=np.int64)
        rows = np.arange(m)
        while rows.size:
            u = rng.random(rows.size)
            d = deg[pos]
            k = np.minimum((u * d).astype(np.int64), d - 1)
            nxt = flat[indptr[pos] + k]
            running = ~sink[nxt]
            rows = rows[running]
            pos = nxt[running]
            np.add.at(counts, (rows, pos), 1)
        total += counts.sum(axis=0)
        total_sq += (counts.astype(np.float64) ** 2).sum(axis=0)

    mean = total / walks
    if walks > 1:
        var = (total_sq - walks * mean**2) / (walks - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / walks)
    else:
        stderr = np.zeros(nv)
    return mean, stderr


def reference_srw_escape_mc(g, walks, seed):
    """(p, stderr) of walks from the origin that reach a sink before returning.

    The per-step loop srw_escape_mc ran before its walks moved to a shared
    step kernel: a live mask over the chunk, one uniform per live walk per
    step, in walk order, from Philox stream i // chunk.
    """
    deg = np.array([len(a) for a in g.adjacency])
    indptr = np.concatenate(([0], np.cumsum(deg)))
    flat = np.array([y for a in g.adjacency for y in a], dtype=np.int64)
    sink = np.array([x in g.sinks for x in range(g.num_vertices)])

    chunk = 4096
    escaped = 0
    for done in range(0, walks, chunk):
        m = min(chunk, walks - done)
        rng = philox_generator(seed, stream=done // chunk)
        pos = np.full(m, g.origin, dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        while alive.any():
            idx = np.flatnonzero(alive)
            cur = pos[idx]
            u = rng.random(idx.size)
            k = np.minimum((u * deg[cur]).astype(np.int64), deg[cur] - 1)
            nxt = flat[indptr[cur] + k]
            pos[idx] = nxt
            hit_sink = sink[nxt]
            escaped += int(np.count_nonzero(hit_sink))
            alive[idx[hit_sink | (nxt == g.origin)]] = False

    p = escaped / walks
    return p, float(np.sqrt(p * (1.0 - p) / walks))
