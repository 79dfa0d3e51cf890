"""The n-particle rotor walk escape experiment.

All n particles start at the origin.  Step t processes particle
i_t = (t+1) mod n, so within each round particle 1 moves first and particle
0 last.  A particle that has returned to the origin, or that sits on a sink,
does nothing (t still advances).  Otherwise the rotor at its position
advances one mechanism position and the particle follows the new rotor.

The conserved quantity checked throughout is

    sum over particles of v(position)
      + min(t, n) / deg(origin)
      + sum over visited non-sink x of (w(current rotor of x) - w(initial rotor of x))

which stays exactly equal to its t=0 value n * v(origin) for every initial
configuration.  Survivors are the particles that have not returned; on a
sink truncation the settled survivor count is the experiment's escape count.

A settle moves whole rounds at once (run_until_settled), with the same steps,
rotors and range order as step().  That is exact because a rotor changes
only when a particle leaves its vertex, and every live particle moves
exactly once per round.  So the particles leaving x in a round are the ones
at x when the round starts, in turn order, and the k-th of them (k = 0, 1,
...) takes mechanism position (rho(x) + k + 1) mod deg(x).  settle_trials
settles a group of independent runs from t = 0 on the same kernel and
gives each run's survivors, exactly: a particle at x in trial j sorts under
the key j·V + x into one flat rho of the group's rotors, so no two trials
share a key, and the stable sort keeps each trial's turn order among the
leavers of its rotor.

The state is held in numpy arrays, which step() and the round kernel both
write in place.  compute_invariant recomputes the quantity in whole arrays
with the scalar definition's floating-point operations: the rotor-weight
terms are added one at a time in first-visit order (np.add.accumulate), not
pairwise as np.sum adds, so each value is bit for bit the scalar sum's.

step() is the single-move engine and the reference the kernel is tested
against; run_until_settled never calls it.  The kernel reports each round,
a partial first round included, through an optional hook (its movers,
turns, from and to vertices, mechanism positions taken and arrival
statuses), from which InvariantTracker gives the conserved quantity after
each of the round's moves, bit for bit what compute_invariant gives after
the same move of step().
"""
from __future__ import annotations

from enum import IntEnum
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import AbortedMaxSteps, DimensionMismatch, InvalidParameter
from .graphs import Graph, RotorMechanism, check_mechanism
from .harmonic import HarmonicProfile
from .weights import RotorConfig, WeightTable, check_config

DEFAULT_MAX_STEPS = 10**9

# elements in each block matrix of InvariantTracker; larger rounds are split
_BLOCK_ELEMENTS = 1 << 15

# up to this many (particles x vertices) an unobserved InvariantTracker
# evaluates every move; above it, about once per round
_EVENT_CHECK_BUDGET = 10**6

# particles (or rotors, if more) in a settle_trials group of several trials; keys fit in 16 bits
_TRIAL_ELEMENTS = 1 << 16

# the round kernel's per-round hook: movers, turns, from, to, positions taken, arrival statuses
RoundHook = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]


class ParticleStatus(IntEnum):
    AT_ORIGIN = 0   # never left the origin
    ACTIVE = 1      # away from the origin, not yet settled
    RETURNED = 2    # came back to the origin after leaving; moves no more
    ABSORBED = 3    # reached a sink; escaped


_AT_ORIGIN = int(ParticleStatus.AT_ORIGIN)
_ACTIVE = int(ParticleStatus.ACTIVE)
_RETURNED = int(ParticleStatus.RETURNED)
_ABSORBED = int(ParticleStatus.ABSORBED)


class ExperimentState:
    """Mutable state of one experiment run, held in numpy arrays.

    positions, status and rho (the current rotor positions, -1 at sinks) are
    arrays that step() and the round kernel read and write in place; rho0 is
    the initial configuration.  The range is a boolean mask plus the visited
    vertices in first-visit order (range_order).  Graph and mechanism are
    shared read-only.
    """

    def __init__(self, graph: Graph, mechanism: RotorMechanism, config: RotorConfig, n: int):
        if n < 1:
            raise InvalidParameter(f"particle count must be >= 1, got {n}")
        check_mechanism(graph, mechanism)
        check_config(graph, config)

        self.graph = graph
        self.mechanism = mechanism
        self.n = n
        self.t = 0
        num_vertices = graph.num_vertices
        # the smallest vertex type: with V <= 65536 it is uint16, which the
        # round kernel's stable argsort sorts by radix
        self.positions = np.full(n, graph.origin, dtype=np.min_scalar_type(num_vertices - 1))
        self.status = np.full(n, _AT_ORIGIN, dtype=np.int8)
        self.rho = config.pos.astype(np.int64)
        self.rho0 = self.rho.copy()
        self.survivors = n
        self.remaining = n          # particles not yet RETURNED or ABSORBED
        self.last_event: Optional[tuple[int, int, int]] = None  # (mover, from, to)

        self._range_mask = np.zeros(num_vertices, dtype=bool)
        self._range_mask[graph.origin] = True
        self._visits = np.empty(num_vertices, dtype=np.intp)  # first _num_visited are the range
        self._visits[0] = graph.origin
        self._num_visited = 1
        self._origin = graph.origin

    @property
    def settled(self) -> bool:
        return self.remaining == 0

    @property
    def statuses(self) -> list[ParticleStatus]:
        return [ParticleStatus(s) for s in self.status.tolist()]

    @property
    def range_order(self) -> np.ndarray:
        """The visited vertices in first-visit order (a view)."""
        return self._visits[: self._num_visited]

    @property
    def range(self) -> set[int]:
        return set(self.range_order.tolist())


def init_experiment(graph: Graph, mechanism: RotorMechanism, config: RotorConfig, n: int) -> ExperimentState:
    """Fresh state: all particles at the origin, rotors at the given configuration."""
    return ExperimentState(graph, mechanism, config, n)


def step(state: ExperimentState) -> ExperimentState:
    """Process one step for particle (t+1) mod n and advance t."""
    t = state.t
    i = (t + 1) % state.n
    st = state.status.item(i)
    if st >= _RETURNED:
        state.last_event = None
        state.t = t + 1
        return state
    x = state.positions.item(i)  # never a sink: arrival there marks ABSORBED
    indptr = state.mechanism.indptr
    base = indptr.item(x)
    r = state.rho.item(x) + 1
    if r == indptr.item(x + 1) - base:
        r = 0
    state.rho[x] = r
    y = state.mechanism.flat.item(base + r)
    state.positions[i] = y
    if not state._range_mask[y]:
        state._range_mask[y] = True
        state._visits[state._num_visited] = y
        state._num_visited += 1

    if y == state._origin:
        state.status[i] = _RETURNED
        state.survivors -= 1
        state.remaining -= 1
    elif state.graph.is_sink.item(y):
        state.status[i] = _ABSORBED
        state.remaining -= 1
    elif st == _AT_ORIGIN:
        state.status[i] = _ACTIVE

    state.last_event = (i, x, y)
    state.t = t + 1
    return state


def run_until_settled(
    state: ExperimentState,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_round: Optional[RoundHook] = None,
) -> ExperimentState:
    """Run the round kernel, from any t, until every particle has returned or been absorbed.

    Each round's moves are made at once in numpy, reaching the state step()
    would reach (t, positions, rotors, statuses and the range in first-visit
    order; the module docstring says why) in the state's own arrays.  From
    part-way through a round, the live particles whose turns in it have
    passed wait and lead the next round.  A round whose turns reach
    max_steps moves only the particles whose turns come first, then raises
    AbortedMaxSteps, naming the first live turn at or past max_steps, with t
    one past its last move; it can be resumed.

    on_round, if given, sees every move made after this call: it is called
    after each round, a partial first round included, has been written to
    the state's arrays (t, survivors and remaining are written when the
    settle ends) with the round's movers in turn order, their turns, the
    vertices they left and reached, the mechanism positions they took and
    their statuses on arrival.
    """
    if max_steps < 1:
        raise InvalidParameter(f"max_steps must be >= 1, got {max_steps}")
    n, mech, num_vertices = state.n, state.mechanism, state.graph.num_vertices
    deg = np.diff(mech.indptr)
    # status of a particle that has just arrived at each vertex
    arrival = np.full(num_vertices, _ACTIVE, dtype=np.int8)
    arrival[state.graph.is_sink] = _ABSORBED
    arrival[state._origin] = _RETURNED
    positions, status, rho, range_mask = (
        state.positions, state.status, state.rho, state._range_mask)

    # turn order 1, 2, ..., n-1, 0; particle i moves at round_start + (i-1) mod n
    live = np.roll(np.arange(n), -1)
    live = live[status[live] < _RETURNED]
    t = state.t
    wait = live[: np.searchsorted((live - 1) % n, t % n)]  # turns passed in this round
    live = live[wait.size :]
    if wait.size and not live.size:  # nobody left to move in this round
        live, wait, t = wait, live, t - t % n + n
    try:
        while live.size:
            round_start = t - t % n
            last_turn = round_start + (int(live[-1]) - 1) % n
            over = None  # the first turn at or past max_steps, if this round reaches it
            if last_turn >= max_steps:
                # as step() does, move the particles whose turns come first
                turns = round_start + (live - 1) % n
                k = int(np.searchsorted(turns, max_steps))
                over = int(turns[k])
                if k == 0:
                    raise AbortedMaxSteps(f"experiment not settled after {over} steps")
                live, last_turn = live[:k], int(turns[k - 1])
            x = positions[live]
            taken = None if on_round is None else np.empty(live.size, dtype=np.intp)
            y = _leave_together(x, x, rho, deg, mech, taken)
            positions[live] = y

            seen = state._num_visited
            if seen < num_vertices:
                fresh = y[~range_mask[y]]
                if fresh.size:
                    _, first = np.unique(fresh, return_index=True)
                    fresh = fresh[np.sort(first)]
                    range_mask[fresh] = True
                    state._visits[seen : seen + fresh.size] = fresh
                    state._num_visited = seen + fresh.size

            arrived = arrival[y]
            status[live] = arrived
            if on_round is not None:
                on_round(live, round_start + (live - 1) % n, x, y, taken, arrived)
            live = live[arrived == _ACTIVE]
            if wait.size:  # the waiting particles' turns come first in the next round
                live, wait = np.concatenate((wait, live)), wait[:0]
            # t after the round: its end, or one past the last mover if all
            # finished or the round stops short of max_steps
            t = round_start + n if live.size and over is None else last_turn + 1
            if over is not None:
                raise AbortedMaxSteps(f"experiment not settled after {over} steps")
    finally:
        state.t = t
        state.survivors = n - int(np.count_nonzero(status == _RETURNED))
        state.remaining = int(np.count_nonzero(status < _RETURNED))
    state.last_event = None
    return state


def _leave_together(
    key: np.ndarray, x: np.ndarray, rho: np.ndarray, deg: np.ndarray, mech: RotorMechanism,
    taken: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Move one round's particles, at vertices x in turn order; return their targets.

    key is each particle's index into rho: its vertex in a single run, which
    passes x itself (no extra gather), or trial·V + vertex in settle_trials.
    A stable sort of key groups each rotor's leavers in turn order; the k-th
    of them takes position (rho + k + 1) mod deg, and the last one's
    position is the new rotor (rho is updated in place).  If taken is given,
    the positions taken are written to it in turn order.
    """
    order = np.argsort(key, kind="stable")
    ks = key[order].astype(np.intp)
    xs = ks if key is x else x[order]
    m = ks.size
    # each rotor's leavers form a run of ks: k minus the run's start is the rank
    run_edge = np.empty(m + 1, dtype=bool)
    run_edge[0] = run_edge[m] = True
    np.not_equal(ks[1:], ks[:-1], out=run_edge[1:m])
    k = np.arange(m)
    r = np.where(run_edge[:m], k, 0)
    np.maximum.accumulate(r, out=r)
    np.subtract(k, r, out=r)
    # r: rank, then the mechanism position taken, then its flat index
    r += rho[ks]
    r += 1
    r %= deg[xs]
    last = np.flatnonzero(run_edge[1:])  # the last leaver sets the rotor
    rho[ks[last]] = r[last]
    if taken is not None:
        taken[order] = r
    r += mech.indptr[xs]
    y = np.empty(m, dtype=np.intp)
    y[order] = mech.flat[r]
    return y


def settle_trials(
    graph: Graph, mechanism: RotorMechanism, configs: Iterable[RotorConfig], n: int,
) -> list[int]:
    """Settle n particles from each configuration; return every run's survivors.

    Each run's survivors are run_until_settled's from t = 0.  Every run
    ends: each particle reaches the origin or a sink.  configs is read and
    settled in groups of max(1, _TRIAL_ELEMENTS // max(n, V)).
    """
    if n < 1:
        raise InvalidParameter(f"particle count must be >= 1, got {n}")
    check_mechanism(graph, mechanism)
    num_vertices, origin = graph.num_vertices, graph.origin
    deg = np.diff(mechanism.indptr)
    stays = ~graph.is_sink & (np.arange(num_vertices) != origin)  # arriving there leaves it live
    survivors, configs = [], iter(configs)
    while group := list(islice(configs, max(1, _TRIAL_ELEMENTS // max(n, num_vertices)))):
        for config in group:
            check_config(graph, config)
        rho = np.concatenate([config.pos for config in group]).astype(np.int64, copy=False)
        positions = np.full(len(group) * n, origin, dtype=np.min_scalar_type(num_vertices - 1))
        # particle i of trial j is j*n + i; each trial's particles in turn order, trial after trial
        live = (np.arange(len(group))[:, None] * n + np.roll(np.arange(n), -1)).ravel()
        while live.size:
            x = positions[live]
            key = (live // n * num_vertices + x).astype(np.min_scalar_type(rho.size - 1))
            y = _leave_together(key, x, rho, deg, mechanism)
            positions[live] = y
            live = live[stays[y]]
        survivors += (n - np.count_nonzero(positions.reshape(-1, n) == origin, axis=1)).tolist()
    return survivors


def compute_invariant(state: ExperimentState, profile: HarmonicProfile, wt: WeightTable) -> float:
    """Recompute the conserved quantity from the current state, in whole arrays.

    Independent of any bookkeeping done while stepping: sums are taken fresh
    over particle positions and the visited range.  The rotor-weight terms
    w(rho(x)) - w(rho0(x)) of the live range are added one at a time, in
    first-visit order, onto the running total: np.add.accumulate is that
    sequential sum, while np.sum adds pairwise and would change the last bits
    (and with them the trace's invariant column).
    """
    g = state.graph
    if profile.voltage.shape != (g.num_vertices,):
        raise DimensionMismatch("profile does not match the experiment's graph")
    indptr = state.mechanism.indptr
    if len(wt.indptr) != g.num_vertices + 1 or wt.indptr[-1] != indptr[-1]:
        raise DimensionMismatch("weight table does not match the experiment's mechanism")
    v = profile.voltage
    o = state._origin
    total = float(np.sum(v[state.positions]))
    total += min(state.t, state.n) / int(indptr[o + 1] - indptr[o])

    xs = state.range_order[~g.is_sink[state.range_order]]
    base = indptr[xs]
    terms = np.empty(xs.size + 1)
    terms[0] = total
    np.subtract(wt.values[base + state.rho[xs]], wt.values[base + state.rho0[xs]], out=terms[1:])
    return float(np.add.accumulate(terms)[-1])


class RoundMoves(NamedTuple):
    """The moves of one round in turn order, as parallel arrays."""

    t: np.ndarray          # the turn of each move (t before it)
    mover: np.ndarray
    source: np.ndarray     # the vertex the mover left
    target: np.ndarray     # the vertex it reached
    status: np.ndarray     # its status on arrival
    survivors: np.ndarray  # survivors after the move
    invariant: np.ndarray  # the conserved quantity after the move


class InvariantTracker:
    """The conserved quantity after the round kernel's moves, and its worst deviation.

    Build it at the state a settle starts from, at any t, and pass on_round
    to run_until_settled, so it sees every later move (a partial first round
    included).  compute_invariant samples the state at construction and in
    finish(); in between, on_round evaluates moves of each round, bit for bit
    compute_invariant's values after the same move of step(), and folds
    their deviation from n * v(origin) into max_dev.  It evaluates every move
    if an observer is given or particles x vertices is within
    _EVENT_CHECK_BUDGET; above it, about once per round: the first move whose
    t reaches the next check, which is then that t + n.  observer, if given,
    is called after each round with the state and the round's RoundMoves.

    The rotor-weight terms of the live range, in first-visit order, are
    carried from round to round (read from the state's rotors after each
    round).  For the evaluated moves it builds, per block of moves, two
    matrices with one row per move:

    - v at every particle's position after that move, summed with
      np.sum(axis=1), which on contiguous rows is the pairwise sum np.sum
      takes of each row alone;
    - that sum plus min(t, n)/deg(origin), then the live range's
      rotor-weight terms, folded left to right with np.add.accumulate.

    A vertex first visited during a round had no particle at the round's
    start (or, in a partial first round, when this was built), so none
    leaves it in that round: its term is +0.0, which leaves the running
    total's bits unchanged, so every row may use the range at the round's
    end.  Each block matrix holds at most _BLOCK_ELEMENTS elements.
    """

    def __init__(self, state: ExperimentState, profile: HarmonicProfile, wt: WeightTable,
                 observer: Optional[Callable[[ExperimentState, RoundMoves], None]] = None):
        self._state, self._profile, self._wt, self._observer = state, profile, wt, observer
        value = compute_invariant(state, profile, wt)  # checks the dimensions before any lookup
        self._v = profile.voltage
        self.target = float(state.n * self._v[state.graph.origin])
        self.max_dev = 0.0
        self._fold(value)
        num_vertices = state.graph.num_vertices
        self._every_move = observer is not None or state.n * num_vertices <= _EVENT_CHECK_BUDGET
        self._next_check = state.t + state.n
        self._survivors = state.survivors
        self._values = wt.values
        self._indptr = state.mechanism.indptr
        o = state._origin
        self._deg_origin = int(self._indptr[o + 1] - self._indptr[o])
        self._col = np.full(num_vertices, -1, dtype=np.intp)  # column of each live range vertex
        self._terms = np.empty(num_vertices)  # rotor-weight term of each column
        self._cols = 0
        self._seen = 0  # entries of range_order given their column
        self._slot = np.empty(num_vertices, dtype=np.intp)  # scratch: a block's move per column
        self._tri = np.ones((0, 0), dtype=bool)
        self._add_range()

    def _fold(self, values) -> None:
        self.max_dev = max(self.max_dev, float(np.abs(values - self.target).max()))

    def finish(self) -> float:
        """Sample the state once more and return the worst deviation seen."""
        self._fold(compute_invariant(self._state, self._profile, self._wt))
        return self.max_dev

    def _add_range(self) -> None:
        """Give the live vertices visited since the last call their columns and terms."""
        st = self._state
        if st._num_visited == self._seen:
            return
        fresh = st.range_order[self._seen :]
        fresh = fresh[~st.graph.is_sink[fresh]]
        self._seen = st._num_visited
        cols = np.arange(self._cols, self._cols + fresh.size)
        self._col[fresh] = cols
        base = self._indptr[fresh]
        self._terms[cols] = self._values[base + st.rho[fresh]] - self._values[base + st.rho0[fresh]]
        self._cols += fresh.size

    def on_round(self, movers, turns, source, target, taken, arrived) -> None:
        """The run_until_settled hook: evaluate the round's moves, fold them in, observe them."""
        st, values = self._state, self._values
        first, stop = 0, movers.size
        if not self._every_move:
            # t after a move is its turn + 1
            first = int(np.searchsorted(turns, self._next_check - 1))
            stop = min(first + 1, stop)
            if first < stop:
                self._next_check = int(turns[first]) + 1 + st.n
        self._add_range()  # vertices first visited in this round: none of them was left

        cols = self._col[source]
        base = self._indptr[source]
        w0 = values[base + st.rho0[source]]
        out = np.empty(stop - first)
        if out.size:
            self._evaluate(movers, turns, source, target, values[base + taken] - w0, cols,
                           first, stop, out)
            self._fold(out)
        # the rotors the round left behind, as compute_invariant reads them
        self._terms[cols] = values[base + st.rho[source]] - w0
        if self._observer is not None:
            left = self._survivors - np.cumsum(arrived == _RETURNED)
            self._survivors = int(left[-1])
            self._observer(st, RoundMoves(turns, movers, source, target, arrived, left, out))

    def _evaluate(self, movers, turns, source, target, moved_terms, cols, first, stop, out):
        v, n = self._v, self._state.n
        # the live range's terms and the particle voltages before move `first`
        terms = self._terms[: self._cols].copy()
        if first:
            done = cols[:first][::-1]
            _, last = np.unique(done, return_index=True)  # each column's last move
            terms[done[last]] = moved_terms[first - 1 - last]
        vpos = v[self._state.positions]
        vpos[movers[first:]] = v[source[first:]]
        vtarget = v[target]

        rows = max(1, _BLOCK_ELEMENTS // max(n, self._cols + 1))
        if self._tri.shape[0] < min(rows, stop - first):
            self._tri = np.tri(min(rows, stop - first), dtype=bool)
        for a in range(first, stop, rows):
            b = min(a + rows, stop)
            k = b - a
            moved = self._tri[:k, :k]  # row r is after moves a..a+r: moved[r, j] is j <= r
            m = movers[a:b]
            pv = np.empty((k, n))
            pv[:] = vpos
            pv[:, m] = np.where(moved, vtarget[a:b], vpos[m])
            total = np.empty((k, self._cols + 1))
            np.add(pv.sum(axis=1), np.minimum(turns[a:b] + 1, n) / self._deg_origin,
                   out=total[:, 0])
            total[:, 1:] = terms
            # a column's term in row r is its latest move's up to r; the moves
            # of one column share one slot j, and latest[r, j] is that move
            c = cols[a:b]
            ks = np.arange(k)
            self._slot[c] = ks
            slot = self._slot[c]
            latest = np.empty((k, k), dtype=np.intp)
            latest.fill(-1)
            latest[ks, slot] = ks
            np.maximum.accumulate(latest, axis=0, out=latest)
            now = np.where(latest >= 0, moved_terms[a:b][latest], terms[c])[:, slot]
            total[:, 1 + c] = now
            out[a - first : b - first] = np.add.accumulate(total, axis=1)[:, -1]
            vpos[m] = vtarget[a:b]
            terms[c] = now[-1]
