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

A settle moves whole rounds at once (run_until_settled), with the steps,
rotors and range order of that recurrence made one move at a time.  That is
exact because a rotor changes only when a particle leaves its vertex, and
every live particle moves exactly once per round.  So the particles leaving x
in a round are the ones at x when the round starts, in turn order, and the
k-th of them (k = 0, 1, ...) takes mechanism position (rho(x) + k + 1) mod
deg(x).  Each live particle is one unsigned key x << b | u, u its turn in the
round, so one in-place sort of a round's keys puts each vertex's leavers
together in turn order; a move rewrites the vertex bits and keeps the turn.
An arrival at a sink or the origin has a code above every live vertex id
(_key_layout), so the sort of a round's arrivals also puts the finished ones
last.  settle_trials settles a group of independent runs from t = 0 on the
same round step and gives each run's survivors, exactly: a particle at x in
trial j has the key (x << c | j) << b | u, and x << c | j indexes one flat
rho of the group's rotors, so no two trials share a rotor.

The state is held in numpy arrays, which the round kernel writes in place:
rotors and the range each round, positions and statuses as a settle ends.
compute_invariant recomputes the quantity in whole arrays with the scalar
definition's floating-point operations: the rotor-weight terms are added
one at a time in first-visit order (np.add.accumulate), not pairwise as
np.sum adds, so each value is bit for bit the scalar sum's.

The round step is the one engine that moves particles, driven only by
run_until_settled and settle_trials.  A settle reports each round, a
partial first round included, through an optional hook (its movers, turns,
from and to vertices, mechanism positions taken and arrival statuses), from
which InvariantTracker, carrying each particle's voltage itself, gives the
conserved quantity after each of the round's moves, bit for bit what
compute_invariant gives on the state after that one move.
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

# up to this many (particles x vertices) an unobserved InvariantTracker
# evaluates every move; above it, about once per round
_EVENT_CHECK_BUDGET = 10**6

# particles (or rotors, if more) in a settle_trials group of several trials
_TRIAL_ELEMENTS = 1 << 16

# the round kernel's per-round hook: movers, turns, from, to, positions taken, arrival
# statuses (the state's positions and statuses are written when the settle ends)
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
    arrays that the round kernel reads and writes in place; rho0 is the
    initial configuration.  The range is a boolean mask plus the visited
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
        # the narrowest type that holds every vertex
        self.positions = np.full(n, graph.origin, dtype=np.min_scalar_type(num_vertices - 1))
        self.status = np.full(n, _AT_ORIGIN, dtype=np.int8)
        self.rho = config.pos.astype(np.int64)
        self.rho0 = self.rho.copy()
        self.survivors = n
        self.remaining = n          # particles not yet RETURNED or ABSORBED

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
    def range_order(self) -> np.ndarray:
        """The visited vertices in first-visit order (a view)."""
        return self._visits[: self._num_visited]

    @property
    def range(self) -> set[int]:
        return set(self.range_order.tolist())


def init_experiment(graph: Graph, mechanism: RotorMechanism, config: RotorConfig, n: int) -> ExperimentState:
    """Fresh state: all particles at the origin, rotors at the given configuration."""
    return ExperimentState(graph, mechanism, config, n)


def run_until_settled(
    state: ExperimentState,
    max_steps: int = DEFAULT_MAX_STEPS,
    on_round: Optional[RoundHook] = None,
) -> ExperimentState:
    """Run the round kernel, from any t, until every particle has returned or been absorbed.

    Each round's moves are made at once in numpy, reaching the state its moves
    made one at a time would reach (t, positions, rotors, statuses and the
    range in first-visit order; the module docstring says why) in the state's own
    arrays, hooked or not: positions and statuses, like t, survivors and
    remaining, are written when the settle ends or stops; rotors and the range
    are updated each round.  From part-way through a round, the live particles
    whose turns in it have passed wait and lead the next round (their keys,
    merged in, make its only second sort).  A round whose turns reach max_steps
    moves only the particles whose turns come first, then raises
    AbortedMaxSteps, naming the first live turn at or past max_steps, with t
    one past its last move; it can be resumed.

    on_round, if given, sees every move made after this call: it is called
    after each round, a partial first round included, with the round's
    movers in turn order, their turns, the vertices they left and reached,
    the mechanism positions they took and their statuses on arrival.
    """
    if max_steps < 1:
        raise InvalidParameter(f"max_steps must be >= 1, got {max_steps}")
    n, mech, origin = state.n, state.mechanism, state._origin
    num_vertices = state.graph.num_vertices
    deg = np.diff(mech.indptr)
    # status of a particle that has just arrived at each vertex
    arrival = np.full(num_vertices, _ACTIVE, dtype=np.int8)
    arrival[state.graph.is_sink] = _ABSORBED
    arrival[origin] = _RETURNED
    positions, status, rho = state.positions, state.status, state.rho
    b, _, slot_key, first, finished = _key_layout(state.graph, mech, n, 1)
    fin, turn_bits = slot_key.dtype.type(first << b), (1 << b) - 1

    # each live particle's key, vertex << b | turn (turn u is particle (u + 1) mod n);
    # those whose turns in this round have passed wait
    key = np.roll(positions, -1).astype(slot_key.dtype) << b
    key |= np.arange(n, dtype=slot_key.dtype)
    alive = np.roll(status, -1) < _RETURNED
    t = state.t
    wait, key = key[: t % n][alive[: t % n]], key[t % n :][alive[t % n :]]
    if wait.size and not key.size:  # nobody left to move in this round
        key, wait, t = wait, key, t - t % n + n
    _, rotor, start = _sort_keys(key, b, fin)
    ended, done = np.empty(n, dtype=slot_key.dtype), 0  # ended[:done]: finished keys, on arrival
    try:
        while key.size:
            round_start = t - t % n
            over = None  # the first turn at or past max_steps, if this round reaches it
            if round_start + n > max_steps:
                # as single moves would, move the particles whose turns come first
                turns = key & turn_bits
                late = turns >= max(max_steps - round_start, 0)
                if late.any():
                    over = round_start + int(turns[late].min())
                    if late.all():
                        raise AbortedMaxSteps(f"experiment not settled after {over} steps")
                    wait = np.concatenate((wait, key[late]))
                    key, last_turn = key[~late], round_start + int(turns[~late].max())
                    _, rotor, start = _sort_keys(key, b, fin)  # still sorted
            slot, nxt = _round_step(key, rotor, start, b, 0, rho, deg, mech.indptr, slot_key)
            if on_round is not None:  # the round's moves in turn order, read before the sort
                turns = np.bitwise_and(nxt, turn_bits, dtype=np.intp)
                order = np.argsort(turns)
                turns, slot, x = turns[order], slot[order], rotor[order]
                y = mech.flat[slot]
                moves = (turns + 1) % n, round_start + turns, x, y, slot - mech.indptr[x], arrival[y]
            del slot, rotor  # freed before the next round's rotors are made
            live, rotor, start = _sort_keys(nxt, b, fin)
            ended[done : done + nxt.size - live] = nxt[live:]
            done += nxt.size - live
            key = nxt[:live]
            if state._num_visited < num_vertices:
                _visit_first(state, nxt, start, b, first, finished)
            if on_round is not None:
                on_round(*moves)
            if over is not None:
                t = last_turn + 1  # one past the last mover: the round stops short of max_steps
                raise AbortedMaxSteps(f"experiment not settled after {over} steps")
            if wait.size:  # the particles that did not move in this round move in the next
                key, wait = np.concatenate((wait, key)), wait[:0]
                _, rotor, start = _sort_keys(key, b, fin)
            # t after the round: its end, or one past the last mover if all finished
            t = round_start + n if key.size else round_start + int((nxt & turn_bits).max()) + 1
    finally:
        keys = np.concatenate((ended[:done], key, wait))
        y = (keys >> b).astype(np.intp)
        y[:done] = finished[y[:done] - first]  # the finished codes
        arrived = arrival[y]
        arrived[done:][y[done:] == origin] = _AT_ORIGIN  # a live particle there has not moved
        movers = ((keys & turn_bits) + 1) % n
        positions[movers] = y
        status[movers] = arrived
        state.t = t
        state.survivors = n - int(np.count_nonzero(status == _RETURNED))
        state.remaining = int(np.count_nonzero(status < _RETURNED))
    return state


def _key_layout(graph: Graph, mechanism: RotorMechanism, n: int, group: int):
    """The bit widths b and c of a settle's particle keys, each flat slot's key, and the finished codes.

    A particle of turn u at vertex code x, in trial j of a group of runs, is
    the key (x << c | j) << b | u, where b and c are the bit lengths of n - 1
    and group - 1, in the narrowest unsigned type that holds the largest key.
    Its rotor is key >> b.  Leaving through flat slot s, it takes the key
    slot_key[s] | (key & low), low being the b + c low bits.  A live vertex
    is its own code; code first + k, first being one past every live id, is
    an arrival at finished[k]: the k-th sink (which keeps its id if all the
    sinks come last) or, last, the origin.
    """
    num_vertices = graph.num_vertices
    finished = np.append(np.flatnonzero(graph.is_sink), graph.origin).astype(
        np.min_scalar_type(num_vertices - 1))
    first = num_vertices - int(graph.is_sink[::-1].argmin())  # one past the last live id
    b, c = (n - 1).bit_length(), (group - 1).bit_length()
    top = ((first + finished.size - 1) << c | (group - 1)) << b | (n - 1)
    code = np.arange(num_vertices, dtype=np.min_scalar_type(top))
    code[finished] = np.arange(first, first + finished.size, dtype=code.dtype)
    slot_key = code[mechanism.flat]
    slot_key <<= b + c
    return b, c, slot_key, first, finished


def _round_step(key, rotor, start, b, c, rho, deg, indptr, slot_key):
    """Move one round's particles, given as sorted keys; return their slots taken and next keys.

    rotor and start are _sort_keys(key, ...)'s: sorted, each rotor's leavers
    are together in turn order.  The leaver at index k of a group starting at
    index start takes mechanism position (rho + k - start + 1) mod deg, and
    the group's last leaver's position is the new rotor (rho is indexed by
    rotor and written in place; its type must hold rho - key.size).
    """
    x = rotor >> c if c else rotor
    start = start[: start.searchsorted(key.size)]  # start may run on into a finished tail
    end = start - 1
    # rho - start, for one gather; every rotor moved here is set again below
    rho[rotor[start]] -= start
    slot = np.arange(1, key.size + 1)  # k - start + 1, once rho - start is added
    slot += rho[rotor]
    slot %= deg[x]
    rho[rotor[end]] = slot[end]
    rho[rotor.item(-1)] = slot.item(-1)
    slot += indptr[x]
    nxt = slot_key[slot]
    nxt |= key & ((1 << (b + c)) - 1)  # the turn and the trial carry over
    return slot, nxt


def _sort_keys(key, b, fin):
    """Sort keys in place, finished ones (from fin on) last; return the live count, the live
    keys' rotors and, over all the keys, the start of every group of one rotor but the first."""
    key.sort()
    live = int(key.searchsorted(fin))
    rotor = (key >> b).astype(np.intp)
    return live, rotor[:live], (rotor[1:] != rotor[:-1]).nonzero()[0] + 1


def _visit_first(state: ExperimentState, arrivals, start, b, first, finished) -> None:
    """Add the unvisited vertices a round's sorted arrivals reach to the range, by first arrival.

    start indexes every group of arrivals at one code but the first: each
    group's first key holds its smallest turn, which orders the vertices.
    """
    heads = arrivals[np.concatenate(([0], start))]
    y = (heads >> b).astype(np.intp)
    y[y >= first] = finished[y[y >= first] - first]  # the finished codes
    fresh = ~state._range_mask[y]
    y = y[fresh][np.argsort(heads[fresh] & ((1 << b) - 1))]
    state._range_mask[y] = True
    state._visits[state._num_visited : state._num_visited + y.size] = y
    state._num_visited += y.size


def settle_trials(
    graph: Graph, mechanism: RotorMechanism, configs: Iterable[RotorConfig], n: int,
) -> list[int]:
    """Settle n particles from each configuration; return every run's survivors.

    Each run's survivors are run_until_settled's from t = 0.  Every run
    ends: each particle reaches the origin or a sink.  configs is read and
    settled in groups of max(1, _TRIAL_ELEMENTS // max(n, V)), on the round
    step of run_until_settled with each run's trial bits in its keys; each
    round's returns, the top of its sorted arrivals, are counted by trial.
    """
    if n < 1:
        raise InvalidParameter(f"particle count must be >= 1, got {n}")
    check_mechanism(graph, mechanism)
    num_vertices, origin = graph.num_vertices, graph.origin
    deg = np.diff(mechanism.indptr)
    survivors, configs = [], iter(configs)
    while group := list(islice(configs, max(1, _TRIAL_ELEMENTS // max(n, num_vertices)))):
        for config in group:
            check_config(graph, config)
        b, c, slot_key, first, finished = _key_layout(graph, mechanism, n, len(group))
        fin, back = np.array([first, first + finished.size - 1], slot_key.dtype) << (b + c)
        # rotor x << c | j is vertex x's rotor in trial j.  int32 holds every
        # position and, in a round step, rho - start for any group of fewer
        # than 2^31 particles
        rho = np.empty((num_vertices, 1 << c), dtype=np.int32)
        for j, config in enumerate(group):
            rho[:, j] = config.pos
        rho = rho.ravel()
        key = (((origin << c | np.arange(len(group))) << b)[:, None] | np.arange(n)).ravel()
        key = key.astype(slot_key.dtype)
        _, rotor, start = _sort_keys(key, b, fin)
        returned = np.zeros(len(group), dtype=np.intp)
        while key.size:
            nxt = _round_step(key, rotor, start, b, c, rho, deg, mechanism.indptr, slot_key)[1]
            del rotor  # freed before the next round's rotors are made
            live, rotor, start = _sort_keys(nxt, b, fin)
            trial = (nxt[nxt.searchsorted(back) :] >> b) & ((1 << c) - 1)
            returned += np.bincount(trial.astype(np.intp), minlength=len(group))
            key = nxt[:live]
        survivors += (n - returned).tolist()
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
    compute_invariant's values on the state after that one move, and folds
    their deviation from n * v(origin) into max_dev.  It evaluates every move
    if an observer is given or particles x vertices is within
    _EVENT_CHECK_BUDGET; above it, about once per round: the first move whose
    t reaches the next check, which is then that t + n.  observer, if given,
    is called after each round with the state, whose positions and statuses
    the settle writes as it ends, and the round's RoundMoves.

    Each particle's voltage is read from the state's positions at
    construction and set from every round's targets after.  The rotor-weight
    terms of the live range, in first-visit order, are carried from round to
    round (read from the state's rotors after each round) in one row after a
    running total.  Each evaluated move, in turn order, sets its particle's
    voltage and its vertex's term, sets the total to the voltages' sum plus
    min(t, n)/deg(origin) and folds the row with np.add.accumulate.  Those
    are compute_invariant's float64 operations: the voltages are one
    contiguous array of length n, so their sum is the pairwise np.sum it
    takes of v[positions], and Python's float + and true division of ints
    below 2^53 are numpy's.  A vertex first visited during a round had no
    particle at the round's start (or, in a partial first round, when this
    was built), so none leaves it in that round: its term is +0.0, which
    leaves the running total's bits unchanged, so every move may use the
    range at the round's end.
    """

    def __init__(self, state: ExperimentState, profile: HarmonicProfile, wt: WeightTable,
                 observer: Optional[Callable[[ExperimentState, RoundMoves], None]] = None):
        self._state, self._profile, self._wt, self._observer = state, profile, wt, observer
        value = compute_invariant(state, profile, wt)  # checks the dimensions before any lookup
        self._v = profile.voltage
        self._vpos = self._v[state.positions]  # each particle's voltage, advanced every round
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
        self._row = np.empty(num_vertices + 1)  # a running total, then the columns' terms
        self._terms = self._row[1:]  # rotor-weight term of each column
        self._folded = np.empty(num_vertices + 1)  # the row's left fold
        self._cols = 0
        self._seen = 0  # entries of range_order given their column
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

        cols, base = self._col[source], self._indptr[source]
        w0 = values[base + st.rho0[source]]
        out = np.empty(stop - first)
        if out.size:
            self._evaluate(movers, turns, source, target, values[base + taken] - w0, cols,
                           first, stop, out)
            self._fold(out)
        # the voltages and rotors the round left behind, as compute_invariant reads them
        self._vpos[movers] = self._v[target]
        self._terms[cols] = values[base + st.rho[source]] - w0
        if self._observer is not None:
            left = self._survivors - np.cumsum(arrived == _RETURNED)
            self._survivors = int(left[-1])
            self._observer(st, RoundMoves(turns, movers, source, target, arrived, left, out))

    def _evaluate(self, movers, turns, source, target, moved_terms, cols, first, stop, out):
        v, n, deg_origin, terms, vpos = self._v, self._state.n, self._deg_origin, self._terms, self._vpos
        row, folded = self._row[: self._cols + 1], self._folded[: self._cols + 1]
        # the live range's terms and the particle voltages before move `first`
        # (edited in place: on_round resets every moved column and mover after)
        if first:
            done = cols[:first][::-1]
            _, last = np.unique(done, return_index=True)  # each column's last move
            terms[done[last]] = moved_terms[first - 1 - last]
            vpos[movers[:first]] = v[target[:first]]
        moves = (a[first:stop].tolist() for a in (movers, v[target], cols, moved_terms, turns + 1))
        for k, (i, vy, col, term, t) in enumerate(zip(*moves)):
            vpos[i] = vy
            terms[col] = term
            row[0] = float(vpos.sum()) + min(t, n) / deg_origin
            np.add.accumulate(row, out=folded)
            out[k] = folded[-1]
