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
"""
from __future__ import annotations

from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from .errors import AbortedMaxSteps, DimensionMismatch, InvalidParameter
from .graphs import Graph, RotorMechanism, check_mechanism
from .harmonic import HarmonicProfile
from .weights import RotorConfig, WeightTable, check_config

DEFAULT_MAX_STEPS = 10**9


class ParticleStatus(IntEnum):
    AT_ORIGIN = 0   # never left the origin
    ACTIVE = 1      # away from the origin, not yet settled
    RETURNED = 2    # came back to the origin after leaving; moves no more
    ABSORBED = 3    # reached a sink; escaped

    @property
    def terminal(self) -> bool:
        return self >= ParticleStatus.RETURNED


_AT_ORIGIN = int(ParticleStatus.AT_ORIGIN)
_ACTIVE = int(ParticleStatus.ACTIVE)
_RETURNED = int(ParticleStatus.RETURNED)
_ABSORBED = int(ParticleStatus.ABSORBED)


class ExperimentState:
    """Mutable state of one experiment run.

    step() advances this object in place.  Graph, mechanism and the initial
    configuration are shared read-only; everything mutable lives here.
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
        self.positions: list[int] = [graph.origin] * n
        self.status: list[int] = [_AT_ORIGIN] * n
        self.rho: list[int] = list(config.pos)
        self.rho0: tuple[int, ...] = config.pos
        self.survivors = n
        self.remaining = n          # particles not yet RETURNED or ABSORBED
        self.last_event: Optional[tuple[int, int, int]] = None  # (mover, from, to)

        self._range_mask = bytearray(graph.num_vertices)
        self._range_mask[graph.origin] = 1
        self._range_list: list[int] = [graph.origin]

        # flat lookups for the hot loop
        self._origin = graph.origin
        self._deg: list[int] = [len(o) for o in mechanism.order]
        self._sink: list[bool] = [bool(b) for b in graph.is_sink]
        self._mt: list[int] = mechanism.flat.tolist()
        self._mi: list[int] = mechanism.indptr.tolist()

    @property
    def settled(self) -> bool:
        return self.remaining == 0

    @property
    def statuses(self) -> list[ParticleStatus]:
        return [ParticleStatus(s) for s in self.status]

    @property
    def range(self) -> set[int]:
        return set(self._range_list)

    def rotor_config(self) -> RotorConfig:
        pos = tuple(-1 if self._sink[x] else p for x, p in enumerate(self.rho))
        return RotorConfig(pos=pos)


def init_experiment(graph: Graph, mechanism: RotorMechanism, config: RotorConfig, n: int) -> ExperimentState:
    """Fresh state: all particles at the origin, rotors at the given configuration."""
    return ExperimentState(graph, mechanism, config, n)


def step(state: ExperimentState) -> ExperimentState:
    """Process one step for particle (t+1) mod n and advance t."""
    t = state.t
    i = (t + 1) % state.n
    st = state.status[i]
    if st >= _RETURNED:
        state.last_event = None
        state.t = t + 1
        return state
    x = state.positions[i]
    if state._sink[x]:
        # unreachable once status tracking marks arrivals, kept as a guard
        state.last_event = None
        state.t = t + 1
        return state

    r = state.rho[x] + 1
    if r == state._deg[x]:
        r = 0
    state.rho[x] = r
    y = state._mt[state._mi[x] + r]
    state.positions[i] = y
    if not state._range_mask[y]:
        state._range_mask[y] = 1
        state._range_list.append(y)

    if y == state._origin:
        state.status[i] = _RETURNED
        state.survivors -= 1
        state.remaining -= 1
    elif state._sink[y]:
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
    observer: Optional[Callable[[ExperimentState], None]] = None,
) -> ExperimentState:
    """Step until every particle has returned or been absorbed.

    max_steps caps the total step counter t; exceeding it raises
    AbortedMaxSteps.  The observer, if given, is called after every actual
    move (steps where a terminal particle does nothing change no state
    besides t, and for t >= n they provably cannot change the invariant, so
    they are skipped wholesale).
    """
    if max_steps < 1:
        raise InvalidParameter(f"max_steps must be >= 1, got {max_steps}")
    n = state.n

    # finish any partial round step by step
    while not state.settled and state.t % n != 0:
        if state.t >= max_steps:
            raise AbortedMaxSteps(f"experiment not settled after {state.t} steps")
        step(state)
        if observer is not None and state.last_event is not None:
            observer(state)

    # round order: particle i moves at t = round_start + (i-1) mod n
    live = sorted(
        (i for i in range(n) if state.status[i] < _RETURNED),
        key=lambda i: (i - 1) % n,
    )
    if observer is None:
        return _run_rounds_fast(state, live, max_steps)

    status = state.status
    while live:
        round_start = state.t
        nxt = []
        for i in live:
            turn = round_start + (i - 1) % n
            if turn >= max_steps:
                raise AbortedMaxSteps(f"experiment not settled after {turn} steps")
            state.t = turn
            step(state)
            observer(state)
            if status[i] < _RETURNED:
                nxt.append(i)
        if nxt:
            state.t = round_start + n
        live = nxt
    return state


def _run_rounds_fast(state: ExperimentState, live: list[int], max_steps: int) -> ExperimentState:
    """step() inlined over whole rounds; the bookkeeping matches step() exactly."""
    n = state.n
    positions = state.positions
    status = state.status
    rho = state.rho
    deg = state._deg
    sink = state._sink
    mt = state._mt
    mi = state._mi
    origin = state._origin
    range_mask = state._range_mask
    range_list = state._range_list
    survivors = state.survivors
    remaining = state.remaining

    last_turn = state.t - 1
    while live:
        round_start = state.t
        if round_start + (live[-1] - 1) % n >= max_steps:
            state.survivors = survivors
            state.remaining = remaining
            raise AbortedMaxSteps(f"experiment not settled after {max_steps} steps")
        nxt = []
        append = nxt.append
        for i in live:
            x = positions[i]
            r = rho[x] + 1
            if r == deg[x]:
                r = 0
            rho[x] = r
            y = mt[mi[x] + r]
            positions[i] = y
            if not range_mask[y]:
                range_mask[y] = 1
                range_list.append(y)
            if y == origin:
                status[i] = _RETURNED
                survivors -= 1
                remaining -= 1
                last_turn = round_start + (i - 1) % n
            elif sink[y]:
                status[i] = _ABSORBED
                remaining -= 1
                last_turn = round_start + (i - 1) % n
            else:
                status[i] = _ACTIVE
                append(i)
        if nxt:
            state.t = round_start + n
        else:
            state.t = last_turn + 1
        live = nxt

    state.survivors = survivors
    state.remaining = remaining
    state.last_event = None
    return state


def compute_invariant(state: ExperimentState, profile: HarmonicProfile, wt: WeightTable) -> float:
    """Recompute the conserved quantity from the current state.

    Independent of any bookkeeping done while stepping: sums are taken fresh
    over particle positions and the visited range.
    """
    g = state.graph
    v = profile.voltage
    if v.shape != (g.num_vertices,):
        raise DimensionMismatch("profile does not match the experiment's graph")
    if len(wt.indptr) != g.num_vertices + 1 or wt.indptr[-1] != state._mi[-1]:
        raise DimensionMismatch("weight table does not match the experiment's mechanism")

    total = float(np.sum(v[state.positions]))
    total += min(state.t, state.n) / state._deg[state._origin]

    values = wt.values
    mi = state._mi
    rho = state.rho
    rho0 = state.rho0
    sink = state._sink
    for x in state._range_list:
        if not sink[x]:
            base = mi[x]
            total += float(values[base + rho[x]]) - float(values[base + rho0[x]])
    return total
