"""The single-move engine and the stepwise settle driver the round kernel is tested against.

The package settles only on its round kernel (run_until_settled and
settle_trials).  step() here is the experiment's defining recurrence, one
move at a time, written into the same ExperimentState arrays the kernel
writes: t, positions, statuses, rotors, survivors and the range in
first-visit order.  settle_stepwise reaches the state run_until_settled
reaches, from any t, through step(), and hands an observer each move's
(mover, from, to) event.  It lives with the tests rather than in
oracles.py because it writes the package's own state, which oracles.py may
not import; it may call none of the package's settle functions
(test_oracle_imports.py checks both rules).
"""
from __future__ import annotations

import numpy as np

from rotorwalk.errors import AbortedMaxSteps
from rotorwalk.experiment import DEFAULT_MAX_STEPS, ParticleStatus

_AT_ORIGIN, _ACTIVE, _RETURNED, _ABSORBED = (int(s) for s in ParticleStatus)


def step(state):
    """Process one step for particle (t+1) mod n and advance t.

    Returns the move's (mover, from, to), or None on an idle turn (the
    particle has returned or been absorbed).
    """
    t = state.t
    i = (t + 1) % state.n
    st = state.status.item(i)
    state.t = t + 1
    if st >= _RETURNED:
        return None
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

    if y == state.graph.origin:
        state.status[i] = _RETURNED
        state.survivors -= 1
        state.remaining -= 1
    elif state.graph.is_sink.item(y):
        state.status[i] = _ABSORBED
        state.remaining -= 1
    elif st == _AT_ORIGIN:
        state.status[i] = _ACTIVE
    return i, x, y


def settle_stepwise(state, max_steps=DEFAULT_MAX_STEPS, observer=None):
    """Settle state with step(), calling observer(state, (mover, from, to)) after every move.

    Particle i moves at round_start + (i-1) mod n.  Started part-way through
    a round, the live particles whose turns in it have passed wait for the
    next round; idle turns are skipped.  A live turn at or past max_steps
    raises AbortedMaxSteps naming that turn, with t one past the last move.
    """
    n = state.n
    status = state.status
    live = sorted(np.flatnonzero(status < _RETURNED).tolist(), key=lambda i: (i - 1) % n)
    while live:
        t = state.t
        round_start = t - t % n
        nxt = []
        for i in live:
            turn = round_start + (i - 1) % n
            if turn < t:  # its turn in this round has passed
                nxt.append(i)
                continue
            if turn >= max_steps:
                raise AbortedMaxSteps(f"experiment not settled after {turn} steps")
            state.t = turn
            event = step(state)
            if observer is not None:
                observer(state, event)
            if status.item(i) < _RETURNED:
                nxt.append(i)
        if nxt:
            state.t = round_start + n
        live = nxt
    return state
