"""The stepwise settle driver the round kernel is tested against.

settle_stepwise reaches the state run_until_settled reaches, from any t,
one move at a time through step(), and calls an observer after every move.
It lives with the tests rather than in oracles.py because it drives the
package's own engine, which oracles.py may not import.
"""
from __future__ import annotations

import numpy as np

from rotorwalk.errors import AbortedMaxSteps
from rotorwalk.experiment import DEFAULT_MAX_STEPS, ParticleStatus, step


def settle_stepwise(state, max_steps=DEFAULT_MAX_STEPS, observer=None):
    """Settle state with step(), calling observer(state) after every move.

    Particle i moves at round_start + (i-1) mod n.  Started part-way through
    a round, the live particles whose turns in it have passed wait for the
    next round; idle turns are skipped.  A live turn at or past max_steps
    raises AbortedMaxSteps naming that turn, with t one past the last move.
    """
    n = state.n
    status = state.status
    live = sorted(np.flatnonzero(status < ParticleStatus.RETURNED).tolist(),
                  key=lambda i: (i - 1) % n)
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
            step(state)
            if observer is not None:
                observer(state)
            if status.item(i) < ParticleStatus.RETURNED:
                nxt.append(i)
        if nxt:
            state.t = round_start + n
        live = nxt
    return state
