"""Seeded random number streams.

All randomness in the package flows through counter-based Philox generators:
a (seed, stream) pair addresses a reproducible stream, and distinct streams
are spaced 2^128 apart in counter space so batches can be split across
workers without overlap or coordination.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

_MASK64 = (1 << 64) - 1


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the Generator for this (seed, stream) pair, each in [0, 2^128). Same pair, same draws."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 1 << 128:  # 128 bits of the key, 128 of the counter
            raise InvalidParameter(f"{name} must be in [0, 2^128), got {value}")
    key = np.array([seed & _MASK64, (seed >> 64) & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, stream & _MASK64, (stream >> 64) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))
