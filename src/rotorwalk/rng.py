"""Seeded random number streams.

Every draw comes from a counter-based Philox4x64-10 stream: a (seed, stream)
pair, each in [0, 2^128), is the key and the counter [0, 0, stream] (low words
first), so streams are 2^128 blocks apart and batches split across workers
never overlap.  numpy increments the counter before each block: block i holds
uint64 draws 4i .. 4i + 3, and uint32 draws take each uint64's low half first.
Bounded integers and row permutations are computed here, bit for bit as
numpy's Generator draws them, so only the Monte Carlo doubles import
numpy.random (through philox_generator): they are millions, and array-level
Philox costs 50-70 ns per uint64 against about 2 ns in numpy's C code.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

_MASK64 = (1 << 64) - 1
# Philox4x64's multipliers and key increments, one per pair of counter words
_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_LO, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LO, _M_HI = _M & _LO, _M >> _32


def _words(seed: int, stream: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Key and counter words of a (seed, stream) pair, each in [0, 2^128)."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 1 << 128:  # 128 bits of the key, 128 of the counter
            raise InvalidParameter(f"{name} must be in [0, 2^128), got {value}")
    key = np.array([seed & _MASK64, seed >> 64], dtype=np.uint64)
    return key, np.array([0, 0, stream & _MASK64, stream >> 64], dtype=np.uint64)


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the Generator for this (seed, stream) pair, each in [0, 2^128). Same pair, same draws."""
    key, counter = _words(seed, stream)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _blocks(keys: np.ndarray, counter: np.ndarray, first: int, count: int) -> np.ndarray:
    """Blocks first .. first + count - 1 of each key's stream: (K, 4 * count) uint64.

    x holds counter words 0 and 2, which a round multiplies; y words 1 and 3.
    """
    key = keys.T.reshape(2, -1, 1)
    x = np.empty((2, len(keys), count), dtype=np.uint64)
    x[0], x[1] = np.arange(first + 1, first + count + 1, dtype=np.uint64), counter[2]
    y = np.zeros_like(x)
    y[1] = counter[3]
    for _ in range(10):
        # the high words of _M * x, from 32-bit halves whose products fit in 64 bits
        hi, lo = x >> _32, x & _LO
        mid = lo * _M_HI + (lo * _M_LO >> _32)
        hi = hi * _M_HI + (mid >> _32) + ((mid & _LO) + hi * _M_LO >> _32)
        x, y, key = y ^ key ^ hi[::-1], (x * _M)[::-1], key + _W
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(len(keys), -1)


def _uint32(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """uint32 draws start .. start + count - 1 of each key's stream 0: (K, count)."""
    first, skip = divmod(start, 8)
    raw = _blocks(keys, _words(0)[1], first, -(-(skip + count) // 8))
    return raw.astype("<u8", copy=False).view("<u4")[:, skip : skip + count]


def _integers(keys: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Generator.integers(0, high), 1 <= high <= 2^32, on each key's stream 0: (K, high.size).

    Lemire's method, as numpy's: a uint32 draw u gives u * h >> 32 unless u * h
    mod 2^32 is below 2^32 mod h; a bound of 1 takes no draw.  Rejections are
    rare, so all keys take one draw per bound and a key that rejected redraws.
    """
    take = high > 1
    h = high[take].astype(np.uint64)
    floor = np.uint64(1 << 32) % h
    prod = _uint32(keys, 0, h.size) * h
    for row in np.flatnonzero(((prod & _LO) < floor).any(axis=1)):
        done = drawn = 0
        while done < h.size:
            part = _uint32(keys[row : row + 1], drawn, h.size - done)[0] * h[done:]
            ok = int(np.append((part & _LO) < floor[done:], True).argmax())
            prod[row, done : done + ok] = part[:ok]
            done, drawn = done + ok, drawn + ok + 1
    out = np.zeros((len(keys), high.size), dtype=np.int64)
    out[:, take] = prod >> _32
    return out


def _permutations(key: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """rng.permutation(d) for each d >= 1 of deg in turn on key's stream 0, concatenated.

    numpy's Fisher-Yates swaps i = d - 1 .. 1 with the first u & mask <= i of
    its uint32 draws u, mask being the least 2^k - 1 >= i.  A row's first draw
    depends on every rejection before it, so _row_starts finds the V row
    starts, with more draws until they cover every row; its tables are gone
    before the E int64 entries are built in place.  Then all rows take their
    draws and swaps together, one step of each at a time.
    """
    mask = [(1 << b.bit_length()) - 1 for b in range(int(deg.max(initial=1)))]
    counts = np.bincount(deg, minlength=2)
    # a step takes (mask + 1) / (b + 1) draws on average, with a variance below that
    mean = float(counts[2:] @ np.cumsum([(m + 1) / (b + 1) for b, m in enumerate(mask)][1:]))
    u = _uint32(key[None], 0, int(mean + 4 * mean**0.5) + 1)[0]
    while (starts := _row_starts(u, deg, mask, counts)) is None:
        u = np.concatenate([u, _uint32(key[None], u.size, u.size)[0]])

    order, first = np.argsort(-deg, kind="stable"), np.cumsum(deg) - deg
    by_deg, pos, row = deg[order], starts[order], first[order]
    entry, mask = np.arange(deg.sum()), np.array(mask)
    entry -= np.repeat(first, deg)
    for t in range(len(mask) - 1):
        k = int(np.count_nonzero(by_deg > t + 1))
        b = by_deg[:k] - 1 - t
        j = u[pos[:k]] & mask[b]
        while (redo := np.flatnonzero(j > b)).size:
            pos[redo] += 1
            j[redo] = u[pos[redo]] & mask[b[redo]]
        pos[:k] += 1
        i, j = row[:k] + b, row[:k] + j
        entry[i], entry[j] = entry[j], entry[i]
    return entry


def _row_starts(u: np.ndarray, deg: np.ndarray, mask: list[int], counts: np.ndarray):
    """The draw at which each row of deg begins (V int64), or None if u runs out first: by one
    lookup in end_d[p] (where a row of degree d begun at draw p ends; one int32 table of
    u.size + 2 per bound, for degrees up to the largest d held by at least d rows) or else
    draw by draw."""
    tabled = int(np.flatnonzero(counts >= np.arange(counts.size))[-1])
    size, end, tables = u.size, np.arange(u.size + 2, dtype=np.int32), {}
    for b in range(1, tabled):
        nxt = np.full_like(end, size + 1)  # past the draws
        if mask[b] == b:  # every draw accepts
            nxt[:-1] = end[1:]
        else:  # end one past each accept, back-filled, as end is nondecreasing
            np.copyto(nxt[:-2], end[1:-1], where=u & mask[b] <= b)
            np.minimum.accumulate(nxt[::-1], out=nxt[::-1])
        end = nxt
        if counts[b + 1]:
            tables[b + 1] = memoryview(end)
    starts, p, draws = [], 0, memoryview(u)
    try:
        for d in deg.tolist():
            starts.append(p)
            if d in tables:
                p = tables[d][p]
                continue
            for b in range(d - 1, 0, -1):
                while draws[p] & mask[b] > b:
                    p += 1
                p += 1
    except IndexError:
        return None
    return np.array(starts, dtype=np.int64) if p <= size else None
