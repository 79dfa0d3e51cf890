"""Green function of the absorbed walk, in voltage form.

The expected number of visits G(x) by simple random walk from the origin
(counting the start, stopping at a sink) satisfies a discrete Dirichlet
problem; dividing by degree gives the voltage v = G/deg, which obeys

    mean of v over the neighbors of x  =  v(x) - 1{x=origin}/deg(origin)

at every non-sink x, with v = 0 on sinks.  Solving for v instead of G keeps
the system a plain neighbor-averaging one with a single unit source and
avoids degree bookkeeping; G is reconstructed as v * deg.  The escape
probability (never returning to the origin) is 1/G(origin).  solve_harmonic
solves the system by conjugate gradients in numpy, preconditioned by the
degrees.

mc_green estimates G by Monte Carlo, for cross-checks: absorbed walks from
the origin, in chunks of 512 with one Philox stream each, on the one walk
kernel _walk_steps.  The kernel advances several chunks at once, each
stream read in its own order, so the estimate does not depend on how many
chunks advance together.  srw_escape_mc runs the same kernel to estimate
the escape probability, 1/G(origin), directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AbortedMaxSteps, DimensionMismatch, InvalidParameter, NonConvergence
from .graphs import Graph
from .rng import philox_generator

DEFAULT_TOL = 1e-12
DEFAULT_WALK_CAP = 10**8
_MC_CHUNK = 512
_DRAW_BLOCK = 1 << 13  # doubles in the walk kernel's draw buffer, over all its streams
_WALK_CELLS = 1 << 18  # visit counts held at once by mc_green: 2 MiB of int64


@dataclass(frozen=True)
class HarmonicProfile:
    """Solved voltage v = G/deg with its Green function and escape probability."""

    voltage: np.ndarray
    green: np.ndarray
    escape_probability: float
    residual: float

    def __post_init__(self):
        self.voltage.setflags(write=False)
        self.green.setflags(write=False)


@dataclass(frozen=True)
class VisitEstimates:
    """Monte Carlo visit-count estimates with per-vertex standard errors."""

    visits: np.ndarray
    stderr: np.ndarray
    walks: int


def residual(g: Graph, voltage: np.ndarray) -> float:
    """Max defect of the neighbor-averaging equations over non-sink vertices, at a voltage array."""
    v = np.asarray(voltage, dtype=np.float64)
    if v.shape != (g.num_vertices,):
        raise DimensionMismatch(
            f"profile has {v.shape} entries for a graph with {g.num_vertices} vertices"
        )
    deg = g.degrees.astype(np.float64)
    # no vertex has an empty adjacency, so reduceat segments are all nonempty
    neighbor_sums = np.add.reduceat(v[g.adj_flat], g.adj_indptr[:-1])
    defect = neighbor_sums / deg - v
    defect[g.origin] += 1.0 / deg[g.origin]
    defect[g.is_sink] = 0.0
    return float(np.max(np.abs(defect)))


def solve_harmonic(g: Graph) -> HarmonicProfile:
    """Solve the voltage system to max residual <= DEFAULT_TOL.

    Conjugate gradients on deg(x) v(x) - sum of v over the neighbours of x =
    1{x=origin}, which is symmetric positive definite on the non-sink
    vertices of a connected graph, preconditioned by the degrees, with v
    held at 0 on sinks.  Every 10 iterations the iterate is checked with
    residual(); the solve goes on past DEFAULT_TOL, to 1e-3 of it, and stops
    early when the preconditioned residual is exactly zero (paths reach it)
    or when the residual stops improving: no better than the best check so
    far while the recurrence's own residual is 1000 times smaller, so that
    rounding, not the iteration, sets it.  Returns the best checked iterate;
    raises NonConvergence if its residual is above DEFAULT_TOL.
    """
    tol = DEFAULT_TOL
    deg = g.degrees.astype(np.float64)
    starts, flat = g.adj_indptr[:-1], g.adj_flat
    sinks = np.flatnonzero(g.is_sink)
    v = np.zeros(g.num_vertices)
    r = np.zeros(g.num_vertices)
    r[g.origin] = 1.0
    z = r / deg
    p = z.copy()
    # (a * b).sum(), not a @ b: BLAS may thread, and sum in another order elsewhere
    rz = (r * z).sum()
    best, best_v = np.inf, v
    # in exact arithmetic CG ends within one iteration per non-sink vertex; allow ten
    for it in range(1, 10 * (g.num_vertices - sinks.size) + 1):
        # no vertex has an empty adjacency, so reduceat segments are all nonempty
        ap = deg * p
        ap -= np.add.reduceat(p[flat], starts)
        ap[sinks] = 0.0
        step = rz / (p * ap).sum()
        v += step * p
        r -= step * ap
        np.divide(r, deg, out=z)
        rz_next = (r * z).sum()
        if rz_next == 0.0 or it % 10 == 0:
            # clip roundoff-scale negatives; true voltages are nonnegative
            u = np.where((v < 0) & (v > -1e-12), 0.0, v)
            res = residual(g, u)
            stalled = res >= best and np.abs(z).max() < 1e-3 * res
            if res < best:
                best, best_v = res, u
            if rz_next == 0.0 or best <= 1e-3 * tol or stalled:
                break
        p *= rz_next / rz
        p += z
        rz = rz_next
    if best > tol:
        raise NonConvergence(f"residual {best:.3e} above tolerance {tol:.3e}")

    green = best_v * g.degrees
    return HarmonicProfile(
        voltage=best_v,
        green=green,
        escape_probability=1.0 / float(green[g.origin]),
        residual=best,
    )


def _check_walk_args(walks: int) -> None:
    if walks < 1:
        raise InvalidParameter(f"walks must be >= 1, got {walks}")


def _walk_steps(g: Graph, m: int, seed: int, first_stream: int, chunk: int, stop: np.ndarray):
    """Advance m simple random walks from the origin until each steps onto a `stop` vertex.

    Yields once per step: the target of every walk that moved, then the ids
    (0..m-1) and positions of the walks still running.  Walk i draws from
    Philox stream first_stream + i // chunk, one uniform per step it moves,
    and the walks of a stream take its doubles in id order: each stream is
    read exactly as by one random call per step over its own walks, however
    many streams advance together.  One random(a + b) gives the doubles of
    random(a) then random(b), so each stream fills its row of one draw
    buffer in blocks and keeps a cursor into it.  Raises AbortedMaxSteps
    only if a walk is still running after DEFAULT_WALK_CAP steps.
    """
    indptr, flat = g.adj_indptr, g.adj_flat
    # u * deg as the int degrees give it, without a cast.  u <= 1 - 2**-53, so
    # the rounded u * d stays below d for every degree d < 2**53: the floor
    # is always an edge index, with no clamp to d - 1
    deg = g.degrees.astype(np.float64)
    go = ~stop
    ids = np.arange(m)
    pos = np.full(m, g.origin, dtype=np.int64)
    streams = -(-m // chunk)
    rngs = [philox_generator(seed, stream=first_stream + s) for s in range(streams)]
    # a row holds at least one step of its stream: a stream moves <= chunk walks
    width = max(chunk, _DRAW_BLOCK // streams)
    draws = np.empty((streams, width))
    cursor = [width] * streams
    ends = np.arange(1, streams + 1) * chunk  # one past the last walk of each stream
    for _ in range(DEFAULT_WALK_CAP):
        # ids ascend, so the running walks of each stream are one run of ids
        run_ends = np.searchsorted(ids, ends).tolist() if streams > 1 else [ids.size]
        parts, run_start = [], 0
        for s, run_end in enumerate(run_ends):
            need, c = run_end - run_start, cursor[s]
            run_start = run_end
            if not need:
                continue
            if c + need > width:  # keep the unread doubles, fill the row behind them
                draws[s, : width - c] = draws[s, c:]
                rngs[s].random(out=draws[s, width - c :])
                c = 0
            parts.append(draws[s, c : c + need])
            cursor[s] = c + need
        u = parts[0] if len(parts) == 1 else np.concatenate(parts)
        k = (u * deg[pos]).astype(np.int64)
        k += indptr[pos]
        nxt = flat[k]
        running = go[nxt]
        ids, pos = ids[running], nxt[running]
        yield nxt, ids, pos
        if not ids.size:
            return
    raise AbortedMaxSteps(f"a walk exceeded {DEFAULT_WALK_CAP} steps before absorption")


def mc_green(g: Graph, walks: int, seed: int) -> VisitEstimates:
    """Estimate visit counts from independent absorbed walks started at the origin.

    Walks run until they step onto a sink; the arrival at the sink is not
    counted as a visit.  Deterministic in (graph, walks, seed): walk i draws
    from Philox stream i // 512 however chunks are scheduled.  The chunks
    advance together in groups whose visit counts fill at most _WALK_CELLS
    cells of one flat array, so the steps at the tail of one chunk's walks
    move the other chunks' walks too.  Walks run on _walk_steps, shared with
    srw_escape_mc, which raises AbortedMaxSteps only if a walk is still
    running after DEFAULT_WALK_CAP steps.
    """
    _check_walk_args(walks)

    nv = g.num_vertices
    total = np.zeros(nv)
    total_sq = np.zeros(nv)
    group = max(1, _WALK_CELLS // (_MC_CHUNK * nv)) * _MC_CHUNK
    cells = np.empty(min(group, walks) * nv, dtype=np.int64)  # reused by every group
    for start in range(0, walks, group):
        m = min(group, walks - start)
        # visits of walk i to x at flat index i * nv + x; a step moves each
        # walk once, so its indices are distinct and += counts each of them
        counts = cells[: m * nv]
        counts.fill(0)
        counts[g.origin :: nv] = 1
        steps = _walk_steps(g, m, seed, start // _MC_CHUNK, _MC_CHUNK, g.is_sink)
        for _, rows, pos in steps:
            counts[rows * nv + pos] += 1
        counts = counts.reshape(m, nv)
        # integer sums, exact, so they add up to the same floats in any grouping
        total += counts.sum(axis=0)
        total_sq += np.einsum("ij,ij->j", counts, counts)

    mean = total / walks
    if walks > 1:
        var = (total_sq - walks * mean**2) / (walks - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / walks)
    else:
        stderr = np.zeros(nv)
    return VisitEstimates(visits=mean, stderr=stderr, walks=walks)


def srw_escape_mc(graph: Graph, walks: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the simple-random-walk escape probability.

    Fraction of walks from the origin that reach a sink before returning to
    the origin.  Returns (estimate, standard error).  Walk i draws from
    Philox stream i // 4096.  Walks run on mc_green's step kernel, stopped at
    sinks and at the origin: AbortedMaxSteps only if one outlives
    DEFAULT_WALK_CAP steps.
    """
    _check_walk_args(walks)
    stop = graph.is_sink.copy()
    stop[graph.origin] = True

    escaped = 0
    chunk = 4096
    for start in range(0, walks, chunk):
        m = min(chunk, walks - start)
        for nxt, _, _ in _walk_steps(graph, m, seed, start // chunk, chunk, stop):
            escaped += int(np.count_nonzero(graph.is_sink[nxt]))

    p = escaped / walks
    stderr = float(np.sqrt(p * (1.0 - p) / walks))
    return p, stderr
