"""Edge weights and rotor configurations.

The weight of the edge at mechanism position i of vertex x is

    w(x, i) = -(1/deg(x)) * sum_{j=0}^{deg(x)-1} j * v(target at position (i+j+1) mod deg(x))

where v is the solved voltage.  Indices are taken modulo deg(x), so the
j = deg(x)-1 term wraps around to the base edge's own target.  Advancing the
rotor changes the weight by

    w(next) - w(current) = -v(target of next) + mean of v over the neighbors of x,

which is the increment the conserved experiment invariant relies on.  Each j
weights every neighbor once over the deg(x) positions, so a vertex's weights
sum to -(deg(x) - 1)/2 times the sum of v over its neighbors.  A rotor
configuration pointing every vertex at a minimal-weight edge maximizes the
escape rate of the resulting rotor walk.

weight_table is the one implementation of this definition.  A RotorConfig
holds its rotor indices in a read-only 1-D numpy array, which passes from its
producer through check_config to the experiment state without conversion.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graphs import Graph, RotorMechanism
from .harmonic import HarmonicProfile
from .rng import _integers, _words

# weights closer than this are treated as exact ties so solver noise cannot
# flip the chosen rotor between runs
TIE_TOL = 1e-13
_BLOCK = 1 << 14  # entries in one of weight_table's row blocks, at most


@dataclass(frozen=True, eq=False)
class RotorConfig:
    """Current rotor of every vertex, as an index into the mechanism order.

    pos has one entry per vertex; sinks carry -1 (they have no rotor).  It is
    a read-only copy of the sequence given; equal arrays make equal configs.
    """

    pos: np.ndarray

    def __post_init__(self):
        pos = np.array(self.pos)
        if pos.dtype.kind in "US":
            # numpy turns every entry into text when one is; keep the entries as given
            pos = np.array(self.pos, dtype=object)
        pos.setflags(write=False)
        object.__setattr__(self, "pos", pos)

    def __eq__(self, other):
        return isinstance(other, RotorConfig) and np.array_equal(self.pos, other.pos)


@dataclass(frozen=True)
class WeightTable:
    """Weights of all directed edges, flattened in mechanism-position order."""

    values: np.ndarray
    indptr: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    def vertex_slice(self, x: int) -> np.ndarray:
        return self.values[self.indptr[x]:self.indptr[x + 1]]


def weight_table(g: Graph, mech: RotorMechanism, profile: HarmonicProfile) -> WeightTable:
    """Weights of every directed edge of every non-sink vertex.

    Equal bit for bit to one np.dot(arange(d), rotated target voltages) per
    edge.  For each degree class d and position i, one np.matmul of the
    (k, 1, d) rotated rows by the (d, 1) index column gives the k weights;
    numpy evaluates it as that same dot per row, while a 2-D gemv, einsum
    or multiply-add sum orders the additions differently and moves the
    last bits of some weights.  A class goes in blocks of k rows of at most
    _BLOCK entries, so besides the E float64 weights the temporaries are the
    class's row starts and, per block, the k * d int64 slots, their target
    voltages and one rotated copy.
    """
    if profile.voltage.shape != (g.num_vertices,):
        raise DimensionMismatch("profile does not match the graph")
    v = profile.voltage
    indptr = mech.indptr
    deg = np.diff(indptr)
    values = np.zeros(int(indptr[-1]))
    for d in (np.flatnonzero(np.bincount(deg)[1:]) + 1).tolist():
        starts = indptr[:-1][deg == d]
        j, k = np.arange(d, dtype=np.float64)[:, None], max(1, _BLOCK // d)
        for block in range(0, starts.size, k):
            slots = starts[block : block + k, None] + np.arange(d)
            tv = v[mech.flat[slots]]
            for i in range(d):
                # column j holds the target at position (i + 1 + j) mod d
                rotated = np.roll(tv, -(i + 1), axis=1)
                values[slots[:, i]] = -np.matmul(rotated[:, None, :], j).ravel() / d
    return WeightTable(values=values, indptr=mech.indptr)


def _near_min_scan(g: Graph, wt: WeightTable) -> tuple[np.ndarray, int]:
    """First near-minimal mechanism index of every vertex (-1 at sinks), and the tie count.

    A weight within TIE_TOL of its vertex's minimum is near-minimal; a
    non-sink vertex with several near-minimal edges is a tie.  Each entry's
    float64 threshold lives only for the bool mask near; a row's first hit
    and count come from searchsorted of its bounds into the flat indices of
    the hits (about V of them), then E, so a row with none (NaN) reports E.
    """
    values = wt.values
    deg = np.diff(wt.indptr)
    has_edges = deg > 0
    starts = wt.indptr[:-1][has_edges]

    mins = np.full(deg.size, np.inf)
    mins[has_edges] = np.minimum.reduceat(values, starts)
    near = values <= np.repeat(mins + TIE_TOL, deg)
    hits = np.append(np.flatnonzero(near), values.size)
    lo, hi = np.searchsorted(hits, wt.indptr[:-1]), np.searchsorted(hits, wt.indptr[1:])
    first = np.where(lo < hi, hits[lo] - wt.indptr[:-1], values.size)
    first[~has_edges | g.is_sink] = -1
    tied = ~g.is_sink & (hi - lo > 1)
    return first, int(np.count_nonzero(tied))


def min_weight_config(g: Graph, wt: WeightTable) -> RotorConfig:
    """Rotor configuration pointing each vertex at a minimal-weight edge.

    Weights within TIE_TOL of the minimum count as tied; ties resolve to the
    smallest mechanism index.
    """
    return RotorConfig(pos=_near_min_scan(g, wt)[0])


def count_min_weight_ties(g: Graph, wt: WeightTable) -> int:
    """Number of vertices whose minimal weight is attained by several edges."""
    return _near_min_scan(g, wt)[1]


def random_config(g: Graph, seed: int) -> RotorConfig:
    """Independent uniformly random rotor at every non-sink vertex.

    philox_generator(seed).integers(0, deg) over the non-sink vertices in id
    order, as one scalar draw per vertex gives, computed by rng._integers.
    """
    return _random_configs(g, [seed])[0]


def _random_configs(g: Graph, seeds: range | list[int]) -> list[RotorConfig]:
    """random_config(g, seed) for each seed, drawn in one stream call over their keys."""
    live = ~g.is_sink
    pos = np.full((len(seeds), g.num_vertices), -1, dtype=np.int64)
    pos[:, live] = _integers(np.array([_words(s)[0] for s in seeds]), g.degrees[live])
    return [RotorConfig(pos=p) for p in pos]


def check_config(g: Graph, config: RotorConfig) -> None:
    """Validate bounds: -1 at sinks, 0 <= pos < deg elsewhere; name the lowest failing vertex.

    An entry that is not a whole number, such as 0.5 or a string, fails as an
    out-of-range index; integral floats such as 1.0 pass.
    """
    pos = config.pos
    if pos.ndim != 1:
        raise DimensionMismatch(f"config must be one-dimensional, got shape {pos.shape}")
    if pos.size != g.num_vertices:
        raise DimensionMismatch("config length does not match vertex count")
    index = pos
    if pos.dtype.kind not in "iu":
        # entries that are not whole numbers become -2, an index at no vertex
        index = np.array([p if isinstance(p, numbers.Real) and p % 1 == 0 else -2
                          for p in pos.tolist()], dtype=object)
    sink = g.is_sink
    bad = np.where(sink, index != -1, ~((index >= 0) & (index < g.degrees)))
    if bad.any():
        x = int(np.argmax(bad))
        if sink[x]:
            raise DimensionMismatch(f"sink {g.labels[x]} must carry rotor index -1")
        raise DimensionMismatch(f"rotor index {pos[x]} out of range at {g.labels[x]}")
