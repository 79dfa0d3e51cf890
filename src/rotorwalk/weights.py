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

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graphs import Graph, RotorMechanism
from .harmonic import HarmonicProfile
from .rng import philox_generator

logger = logging.getLogger(__name__)

# weights closer than this are treated as exact ties so solver noise cannot
# flip the chosen rotor between runs
TIE_TOL = 1e-13


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
    last bits of some weights.
    """
    if profile.voltage.shape != (g.num_vertices,):
        raise DimensionMismatch("profile does not match the graph")
    v = profile.voltage
    indptr = mech.indptr
    deg = np.diff(indptr)
    values = np.zeros(int(indptr[-1]))
    for d in (np.flatnonzero(np.bincount(deg)[1:]) + 1).tolist():
        slots = indptr[:-1][deg == d, None] + np.arange(d)
        tv = v[mech.flat[slots]]
        j = np.arange(d, dtype=np.float64)[:, None]
        for i in range(d):
            # column j holds the target at position (i + 1 + j) mod d
            rotated = np.roll(tv, -(i + 1), axis=1)
            values[slots[:, i]] = -np.matmul(rotated[:, None, :], j).ravel() / d
    return WeightTable(values=values, indptr=mech.indptr)


def _near_min_scan(g: Graph, wt: WeightTable) -> tuple[np.ndarray, int]:
    """First near-minimal mechanism index of every vertex (-1 at sinks), and the tie count.

    A weight within TIE_TOL of its vertex's minimum is near-minimal; a
    non-sink vertex with several near-minimal edges is a tie.
    """
    values = wt.values
    deg = np.diff(wt.indptr)
    owner = np.repeat(np.arange(deg.size), deg)
    has_edges = deg > 0
    starts = wt.indptr[:-1][has_edges]

    mins = np.full(deg.size, np.inf)
    mins[has_edges] = np.minimum.reduceat(values, starts)
    near = values <= mins[owner] + TIE_TOL
    # mechanism index of each near-minimal edge; the others are past every index
    index = np.where(near, np.arange(values.size) - wt.indptr[owner], values.size)
    first = np.full(deg.size, -1, dtype=np.int64)
    first[has_edges] = np.minimum.reduceat(index, starts)

    first[g.is_sink] = -1
    tied = ~g.is_sink & (np.bincount(owner[near], minlength=deg.size) > 1)
    return first, int(np.count_nonzero(tied))


def min_weight_config(g: Graph, wt: WeightTable) -> RotorConfig:
    """Rotor configuration pointing each vertex at a minimal-weight edge.

    Weights within TIE_TOL of the minimum count as tied; ties resolve to the
    smallest mechanism index.
    """
    pos, ties = _near_min_scan(g, wt)
    if ties:
        logger.debug("min-weight ties at %d of %d vertices", ties, g.num_vertices)
    return RotorConfig(pos=pos)


def count_min_weight_ties(g: Graph, wt: WeightTable) -> int:
    """Number of vertices whose minimal weight is attained by several edges."""
    return _near_min_scan(g, wt)[1]


def random_config(g: Graph, seed: int) -> RotorConfig:
    """Independent uniformly random rotor at every non-sink vertex.

    One vectorized draw; it gives the same values as one scalar draw per
    non-sink vertex in id order.
    """
    live = ~g.is_sink
    pos = np.full(g.num_vertices, -1, dtype=np.int64)
    pos[live] = philox_generator(seed).integers(0, g.degrees[live])
    return RotorConfig(pos=pos)


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
