"""Grid substrate: shapes, cell sets, hyperedges and slices.

The vertex set of a box grid is [n1] x [n2] x ... x [nd] with 1-based
coordinates. A hyperedge is an axis-aligned product I1 x ... x Id in which
exactly r of the index sets share a size t >= 2 and the remaining d - r are
singletons, so every hyperedge has t**r vertices.

A CellSet stores occupancy densely as one Python integer: bit k holds the
cell whose 0-based row-major linear index is k (last coordinate varies
fastest). That keeps values immutable and hashable and makes the hot set
operations (union, subset test, popcount) cheap.

The row-major layout is defined here and only here: the vertex codec
(`linear_index`, `vertex_at`), the strides (`row_strides`, which the edge
table build also reads), the edge and slice masks, and `relabel_axis`. A
slice along an axis is one run of bits per block of the earlier axes, so
`relabel_axis` moves, merges or drops whole slices with shifts and masks;
every slice surgery (projection, slice permutation, union and removal)
is one call to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

Vertex = tuple[int, ...]

# Dense occupancy is only meant for desk-scale grids.
MAX_DENSE_CELLS = 1 << 20
# GridShape itself only requires the cell count to stay a native-size integer.
MAX_SHAPE_CELLS = 1 << 62


@dataclass(frozen=True)
class GridShape:
    """Axis lengths (n1, ..., nd) of a box grid, all positive integers: a
    float or a string raises instead of being truncated or parsed."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(operator.index(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise ValueError("a grid needs at least one axis")
        if any(n < 1 for n in dims):
            raise ValueError(f"axis lengths must be positive, got {dims}")
        if math.prod(dims) > MAX_SHAPE_CELLS:
            raise ValueError(
                f"cell count {math.prod(dims)} exceeds the supported integer range"
            )

    @property
    def d(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Params:
    """Infection parameters: edges vary along r axes with index sets of size
    t. Both are integers; a float or a string raises."""

    t: int
    r: int

    def __post_init__(self) -> None:
        if operator.index(self.t) < 2:
            raise ValueError(f"t must be at least 2, got {self.t}")
        if operator.index(self.r) < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")


def check_compatible(shape: GridShape, params: Params) -> None:
    """Enforce r <= d for a shape/params pairing (r alone cannot know d)."""
    if params.r > shape.d:
        raise ValueError(f"r={params.r} exceeds the dimension d={shape.d}")


def cell_count(shape: GridShape) -> int:
    """Total number of grid cells, the product of the axis lengths."""
    return math.prod(shape.dims)


def edgesum(shape: GridShape) -> int:
    """Sum of the axis lengths (the induction measure for slice surgery)."""
    return sum(shape.dims)


def axis_length(shape: GridShape, axis: int) -> int:
    """Length of the 1-based `axis`; raises for an axis outside 1..d."""
    if not 1 <= axis <= shape.d:
        raise ValueError(f"axis {axis} out of range for shape {shape.dims}")
    return shape.dims[axis - 1]


def row_strides(dims: tuple[int, ...]) -> list[int]:
    """Row-major strides: cell (x1, ..., xd) has linear index sum((x_i - 1) * stride_i)."""
    return [math.prod(dims[i + 1:]) for i in range(len(dims))]


def check_vertex(shape: GridShape, vertex: Iterable[int]) -> Vertex:
    """Read as a tuple of integers and verify 1-based bounds; returns the
    tuple. A float or a string coordinate raises."""
    v = tuple(operator.index(c) for c in vertex)
    if len(v) != shape.d:
        raise ValueError(f"vertex {v} has {len(v)} coordinates, expected {shape.d}")
    for c, n in zip(v, shape.dims):
        if not 1 <= c <= n:
            raise ValueError(f"vertex {v} is out of bounds for shape {shape.dims}")
    return v


def unchecked_index(shape: GridShape, vertex: Iterable[int]) -> int:
    """Row-major linear index of a vertex already known to be in bounds.

    The hot loops use this directly; `linear_index` adds the checks.
    """
    idx = 0
    for c, n in zip(vertex, shape.dims):
        idx = idx * n + (c - 1)
    return idx


def unchecked_vertex(shape: GridShape, index: int) -> Vertex:
    """Vertex of a linear index already known to be in range; the
    inverse of `unchecked_index`."""
    coords = []
    for n in reversed(shape.dims):
        coords.append(index % n + 1)
        index //= n
    return tuple(reversed(coords))


def linear_index(shape: GridShape, vertex: Iterable[int]) -> int:
    """0-based row-major linear index of a 1-based vertex tuple."""
    return unchecked_index(shape, check_vertex(shape, vertex))


def vertex_at(shape: GridShape, index: int) -> Vertex:
    """Inverse of linear_index."""
    if not 0 <= index < cell_count(shape):
        raise ValueError(f"linear index {index} out of range for {shape.dims}")
    return unchecked_vertex(shape, index)


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of `bits`, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class CellSet:
    """An immutable set of grid cells with dense occupancy and a cached size."""

    shape: GridShape
    bits: int
    cardinality: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        n = cell_count(self.shape)
        if n > MAX_DENSE_CELLS:
            raise ValueError(
                f"shape {self.shape.dims} has {n} cells, beyond the dense budget "
                f"of {MAX_DENSE_CELLS}"
            )
        if not 0 <= self.bits < (1 << n):
            raise ValueError("occupancy bits out of range for the shape")
        object.__setattr__(self, "cardinality", self.bits.bit_count())

    @classmethod
    def empty(cls, shape: GridShape) -> "CellSet":
        return cls(shape, 0)

    @classmethod
    def full(cls, shape: GridShape) -> "CellSet":
        return cls(shape, (1 << cell_count(shape)) - 1)

    @classmethod
    def from_cells(cls, shape: GridShape, cells: Iterable[Iterable[int]]) -> "CellSet":
        bits = 0
        for cell in cells:
            bits |= 1 << linear_index(shape, cell)
        return cls(shape, bits)

    def cells(self) -> list[Vertex]:
        """Member vertices in ascending coordinate (row-major) order."""
        return [unchecked_vertex(self.shape, i) for i in iter_bits(self.bits)]

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, vertex: Iterable[int]) -> bool:
        return bool(self.bits >> linear_index(self.shape, vertex) & 1)

    def _check_same_shape(self, other: "CellSet") -> None:
        if self.shape != other.shape:
            raise ValueError("cell sets live on different shapes")

    def __or__(self, other: "CellSet") -> "CellSet":
        self._check_same_shape(other)
        return CellSet(self.shape, self.bits | other.bits)

    def __and__(self, other: "CellSet") -> "CellSet":
        self._check_same_shape(other)
        return CellSet(self.shape, self.bits & other.bits)

    def __sub__(self, other: "CellSet") -> "CellSet":
        self._check_same_shape(other)
        return CellSet(self.shape, self.bits & ~other.bits)

    def is_subset(self, other: "CellSet") -> bool:
        self._check_same_shape(other)
        return self.bits & ~other.bits == 0

    def with_cells(self, cells: Iterable[Iterable[int]]) -> "CellSet":
        bits = self.bits
        for cell in cells:
            bits |= 1 << linear_index(self.shape, cell)
        return CellSet(self.shape, bits)

    def without_cells(self, cells: Iterable[Iterable[int]]) -> "CellSet":
        bits = self.bits
        for cell in cells:
            bits &= ~(1 << linear_index(self.shape, cell))
        return CellSet(self.shape, bits)

    def complement(self) -> "CellSet":
        return CellSet(self.shape, ~self.bits & (1 << cell_count(self.shape)) - 1)

    def is_full(self) -> bool:
        return self.cardinality == cell_count(self.shape)


@dataclass(frozen=True)
class Edge:
    """One hyperedge, stored as its per-axis index sets I1, ..., Id.

    The sets with more than one value are the varying axes; they must all
    have the same size (that size is t, and their count is r). Each set is
    stored sorted and deduplicated; a float or a string value raises.
    """

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm = tuple(tuple(sorted({operator.index(v) for v in s})) for s in self.sets)
        object.__setattr__(self, "sets", norm)
        if len(norm) == 0:
            raise ValueError("an edge needs at least one axis")
        sizes = {len(s) for s in norm if len(s) > 1}
        if len(sizes) > 1:
            raise ValueError(f"varying index sets must share one size, got {norm}")
        if not sizes:
            raise ValueError("an edge must vary along at least one axis")
        if any(len(s) == 0 for s in norm):
            raise ValueError("empty index set in edge")
        if any(v < 1 for s in norm for v in s):
            raise ValueError("edge coordinates must be 1-based positive")

    @property
    def d(self) -> int:
        return len(self.sets)

    @property
    def axes(self) -> tuple[int, ...]:
        """1-based indices of the varying axes, ascending."""
        return tuple(i + 1 for i, s in enumerate(self.sets) if len(s) > 1)

    @property
    def t(self) -> int:
        return max(len(s) for s in self.sets)

    @property
    def r(self) -> int:
        return len(self.axes)

    def max_corner(self) -> Vertex:
        """The unique edge vertex of maximal coordinate sum."""
        return tuple(s[-1] for s in self.sets)


def edge_vertices(edge: Edge) -> tuple[Vertex, ...]:
    """All t**r vertices of the edge, in ascending coordinate order."""
    return tuple(product(*edge.sets))


def validate_edge(edge: Edge, shape: GridShape, params: Params) -> None:
    """Reject an edge that does not belong to the given shape and params."""
    if edge.d != shape.d:
        raise ValueError(f"edge has {edge.d} axes, shape has {shape.d}")
    for s, n in zip(edge.sets, shape.dims):
        if s[-1] > n:
            raise ValueError(f"edge index set {s} out of bounds for {shape.dims}")
    if edge.t != params.t:
        raise ValueError(f"edge side length {edge.t} does not match t={params.t}")
    if edge.r != params.r:
        raise ValueError(f"edge varies along {edge.r} axes, expected r={params.r}")


def edge_mask(edge: Edge, shape: GridShape) -> int:
    """Occupancy mask of the edge's vertices; raises if one is off the shape.

    An index set S on an axis of row-major stride w contributes the factor
    sum(2**((c-1)*w) for c in S). Cells have distinct row-major offsets, so
    the product of the factors has exactly the edge's bits set.
    """
    if edge.d != shape.d:
        raise ValueError(f"edge has {edge.d} axes, shape has {shape.d}")
    bits = 1
    for s, n, w in reversed(list(zip(edge.sets, shape.dims, row_strides(shape.dims)))):
        if s[-1] > n:
            raise ValueError(f"edge index set {s} out of bounds for {shape.dims}")
        bits *= sum(1 << (c - 1) * w for c in s)
    return bits


@lru_cache(maxsize=4096)
def slice_mask(shape: GridShape, axis: int, value: int) -> int:
    """Occupancy mask of the whole slice coord[axis] == value (1-based)."""
    n_axis = axis_length(shape, axis)
    if not 1 <= value <= n_axis:
        raise ValueError(f"slice index {value} out of range on axis {axis}")
    outer = math.prod(shape.dims[: axis - 1])
    inner = math.prod(shape.dims[axis:])
    run = (1 << inner) - 1
    bits = 0
    for o in range(outer):
        offset = (o * n_axis + (value - 1)) * inner
        bits |= run << offset
    return bits


def slice_cells(a: CellSet, axis: int, value: int) -> CellSet:
    """Members of a whose coordinate along `axis` equals `value` (same shape)."""
    return CellSet(a.shape, a.bits & slice_mask(a.shape, axis, value))


def relabel_axis(a: CellSet, axis: int, to: Sequence[int]) -> CellSet:
    """Move slice c along `axis` to position to[c-1], or drop it where that is 0.

    Slices sent to one position merge, and the axis gets length max(to),
    at most its old length n. In row-major order a slice is one run of
    prod(dims[axis:]) bits in each block of n runs, so one shift and one
    mask move a slice in every block at once; when the axis shrinks, the
    blocks are then packed to their new length. No member is decoded.
    """
    dims = a.shape.dims
    n = axis_length(a.shape, axis)
    if len(to) != n or min(to) < 0 or max(to) > n:
        raise ValueError(f"{tuple(to)} does not relabel the {n} slices of axis {axis}")
    m = max(to)
    inner = math.prod(dims[axis:])
    first = slice_mask(a.shape, axis, 1)
    bits = 0
    for c, p in enumerate(to):
        if p:
            bits |= (a.bits >> c * inner & first) << (p - 1) * inner
    if m == n:
        return CellSet(a.shape, bits)
    bits = _pack(bits, math.prod(dims[: axis - 1]), n * inner, m * inner)
    return CellSet(GridShape(dims[: axis - 1] + (m,) + dims[axis:]), bits)


def _pack(bits: int, count: int, old: int, new: int) -> int:
    """Keep the low `new` bits of each of `count` blocks of `old` bits and
    lay them out at a stride of `new` bits.

    Splitting the blocks in halves costs O(size * log count) big-int work,
    where one shift per block would cost O(size * count).
    """
    if count == 1:
        return bits & (1 << new) - 1
    half = count // 2
    low = _pack(bits & (1 << half * old) - 1, half, old, new)
    return low | _pack(bits >> half * old, count - half, old, new) << half * new


def project(a: CellSet, axis: int) -> CellSet:
    """Drop the given coordinate from every member.

    Members from different slices may collapse; the result is the union of
    the per-slice projections, on the (d-1)-dimensional shape.
    """
    return _squash(a, axis, [1] * axis_length(a.shape, axis))


def p_slice(a: CellSet, axis: int, value: int) -> CellSet:
    """Projection of one slice: the slice content seen on the reduced shape.
    The value is an integer; a float or a string raises."""
    n = axis_length(a.shape, axis)
    value = operator.index(value)
    if not 1 <= value <= n:
        raise ValueError(f"slice index {value} out of range on axis {axis}")
    return _squash(a, axis, [int(c == value) for c in range(1, n + 1)])


def _squash(a: CellSet, axis: int, to: list[int]) -> CellSet:
    """Relabel the slices along `axis` onto position 1 or drop them, then
    drop the axis: one of length 1 adds nothing to a row-major index, so
    the bits stay."""
    if a.shape.d == 1:
        raise ValueError("cannot project a one-dimensional grid")
    dims = a.shape.dims
    return CellSet(GridShape(dims[: axis - 1] + dims[axis:]), relabel_axis(a, axis, to).bits)


def permute_slices(a: CellSet, axis: int, order: Iterable[int]) -> CellSet:
    """Reorder the slices along one axis.

    `order` lists 1-based old slice indices; the new slice at position m is
    the old slice order[m-1]. Must be a permutation of 1..n_axis, in
    integers; a float or a string raises.
    """
    n = axis_length(a.shape, axis)
    order = tuple(map(operator.index, order))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{n}")
    to = [0] * n
    for new, old in enumerate(order, start=1):
        to[old - 1] = new
    return relabel_axis(a, axis, to)
