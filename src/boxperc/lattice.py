"""Grid substrate: shapes, cell sets, hyperedges and slices.

The vertex set of a box grid is [n1] x [n2] x ... x [nd] with 1-based
coordinates. A hyperedge is an axis-aligned product I1 x ... x Id in which
exactly r of the index sets share a size t >= 2 and the remaining d - r are
singletons, so every hyperedge has t**r vertices.

A CellSet stores occupancy densely as one Python integer: bit k holds the
cell whose 0-based row-major linear index is k (last coordinate varies
fastest). That keeps values immutable and hashable and makes the hot set
operations (union, subset test, popcount) cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

Vertex = tuple[int, ...]

# Dense occupancy is only meant for desk-scale grids.
MAX_DENSE_CELLS = 1 << 20
# GridShape itself only requires the cell count to stay a native-size integer.
MAX_SHAPE_CELLS = 1 << 62


@dataclass(frozen=True)
class GridShape:
    """Axis lengths (n1, ..., nd) of a box grid, all positive."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
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
    """Infection parameters: edges vary along r axes with index sets of size t."""

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ValueError(f"t must be at least 2, got {self.t}")
        if self.r < 1:
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


def check_vertex(shape: GridShape, vertex: Iterable[int]) -> Vertex:
    """Coerce to a tuple and verify 1-based bounds; returns the tuple."""
    v = tuple(int(c) for c in vertex)
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
    have the same size (that size is t, and their count is r).
    """

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm = tuple(tuple(sorted({int(v) for v in s})) for s in self.sets)
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

    def varying(self) -> dict[int, tuple[int, ...]]:
        return {i + 1: s for i, s in enumerate(self.sets) if len(s) > 1}

    def fixed(self) -> dict[int, int]:
        return {i + 1: s[0] for i, s in enumerate(self.sets) if len(s) == 1}

    def max_corner(self) -> Vertex:
        """The unique edge vertex of maximal coordinate sum."""
        return tuple(s[-1] for s in self.sets)

    def sort_key(self) -> tuple:
        """Deterministic edge order: axes ascending, then the varying value
        tuples in axis order, then the fixed coordinates."""
        return (
            self.axes,
            tuple(s for s in self.sets if len(s) > 1),
            tuple(s[0] for s in self.sets if len(s) == 1),
        )


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
    bits, stride = 1, 1
    for s, n in zip(reversed(edge.sets), reversed(shape.dims)):
        if s[-1] > n:
            raise ValueError(f"edge index set {s} out of bounds for {shape.dims}")
        bits *= sum(1 << (c - 1) * stride for c in s)
        stride *= n
    return bits


@lru_cache(maxsize=4096)
def slice_mask(shape: GridShape, axis: int, value: int) -> int:
    """Occupancy mask of the whole slice coord[axis] == value (1-based)."""
    if not 1 <= axis <= shape.d:
        raise ValueError(f"axis {axis} out of range for shape {shape.dims}")
    if not 1 <= value <= shape.dims[axis - 1]:
        raise ValueError(f"slice index {value} out of range on axis {axis}")
    outer = math.prod(shape.dims[: axis - 1])
    inner = math.prod(shape.dims[axis:])
    n_axis = shape.dims[axis - 1]
    run = (1 << inner) - 1
    bits = 0
    for o in range(outer):
        offset = (o * n_axis + (value - 1)) * inner
        bits |= run << offset
    return bits


def slice_cells(a: CellSet, axis: int, value: int) -> CellSet:
    """Members of a whose coordinate along `axis` equals `value` (same shape)."""
    return CellSet(a.shape, a.bits & slice_mask(a.shape, axis, value))


def project(a: CellSet, axis: int) -> CellSet:
    """Drop the given coordinate from every member.

    Members from different slices may collapse; the result is the union of
    the per-slice projections, on the (d-1)-dimensional shape.
    """
    if not 1 <= axis <= a.shape.d:
        raise ValueError(f"axis {axis} out of range for shape {a.shape.dims}")
    if a.shape.d == 1:
        raise ValueError("cannot project a one-dimensional grid")
    reduced = GridShape(a.shape.dims[: axis - 1] + a.shape.dims[axis:])
    bits = 0
    for v in a.cells():
        w = v[: axis - 1] + v[axis:]
        bits |= 1 << linear_index(reduced, w)
    return CellSet(reduced, bits)


def p_slice(a: CellSet, axis: int, value: int) -> CellSet:
    """Projection of one slice: the slice content seen on the reduced shape."""
    return project(slice_cells(a, axis, value), axis)


def permute_slices(a: CellSet, axis: int, order: Iterable[int]) -> CellSet:
    """Reorder the slices along one axis.

    `order` lists 1-based old slice indices; the new slice at position m is
    the old slice order[m-1]. Must be a permutation of 1..n_axis.
    """
    n = a.shape.dims[axis - 1]
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{n}")
    old_of_new = order
    new_of_old = {old: new for new, old in enumerate(old_of_new, start=1)}
    bits = 0
    for v in a.cells():
        w = list(v)
        w[axis - 1] = new_of_old[v[axis - 1]]
        bits |= 1 << linear_index(a.shape, w)
    return CellSet(a.shape, bits)
