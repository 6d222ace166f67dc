"""Set surgeries: slice unions and removals, row repacking, shift moves.

Slice union and slice removal shrink the grid by one along an axis while
preserving percolation under the documented hypotheses. A shift move swaps
the missing vertex of an infecting edge in and one of its infected edge
mates out; it never changes the closure. Repeated maximal shifts (always
evicting the edge corner of maximal coordinate sum) terminate, and at
t = r = 2 the terminal sets have enough structure that their closure can
be read off a partition of the row projections.

The 2-D row layer (the block check, the row decomposition, the structural
closure and the repack) reads rows once, as column masks: row i is
`p_slice(a, 1, i).bits`, whose bit j - 1 stands for column j. It writes
back through the row and column slice masks, so no member is decoded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import EdgeTable, _edge_table, infecting_edge, one_phase, phase_step
from .lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    Vertex,
    as_int,
    axis_length,
    check_vertex,
    edge_mask,
    iter_bits,
    p_slice,
    permute_slices,
    relabel_axis,
    slice_index,
    slice_mask,
    unchecked_index,
    unchecked_vertex,
)


@dataclass(frozen=True)
class ShiftRecord:
    """One applied shift: `infected` entered the set, `removed` left it."""

    edge: Edge
    infected: Vertex
    removed: Vertex

    @property
    def maximal(self) -> bool:
        """True when the shift evicted the edge's maximal corner."""
        return self.removed == self.edge.max_corner()


def shift_record(table: EdgeTable, k: int, vbit: int, wbit: int) -> ShiftRecord:
    """The shift along edge k of `table` that infects the cell of bit vbit
    and evicts that of bit wbit: a move as `EdgeTable.moves` gives it."""
    shape = table.shape
    return ShiftRecord(table.edge(k), unchecked_vertex(shape, vbit.bit_length() - 1),
                       unchecked_vertex(shape, wbit.bit_length() - 1))


@dataclass(frozen=True)
class PRowDecomposition:
    """Partition of row indices by overlapping row projections.

    classes[i] lists the 1-based row indices of class i (ascending, classes
    ordered by their least row); representatives[i] is the projection of
    the class member with the lowest row index, which contains the union of
    the whole class when the input is maximal-shift stable.
    """

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[tuple[int, ...], ...]
    rep_rows: tuple[int, ...]


def union_slices(a: CellSet, axis: int, m1: int, m2: int) -> CellSet:
    """Replace slices m1 and m2 along `axis` by one slice carrying the union
    of their projections; the grid loses one layer along that axis.

    The union lands at position min(m1, m2); later slices shift down one.
    """
    n = axis_length(a.shape, axis)
    m1, m2 = slice_index(a.shape, axis, m1), slice_index(a.shape, axis, m2)
    if m1 == m2:
        raise ValueError("need two distinct slices to merge")
    lo, hi = sorted((m1, m2))
    to = [c - (c > hi) for c in range(1, n + 1)]
    to[hi - 1] = lo
    return relabel_axis(a, axis, to)


def remove_slice(a: CellSet, axis: int, m: int) -> CellSet:
    """Delete slice m along `axis`; later slices shift down one."""
    n = axis_length(a.shape, axis)
    m = slice_index(a.shape, axis, m)
    if n == 1:
        raise ValueError("cannot remove the only slice of an axis")
    to = [c - (c > m) for c in range(1, n + 1)]
    to[m - 1] = 0
    return relabel_axis(a, axis, to)


def _check_2d(a: CellSet, caller: str = "") -> None:
    """The row layer's one dimension check."""
    if a.shape.d != 2:
        raise ValueError(f"{caller} needs a 2-dimensional set".lstrip())


def _rows(a: CellSet, caller: str) -> list[int]:
    """Each row of a 2D set as a column mask: bit j - 1 stands for column j."""
    _check_2d(a, caller)
    return [p_slice(a, 1, i).bits for i in range(1, a.shape.dims[0] + 1)]


def _columns(m: int) -> tuple[int, ...]:
    """The 1-based columns of a column mask, ascending."""
    return tuple(j + 1 for j in iter_bits(m))


def _box(shape: GridShape, rows: Iterable[int], cols: int) -> int:
    """Occupancy mask of the listed rows times the columns of mask `cols`."""
    # Distinct slices are disjoint, so their masks add.
    return (sum(slice_mask(shape, 1, i) for i in rows)
            & sum(slice_mask(shape, 2, j + 1) for j in iter_bits(cols)))


def rectangle_blocks(a: CellSet) -> Optional[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Decompose a 2D set into disjoint full combinatorial rectangles.

    Returns [(row_indices, column_indices), ...] when the set is exactly a
    union of products I x J with the I pairwise disjoint and the J pairwise
    disjoint, else None. Closures of 2D sets at t = r = 2 always decompose
    this way; arbitrary sets generally do not.
    """
    blocks: dict[int, list[int]] = {}
    for i, m in enumerate(_rows(a, "rectangle_blocks"), 1):
        if m:
            blocks.setdefault(m, []).append(i)
    seen = 0
    for m in blocks:
        if seen & m:
            return None
        seen |= m
    # Disjoint masks sort as their column tuples do: by least column.
    return [(tuple(blocks[m]), _columns(m)) for m in sorted(blocks, key=lambda m: m & -m)]


def repack_first_column(a: CellSet, params: Params) -> CellSet:
    """Per-row repack: where a row contains column 1 but fewer than t of the
    first t columns, move its column-1 cell to the least free column in the
    first t. Row sizes are preserved."""
    rows = _rows(a, "repack_first_column")
    t = params.t
    if a.shape.dims[1] < t:
        raise ValueError(f"repack needs at least t={t} columns, got {a.shape.dims[1]}")
    bits = a.bits
    for i, m in enumerate(rows, 1):
        free = (1 << t) - 1 & ~m
        if m & 1 and free:
            # The row becomes m ^ (1 | free & -free).
            bits ^= _box(a.shape, (i,), 1 | free & -free)
    return CellSet(a.shape, bits)


@dataclass(frozen=True)
class BlockingAlignment:
    """Result of relabelling rows and columns around a blocked vertex."""

    aligned: CellSet
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    vertex: Vertex
    edge: Edge


def standardize_blocking_corner(a: CellSet, params: Params) -> Optional[BlockingAlignment]:
    """Permute rows and columns so that some vertex that can only be infected
    through column 1 sits at (t, t) with infecting edge [t] x [t].

    Input must be a 2-dimensional set at r = 2 (the edges [t] x [t] it
    aligns to) that percolates in one phase. Returns None when removing column 1
    leaves a one-phase set (no blocked vertex exists). Column 1 stays the
    first column under the relabelling.
    """
    _check_2d(a)
    if params.r != 2:
        raise ValueError(f"needs r = 2, got r = {params.r}")
    if not one_phase(a, params):
        raise ValueError("input must percolate in one phase")
    t = params.t
    n1, n2 = a.shape.dims
    # A cell has an infecting edge exactly when the first phase adds it, so
    # the blocked vertex is the first cell that one phase of `a` without
    # column 1 leaves out, moved back past column 1.
    left = phase_step(remove_slice(a, 2, 1), params).complement()
    if not left:
        return None
    i, j = left.cells()[0]
    blocked = (i, j + 1)
    e0 = infecting_edge(a, blocked, params)
    assert e0 is not None  # one_phase guarantees an infecting edge
    rows, cols = set(e0.sets[0]), set(e0.sets[1])
    if 1 not in cols:
        raise ValueError("blocked vertex has an infecting edge avoiding column 1")
    i_v, j_v = blocked
    row_order = tuple(sorted(rows - {i_v})) + (i_v,) + tuple(sorted(set(range(1, n1 + 1)) - rows))
    col_order = (1,) + tuple(sorted(cols - {1, j_v})) + (j_v,) + tuple(
        sorted(set(range(1, n2 + 1)) - cols)
    )
    aligned = permute_slices(permute_slices(a, 1, row_order), 2, col_order)
    new_edge = Edge((tuple(range(1, t + 1)), tuple(range(1, t + 1))))
    return BlockingAlignment(aligned, row_order, col_order, (t, t), new_edge)


def shift(a: CellSet, e: Edge, w) -> tuple[CellSet, ShiftRecord]:
    """Swap the missing vertex of infecting edge `e` in and member `w` out."""
    mask = edge_mask(e, a.shape)
    miss = mask & ~a.bits
    if not miss or miss & (miss - 1):
        raise ValueError(
            f"edge {e.sets} is not an infecting edge here ({miss.bit_count()} vertices missing)"
        )
    w = check_vertex(a.shape, w)
    wbit = 1 << unchecked_index(a.shape, w)
    if wbit == miss or not mask & wbit:
        raise ValueError(f"{w} is not an infected vertex of the edge")
    moved = CellSet(a.shape, (a.bits | miss) & ~wbit)
    v = unchecked_vertex(a.shape, miss.bit_length() - 1)
    return moved, ShiftRecord(e, v, w)


def normalize_max_shifts(
    a: CellSet, params: Params, seed: Optional[int] = None
) -> tuple[CellSet, tuple[ShiftRecord, ...]]:
    """Apply maximal shifts until every infecting edge is in standard
    position. Each step evicts the maximal corner of the chosen edge, so the
    total coordinate sum strictly decreases and the loop terminates.

    The candidates are the maximal moves of `EdgeTable.moves`, ordered by
    missing vertex, then edge. With seed None the least is chosen each
    step; a generator seeded with the integer `seed` picks among them
    otherwise (the terminal set may then differ, but is always stable). A
    bool, a float or a string seed raises.
    """
    rng = random.Random(as_int(seed)) if seed is not None else None
    table = _edge_table(a.shape, params)
    bits = a.bits
    records: list[ShiftRecord] = []
    while True:
        candidates = [(vbit, k, wbit) for k, vbit, wbit in table.moves(bits, True)]
        if not candidates:
            return CellSet(a.shape, bits), tuple(records)
        vbit, k, wbit = min(candidates) if rng is None else rng.choice(sorted(candidates))
        bits = (bits | vbit) & ~wbit
        records.append(shift_record(table, k, vbit, wbit))


def _row_classes(a: CellSet) -> list[tuple[list[int], int]]:
    """(rows, representative mask) per class of `p_row_decomposition`,
    classes ordered by their least row."""
    rows = _rows(a, "p_row_decomposition")
    # Each class as (its rows ascending, the union of their masks); a row
    # merges every class whose union it meets.
    classes: list[tuple[list[int], int]] = []
    for i, m in enumerate(rows, 1):
        if not m:
            raise ValueError(f"row {i} is empty; every row must be nonempty")
        members, union, rest = [], m, []
        for cls in classes:
            if cls[1] & m:
                members += cls[0]
                union |= cls[1]
            else:
                rest.append(cls)
        classes = rest + [(sorted(members) + [i], union)]
    out = []
    for members, union in sorted(classes):
        rep = rows[members[0] - 1]
        if union != rep:
            i = next(i for i in members if rows[i - 1] & ~rep)
            raise ValueError(
                f"not maximal-shift stable: row {i} is not contained in the "
                f"representative row {members[0]}"
            )
        out.append((members, rep))
    return out


def p_row_decomposition(a: CellSet) -> PRowDecomposition:
    """Group the rows of a 2D set by overlapping projections.

    Two rows relate when their projections intersect; classes are the
    connected components of that relation. Valid for maximal-shift stable
    sets at t = r = 2 with no empty row: there each class representative
    (the member of lowest row index) must contain the union of its class,
    and that containment is validated, naming the offending row pair on
    failure.
    """
    classes = _row_classes(a)
    return PRowDecomposition(
        tuple(tuple(rows) for rows, _ in classes),
        tuple(_columns(rep) for _, rep in classes),
        tuple(rows[0] for rows, _ in classes),
    )


def stable_full_form(a: CellSet) -> CellSet:
    """Closure of a maximal-shift stable 2D set (t = r = 2), read directly
    off the row decomposition: the union over classes of
    class rows x representative projection."""
    bits = 0
    for rows, rep in _row_classes(a):
        bits |= _box(a.shape, rows, rep)
    return CellSet(a.shape, bits)
