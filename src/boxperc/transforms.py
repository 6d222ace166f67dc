"""Set surgeries: slice unions and removals, row repacking, shift moves.

Slice union and slice removal shrink the grid by one along an axis while
preserving percolation under the documented hypotheses. A shift move swaps
the missing vertex of an infecting edge in and one of its infected edge
mates out; it never changes the closure. Repeated maximal shifts (always
evicting the edge corner of maximal coordinate sum) terminate, and at
t = r = 2 the terminal sets have enough structure that their closure can
be read off a partition of the row projections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .engine import EdgeTable, _edge_table, infecting_edge, one_phase, phase_step
from .lattice import (
    CellSet,
    Edge,
    Params,
    Vertex,
    axis_length,
    check_vertex,
    edge_mask,
    p_slice,
    permute_slices,
    relabel_axis,
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
    if m1 == m2:
        raise ValueError("need two distinct slices to merge")
    for m in (m1, m2):
        if not 1 <= m <= n:
            raise ValueError(f"slice index {m} out of range on axis {axis}")
    lo, hi = sorted((m1, m2))
    to = [c - (c > hi) for c in range(1, n + 1)]
    to[hi - 1] = lo
    return relabel_axis(a, axis, to)


def remove_slice(a: CellSet, axis: int, m: int) -> CellSet:
    """Delete slice m along `axis`; later slices shift down one."""
    n = axis_length(a.shape, axis)
    if not 1 <= m <= n:
        raise ValueError(f"slice index {m} out of range on axis {axis}")
    if n == 1:
        raise ValueError("cannot remove the only slice of an axis")
    to = [c - (c > m) for c in range(1, n + 1)]
    to[m - 1] = 0
    return relabel_axis(a, axis, to)


def _prow(a: CellSet, row: int) -> set[int]:
    return {v[0] for v in p_slice(a, 1, row).cells()}


def repack_first_column(a: CellSet, params: Params) -> CellSet:
    """Per-row repack: where a row contains column 1 but fewer than t of the
    first t columns, move its column-1 cell to the least free column in the
    first t. Row sizes are preserved."""
    if a.shape.d != 2:
        raise ValueError("repack_first_column needs a 2-dimensional set")
    t = params.t
    if a.shape.dims[1] < t:
        raise ValueError(f"repack needs at least t={t} columns, got {a.shape.dims[1]}")
    n1 = a.shape.dims[0]
    cells: list[Vertex] = []
    for i in range(1, n1 + 1):
        row = _prow(a, i)
        prefix = row & set(range(1, t + 1))
        if 1 in row and len(prefix) < t:
            target = min(set(range(1, t + 1)) - row)
            row = (row - {1}) | {target}
        cells.extend((i, j) for j in row)
    return CellSet.from_cells(a.shape, cells)


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
    if a.shape.d != 2:
        raise ValueError("needs a 2-dimensional set")
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


def _missing_bit(a: CellSet, e: Edge) -> tuple[int, int]:
    """(edge mask, bit of its one cell outside `a`); raises if the edge is
    off the shape or not an infecting edge of `a`."""
    mask = edge_mask(e, a.shape)
    miss = mask & ~a.bits
    if not miss or miss & (miss - 1):
        raise ValueError(
            f"edge {e.sets} is not an infecting edge here ({miss.bit_count()} vertices missing)"
        )
    return mask, miss


def shift(a: CellSet, e: Edge, w) -> tuple[CellSet, ShiftRecord]:
    """Swap the missing vertex of infecting edge `e` in and member `w` out."""
    mask, miss = _missing_bit(a, e)
    w = check_vertex(a.shape, w)
    wbit = 1 << unchecked_index(a.shape, w)
    if wbit == miss or not mask & wbit:
        raise ValueError(f"{w} is not an infected vertex of the edge")
    moved = CellSet(a.shape, (a.bits | miss) & ~wbit)
    v = unchecked_vertex(a.shape, miss.bit_length() - 1)
    return moved, ShiftRecord(e, v, w)


def is_standard_position(e: Edge, a: CellSet) -> bool:
    """True when the missing vertex of the infecting edge is the corner of
    maximal coordinate sum (so no maximal shift applies)."""
    mask, miss = _missing_bit(a, e)
    # The maximal corner is the edge's highest bit.
    return miss.bit_length() == mask.bit_length()


def normalize_max_shifts(
    a: CellSet, params: Params, seed: Optional[int] = None
) -> tuple[CellSet, tuple[ShiftRecord, ...]]:
    """Apply maximal shifts until every infecting edge is in standard
    position. Each step evicts the maximal corner of the chosen edge, so the
    total coordinate sum strictly decreases and the loop terminates.

    The candidates are the maximal moves of `EdgeTable.moves`, ordered by
    missing vertex, then edge. With seed None the least is chosen each
    step; a seeded generator picks among them otherwise (the terminal set
    may then differ, but is always stable).
    """
    rng = random.Random(seed) if seed is not None else None
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


def p_row_decomposition(a: CellSet) -> PRowDecomposition:
    """Group the rows of a 2D set by overlapping projections.

    Two rows relate when their projections intersect; classes are the
    connected components of that relation. Valid for maximal-shift stable
    sets at t = r = 2 with no empty row: there each class representative
    (the member of lowest row index) must contain the union of its class,
    and that containment is validated, naming the offending row pair on
    failure.
    """
    if a.shape.d != 2:
        raise ValueError("p_row_decomposition needs a 2-dimensional set")
    n1 = a.shape.dims[0]
    prows = {i: _prow(a, i) for i in range(1, n1 + 1)}
    for i, row in prows.items():
        if not row:
            raise ValueError(f"row {i} is empty; every row must be nonempty")
    # Connected components of the overlap graph.
    unassigned = set(prows)
    classes: list[list[int]] = []
    while unassigned:
        seed_row = min(unassigned)
        component = {seed_row}
        frontier = [seed_row]
        while frontier:
            i = frontier.pop()
            for j in list(unassigned - component):
                if prows[i] & prows[j]:
                    component.add(j)
                    frontier.append(j)
        unassigned -= component
        classes.append(sorted(component))
    classes.sort(key=lambda c: c[0])
    reps = []
    rep_rows = []
    for cls in classes:
        rep_row = cls[0]
        rep = prows[rep_row]
        for i in cls:
            if not prows[i] <= rep:
                raise ValueError(
                    f"not maximal-shift stable: row {i} is not contained in the "
                    f"representative row {rep_row}"
                )
        reps.append(tuple(sorted(rep)))
        rep_rows.append(rep_row)
    return PRowDecomposition(
        tuple(tuple(c) for c in classes), tuple(reps), tuple(rep_rows)
    )


def stable_full_form(a: CellSet) -> CellSet:
    """Closure of a maximal-shift stable 2D set (t = r = 2), read directly
    off the row decomposition: the union over classes of
    class rows x representative projection."""
    decomp = p_row_decomposition(a)
    cells = []
    for cls, rep in zip(decomp.classes, decomp.representatives):
        cells.extend((i, j) for i in cls for j in rep)
    return CellSet.from_cells(a.shape, cells)
