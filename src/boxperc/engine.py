"""Infection processes: single phases, closures, step traces, predicates.

A vertex v outside the infected set A becomes infectable when some
hyperedge E satisfies E minus A = {v}. Phase iteration adds every
infectable vertex at once; step iteration adds one at a time. Both reach
the same fixpoint (the closure), which is what `full_form` computes. A set
percolates when its closure covers the whole grid.

Each (shape, params) pair has one cached edge table. It stores only the
block layout of the edges in the documented edge order (varying axes
ascending, then the varying value tuples, then the fixed coordinates):
per choice of varying axes, one list of index sets per axis, t-sets where
the axis varies and singletons where it is fixed, as `lattice.Edge` holds
an edge. An edge's index is a weighted sum of its per-axis ranks, so every
view is computed from the layout, on first use, without visiting vertices
one by one: the edge masks (`EdgeTable.masks`, one occupancy bitmask per
edge, per-axis products of row-major stride factors shifted by the fixed
coordinates) and the edge columns (`EdgeTable.columns`, the transpose of
the masks: one int per cell, whose bit k is set when edge k holds the
cell). No module but this one reads either. The table's scan,
`EdgeTable.single_missing`, ORs the columns of the missing cells into
`once` and `twice` accumulators, leaving the edges that miss exactly one
cell in `once & ~twice`, at a cost of O(missing cells) big-int operations
whatever the edge count. On that scan stand `EdgeTable.phases`,
`percolates` and `one_phase`, and through them the phase scans, closures
and predicates here and the samplers of `search`; none of them builds the
masks. On it too stands `EdgeTable.moves`, the one source of shift moves,
which reads each edge's missing cell and maximal corner off its mask: the
shift search of `search`, the maximal-shift normal form of `transforms`
and the shift battery of `verify` all read it.

The closure has a second, bit-sliced form, for the exact search, which
tests a block of candidate sets at once: column c is then the int whose
bit j is set when candidate j holds cell c. `EdgeTable.sweep` ORs into
each cell's column the candidates an edge infects it in, reading the
table's units (`EdgeTable.units`) instead of its edges. An edge lies in
one r-flat and is a product of t-sets, so it is the union of the boxes
{y} x F over a t-set of points y on the flat's longest varying axis h,
with F a product of t-sets on its other varying axes. A candidate missing
cell v = (y, z), z in F, has an infecting edge of this form exactly when
it holds the rest of v's box and the whole box {y'} x F at t - 1 points
y' of h other than y. Counting y' = y as well is harmless: a candidate
holding all of box y holds v already, so ORing into v's column changes
nothing. Per (flat, F) unit a sweep therefore ANDs each box's columns,
keeps the candidates with at least t - 1 full boxes (an OR at t = 2), and
ORs them, ANDed with the rest of each cell's box, into the cell's column:
the work goes with the n_h boxes of a unit, not with its C(n_h, t) edges.
On the sweep stand the bit-sliced twins of `percolates` and `one_phase`.
`first_percolating` sweeps in place until a sweep changes nothing; each
cell's column then holds the candidates whose closure contains it, and a
candidate percolates when it is set in every column. Columns only grow,
so a candidate set in every column after any sweep already percolates:
the sweeps go on over the candidates below the first such one alone, and
stop at once when none is left there. `first_one_phase` makes one sweep
that reads only the start columns. The sweep pays only across many
candidates: a single set closes faster through the scalar `percolates`.

`EdgeTable.edge(k)` is the one way from an edge index to its `Edge`: it
decodes edge k's index sets from the layout on first request and hands
the same object to every later caller. Witnesses (`infecting_edge`, step
traces, shift records) go through it, so an edge is built only when it is
reported or `all_edges` asks for all of them. Witnesses are found two
ways. For a set, `infecting_edge` and `moves` read the scan: the edges of
`single_missing` through a cell, or all of them. Step traces propagate
missing counts: each edge keeps the number of its cells still uninfected,
so one step touches only the edges through the cell it infects, and a
cell's witness is recorded when an edge's count drops to one. Those edges
are computed from the layout when the cell is infected; no per-cell edge
list is kept. This is a desk-scale engine: a grid whose edge count would
exceed EDGE_TABLE_CAP is rejected before the block that would pass the cap
is built.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, combinations
from operator import and_, or_
from typing import Iterator, Optional, Sequence

from .lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    Vertex,
    as_int,
    cell_count,
    check_compatible,
    check_vertex,
    linear_index,
    row_strides,
    unchecked_vertex,
)

EDGE_TABLE_CAP = 1 << 20


@dataclass(frozen=True)
class PhaseTrace:
    """Strictly growing phase sets, ending at the fixpoint."""

    phases: tuple[CellSet, ...]

    @property
    def f(self) -> int:
        """Index of the terminal phase."""
        return len(self.phases) - 1


@dataclass(frozen=True)
class StepTrace:
    """One-vertex-at-a-time infection record: (vertex, witnessing edge) pairs."""

    start: CellSet
    steps: tuple[tuple[Vertex, Edge], ...]

    @property
    def terminal(self) -> CellSet:
        return self.start.with_cells(v for v, _ in self.steps)


class EdgeTable:
    """Every hyperedge of one (shape, params) pair, in the documented order.

    The table stores its `params`, its block layout, `size`, the number of
    edges, and `full`, the mask of every cell; everything else is a view
    of the layout, built on first use and kept: `masks[k]`, the occupancy
    bitmask of edge k, read only by `moves` and step traces; the per-cell
    edge `columns`, read by the scalar scan; and the kernel's `units` (per
    r-flat and t-box F, the boxes {y} x F along the flat's longest varying
    axis). The scalar scan lives here: `single_missing`, `phases`,
    `percolates`, `one_phase` and the shift moves, `moves`, each over a set
    given as its cell bits. So does the bit-sliced kernel, `sweep`, with
    its predicates `first_percolating` and `first_one_phase`, each over a
    block of candidates given as one column per cell. `edge(k)` decodes
    edge k on first request. Step traces compute the edges through a cell
    from the layout instead of keeping a list per cell.

    The table is laid out in one block per choice of varying axes, and
    `blocks` keeps, per block, (base, axes, sets, weights, held, lines).
    axes are the varying axes, ascending. sets[i] lists axis i's index
    sets in lex order: its 1-based t-sets where it varies, its singletons
    (c,) where it is fixed. An edge of the block takes one set per axis,
    and sits at `base + sum of pos[i] * weights[i]`, pos[i] the rank of its
    set on axis i; the weights are mixed-radix over the varying axes first,
    then the fixed ones, last axis fastest. held[i][x] lists, for every
    axis, the weighted ranks `pos * weights[i]` of the sets holding
    coordinate x + 1, ascending. So the edges of a block through a cell are
    the base plus one rank from held[i] per axis. lines[p] lists those sums
    over every axis but the last varying one, for the cells whose row-major
    index over those axes is p (one line along the last varying axis). A
    block's edges through a cell are then its line's entries plus each
    rank in held[axes[-1]] at its coordinate there.
    """

    def __init__(self, shape: GridShape, params: Params, blocks: tuple, size: int) -> None:
        self.shape = shape
        self.params = params
        self.blocks = blocks
        self.size = size
        self.full = (1 << cell_count(shape)) - 1
        self._memo: dict[int, Edge] = {}

    def edge(self, k: int) -> Edge:
        """Edge k, decoded once: every caller gets the same object.

        Its block is the last one whose base is at most k, and each axis
        takes the index set whose rank its weight picks out.
        """
        e = self._memo.get(k)
        if e is None:
            if not 0 <= k < self.size:
                raise IndexError(f"edge index {k} out of range")
            base, _, sets, weights, _, _ = self.blocks[
                bisect_right(self.blocks, k, key=lambda block: block[0]) - 1]
            rel = k - base
            e = self._memo[k] = Edge(tuple(ss[rel // w % len(ss)] for ss, w in zip(sets, weights)))
        return e

    def single_missing(self, bits: int) -> int:
        """The edges (bit k for edge k) with exactly one cell outside `bits`.

        `once` collects the edges holding at least one of the missing cells
        seen so far, and `twice` those holding at least two. The edges
        through a cell are its column's bits, so an edge in `once & ~twice`
        misses exactly one cell, and that cell is the missing cell whose
        column holds the edge.
        """
        cols = self.columns
        once = twice = 0
        miss = ~bits & self.full
        while miss:
            low = miss & -miss
            col = cols[low.bit_length() - 1]
            twice |= once & col
            once |= col
            miss ^= low
        return once & ~twice

    def moves(self, bits: int, maximal_only: bool = False) -> Iterator[tuple[int, int, int]]:
        """The shift moves of the set `bits`: (k, vbit, wbit) for each edge
        k that misses one cell, vbit, and each member wbit of that edge to
        evict, edges ascending, then members ascending. With `maximal_only`
        the only member offered is the edge's maximal corner, its highest
        bit, and an edge whose missing cell is that corner offers none."""
        masks = self.masks
        inv = ~bits
        single = self.single_missing(bits)
        while single:
            low = single & -single
            single ^= low
            k = low.bit_length() - 1
            m = masks[k]
            vbit = m & inv
            # The maximal case skips the member loop: masking m down to its
            # corner and looping measured 7-8% slower on the normal form and
            # on maximal-only reach.
            if maximal_only:
                top = 1 << m.bit_length() - 1
                if top != vbit:
                    yield k, vbit, top
                continue
            rest = m ^ vbit
            while rest:
                wbit = rest & -rest
                rest ^= wbit
                yield k, vbit, wbit

    def phases(self, bits: int) -> Iterator[int]:
        """The phases after `bits`, each a strict superset of the one before,
        up to the closure. A phase adds every missing cell that is the only
        missing cell of some edge."""
        cols = self.columns
        while single := self.single_missing(bits):
            miss = ~bits & self.full
            while miss:
                low = miss & -miss
                if cols[low.bit_length() - 1] & single:
                    bits |= low
                miss ^= low
            yield bits

    def percolates(self, bits: int) -> bool:
        """True when the closure of `bits`, its last phase, is every cell."""
        for bits in self.phases(bits):
            pass
        return bits == self.full

    def one_phase(self, bits: int) -> bool:
        """True when the first phase after `bits` is every cell."""
        return next(self.phases(bits), bits) == self.full

    def sweep(self, src: Sequence[int], dst: list[int]) -> bool:
        """One sweep of the units over candidate columns: OR into dst each
        cell that an edge infects from src; True when some column of dst
        grew. dst must hold src, column by column.

        A unit is an r-flat with a t-box F on its varying axes but h, given as
        the boxes {y} x F along h. Per unit, `full` is the AND over each box,
        and `u` the candidates with at least t - 1 full boxes: an OR at t = 2,
        a saturating count in t - 1 bit-sliced thresholds above. Each cell then
        gains `u` ANDed with the rest of its box. That is exactly what the
        unit's edges infect: the candidates that `u` counts with the cell's own
        box full hold the cell already.

        Each unit reads its columns from src once, before it writes any, so
        with src is dst the units act in turn on the columns the earlier ones
        left: a sweep then covers at least one phase, and repeated sweeps reach
        the closure. A one-cell box (r = 1) and a two-cell box take
        straight-line code; a larger box takes prefix ANDs and a running
        suffix AND from `u`.
        """
        units, t = self.units, self.params.t
        before = dst[:]
        box = len(units[0][0]) if units else 0
        for rows in units:
            if box == 1:
                full = [src[c] for c, in rows]
            elif box == 2:
                xss = [(src[a], src[b]) for a, b in rows]
                full = [x & y for x, y in xss]
            else:
                xss = [[src[c] for c in row] for row in rows]
                # pres[y][i]: the AND of box y's columns up to cell i.
                pres = [[*accumulate(xs, and_)] for xs in xss]
                full = [pre[-1] for pre in pres]
            if t == 2:
                u = reduce(or_, full)
            else:
                # at[i]: the candidates with more than i full boxes so far.
                at = [0] * (t - 1)
                for f in full:
                    for i in range(t - 2, 0, -1):
                        at[i] |= at[i - 1] & f
                    at[0] |= f
                u = at[-1]
            if not u:
                continue
            if box == 1:
                for c, in rows:
                    dst[c] |= u
            elif box == 2:
                for (a, b), (x, y) in zip(rows, xss):
                    dst[a] |= u & y
                    dst[b] |= u & x
            else:
                for row, xs, pre in zip(rows, xss, pres):
                    # suf: u ANDed with the columns of the cells after cell i.
                    suf = u
                    for i in range(box - 1, 0, -1):
                        dst[row[i]] |= pre[i - 1] & suf
                        suf &= xs[i]
                    dst[row[0]] |= suf
        return dst != before

    def first_percolating(self, cols: Sequence[int], want: int) -> int:
        """The first of the wanted candidates that percolates, as its bit,
        or 0: `percolates` over candidate columns (bit j of cols[c] set
        when candidate j holds cell c) and a mask `want` of candidates.

        Sweeps in place until nothing grows: each column is then the
        candidates whose closure holds that cell. Columns only grow, so a
        wanted candidate set in every column after any sweep percolates.
        The lowest one is kept, and only the candidates below it go on; the
        sweeps stop at once when none of those is left.
        """
        closed = list(cols)
        first = 0
        while True:
            full = reduce(and_, closed, want)
            if full:
                first = full & -full
                lim = first - 1
                want &= lim
                if not want:
                    return first
                closed = [c & lim for c in closed]
            if not self.sweep(closed, closed):
                return first

    def first_one_phase(self, cols: Sequence[int], want: int) -> int:
        """The wanted candidates whose first phase is every cell, the first
        of them lowest: `one_phase` over candidate columns, in one sweep
        that reads only the start columns."""
        phase = list(cols)
        self.sweep(cols, phase)
        return reduce(and_, phase, want)

    @cached_property
    def units(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The edges regrouped as `sweep` reads them: one unit per
        r-flat (a block and its fixed coordinates) and t-box F, a t-set on
        each varying axis but h, the block's longest varying axis (the
        first of the longest). A unit lists the boxes {y} x F for y along h,
        in order, each box its cells by linear index, ascending. The units
        run over the index sets of every axis but h, fixed axes first.

        The edges of the flat that vary over F on the other axes are the
        unions of the boxes {y} x F over the t-sets of y on h, so each edge
        is such a union in exactly one unit. A set lacking cell v = (y, z),
        z in F, therefore has an edge of the unit that infects v exactly
        when it holds the rest of box y and all of box y' at t - 1 points
        y' != y. `sweep` counts full boxes without excluding box y,
        which is harmless: a set holding all of box y holds v already. A
        block with an axis shorter than t holds no edge and gives no unit.
        """
        dims = self.shape.dims
        strides = row_strides(dims)
        units = []
        for _, axes, sets, _, _, _ in self.blocks:
            if not all(sets):
                continue
            h = max(axes, key=dims.__getitem__)
            boxes = [(0,)]
            for i in sorted(range(len(dims)), key=axes.__contains__):
                if i != h:
                    boxes = [tuple(o + (c - 1) * strides[i] for o in box for c in s)
                             for box in boxes for s in sets[i]]
            line = [y * strides[h] for y in range(dims[h])]
            units += [tuple(tuple(y + b for b in box) for y in line) for box in boxes]
        return tuple(units)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """masks[k]: the occupancy bitmask of edge k, bit c set when the
        edge holds the cell of linear index c.

        An index set S on a varying axis i contributes the factor
        sum(2**((c-1)*stride_i) for c in S). Cells of a box have distinct
        row-major offsets, so the product of a block's factors has exactly
        the box's bits set; each choice of fixed coordinates then shifts it
        into place. Only `moves` and step traces read the masks.
        """
        strides = row_strides(self.shape.dims)
        masks: list[int] = []
        for _, axes, sets, _, _, _ in self.blocks:
            boxes, shifts = [1], [0]
            for i, ss in enumerate(sets):
                if i in axes:
                    factors = [sum(1 << (c - 1) * strides[i] for c in s) for s in ss]
                    boxes = [b * f for b in boxes for f in factors]
                else:
                    # Shifting by a fixed coordinate rather than multiplying
                    # by its power of two: the product measured 2-3x slower.
                    shifts = [o + (c - 1) * strides[i] for o in shifts for c, in ss]
            # With no fixed coordinate to apply, the boxes are the masks:
            # shifting each by 0 would copy every one while the boxes are held.
            masks.extend(boxes if shifts == [0] else [b << o for b in boxes for o in shifts])
        return tuple(masks)

    @cached_property
    def columns(self) -> list[int]:
        """For each cell (by linear index), the int whose bit k is set when
        edge k holds the cell: the transpose of `masks`.

        Built from the block layout as the masks are, without visiting
        edges one by one. In a block, the edges through a cell are the
        block base plus one weighted rank per axis, over the index sets
        holding the cell's coordinate there. So each varying axis gives,
        per coordinate, a factor with bit `rank * weight` for each rank in
        `held`. The weights are mixed-radix, so the product of one factor
        per varying axis has exactly the bits of the block's edges through
        the cell, less the base and the fixed axes' ranks, which then shift
        it into place (a product by their power of two measured 2-3x
        slower). Each product is dropped once shifted, so the build peaks
        near the size of the finished columns.
        """
        strides = row_strides(self.shape.dims)
        cols = [0] * cell_count(self.shape)
        for base, axes, _, _, held, _ in self.blocks:
            # (linear offset, product) over the varying axes, and
            # (linear offset, shift) over the fixed ones.
            boxes, shifts = [(0, 1)], [(0, base)]
            for i, per in enumerate(held):
                if i in axes:
                    factors = [sum(1 << q for q in ranks) for ranks in per]
                    boxes = [(o + x * strides[i], b * f)
                             for o, b in boxes for x, f in enumerate(factors)]
                else:
                    shifts = [(o + x * strides[i], s + q)
                              for o, s in shifts for x, (q,) in enumerate(per)]
            while boxes:
                o, b = boxes.pop()
                for f, s in shifts:
                    cols[f + o] |= b << s
        return cols


@lru_cache(maxsize=256)
def _edge_table(shape: GridShape, params: Params) -> EdgeTable:
    check_compatible(shape, params)
    dims = shape.dims
    size = 0
    blocks = []
    for axes in combinations(range(shape.d), params.r):
        # The size of each axis's index sets: t where it varies, 1 where it
        # is fixed.
        widths = [params.t if i in axes else 1 for i in range(shape.d)]
        # Rank weights, varying axes first, then fixed ones, last axis
        # fastest; w ends as the block's edge count.
        weights = [0] * shape.d
        w = 1
        for i in reversed([*axes, *(i for i in range(shape.d) if i not in axes)]):
            weights[i] = w
            w *= math.comb(dims[i], widths[i])
        # Refuse before building a block that would pass the cap.
        if size + w > EDGE_TABLE_CAP:
            raise ValueError(
                f"shape {shape.dims} with t={params.t}, r={params.r} has more than "
                f"{EDGE_TABLE_CAP} hyperedges; beyond the desk-scale engine"
            )
        # Each axis's index sets, in lex order.
        sets = [list(combinations(range(1, n + 1), k)) for n, k in zip(dims, widths)]
        # held[i][x]: the weighted ranks of the index sets on axis i that
        # hold coordinate x + 1.
        held = []
        for n, ss, w_i in zip(dims, sets, weights):
            per: list[list[int]] = [[] for _ in range(n)]
            for p, s in enumerate(ss):
                for c in s:
                    per[c - 1].append(p * w_i)
            held.append(per)
        # One list per line along the last varying axis (the cells that
        # differ only there), in row-major order over the other axes: the
        # base plus one rank per other axis.
        lines = [[size]]
        for i, per in enumerate(held):
            if i != axes[-1]:
                lines = [[k + q for k in ks for q in qs] for ks in lines for qs in per]
        blocks.append((size, axes, sets, weights, held, lines))
        size += w
    return EdgeTable(shape, params, tuple(blocks), size)


def all_edges(shape: GridShape, params: Params) -> tuple[Edge, ...]:
    """Every hyperedge of the grid, in the deterministic sort order."""
    table = _edge_table(shape, params)
    return tuple(map(table.edge, range(table.size)))


def infecting_edge(a: CellSet, v, params: Params) -> Optional[Edge]:
    """The least edge whose only vertex outside `a` is v, or None.

    Least means first in the documented edge order (varying axes ascending,
    then the varying value tuples, then the fixed coordinates). The edges
    missing one cell, `single_missing`, that pass through v are exactly
    those whose missing cell is v. Raises if v is already a member.
    """
    v = check_vertex(a.shape, v)
    idx = linear_index(a.shape, v)
    if a.bits >> idx & 1:
        raise ValueError(f"vertex {v} is already infected")
    table = _edge_table(a.shape, params)
    found = table.single_missing(a.bits) & table.columns[idx]
    return table.edge((found & -found).bit_length() - 1) if found else None


def phase_step(a: CellSet, params: Params) -> CellSet:
    """One synchronous round: add every vertex that has an infecting edge."""
    return CellSet(a.shape, next(_edge_table(a.shape, params).phases(a.bits), a.bits))


def full_form(a: CellSet, params: Params) -> tuple[CellSet, PhaseTrace]:
    """Iterate phases to the fixpoint; returns (closure, trace)."""
    table = _edge_table(a.shape, params)
    phases = [a, *(CellSet(a.shape, bits) for bits in table.phases(a.bits))]
    return phases[-1], PhaseTrace(tuple(phases))


def percolates(a: CellSet, params: Params) -> bool:
    """True when the closure of `a` covers the whole grid."""
    return _edge_table(a.shape, params).percolates(a.bits)


def one_phase(a: CellSet, params: Params) -> bool:
    """True when a single phase already covers the grid: every vertex
    outside `a` has an infecting edge within `a` itself."""
    return _edge_table(a.shape, params).one_phase(a.bits)


def step_by_step(a: CellSet, params: Params, seed: Optional[int] = None) -> StepTrace:
    """Infect one vertex at a time until none is infectable.

    With seed None the lexicographically least infectable vertex is chosen
    each step; with an integer seed the choice is uniform under a seeded
    generator (a bool, a float or a string seed raises). The terminal set
    never depends on the choices.

    Each edge keeps its count of uninfected cells. An edge with one
    uninfected cell makes that cell infectable, and infecting a cell
    updates only the edges through it. An edge whose count drops to 1 can
    miss only that cell until it is infected, so a cell's witness, the
    least such edge, is kept as the counts drop; the order in which a
    cell's edges are visited cannot change it.

    The edges through the infected cell are computed from the block
    layout: in each block, the base plus one weighted rank per axis, taken
    over the index sets that hold the cell's coordinate there (one set on
    a fixed axis, t-sets on a varying one). The block's `lines` hold these
    sums over every axis but the last varying one, so a cell's edges are
    its line's entries plus, in turn, each rank of its coordinate on that
    axis. The missing counts are read off the masks, so a trace builds the
    `masks` view of a cold table, and nothing else.
    """
    table = _edge_table(a.shape, params)
    masks = table.masks
    dims = a.shape.dims
    strides = row_strides(dims)
    # Per block: its lines; the strides that drop a cell's coordinate on
    # the last varying axis from its linear index (giving its line) and
    # pick it out; and that axis's ranks per coordinate.
    layout = []
    for _, axes, _, _, held, lines in table.blocks:
        i = axes[-1]
        layout.append((lines, strides[i] * dims[i], strides[i], dims[i], held[i]))
    rng = random.Random(as_int(seed)) if seed is not None else None
    inv = ~a.bits
    missing = [(m & inv).bit_count() for m in masks]
    # Infectable cell -> its least witness edge; the keys, ascending, are
    # the candidates. A cell stays infectable until infected.
    witness: dict[int, int] = {}
    for k, n in enumerate(missing):
        if n == 1:
            witness.setdefault((masks[k] & inv).bit_length() - 1, k)
    candidates = sorted(witness)
    steps: list[tuple[Vertex, Edge]] = []
    while candidates:
        idx = candidates[0] if rng is None else rng.choice(candidates)
        del candidates[bisect_left(candidates, idx)]
        steps.append((unchecked_vertex(a.shape, idx), table.edge(witness.pop(idx))))
        inv ^= 1 << idx
        for lines, outer, inner, n, held in layout:
            ranks = held[idx // inner % n]
            for k0 in lines[idx // outer * inner + idx % inner]:
                for q in ranks:
                    k = k0 + q
                    missing[k] -= 1
                    if missing[k] == 1:
                        c = (masks[k] & inv).bit_length() - 1
                        w = witness.get(c)
                        if w is None:
                            witness[c] = k
                            insort(candidates, c)
                        elif k < w:
                            witness[c] = k
    return StepTrace(a, tuple(steps))
