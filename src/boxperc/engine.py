"""Infection processes: single phases, closures, step traces, predicates.

A vertex v outside the infected set A becomes infectable when some
hyperedge E satisfies E minus A = {v}. Phase iteration adds every
infectable vertex at once; step iteration adds one at a time. Both reach
the same fixpoint (the closure), which is what `full_form` computes. A set
percolates when its closure covers the whole grid.

Each (shape, params) pair has one cached edge table: every hyperedge's
per-axis index sets and its occupancy bitmask, generated directly in the
documented edge order (varying axes ascending, then the varying value
tuples, then the fixed coordinates). Masks are per-axis products of
row-major stride factors, shifted by the fixed coordinates, without
visiting vertices one by one. The same layout gives each edge's index
arithmetically, so the per-cell incidence lists (`EdgeTable.through`) are
computed from it rather than read off the masks. The phase scans, closures
and predicates read only the masks, and so do the shift moves of
`transforms` and `search`. `EdgeTable.edge(k)` is the one way from an edge
index to its `Edge`: it builds the object on first request and hands the
same object to every later caller, including the tuple that the first
`all_edges` call builds. Witnesses (`infecting_edge`, step traces, shift
records) go through it, so an edge is built only when it is reported or
`all_edges` asks for the whole tuple. Step traces propagate missing
counts: each edge keeps the number of its cells still uninfected, so one
step touches only the edges through the cell it infects, and a cell's
witness is recorded when an edge's count drops to one. This is a
desk-scale engine: grids whose edge count would exceed EDGE_TABLE_CAP are
rejected up front.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter
from typing import Optional

from .lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    Vertex,
    cell_count,
    check_compatible,
    check_vertex,
    iter_bits,
    linear_index,
    p_slice,
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


def _count_edges(shape: GridShape, params: Params) -> int:
    total = 0
    for axes in combinations(range(shape.d), params.r):
        term = 1
        for i in range(shape.d):
            n = shape.dims[i]
            term *= math.comb(n, params.t) if i in axes else n
        total += term
    return total


class EdgeTable:
    """Every hyperedge of one (shape, params) pair, in the documented order.

    `sets[k]` holds the per-axis index sets of edge k and `masks[k]` its
    occupancy bitmask. The `Edge` objects, the per-edge cell lists and the
    per-cell incidence lists are built on first use and kept.

    The table is laid out in one block per choice of varying axes. Within a
    block, edge k sits at `base + (sum of pos[j] * weights[j]) + fixed`,
    where pos[j] is the rank of its t-set on the j-th varying axis among
    that axis's t-sets (lex order), and fixed is the mixed-radix rank of its
    coordinates on the other axes. `blocks` keeps, per block, (base, varying
    axes, weights, offsets): offsets[fixed] is the linear index that the
    fixed coordinates add to a cell.
    """

    def __init__(self, shape: GridShape, sets: tuple, masks: tuple[int, ...],
                 t: int, blocks: tuple) -> None:
        self.shape = shape
        self.sets = sets
        self.masks = masks
        self.t = t
        self.blocks = blocks
        self._edges: Optional[tuple[Edge, ...]] = None
        self._built: dict[int, Edge] = {}
        self._cells: Optional[list[tuple[int, ...]]] = None
        self._through: Optional[list[list[int]]] = None

    def edge(self, k: int) -> Edge:
        """Edge k, built once: every caller gets the same object, and the
        `edges()` tuple reuses it."""
        if self._edges is not None:
            return self._edges[k]
        e = self._built.get(k)
        if e is None:
            e = self._built[k] = Edge(self.sets[k])
        return e

    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            built = self._built
            self._edges = tuple(built.pop(k, None) or Edge(s) for k, s in enumerate(self.sets))
        return self._edges

    def cells(self) -> list[tuple[int, ...]]:
        """For each edge, its cells (by linear index), ascending."""
        if self._cells is None:
            self._cells = [tuple(iter_bits(m)) for m in self.masks]
        return self._cells

    def through(self) -> list[list[int]]:
        """For each cell (by linear index), the edges containing it, ascending.

        Read off the block layout, not the masks: in a block, the edges
        through a cell are the block base plus the cell's fixed rank plus
        one weighted t-set rank per varying axis, taken over the t-sets that
        hold the cell's coordinate there. Ranks grow with the t-sets in lex
        order and the weights are mixed-radix, so each block's run comes out
        ascending, and blocks follow each other in edge order.
        """
        if self._through is None:
            dims = self.shape.dims
            strides = _strides(dims)
            through: list[list[int]] = [[] for _ in range(cell_count(self.shape))]
            # One int object per edge index, shared by every list it is on.
            ids = list(range(len(self.masks)))
            for base, axes, weights, offsets in self.blocks:
                # hold[j][x]: weighted ranks of the t-sets on axis axes[j]
                # that hold coordinate x + 1.
                hold = []
                for i, w in zip(axes, weights):
                    per = [[] for _ in range(dims[i])]
                    for p, s in enumerate(combinations(range(dims[i]), self.t)):
                        for x in s:
                            per[x].append(p * w)
                    hold.append(per)
                var = [
                    (sum(x * strides[i] for x, i in zip(xs, axes)),
                     [per[x] for per, x in zip(hold, xs)])
                    for xs in product(*(range(dims[i]) for i in axes))
                ]
                for rank, shift in enumerate(offsets):
                    for cell, held in var:
                        offs = [base + rank]
                        for ranks in held[:-1]:
                            offs = [o + q for o in offs for q in ranks]
                        through[shift + cell] += [ids[o + q] for o in offs for q in held[-1]]
            self._through = through
        return self._through


def _strides(dims: tuple[int, ...]) -> list[int]:
    """Row-major strides: cell (x1, ..., xd) has linear index sum((x_i - 1) * stride_i)."""
    return [math.prod(dims[i + 1:]) for i in range(len(dims))]


@lru_cache(maxsize=256)
def _edge_table(shape: GridShape, params: Params) -> EdgeTable:
    check_compatible(shape, params)
    if _count_edges(shape, params) > EDGE_TABLE_CAP:
        raise ValueError(
            f"shape {shape.dims} with t={params.t}, r={params.r} has more than "
            f"{EDGE_TABLE_CAP} hyperedges; beyond the desk-scale engine"
        )
    dims = shape.dims
    strides = _strides(dims)
    sets: list = []
    masks: list[int] = []
    blocks = []
    for axes in combinations(range(shape.d), params.r):
        others = [i for i in range(shape.d) if i not in axes]
        tsets = [list(combinations(range(1, dims[i] + 1), params.t)) for i in axes]
        n_fixed = math.prod(dims[i] for i in others)
        # Rank weights of the varying axes, last axis fastest, above the
        # fixed rank.
        weights = [n_fixed * math.prod(map(len, tsets[j + 1:])) for j in range(len(axes))]
        # An index set S on a varying axis i contributes the factor
        # sum(2**((c-1)*stride_i) for c in S). Cells of a box have distinct
        # row-major offsets, so the product of the factors has exactly the
        # box's bits set; each fixed coordinate then shifts it.
        boxes = [1]
        for i, ts in zip(axes, tsets):
            factors = [sum(1 << (c - 1) * strides[i] for c in s) for s in ts]
            boxes = [b * f for b in boxes for f in factors]
        offsets = [
            sum((c - 1) * strides[i] for c, i in zip(cs, others))
            for cs in product(*(range(1, dims[i] + 1) for i in others))
        ]
        blocks.append((len(masks), axes, weights, offsets))
        masks.extend([b << o for b in boxes for o in offsets])
        # Varying sets first, then the fixed ones, put back into axis order.
        if others:
            singles = [[(c,) for c in range(1, dims[i] + 1)] for i in others]
            order = [*axes, *others]
            pick = itemgetter(*(order.index(i) for i in range(shape.d)))
            sets.extend(map(pick, product(*tsets, *singles)))
        else:
            sets.extend(product(*tsets))
    return EdgeTable(shape, tuple(sets), tuple(masks), params.t, tuple(blocks))


def all_edges(shape: GridShape, params: Params) -> tuple[Edge, ...]:
    """Every hyperedge of the grid, in the deterministic sort order."""
    return _edge_table(shape, params).edges()


def _scan_additions(bits: int, masks) -> int:
    """Union of vertices with an infecting edge relative to `bits`."""
    add = 0
    for m in masks:
        miss = m & ~bits
        if miss and miss & (miss - 1) == 0:
            add |= miss
    return add


def _closure_bits(bits: int, masks, full: int) -> int:
    scan = masks
    while True:
        add = _scan_additions(bits, scan)
        if not add:
            return bits
        bits |= add
        if bits == full:
            return bits
        # Only edges that gained cells can change their missing count.
        scan = [m for m in masks if m & add]


def infecting_edge(a: CellSet, v, params: Params) -> Optional[Edge]:
    """The least edge whose only vertex outside `a` is v, or None.

    Least means first in the documented edge order (varying axes ascending,
    then the varying value tuples, then the fixed coordinates). Raises if v
    is already a member.
    """
    v = check_vertex(a.shape, v)
    vbit = 1 << linear_index(a.shape, v)
    if a.bits & vbit:
        raise ValueError(f"vertex {v} is already infected")
    table = _edge_table(a.shape, params)
    inv = ~a.bits
    for k, m in enumerate(table.masks):
        if m & inv == vbit:
            return table.edge(k)
    return None


def phase_step(a: CellSet, params: Params) -> CellSet:
    """One synchronous round: add every vertex that has an infecting edge."""
    masks = _edge_table(a.shape, params).masks
    return CellSet(a.shape, a.bits | _scan_additions(a.bits, masks))


def full_form(a: CellSet, params: Params) -> tuple[CellSet, PhaseTrace]:
    """Iterate phases to the fixpoint; returns (closure, trace)."""
    masks = _edge_table(a.shape, params).masks
    bits = a.bits
    phases = [a]
    scan = masks
    while True:
        add = _scan_additions(bits, scan)
        if not add:
            break
        bits |= add
        phases.append(CellSet(a.shape, bits))
        scan = [m for m in masks if m & add]
    return phases[-1], PhaseTrace(tuple(phases))


def percolates(a: CellSet, params: Params) -> bool:
    """True when the closure of `a` covers the whole grid."""
    masks = _edge_table(a.shape, params).masks
    full = (1 << cell_count(a.shape)) - 1
    return _closure_bits(a.bits, masks, full) == full


def one_phase(a: CellSet, params: Params) -> bool:
    """True when a single phase already covers the grid: every vertex
    outside `a` has an infecting edge within `a` itself."""
    masks = _edge_table(a.shape, params).masks
    full = (1 << cell_count(a.shape)) - 1
    return a.bits | _scan_additions(a.bits, masks) == full


def step_by_step(a: CellSet, params: Params, seed: Optional[int] = None) -> StepTrace:
    """Infect one vertex at a time until none is infectable.

    With seed None the lexicographically least infectable vertex is chosen
    each step; with an integer seed the choice is uniform under a seeded
    generator. The terminal set never depends on the choices.

    Each edge keeps its count of uninfected cells, and each cell has the
    list of edges through it, in edge order. An edge with one uninfected
    cell makes that cell infectable, and infecting a cell updates only the
    edges on its list. An edge whose count drops to 1 can miss only that
    cell until it is infected, so a cell's witness, the least such edge,
    is kept as the counts drop.
    """
    table = _edge_table(a.shape, params)
    masks, through = table.masks, table.through()
    rng = random.Random(seed) if seed is not None else None
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
        for k in through[idx]:
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


def rectangle_blocks(a: CellSet) -> Optional[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Decompose a 2D set into disjoint full combinatorial rectangles.

    Returns [(row_indices, column_indices), ...] when the set is exactly a
    union of products I x J with the I pairwise disjoint and the J pairwise
    disjoint, else None. Closures of 2D sets at t = r = 2 always decompose
    this way; arbitrary sets generally do not.
    """
    if a.shape.d != 2:
        raise ValueError("rectangle_blocks needs a 2-dimensional set")
    n1 = a.shape.dims[0]
    rows: dict[tuple[int, ...], list[int]] = {}
    for i in range(1, n1 + 1):
        pattern = tuple(v[0] for v in p_slice(a, 1, i).cells())
        if pattern:
            rows.setdefault(pattern, []).append(i)
    patterns = list(rows)
    for p, q in combinations(patterns, 2):
        if set(p) & set(q):
            return None
    return [(tuple(rows[p]), p) for p in sorted(patterns)]
