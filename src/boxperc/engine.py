"""Infection processes: single phases, closures, step traces, predicates.

A vertex v outside the infected set A becomes infectable when some
hyperedge E satisfies E minus A = {v}. Phase iteration adds every
infectable vertex at once; step iteration adds one at a time. Both reach
the same fixpoint (the closure), which is what `full_form` computes. A set
percolates when its closure covers the whole grid.

Each (shape, params) pair has one cached edge table: every hyperedge's
per-axis index sets and its occupancy bitmask, generated directly in the
documented edge order (varying axes ascending, then the varying value
tuples, then the fixed coordinates). Masks are folded from row-major
strides, without visiting vertices one by one. The phase scans, closures
and predicates read only the masks, and so do the shift moves of
`transforms` and `search`. `EdgeTable.edge(k)` is the one way from an edge
index to its `Edge`: it builds the object on first request and hands the
same object to every later caller, including the tuple that the first
`all_edges` call builds. Witnesses (`infecting_edge`, step traces, shift
records) go through it, so an edge is built only when it is reported or
`all_edges` asks for the whole tuple. Step traces propagate missing
counts: each edge keeps the number of its cells still uninfected, so one
step touches only the edges through the cell it infects. This is a
desk-scale engine: grids whose edge count would exceed EDGE_TABLE_CAP are
rejected up front.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
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
    """

    def __init__(self, shape: GridShape, sets: tuple, masks: tuple[int, ...]) -> None:
        self.shape = shape
        self.sets = sets
        self.masks = masks
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
        """For each cell (by linear index), the edges containing it, ascending."""
        if self._through is None:
            through: list[list[int]] = [[] for _ in range(cell_count(self.shape))]
            for k, m in enumerate(self.masks):
                for c in iter_bits(m):
                    through[c].append(k)
            self._through = through
        return self._through


@lru_cache(maxsize=256)
def _edge_table(shape: GridShape, params: Params) -> EdgeTable:
    check_compatible(shape, params)
    if _count_edges(shape, params) > EDGE_TABLE_CAP:
        raise ValueError(
            f"shape {shape.dims} with t={params.t}, r={params.r} has more than "
            f"{EDGE_TABLE_CAP} hyperedges; beyond the desk-scale engine"
        )
    dims = shape.dims
    strides = [math.prod(dims[i + 1:]) for i in range(shape.d)]
    sets, masks = [], []
    for axes in combinations(range(shape.d), params.r):
        others = [i for i in range(shape.d) if i not in axes]
        # An index set S on a varying axis i contributes the factor
        # sum(2**((c-1)*stride_i) for c in S). Cells of a box have distinct
        # row-major offsets, so the product of the factors has exactly the
        # box's bits set; each fixed coordinate then shifts it.
        varying = [
            [(s, sum(1 << (c - 1) * strides[i] for c in s))
             for s in combinations(range(1, dims[i] + 1), params.t)]
            for i in axes
        ]
        fixed = [
            (tuple((c,) for c in cs), sum((c - 1) * strides[i] for c, i in zip(cs, others)))
            for cs in product(*(range(1, dims[i] + 1) for i in others))
        ]
        # With fixed axes, put the varying sets, then the fixed ones, back
        # into axis order.
        order = [*axes, *others]
        pick = itemgetter(*(order.index(i) for i in range(shape.d)))
        for var in product(*varying):
            var_sets = tuple(s for s, _ in var)
            box = math.prod(f for _, f in var)
            for fix_sets, offset in fixed:
                sets.append(pick(var_sets + fix_sets) if others else var_sets)
                masks.append(box << offset)
    return EdgeTable(shape, tuple(sets), tuple(masks))


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
    edges on its list.
    """
    table = _edge_table(a.shape, params)
    masks, through = table.masks, table.through()
    rng = random.Random(seed) if seed is not None else None
    inv = ~a.bits
    missing = [(m & inv).bit_count() for m in masks]
    # Infectable cells, ascending; a cell stays infectable until infected.
    candidates = sorted({
        (m & inv).bit_length() - 1 for m, n in zip(masks, missing) if n == 1
    })
    steps: list[tuple[Vertex, Edge]] = []
    while candidates:
        idx = candidates[0] if rng is None else rng.choice(candidates)
        del candidates[bisect_left(candidates, idx)]
        witness = next(k for k in through[idx] if missing[k] == 1)
        steps.append((unchecked_vertex(a.shape, idx), table.edge(witness)))
        inv ^= 1 << idx
        for k in through[idx]:
            missing[k] -= 1
            if missing[k] == 1:
                c = (masks[k] & inv).bit_length() - 1
                pos = bisect_left(candidates, c)
                if pos == len(candidates) or candidates[pos] != c:
                    candidates.insert(pos, c)
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
