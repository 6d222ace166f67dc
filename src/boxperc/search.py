"""Brute-force oracles: exact minimum sizes, samplers, shift reachability.

The minimum-size searches enumerate candidate sets in colex order over
linear indices, one cardinality (layer) at a time. A cardinality is only
declared the minimum after the previous cardinality has been exhausted
without a witness, so a completed report is exact by construction. Every
predicate evaluation counts against an explicit budget; when the budget
runs out the report is returned flagged non-exhaustive instead of guessing.

A layer is tested in blocks of at most BLOCK consecutive candidates, all
at once. A block is held bit-sliced: one int per cell, whose bit j is set
when candidate j of the block holds that cell. Pascal's rule builds the
columns: colex(m, k) is colex(m - 1, k) followed by colex(m - 1, k - 1)
with cell m - 1 added, so each column is an OR of shifted columns of
smaller layers, and a layer too large for one block splits by the same
rule into blocks that follow each other in colex order.

The predicates become column arithmetic over the edge table's cell
lists. For every edge E and cell v of E, the candidates holding every
other cell of E can infect v: the AND of those columns, ORed into v's
column. Percolation repeats this in place until a sweep changes nothing;
the column of each cell then holds the candidates whose closure contains
it, and a candidate percolates when it is set in every column. One phase
makes one such pass that reads only the start columns. The empty-slice
prune keeps the candidates set in some column of every row and column.

The report is read off the block with popcounts: the witness is the first
candidate that is live (not pruned) and meets the target, `checks` counts
the live candidates up to it, and when the budget runs out first the
search stops at the live candidate past it. So `examined`, `checks` and
the witness are those of testing the candidates one by one in colex order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb
from operator import and_
from typing import Callable, Iterator, Optional

from .constructions import l_set
from .engine import _closure_bits, _edge_table, _scan_additions
from .lattice import (
    CellSet,
    GridShape,
    Params,
    cell_count,
    check_compatible,
    iter_bits,
    slice_mask,
    unchecked_vertex,
)
from .transforms import ShiftRecord

DEFAULT_BUDGET = 10**8
# Candidates tested together: a column is an int of at most 4 KiB.
BLOCK = 1 << 15


@dataclass
class SearchReport:
    """Outcome of a minimum-size search."""

    shape: GridShape
    params: Params
    target: str
    minimum: Optional[int]
    witness: Optional[CellSet]
    examined: dict[int, int] = field(default_factory=dict)
    checks: int = 0
    duration_ms: int = 0
    exact: bool = True
    budget: int = DEFAULT_BUDGET
    refuted_below: int = 0

    @property
    def examined_total(self) -> int:
        return sum(self.examined.values())


def colex_combinations(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """k-subsets of range(n) in ascending colex order."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in colex_combinations(top, k - 1):
            yield rest + (top,)


def _colex_columns(m: int, k: int) -> tuple[int, ...]:
    """Columns of colex(m, k): bit j of entry c is set when the j-th
    k-subset of range(m) holds c.

    Pascal's rule, one row of the triangle at a time: row j holds colex(j, i)
    for the i that lead to (m, k), k - (m - j) <= i <= k. Only two rows are
    held at once, and nothing recurses, so m may run to thousands of cells.
    """
    row = {0: ()}
    for j in range(1, m + 1):
        nxt = {}
        for i in range(max(0, k - m + j), min(k, j) + 1):
            if i == 0 or i == j:
                nxt[i] = (int(i > 0),) * j
            else:
                # The subsets without cell j - 1 come first.
                low = comb(j - 1, i)
                nxt[i] = (*(a | b << low for a, b in zip(row[i], row[i - 1])),
                          ((1 << comb(j - 1, i - 1)) - 1) << low)
        row = nxt
    return row[k]


# A whole layer's columns depend on (n, k) alone, so they are kept across
# searches. An entry is at most n ints of 4 KiB (one per cell); the bound
# keeps every whole layer of the benchmark's oracle grids (51 of them).
_whole_layer = lru_cache(maxsize=128)(_colex_columns)


def _layer_blocks(n: int, k: int, memo: dict) -> Iterator[tuple[int, list[int]]]:
    """colex(n, k) in consecutive blocks of at most BLOCK candidates, as
    (size, one column per cell).

    A layer too large for one block splits by Pascal's rule into the
    candidates without cell m - 1, then those with it. The columns of a
    whole layer come from the cache shared by all searches; those of the
    blocks of a split layer are kept in `memo`, which lives for one search.
    """
    stack = [(n, k, 0)]
    while stack:
        # colex(m, i) with the cells in `top` added: every candidate here
        # holds them, and no other cell from m up.
        m, i, top = stack.pop()
        size = comb(m, i)
        if size > BLOCK:
            stack.append((m - 1, i - 1, top | 1 << (m - 1)))
            stack.append((m - 1, i, top))
            continue
        if m == n:
            cols = _whole_layer(n, k)
        elif (m, i) in memo:
            cols = memo[m, i]
        else:
            cols = memo[m, i] = _colex_columns(m, i)
        ones = (1 << size) - 1
        yield size, [*cols, *(ones if top >> c & 1 else 0 for c in range(m, n))]


def _infect(src: list[int], dst: list[int], edges, ones: int) -> bool:
    """For every edge E and cell v of E, OR into dst[v] the AND of src over
    the other cells of E; True when some column of dst grew.

    The other cells of E are a prefix and a suffix of its cell list, so
    prefix ANDs and a running suffix AND cost O(|E|) per edge.
    """
    grew = False
    for cells in edges:
        pre = [ones]
        for c in cells:
            pre.append(pre[-1] & src[c])
        suf = ones
        for i in range(len(cells) - 1, -1, -1):
            c = cells[i]
            add = pre[i] & suf & ~dst[c]
            suf &= src[c]
            if add:
                dst[c] |= add
                grew = True
    return grew


def _prune_empty_slice(
    shape: GridShape, params: Params
) -> Optional[Callable[[list[int], int], int]]:
    """Sound rejection for d = r = 2, t = 2: a proper subset with an empty
    row or column can never percolate, because an empty row stays empty.
    The full set has no empty slice, so it is never rejected.

    Returns None elsewhere, and otherwise a function giving the live
    candidates of a block: those holding a cell of every row and column."""
    if shape.d != 2 or params.t != 2 or params.r != 2:
        return None
    slices = [tuple(iter_bits(slice_mask(shape, axis, m)))
              for axis in (1, 2) for m in range(1, shape.dims[axis - 1] + 1)]

    def live(cols: list[int], ones: int) -> int:
        out = ones
        for cells in slices:
            some = 0
            for c in cells:
                some |= cols[c]
            out &= some
        return out

    return live


def _nth_bit(bits: int, count: int) -> int:
    """Index of the set bit of `bits` with exactly `count` set bits below it."""
    lo, hi = 0, bits.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (bits & ((2 << mid) - 1)).bit_count() > count:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _min_size(
    shape: GridShape,
    params: Params,
    target: str,
    hits: Callable[[list[int], int], int],
    mode: str,
    budget: int,
    live: Optional[Callable[[list[int], int], int]],
) -> SearchReport:
    if mode != "exact":
        raise ValueError(f"unknown search mode {mode!r}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    n = cell_count(shape)
    report = SearchReport(shape, params, target, None, None, budget=budget)
    start = time.perf_counter()
    memo: dict = {}
    for k in range(n + 1):
        report.examined[k] = 0
        for size, cols in _layer_blocks(n, k, memo):
            ones = (1 << size) - 1
            alive = ones if live is None else live(cols, ones)
            # The budget allows `room` more checks: it runs out at the live
            # candidate after them, or not in this block.
            room = budget - report.checks
            stop = _nth_bit(alive, room) if alive.bit_count() > room else size
            # Only the candidates before the stop need the predicate.
            if stop == size:
                found = hits(cols, ones) & alive
            elif stop:
                lim = (1 << stop) - 1
                found = hits([c & lim for c in cols], lim) & alive
            else:
                found = 0
            if found:
                j = (found & -found).bit_length() - 1
                report.examined[k] += j + 1
                report.checks += (alive & ((2 << j) - 1)).bit_count()
                report.minimum = report.refuted_below = k
                report.witness = CellSet(
                    shape, sum(1 << c for c, col in enumerate(cols) if col >> j & 1)
                )
            elif stop < size:
                report.examined[k] += stop + 1
                report.checks = budget
                report.exact = False
                report.refuted_below = k
            else:
                report.examined[k] += size
                report.checks += alive.bit_count()
                continue
            report.duration_ms = int((time.perf_counter() - start) * 1000)
            return report
    raise AssertionError("the full grid always satisfies both targets")


def min_percolating_size(
    shape: GridShape,
    params: Params,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exact minimum size of a percolating set, by ascending enumeration."""
    check_compatible(shape, params)
    edges = _edge_table(shape, params).cells()

    def hits(cols: list[int], ones: int) -> int:
        # Infect in place until nothing grows: each column is then the
        # candidates whose closure holds that cell.
        closed = list(cols)
        while _infect(closed, closed, edges, ones):
            pass
        return reduce(and_, closed, ones)

    return _min_size(
        shape, params, "percolate", hits, mode, budget, _prune_empty_slice(shape, params)
    )


def min_one_phase_size(
    shape: GridShape,
    params: Params,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exact minimum size of a set whose first phase already covers the grid."""
    check_compatible(shape, params)
    edges = _edge_table(shape, params).cells()

    def hits(cols: list[int], ones: int) -> int:
        phase = list(cols)
        _infect(cols, phase, edges, ones)
        return reduce(and_, phase, ones)

    return _min_size(shape, params, "one-phase", hits, mode, budget, None)


def _reverse_deletion(
    shape: GridShape, params: Params, seed: int, keeps: Callable[[int], bool]
) -> CellSet:
    rng = random.Random(seed)
    n = cell_count(shape)
    order = list(range(n))
    rng.shuffle(order)
    bits = (1 << n) - 1
    for idx in order:
        cand = bits & ~(1 << idx)
        if keeps(cand):
            bits = cand
    return CellSet(shape, bits)


def random_percolating_set(shape: GridShape, params: Params, seed: int) -> CellSet:
    """Deletion-minimal percolating set: walk the cells in seeded random
    order, dropping each cell whose removal keeps the set percolating.
    Deterministic for a given seed."""
    check_compatible(shape, params)
    masks = _edge_table(shape, params).masks
    full = (1 << cell_count(shape)) - 1
    return _reverse_deletion(
        shape, params, seed, lambda bits: _closure_bits(bits, masks, full) == full
    )


def random_one_phase_set(shape: GridShape, params: Params, seed: int) -> CellSet:
    """Deletion-minimal set that still covers the grid in a single phase."""
    check_compatible(shape, params)
    masks = _edge_table(shape, params).masks
    full = (1 << cell_count(shape)) - 1
    return _reverse_deletion(
        shape, params, seed, lambda bits: bits | _scan_additions(bits, masks) == full
    )


@dataclass(frozen=True)
class ReachResult:
    """Outcome of a bounded shift-reachability search.

    status is "found" (records lead from the start to a goal state),
    "unreachable" (the whole reachable space was explored without hitting
    the goal), or "inconclusive" (a bound cut the exploration short, so
    nothing can be concluded).
    """

    status: str
    records: Optional[tuple[ShiftRecord, ...]]
    states_explored: int
    depth_reached: int


def shift_reach(
    a: CellSet,
    params: Params,
    goal: str,
    max_ops: int = 64,
    max_states: int = 100_000,
    maximal_only: bool = False,
) -> ReachResult:
    """Breadth-first search over shift moves from a percolating set.

    goal "contains-l" succeeds on states containing the L set of the grid;
    goal "one-phase" succeeds on states covering the grid in one phase.
    States are deduplicated by exact identity. `max_ops` bounds the
    sequence length and `max_states` the number of distinct states kept.
    """
    table = _edge_table(a.shape, params)
    masks = table.masks
    full = (1 << cell_count(a.shape)) - 1
    if _closure_bits(a.bits, masks, full) != full:
        raise ValueError("shift_reach expects a percolating start set")
    if goal == "contains-l":
        lbits = l_set(a.shape, params).bits
        goal_fn = lambda bits: bits & lbits == lbits
    elif goal == "one-phase":
        goal_fn = lambda bits: bits | _scan_additions(bits, masks) == full
    else:
        raise ValueError(f"unknown goal {goal!r}")

    if max_states < 1:
        return ReachResult("inconclusive", None, 0, 0)
    if goal_fn(a.bits):
        return ReachResult("found", (), 1, 0)

    shape = a.shape
    visited = {a.bits}
    # succ -> (state, edge index, infected bit, evicted bit)
    parents: dict[int, tuple[int, int, int, int]] = {}
    frontier = [a.bits]
    depth = 0
    truncated = False
    while frontier and depth < max_ops and not truncated:
        nxt = []
        for state in frontier:
            inv = ~state
            for k, m in enumerate(masks):
                miss = m & inv
                if not miss or miss & (miss - 1):
                    continue
                # Evict members in ascending order; the maximal corner is
                # the edge's highest bit.
                rest = (1 << (m.bit_length() - 1) if maximal_only else m) & ~miss
                while rest:
                    wbit = rest & -rest
                    rest ^= wbit
                    succ = (state | miss) & ~wbit
                    if succ in visited:
                        continue
                    if len(visited) >= max_states:
                        truncated = True
                        break
                    visited.add(succ)
                    parents[succ] = (state, k, miss, wbit)
                    if goal_fn(succ):
                        chain = []
                        cur = succ
                        while cur != a.bits:
                            cur, k, vbit, wbit = parents[cur]
                            chain.append(ShiftRecord(
                                table.edge(k),
                                unchecked_vertex(shape, vbit.bit_length() - 1),
                                unchecked_vertex(shape, wbit.bit_length() - 1),
                                maximal=wbit.bit_length() == masks[k].bit_length(),
                            ))
                        chain.reverse()
                        return ReachResult(
                            "found", tuple(chain), len(visited), depth + 1
                        )
                    nxt.append(succ)
                if truncated:
                    break
            if truncated:
                break
        frontier = nxt
        depth += 1
    if truncated or frontier:
        return ReachResult("inconclusive", None, len(visited), depth)
    return ReachResult("unreachable", None, len(visited), depth)
