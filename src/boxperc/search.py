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

The predicates become column arithmetic over the edge table's units
(`EdgeTable.units`). An edge lies in one r-flat and is a product of
t-sets, so it is the union of the boxes {y} x F over a t-set of points y
on the flat's longest varying axis h, with F a product of t-sets on its
other varying axes. A candidate missing cell v = (y, z), z in F, has an
infecting edge of this form exactly when it holds the rest of v's box
and the whole box {y'} x F at t - 1 points y' of h other than y. Counting
y' = y as well is harmless: a candidate holding all of box y holds v
already, so ORing into v's column changes nothing. Per (flat, F) unit the
kernel therefore ANDs each box's columns, keeps the candidates with at
least t - 1 full boxes (an OR at t = 2), and ORs them, ANDed with the
rest of each cell's box, into the cell's column: the work goes with the
n_h boxes of a unit, not with its C(n_h, t) edges. Percolation repeats
this in place until a sweep changes nothing; the column of each cell
then holds the candidates whose closure contains it, and a candidate
percolates when it is set in every column. Columns only grow, so a
candidate set in every column after any sweep already percolates: the
sweeps then go on over the candidates below the first such one alone,
and stop at once when no live one is left there. One phase makes one
pass that reads only the start columns. The empty-slice prune keeps the
candidates set in some column of every row and column.

The report is read off the block with popcounts: the witness is the first
candidate that is live (not pruned) and meets the target, `checks` counts
the live candidates up to it, and when the budget runs out first the
search stops at the live candidate past it. So `examined`, `checks` and
the witness are those of testing the candidates one by one in colex order,
and every layer below the minimum is still tested in full.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb
from operator import and_, or_
from typing import Callable, Iterator, Optional

from .constructions import l_set
from .engine import EdgeTable, _edge_table
from .lattice import (
    CellSet,
    GridShape,
    Params,
    cell_count,
    iter_bits,
    slice_mask,
)
from .transforms import ShiftRecord, shift_record

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

    Layers 0 and 1 have closed forms: colex(m, 0) is the empty set alone,
    and the c-th 1-subset of range(m) is {c}. Above them, Pascal's rule, one
    row of the triangle at a time: row j holds colex(j, i) for the i that
    lead to (m, k), max(2, k - (m - j)) <= i <= k, and reads colex(j - 1, 1)
    from its closed form. Only two rows are held at once, and nothing
    recurses, so m may run to thousands of cells.
    """
    if k <= 1:
        return tuple(k << c for c in range(m))
    row: dict = {}
    for j in range(2, m + 1):
        nxt = {}
        for i in range(max(2, k - m + j), min(k, j) + 1):
            if i == j:
                nxt[i] = (1,) * j
            else:
                # The subsets without cell j - 1 come first.
                low = comb(j - 1, i)
                below = row[i - 1] if i > 2 else [1 << c for c in range(j - 1)]
                nxt[i] = (*(a | b << low for a, b in zip(row[i], below)),
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


def _infect(src: list[int], dst: list[int], units, t: int) -> bool:
    """One sweep of the edge table's units (`EdgeTable.units`, edges of
    parameter t) over the candidate columns: OR into dst each cell that an
    edge infects from src; True when some column of dst grew. dst must hold
    src, column by column.

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
    budget: int,
    live: Optional[Callable[[list[int], int], int]],
) -> SearchReport:
    """Search the layers in colex order, one block at a time.

    `live(cols, ones)` gives the block's candidates that survive the prune
    (None keeps them all). `hits(cols, want)` is called only with a nonzero
    `want`, the live candidates that the budget reaches; the lowest set bit
    of what it returns must be the first of them that meets the target, and
    it returns 0 when none does. Its other bits are never read, so it may
    stop once it knows the first.
    """
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
            # Only the live candidates before the stop need the predicate.
            block, want = cols, alive
            if stop < size:
                lim = (1 << stop) - 1
                block, want = [c & lim for c in cols], alive & lim
            found = hits(block, want) if want else 0
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
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exact minimum size of a percolating set, by ascending enumeration."""
    units = _edge_table(shape, params).units

    def hits(cols: list[int], want: int) -> int:
        # Infect in place until nothing grows: each column is then the
        # candidates whose closure holds that cell. Columns only grow, so a
        # wanted candidate set in every column percolates. The lowest one
        # is kept, and only the candidates below it go on.
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
            if not _infect(closed, closed, units, params.t):
                return first

    return _min_size(
        shape, params, "percolate", hits, budget, _prune_empty_slice(shape, params)
    )


def min_one_phase_size(
    shape: GridShape,
    params: Params,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exact minimum size of a set whose first phase already covers the grid."""
    units = _edge_table(shape, params).units

    def hits(cols: list[int], want: int) -> int:
        phase = list(cols)
        _infect(cols, phase, units, params.t)
        return reduce(and_, phase, want)

    return _min_size(shape, params, "one-phase", hits, budget, None)


def _reverse_deletion(shape: GridShape, seed: int, keeps: Callable[[int], bool]) -> CellSet:
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
    return _reverse_deletion(shape, seed, _edge_table(shape, params).percolates)


def random_one_phase_set(shape: GridShape, params: Params, seed: int) -> CellSet:
    """Deletion-minimal set that still covers the grid in a single phase."""
    return _reverse_deletion(shape, seed, _edge_table(shape, params).one_phase)


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
    sequence length and `max_states` the number of distinct states kept;
    neither may be negative.
    """
    if max_ops < 0 or max_states < 0:
        raise ValueError(f"max_ops and max_states must be >= 0, got {max_ops} and {max_states}")
    table = _edge_table(a.shape, params)
    if not table.percolates(a.bits):
        raise ValueError("shift_reach expects a percolating start set")
    if goal == "contains-l":
        lbits = l_set(a.shape, params).bits
        goal_fn = lambda bits: bits & lbits == lbits
    elif goal == "one-phase":
        goal_fn = table.one_phase
    else:
        raise ValueError(f"unknown goal {goal!r}")

    if max_states < 1:
        return ReachResult("inconclusive", None, 0, 0)
    if goal_fn(a.bits):
        return ReachResult("found", (), 1, 0)

    # state -> (parent state, the move from it), or None for the start;
    # its keys are the states seen.
    parents: dict[int, Optional[tuple[int, tuple[int, int, int]]]] = {a.bits: None}
    frontier = [a.bits]
    depth = 0
    while frontier and depth < max_ops:
        nxt = []
        for state in frontier:
            for move in table.moves(state, maximal_only):
                _, vbit, wbit = move
                succ = (state | vbit) & ~wbit
                if succ in parents:
                    continue
                if len(parents) >= max_states:
                    # A cut pass still counts as a level reached.
                    return ReachResult("inconclusive", None, len(parents), depth + 1)
                parents[succ] = (state, move)
                if goal_fn(succ):
                    return ReachResult(
                        "found", _shift_chain(table, parents, succ), len(parents), depth + 1
                    )
                nxt.append(succ)
        frontier = nxt
        depth += 1
    return ReachResult("inconclusive" if frontier else "unreachable", None, len(parents), depth)


def _shift_chain(table: EdgeTable, parents: dict, state: int) -> tuple[ShiftRecord, ...]:
    """The shift records leading from the start state to `state`."""
    chain = []
    while (link := parents[state]) is not None:
        state, move = link
        chain.append(shift_record(table, *move))
    return tuple(reversed(chain))
