"""Brute-force oracles: exact minimum sizes, samplers, shift reachability.

The minimum-size searches enumerate candidate sets in colex order over
linear indices, one cardinality at a time. A cardinality is only declared
the minimum after the previous cardinality has been exhausted without a
witness, so a completed report is exact by construction. Every predicate
evaluation counts against an explicit budget; when the budget runs out the
report is returned flagged non-exhaustive instead of guessing.

Colex order makes the enumeration restartable and splittable: the rank of
a combination is a sum of binomials, so the space partitions into
contiguous ranges with a deterministic merge (smallest witness wins).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .constructions import l_set
from .engine import _closure_bits, _edge_table, _scan_additions
from .lattice import (
    CellSet,
    GridShape,
    Params,
    canonical_key,
    cell_count,
    check_compatible,
    slice_mask,
    unchecked_vertex,
)
from .transforms import ShiftRecord

DEFAULT_BUDGET = 10**8


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
    dedup: bool = False
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


def _prune_empty_slice(shape: GridShape, params: Params) -> Optional[Callable[[int], bool]]:
    """Sound rejection for d = r = 2, t = 2: a proper subset with an empty
    row or column can never percolate, because an empty row stays empty."""
    if shape.d != 2 or params.t != 2 or params.r != 2:
        return None
    masks = [slice_mask(shape, 1, m) for m in range(1, shape.dims[0] + 1)]
    masks += [slice_mask(shape, 2, m) for m in range(1, shape.dims[1] + 1)]
    full = (1 << cell_count(shape)) - 1

    def prune(bits: int) -> bool:
        return bits != full and any(bits & m == 0 for m in masks)

    return prune


def _min_size(
    shape: GridShape,
    params: Params,
    target: str,
    predicate: Callable[[int], bool],
    mode: str,
    budget: int,
    prune: Optional[Callable[[int], bool]],
) -> SearchReport:
    if mode not in ("exact", "dedup"):
        raise ValueError(f"unknown search mode {mode!r}")
    dedup = mode == "dedup"
    n = cell_count(shape)
    report = SearchReport(
        shape, params, target, None, None, exact=True, dedup=dedup, budget=budget
    )
    start = time.perf_counter()
    for k in range(n + 1):
        report.examined[k] = 0
        seen: set[bytes] = set()
        for combo in colex_combinations(n, k):
            bits = 0
            for i in combo:
                bits |= 1 << i
            report.examined[k] += 1
            if prune is not None and prune(bits):
                continue
            if dedup:
                key = canonical_key(CellSet(shape, bits))
                if key in seen:
                    continue
                seen.add(key)
            if report.checks >= budget:
                report.exact = False
                report.refuted_below = k
                report.duration_ms = int((time.perf_counter() - start) * 1000)
                return report
            report.checks += 1
            if predicate(bits):
                report.minimum = k
                report.witness = CellSet(shape, bits)
                report.refuted_below = k
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
    masks = _edge_table(shape, params).masks
    full = (1 << cell_count(shape)) - 1
    predicate = lambda bits: _closure_bits(bits, masks, full) == full
    return _min_size(
        shape, params, "percolate", predicate, mode, budget,
        _prune_empty_slice(shape, params),
    )


def min_one_phase_size(
    shape: GridShape,
    params: Params,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exact minimum size of a set whose first phase already covers the grid."""
    check_compatible(shape, params)
    masks = _edge_table(shape, params).masks
    full = (1 << cell_count(shape)) - 1
    predicate = lambda bits: bits | _scan_additions(bits, masks) == full
    return _min_size(shape, params, "one-phase", predicate, mode, budget, None)


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
