"""Search oracles and shift reachability, plus empirical probes of the
behaviors that are only established at t = r = 2.

The probes report numbers; nothing here is asserted, because outside
t = r = 2 these are open territory.
"""

import random
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxperc import (
    CellSet,
    GridShape,
    Params,
    full_form,
    l_set,
    min_one_phase_size,
    min_percolating_size,
    percolates,
    random_percolating_set,
    rectangle_blocks,
    shift_reach,
    union_slices,
)
from boxperc.lattice import cell_count

# Exact search: every smaller cardinality is exhausted before the first
# witness of the minimum; candidates with an empty row or column are
# rejected without a closure.
shape, params = GridShape((3, 3)), Params(2, 2)
exact = min_percolating_size(shape, params)
print(f"(3,3): exact minimum {exact.minimum}, witness {exact.witness.cells()}; "
      f"{exact.examined_total} candidates examined, {exact.checks} closures")

# Shift reachability: from any percolating set on a t = r = 2 grid, a
# sequence of maximal shifts reaches a superset of the L set.
for seed in range(5):
    start = random_percolating_set(shape, params, seed)
    res = shift_reach(start, params, "contains-l", maximal_only=True)
    print(f"seed {seed}: {res.status} after {len(res.records or ())} shifts "
          f"({res.states_explored} states)")

# The same question at t = 3 is open; the explorer only reports evidence.
shape3, params3 = GridShape((4, 4)), Params(3, 2)
start = random_percolating_set(shape3, params3, 0)
res = shift_reach(start, params3, "contains-l", max_ops=12, max_states=30000,
                  maximal_only=True)
print(f"t=3 contains-l probe from a size-{len(start)} set: {res.status} "
      f"({res.states_explored} states, depth {res.depth_reached})")

# One-phase reachability can be genuinely impossible when sizes forbid it:
# shifts preserve cardinality and on (2,2,2) the one-phase minimum exceeds
# the percolation minimum.
cube = GridShape((2, 2, 2))
mp = min_percolating_size(cube, Params(2, 2))
mo = min_one_phase_size(cube, Params(2, 2))
res = shift_reach(mp.witness, Params(2, 2), "one-phase", max_ops=1000,
                  max_states=100000)
print(f"(2,2,2): percolation minimum {mp.minimum}, one-phase minimum "
      f"{mo.minimum}; reachability verdict: {res.status}")

# Empirical probe 1: does merging two slices preserve percolation at t = 3?
shape5, params5 = GridShape((5, 5)), Params(3, 2)
violations = total = 0
for seed in range(60):
    a = random_percolating_set(shape5, params5, seed)
    for axis in (1, 2):
        for m1, m2 in combinations(range(1, 6), 2):
            total += 1
            if not percolates(union_slices(a, axis, m1, m2), params5):
                violations += 1
print(f"\nslice union at t=3: {violations}/{total} merges break percolation "
      f"(the preservation claim is specific to t=2)")

# Empirical probe 2: closures at t = 3 usually do not decompose into
# disjoint full rectangles the way t = 2 closures always do.
rng = random.Random(0)
bad = 0
runs = 200
for _ in range(runs):
    a = CellSet(shape5, rng.getrandbits(cell_count(shape5)))
    closed, _ = full_form(a, params5)
    if rectangle_blocks(closed) is None:
        bad += 1
print(f"block structure at t=3: {bad}/{runs} closures are not rectangle "
      f"unions (the block decomposition is specific to t=2)")

# Sanity anchor: the L set is always reachable evidence at t = r = 2.
print("\nL set of (4,4) at t=3 has", len(l_set(shape3, params3)), "cells")
