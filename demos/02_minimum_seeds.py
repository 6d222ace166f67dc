"""Minimum percolating seeds: the L set, its closed-form size, and the
brute-force oracle that confirms both on small grids."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxperc import (
    GridShape,
    Params,
    l_set,
    l_set_cardinality,
    m_formula,
    min_percolating_size,
    one_phase,
    percolates,
)
from boxperc.render import ascii_grid

# The L set keeps every vertex with at most r-1 coordinates above t-1.
shape, params = GridShape((5, 6)), Params(2, 2)
seed = l_set(shape, params)
print(f"L set of {shape.dims} at t={params.t}, r={params.r} "
      f"({len(seed)} cells, percolates={percolates(seed, params)}, "
      f"one_phase={one_phase(seed, params)}):")
print(ascii_grid(seed))

# Its size has a closed form: sum over s < r of (t-1)^(d-s) * prod(n_i+1-t).
terms = m_formula(shape, params)
print("closed form by s:", terms.per_order, "total:", terms.total)
print("direct count:    ", l_set_cardinality(shape, params))

# The exhaustive oracle agrees on desk-scale grids: it enumerates subsets
# by ascending cardinality and only reports a minimum after refuting every
# smaller cardinality.
for dims, t, r in (((3, 3), 2, 2), ((4, 3), 2, 2), ((2, 2, 2), 2, 2),
                   ((2, 2, 2), 2, 3), ((3, 3), 3, 2)):
    sh, pa = GridShape(dims), Params(t, r)
    report = min_percolating_size(sh, pa)
    print(f"{dims} t={t} r={r}: oracle={report.minimum} "
          f"formula={m_formula(sh, pa).total} "
          f"(examined {report.examined_total} sets, {report.checks} closures)")

# A degenerate case: a 1 x n grid has no hyperedges at t=2, r=2, so only
# the full row percolates.
report = min_percolating_size(GridShape((1, 4)), Params(2, 2))
print(f"(1,4): minimum={report.minimum} witness={report.witness.cells()}")

# At higher t the factors (n_i + 1 - t) shrink; with an axis below t-1 the
# closed form stops counting the set and the result is flagged.
small = m_formula(GridShape((1,)), Params(3, 1))
print(f"(1,) t=3: formula total={small.total} flagged={small.flagged} "
      f"direct count={l_set_cardinality(GridShape((1,)), Params(3, 1))}")
