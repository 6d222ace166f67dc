"""Bootstrap percolation on box grids.

Vertices live on [n1] x ... x [nd]; hyperedges are axis-aligned products
with exactly r index sets of size t and singletons elsewhere. The package
computes exact closures, the extremal seed sets with their closed-form
count, slice and shift surgeries, and brute-force minimum-size oracles.
"""

from .lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    cell_count,
    check_compatible,
    edge_vertices,
    linear_index,
    p_slice,
    permute_slices,
    project,
    slice_cells,
    vertex_at,
)
from .engine import (
    PhaseTrace,
    StepTrace,
    all_edges,
    full_form,
    infecting_edge,
    one_phase,
    percolates,
    phase_step,
    step_by_step,
)
from .constructions import MFormulaTerms, l_set, l_set_cardinality, m_formula
from .transforms import (
    BlockingAlignment,
    PRowDecomposition,
    ShiftRecord,
    normalize_max_shifts,
    p_row_decomposition,
    rectangle_blocks,
    remove_slice,
    repack_first_column,
    shift,
    stable_full_form,
    standardize_blocking_corner,
    union_slices,
)
from .search import (
    ReachResult,
    SearchReport,
    min_one_phase_size,
    min_percolating_size,
    random_one_phase_set,
    random_percolating_set,
    shift_reach,
)

__version__ = "0.1.0"

__all__ = [
    "BlockingAlignment",
    "CellSet",
    "Edge",
    "GridShape",
    "MFormulaTerms",
    "PRowDecomposition",
    "Params",
    "PhaseTrace",
    "ReachResult",
    "SearchReport",
    "ShiftRecord",
    "StepTrace",
    "all_edges",
    "cell_count",
    "check_compatible",
    "edge_vertices",
    "full_form",
    "infecting_edge",
    "l_set",
    "l_set_cardinality",
    "linear_index",
    "m_formula",
    "min_one_phase_size",
    "min_percolating_size",
    "normalize_max_shifts",
    "one_phase",
    "p_row_decomposition",
    "p_slice",
    "percolates",
    "permute_slices",
    "phase_step",
    "project",
    "random_one_phase_set",
    "random_percolating_set",
    "rectangle_blocks",
    "remove_slice",
    "repack_first_column",
    "shift",
    "shift_reach",
    "slice_cells",
    "stable_full_form",
    "standardize_blocking_corner",
    "step_by_step",
    "union_slices",
    "vertex_at",
]
