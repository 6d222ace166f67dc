"""Extremal seed sets and the closed-form minimum count.

The L set of a grid collects every vertex with at most r - 1 coordinates
larger than t - 1. It percolates, and its cardinality is the minimum size
of any percolating set; the double sum below gives that cardinality in
closed form when every axis satisfies n_i >= t - 1.

All arithmetic here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from math import prod
from operator import and_

from .lattice import CellSet, GridShape, Params, check_compatible, relabel_axis


@dataclass(frozen=True)
class MFormulaTerms:
    """Value of the closed-form count, broken down by s = 0 .. r-1.

    `flagged` is set when some axis has n_i < t - 1; the factors
    (n_i + 1 - t) then go negative and the closed form is no longer a
    reliable count, so callers should trust direct counting instead.
    """

    per_order: tuple[int, ...]
    total: int
    flagged: bool


def l_set(shape: GridShape, params: Params) -> CellSet:
    """Vertices with at most r - 1 coordinates exceeding t - 1.

    A cell is outside L when some r axes all carry a coordinate >= t, so L
    is the full set less the union, over r-subsets of the axes, of the
    intersection of their high parts (slices t..n_i along axis i).
    """
    check_compatible(shape, params)
    full = CellSet.full(shape)
    high = [
        relabel_axis(full, i, [c if c >= params.t else 0 for c in range(1, n + 1)]).bits
        if n >= params.t else 0
        for i, n in enumerate(shape.dims, start=1)
    ]
    outside = 0
    for axes in combinations(high, params.r):
        outside |= reduce(and_, axes)
    return CellSet(shape, full.bits & ~outside)


def l_set_cardinality(shape: GridShape, params: Params) -> int:
    """Size of the L set by direct counting (independent of m_formula)."""
    check_compatible(shape, params)
    # Walk every cell, as its tuple of "coordinate exceeds t - 1" flags.
    high = [[c > params.t - 1 for c in range(1, n + 1)] for n in shape.dims]
    return sum(1 for flags in product(*high) if sum(flags) <= params.r - 1)


def m_formula(shape: GridShape, params: Params) -> MFormulaTerms:
    """The closed-form minimum percolating size, with its per-s breakdown.

    Sum over s = 0 .. r-1 and over s-subsets I of the axes of
    (t-1)**(d-s) * prod_{i in I} (n_i + 1 - t).
    """
    check_compatible(shape, params)
    d, t = shape.d, params.t
    per_order = []
    for s in range(params.r):
        term = 0
        for axes in combinations(range(d), s):
            term += (t - 1) ** (d - s) * prod(shape.dims[i] + 1 - t for i in axes)
        per_order.append(term)
    flagged = any(n < t - 1 for n in shape.dims)
    return MFormulaTerms(tuple(per_order), sum(per_order), flagged)
