import dataclasses
import math
import random
from functools import reduce
from itertools import accumulate, combinations
from operator import and_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxperc import search
from boxperc.constructions import l_set, m_formula
from boxperc.engine import (
    EdgeTable,
    _edge_table,
    all_edges,
    full_form,
    one_phase,
    percolates,
)
from boxperc.lattice import (
    CellSet,
    GridShape,
    Params,
    cell_count,
    edge_vertices,
    iter_bits,
    linear_index,
    slice_mask,
    vertex_at,
)
from boxperc.search import (
    SearchReport,
    _layer_blocks,
    colex_combinations,
    min_one_phase_size,
    min_percolating_size,
    random_one_phase_set,
    random_percolating_set,
    shift_reach,
)
from boxperc.transforms import ShiftRecord, shift

P22 = Params(2, 2)


def test_colex_order():
    got = list(colex_combinations(4, 2))
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    for n, k in ((5, 0), (5, 3), (6, 6)):
        combos = list(colex_combinations(n, k))
        assert len(combos) == math.comb(n, k)
        assert len(set(combos)) == len(combos)


def test_min_percolating_3x3():
    report = min_percolating_size(GridShape((3, 3)), P22)
    assert report.minimum == 5
    assert report.exact
    assert percolates(report.witness, P22)
    assert len(report.witness) == 5
    # Every cardinality below the minimum was fully enumerated.
    assert report.examined[4] == math.comb(9, 4)
    # Independent refutation: no 4-subset percolates.
    full = CellSet.full(GridShape((3, 3))).cells()
    assert not any(
        percolates(CellSet.from_cells(GridShape((3, 3)), sub), P22)
        for sub in combinations(full, 4)
    )


def test_min_percolating_small_cube():
    assert min_percolating_size(GridShape((2, 2, 2)), P22).minimum == 4
    assert min_percolating_size(GridShape((2, 2, 2)), Params(2, 1)).minimum == 1
    # With r = 3 the only hyperedge is the whole cube.
    assert min_percolating_size(GridShape((2, 2, 2)), Params(2, 3)).minimum == 7


def test_min_percolating_single_row_grid():
    # No hyperedges exist, so only the full row percolates.
    report = min_percolating_size(GridShape((1, 3)), P22)
    assert report.minimum == 3
    assert report.witness == CellSet.full(GridShape((1, 3)))


def test_min_matches_formula_on_matrix():
    for dims, t, r in (((2, 4), 2, 2), ((3, 4), 2, 2), ((3, 3), 3, 2)):
        shape, params = GridShape(dims), Params(t, r)
        report = min_percolating_size(shape, params)
        assert report.minimum == m_formula(shape, params).total


def test_budget_exhaustion_flags_report():
    report = min_percolating_size(GridShape((4, 4)), P22, budget=40)
    assert not report.exact
    assert report.minimum is None
    assert report.witness is None
    assert report.checks == 40


def test_budget_stop_limits_the_predicate_to_earlier_candidates():
    # Record the candidate mask each predicate call gets; nothing is a hit.
    calls = []

    def hits(cols, want):
        assert all(col & ~want == 0 for col in cols)
        calls.append(want)
        return 0

    shape = GridShape((3, 3))
    for budget, expected, examined in (
        (1, [0b1], {0: 1, 1: 1}),
        (5, [0b1, 0b1111], {0: 1, 1: 5}),
        (10, [0b1, 0b111111111], {0: 1, 1: 9, 2: 1}),
    ):
        calls.clear()
        report = search._min_size(shape, P22, "percolate", hits, budget, None)
        # Layer 0 takes one check. The budget runs out in layer 1 (layer 2
        # at budget 10); the predicate sees only the candidates before the
        # stop, and is not called at stop 0.
        assert calls == expected
        assert report.checks == budget and not report.exact
        assert report.examined == examined


def test_search_rejects_negative_budget():
    for run in (min_percolating_size, min_one_phase_size):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            run(GridShape((3, 3)), P22, budget=-1)


@pytest.mark.parametrize("budget", [2.5, True])
def test_search_rejects_a_budget_that_is_not_an_int(budget):
    # Neither is reported back as the budget or the checks.
    for run in (min_percolating_size, min_one_phase_size):
        with pytest.raises(TypeError):
            run(GridShape((3, 3)), P22, budget=budget)


def _decoded(n, k):
    """The candidates of the blocks of layer (n, k), read back column by column."""
    out = []
    for size, cols in _layer_blocks(n, k, {}):
        assert len(cols) == n and 0 < size <= search.BLOCK
        assert all(col < 1 << size for col in cols)
        out += [tuple(c for c in range(n) if cols[c] >> j & 1) for j in range(size)]
    return out


def test_layer_blocks_decode_to_colex_order():
    n, k = 18, 9
    assert math.comb(n, k) > search.BLOCK
    assert len(list(_layer_blocks(n, k, {}))) > 1
    assert _decoded(n, k) == list(colex_combinations(n, k))
    for block in (1, 2, 5):
        with mock.patch.object(search, "BLOCK", block):
            for n in range(8):
                for k in range(n + 1):
                    assert _decoded(n, k) == list(colex_combinations(n, k)), (block, n, k)


# Reference: the search as it ran before it was bit-sliced, testing one
# candidate at a time in colex order, with the empty-slice prune as a
# predicate on the candidate's bits. The closure and the phase are the mask
# scans the engine used then, kept here so that the reference stays as it
# was.


def _scan_additions(bits, masks):
    """Union of vertices with an infecting edge relative to `bits`."""
    add = 0
    for m in masks:
        miss = m & ~bits
        if miss and miss & (miss - 1) == 0:
            add |= miss
    return add


def _closure_bits(bits, masks, full):
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


def scalar_min_size(shape, params, target, budget):
    masks = _edge_table(shape, params).masks
    n = cell_count(shape)
    full = (1 << n) - 1
    if target == "percolate":
        predicate = lambda bits: _closure_bits(bits, masks, full) == full
    else:
        predicate = lambda bits: bits | _scan_additions(bits, masks) == full
    prune = None
    if target == "percolate" and shape.d == 2 and params.t == 2 and params.r == 2:
        slices = [slice_mask(shape, axis, m)
                  for axis in (1, 2) for m in range(1, shape.dims[axis - 1] + 1)]
        prune = lambda bits: bits != full and any(bits & m == 0 for m in slices)
    report = SearchReport(shape, params, target, None, None, budget=budget)
    for k in range(n + 1):
        report.examined[k] = 0
        for combo in colex_combinations(n, k):
            bits = 0
            for i in combo:
                bits |= 1 << i
            report.examined[k] += 1
            if prune is not None and prune(bits):
                continue
            if report.checks >= budget:
                report.exact = False
                report.refuted_below = k
                return report
            report.checks += 1
            if predicate(bits):
                report.minimum = k
                report.witness = CellSet(shape, bits)
                report.refuted_below = k
                return report
    raise AssertionError("the full grid always satisfies both targets")


def _fields(report):
    return {f.name: getattr(report, f.name)
            for f in dataclasses.fields(SearchReport) if f.name != "duration_ms"}


def _search(shape, params, target, budget):
    run = min_percolating_size if target == "percolate" else min_one_phase_size
    return run(shape, params, budget=budget)


@st.composite
def search_instances(draw):
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 10 if d == 1 else 5), min_size=d, max_size=d)
                      .filter(lambda ds: math.prod(ds) <= 10)))
    params = Params(draw(st.sampled_from((2, 3))), draw(st.integers(1, d)))
    return GridShape(dims), params, draw(st.sampled_from(("percolate", "one-phase")))


@settings(max_examples=150, deadline=None)
@given(search_instances(), st.sampled_from((1, 2, 3, 7, search.BLOCK)), st.data())
def test_search_matches_scalar_reference(inst, block, data):
    shape, params, target = inst
    unlimited = scalar_min_size(shape, params, target, search.DEFAULT_BUDGET)
    # Budgets from none up to past the minimum's checks, so that cuts land
    # anywhere in a layer, and in any block of it.
    budget = data.draw(st.integers(0, unlimited.checks + 2))
    with mock.patch.object(search, "BLOCK", block):
        for b in (budget, search.DEFAULT_BUDGET):
            got = _search(shape, params, target, b)
            assert _fields(got) == _fields(scalar_min_size(shape, params, target, b))


def test_search_matches_scalar_reference_with_the_prune_and_several_blocks():
    # 2-D grids at t = r = 2 run with the empty-slice prune on.
    for dims in ((1, 1), (1, 4), (2, 2), (2, 3), (2, 5), (3, 3)):
        shape = GridShape(dims)
        for block in (1, 4, search.BLOCK):
            with mock.patch.object(search, "BLOCK", block):
                for budget in (0, 1, 3, 8, 20, search.DEFAULT_BUDGET):
                    got = min_percolating_size(shape, P22, budget=budget)
                    assert _fields(got) == _fields(scalar_min_size(shape, P22, "percolate", budget))
    # At the real block size, layers 8 to 10 of (2, 9) span two blocks each.
    # Budget 400 runs out in the second block of layer 9.
    shape = GridShape((2, 9))
    assert math.comb(18, 9) > search.BLOCK
    for budget in (400, search.DEFAULT_BUDGET):
        got = min_percolating_size(shape, P22, budget=budget)
        assert _fields(got) == _fields(scalar_min_size(shape, P22, "percolate", budget))
        assert got.examined[9] > search.BLOCK


def test_cached_columns_and_edge_cells_give_the_cold_report():
    # Whole-layer columns are kept across searches, keyed by (cells, layer),
    # and each grid's kernel units stay on its cached edge table. (4, 4)
    # and (2, 2, 4) have the same cell count, so each runs on columns the
    # other left behind; BLOCK decides which layers split. No report may
    # differ from a search run with every cache empty.
    grids = [(GridShape(dims), P22, target)
             for dims in ((4, 4), (2, 2, 4)) for target in ("percolate", "one-phase")]
    budgets = (25, search.DEFAULT_BUDGET)

    def cold(shape, params, target, budget):
        search._whole_layer.cache_clear()
        _edge_table.cache_clear()
        return _fields(_search(shape, params, target, budget))

    expected = {(inst, b): cold(*inst, b) for inst in grids for b in budgets}
    assert expected[grids[0], budgets[1]]["minimum"] == 7
    assert not expected[grids[0], budgets[0]]["exact"]
    for block in (search.BLOCK, 4000, 700, search.BLOCK):
        with mock.patch.object(search, "BLOCK", block):
            for inst in grids:
                for b in budgets:
                    assert _fields(_search(*inst, b)) == expected[inst, b], (block, inst, b)
    with mock.patch.object(search, "BLOCK", 700):
        assert cold(*grids[3], budgets[1]) == expected[grids[3], budgets[1]]


def edge_infect(src, dst, edges):
    """The search kernel as it was before the units: for every edge E and
    cell v of E, OR into dst[v] the AND of src over the other cells of E;
    True when some column of dst grew. Each edge reads its columns from src
    once, before it writes any."""
    grew = False
    for cells in edges:
        xs = [src[c] for c in cells]
        # pre[i]: the AND of xs[:i + 1].
        pre = [*accumulate(xs[:-1], and_)]
        c = cells[-1]
        old = dst[c]
        new = old | pre[-1]
        if new != old:
            dst[c] = new
            grew = True
        suf = xs[-1]
        for i in range(len(cells) - 2, 0, -1):
            c = cells[i]
            old = dst[c]
            new = old | pre[i - 1] & suf
            if new != old:
                dst[c] = new
                grew = True
            suf &= xs[i]
        c = cells[0]
        old = dst[c]
        new = old | suf
        if new != old:
            dst[c] = new
            grew = True
    return grew


def edge_cells(shape, params):
    """For each edge, its cells (by linear index), ascending."""
    return [tuple(iter_bits(m)) for m in _edge_table(shape, params).masks]


def naive_infect(src, dst, edges, width):
    """The kernel one candidate and one edge at a time: each edge reads its
    cells' bits as they stand (in dst, when src is dst) and sets the one
    cell it misses. Returns the new dst columns and whether any grew."""
    out = list(dst)
    for j in range(width):
        got = [col >> j & 1 for col in dst]
        read = got if src is dst else [col >> j & 1 for col in src]
        for cells in edges:
            have = [read[c] for c in cells]
            for i, c in enumerate(cells):
                if all(have[:i] + have[i + 1:]):
                    got[c] = 1
        for c, bit in enumerate(got):
            out[c] |= bit << j
    return out, out != dst


def naive_closure(cols, edges, width):
    while True:
        cols, grew = naive_infect(cols, cols, edges, width)
        if not grew:
            return cols


@pytest.mark.parametrize("dims, t, r, size", [
    ((2, 2, 2), 2, 1, 2), ((3, 3), 2, 2, 4), ((2, 2, 2), 2, 3, 8), ((3, 3), 3, 2, 9)])
def test_infect_matches_a_candidate_by_candidate_reference(dims, t, r, size):
    shape = GridShape(dims)
    sweep = _edge_table(shape, Params(t, r)).sweep
    edges = edge_cells(shape, Params(t, r))
    assert {len(cells) for cells in edges} == {size}
    n, width = cell_count(shape), 40
    rng = random.Random(size)

    def column(density):
        return sum((rng.random() < density) << j for j in range(width))

    def assert_sweeps_reach_the_closure(cols):
        # In place, each sweep covers one phase from the columns it starts
        # from and stays inside their closure; `grew` says whether a column
        # changed, and the last sweep, which changes nothing, ends at the
        # closure.
        closure = naive_closure(cols, edges, width)
        while True:
            phase = naive_infect(cols, cols[:], edges, width)[0]
            before = list(cols)
            grew = sweep(cols, cols)
            assert grew == (cols != before)
            assert all(p & ~c == 0 and c & ~f == 0 for p, c, f in zip(phase, cols, closure))
            if not grew:
                break
        assert cols == closure

    # Every cell but c is held by every candidate, so c alone can grow, and
    # one sweep fills it.
    full = (1 << width) - 1
    for c in range(n):
        src = [full] * n
        src[c] = column(0.5)
        got = list(src)
        assert (got, sweep(src, got)) == naive_infect(src, src[:], edges, width)
        assert got == [full] * n
        got = list(src)
        assert sweep(got, got) == (src[c] != full)
        assert got == [full] * n
    for density in (0.5, 0.8, 0.95):
        src = [column(density) for _ in range(n)]
        # Separate lists: src is only read, and dst holds it.
        dst = [column(density) | col for col in src]
        expected = naive_infect(src, dst, edges, width)
        got = list(dst)
        assert (got, sweep(src, got)) == expected
        assert_sweeps_reach_the_closure(src)


@st.composite
def kernel_instances(draw):
    d = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, 5 if d <= 2 else 3), min_size=d, max_size=d)
                      .filter(lambda ds: math.prod(ds) <= 36)))
    return GridShape(dims), Params(draw(st.integers(2, 3)), draw(st.integers(1, d)))


# Axes of length exactly t, axes shorter than t (they hold no edge), and
# flats with fixed axes.
@example((GridShape((2, 4)), Params(3, 1)), 0, 50, 2)
@example((GridShape((2, 3, 3)), Params(3, 2)), 1, 70, 5)
@example((GridShape((1, 4)), Params(2, 2)), 2, 50, 1)
@example((GridShape((3, 3)), Params(3, 2)), 3, 80, 10)
@example((GridShape((2, 2, 2, 2)), Params(2, 3)), 4, 70, 2)
@settings(max_examples=300, deadline=None)
@given(kernel_instances(), st.integers(0, 2**32), st.integers(20, 95), st.integers(0, 20))
def test_infect_matches_the_edge_by_edge_kernel(inst, seed, percent, extra):
    # 64-candidate blocks: one phase into a dst that holds src, and sweeps
    # in place to the fixpoint, against the kernel the units replaced.
    shape, params = inst
    sweep = _edge_table(shape, params).sweep
    edges = edge_cells(shape, params)
    n, width = cell_count(shape), 64
    rng = random.Random(seed)

    def column(density):
        return sum((rng.random() < density) << j for j in range(width))

    src = [column(percent / 100) for _ in range(n)]
    dst = [col | column(extra / 100) for col in src]
    want = list(dst)
    got = list(dst)
    assert sweep(src, got) == edge_infect(src, want, edges)
    assert got == want
    want, got = list(src), list(src)
    while edge_infect(want, want, edges):
        pass
    while sweep(got, got):
        pass
    assert got == want


def small_grids(max_cells, max_d):
    """Every shape of at most `max_cells` cells and `max_d` axes whose axis
    lengths do not decrease."""
    def grow(dims, cells):
        if dims:
            yield dims
        if len(dims) < max_d:
            for n in range(dims[-1] if dims else 1, max_cells // cells + 1):
                yield from grow(dims + (n,), cells * n)

    return list(grow((), 1))


def test_bit_sliced_predicates_match_the_scalar_ones_on_every_subset():
    # Every subset of every grid of at most 12 cells, 1-D to 4-D, with
    # t = 2, 3 and every r, one colex layer at a time. Sweeping a layer's
    # block to the fixpoint and ANDing the columns marks the subsets that
    # EdgeTable.percolates accepts; one sweep from the start columns marks
    # those that one_phase accepts; the first_* predicates return the
    # lowest of them. The axis lengths are taken in one order only: every
    # order of the 254 shapes takes about six times as long.
    grids = small_grids(12, 4)
    assert len(grids) == 73 and {len(dims) for dims in grids} == {1, 2, 3, 4}
    subsets = {}
    for dims in grids:
        n = math.prod(dims)
        for t in (2, 3):
            for r in range(1, len(dims) + 1):
                table = _edge_table(GridShape(dims), Params(t, r))
                memo = {}
                for k in range(n + 1):
                    (size, cols), = _layer_blocks(n, k, memo)
                    if (n, k) not in subsets:
                        subsets[n, k] = [sum(1 << c for c in s) for s in colex_combinations(n, k)]
                    perc = one = 0
                    for j, bits in enumerate(subsets[n, k]):
                        perc |= table.percolates(bits) << j
                        one |= table.one_phase(bits) << j
                    ones = (1 << size) - 1
                    closed = list(cols)
                    while table.sweep(closed, closed):
                        pass
                    assert reduce(and_, closed, ones) == perc, (dims, t, r, k)
                    phase = list(cols)
                    table.sweep(cols, phase)
                    assert reduce(and_, phase, ones) == one, (dims, t, r, k)
                    assert table.first_percolating(cols, ones) == perc & -perc, (dims, t, r, k)
                    got = table.first_one_phase(cols, ones)
                    assert got & -got == one & -one, (dims, t, r, k)


def test_percolation_cut_matches_the_scalar_reference_across_blocks_and_budgets():
    # The hit layers here need several sweeps, so candidates percolate
    # after a sweep in the middle and the search cuts the block below them.
    for dims, t in (((3, 4), 2), ((2, 2, 3), 2), ((3, 5), 2), ((2, 2, 4), 2), ((3, 3), 3)):
        shape, params = GridShape(dims), Params(t, 2)
        checks = scalar_min_size(shape, params, "percolate", search.DEFAULT_BUDGET).checks
        for budget in (checks - 1, checks, checks + 1):
            expected = _fields(scalar_min_size(shape, params, "percolate", budget))
            for block in (search.BLOCK, 700, 64):
                with mock.patch.object(search, "BLOCK", block):
                    got = min_percolating_size(shape, params, budget=budget)
                assert _fields(got) == expected, (dims, t, budget, block)


def test_percolation_cut_fires_and_closes_the_candidates_below():
    # Record the highest candidate left in the columns at each sweep. The
    # hit layer of (2, 2, 3) is one block of C(12, 5) candidates; after its
    # first sweep candidate 6 percolates, and the next sweep runs on the six
    # candidates below it alone.
    widths = []
    sweep = EdgeTable.sweep

    def spy(table, src, dst):
        widths.append(max(src).bit_length())
        return sweep(table, src, dst)

    shape = GridShape((2, 2, 3))
    with mock.patch.object(EdgeTable, "sweep", spy):
        got = min_percolating_size(shape, P22)
    assert got.minimum == 5 and got.examined[5] == 7
    assert widths[-2:] == [math.comb(12, 5), 6]
    assert _fields(got) == _fields(scalar_min_size(shape, P22, "percolate", search.DEFAULT_BUDGET))


def test_min_one_phase_values():
    assert min_one_phase_size(GridShape((3, 3)), Params(3, 2)).minimum == 8
    assert min_one_phase_size(GridShape((3, 4)), Params(3, 2)).minimum == 10
    # Grid with n2 = t: (t-1) full rows plus t-1 cells in every other row.
    t = 3
    n1 = 4
    expected = (t - 1) * t + (n1 - t + 1) * (t - 1)
    assert min_one_phase_size(GridShape((n1, t)), Params(t, 2)).minimum == expected
    report = min_one_phase_size(GridShape((2, 2)), P22)
    assert report.minimum <= cell_count(GridShape((2, 2)))
    assert one_phase(report.witness, P22)


def test_random_percolating_set_properties():
    shape = GridShape((4, 4))
    for seed in (0, 1, 2, 3):
        a = random_percolating_set(shape, P22, seed)
        assert percolates(a, P22)
        assert len(a) >= 4 + 4 - 1
        # Deletion-minimal: removing any single cell breaks percolation.
        for v in a.cells():
            assert not percolates(a.without_cells([v]), P22)
    assert random_percolating_set(shape, P22, 9) == random_percolating_set(shape, P22, 9)


def test_random_one_phase_set_properties():
    shape = GridShape((4, 4))
    for seed in range(4):
        a = random_one_phase_set(shape, Params(3, 2), seed)
        assert one_phase(a, Params(3, 2))


def test_shift_reach_trivial_cases():
    shape = GridShape((3, 3))
    seed = l_set(shape, P22)
    res = shift_reach(seed, P22, "contains-l")
    assert res.status == "found" and res.records == ()
    res = shift_reach(seed, P22, "contains-l", max_states=0)
    assert res.status == "inconclusive"
    with pytest.raises(ValueError):
        shift_reach(CellSet.empty(shape), P22, "contains-l")
    with pytest.raises(ValueError):
        shift_reach(seed, P22, "no-such-goal")


@pytest.mark.parametrize("bound", [{"max_ops": 2.5}, {"max_ops": True},
                                   {"max_states": 2.5}, {"max_states": True}])
def test_shift_reach_rejects_bounds_that_are_not_ints(bound):
    seed = l_set(GridShape((3, 3)), P22)
    with pytest.raises(TypeError):
        shift_reach(seed, P22, "contains-l", **bound)


def test_shift_reach_finds_l_via_maximal_shifts():
    shape = GridShape((3, 3))
    start = random_percolating_set(shape, P22, 8)
    res = shift_reach(start, P22, "contains-l", max_ops=32, max_states=20000,
                      maximal_only=True)
    assert res.status == "found"
    # Replaying the records reproduces a goal state and never changes the
    # closure along the way.
    current = start
    closed, _ = full_form(start, P22)
    for rec in res.records:
        current, applied = shift(current, rec.edge, rec.removed)
        assert applied.infected == rec.infected
        assert full_form(current, P22)[0] == closed
    assert l_set(shape, P22).is_subset(current)


def test_shift_reach_one_phase_goal():
    shape = GridShape((3, 3))
    start = random_percolating_set(shape, P22, 14)
    res = shift_reach(start, P22, "one-phase", max_ops=32, max_states=20000)
    assert res.status == "found"
    current = start
    for rec in res.records:
        current, _ = shift(current, rec.edge, rec.removed)
    assert one_phase(current, P22)


def test_shift_reach_exhausts_to_unreachable():
    # On the 2x2x2 grid at t = r = 2 the one-phase minimum exceeds the
    # percolation minimum, and shifts preserve size, so a minimum
    # percolating set can never reach a one-phase state. The component is
    # small enough to exhaust, giving a definite answer.
    shape = GridShape((2, 2, 2))
    min_perc = min_percolating_size(shape, P22)
    min_phase = min_one_phase_size(shape, P22)
    assert min_phase.minimum > min_perc.minimum
    res = shift_reach(min_perc.witness, P22, "one-phase",
                      max_ops=1000, max_states=100000)
    assert res.status == "unreachable"


def test_shift_reach_inconclusive_when_bounded():
    shape = GridShape((3, 3))
    start = random_percolating_set(shape, P22, 21)
    if l_set(shape, P22).is_subset(start):
        start, _ = shift(start, *_first_shift(start))
    res = shift_reach(start, P22, "contains-l", max_ops=1, max_states=2)
    assert res.status in ("inconclusive", "found")


def _first_shift(a):
    for e in all_edges(a.shape, P22):
        missing = [v for v in edge_vertices(e) if v not in a]
        if len(missing) == 1:
            for w in edge_vertices(e):
                if w != missing[0]:
                    return e, w
    raise AssertionError("no shift available")


# Reference: the shift BFS over the Edge tuple, reading each infecting
# edge's vertices through edge_vertices and its corner through max_corner.


def naive_shift_reach(a, params, goal, max_ops, max_states, maximal_only):
    shape = a.shape
    masks = _edge_table(shape, params).masks
    edges = all_edges(shape, params)
    full = (1 << cell_count(shape)) - 1

    if goal == "contains-l":
        lbits = l_set(shape, params).bits
        goal_fn = lambda bits: bits & lbits == lbits
    else:
        goal_fn = lambda bits: one_phase(CellSet(shape, bits), params)
    if max_states < 1:
        return "inconclusive", None, 0, 0
    if goal_fn(a.bits):
        return "found", (), 1, 0
    visited = {a.bits}
    parents = {}
    frontier = [a.bits]
    depth = 0
    truncated = False
    while frontier and depth < max_ops and not truncated:
        nxt = []
        for state in frontier:
            for e, m in zip(edges, masks):
                miss = m & ~state & full
                if not miss or miss & (miss - 1):
                    continue
                v = vertex_at(shape, miss.bit_length() - 1)
                for w in edge_vertices(e):
                    if w == v or (maximal_only and w != e.max_corner()):
                        continue
                    succ = (state | miss) & ~(1 << linear_index(shape, w))
                    if succ in visited:
                        continue
                    if len(visited) >= max_states:
                        truncated = True
                        break
                    visited.add(succ)
                    parents[succ] = (state, ShiftRecord(e, v, w))
                    if goal_fn(succ):
                        chain = []
                        while succ != a.bits:
                            succ, rec = parents[succ]
                            chain.append(rec)
                        return "found", tuple(reversed(chain)), len(visited), depth + 1
                    nxt.append(succ)
                if truncated:
                    break
            if truncated:
                break
        # A cut pass still counts as a level reached.
        frontier = nxt
        depth += 1
    status = "inconclusive" if truncated or frontier else "unreachable"
    return status, None, len(visited), depth


@st.composite
def shift_instances(draw):
    d = draw(st.sampled_from((2, 3)))
    dims = tuple(draw(st.lists(st.integers(2, 5 - d), min_size=d, max_size=d)))
    shape = GridShape(dims)
    params = Params(draw(st.sampled_from((2, 3))), draw(st.integers(1, d)))
    start = random_percolating_set(shape, params, draw(st.integers(0, 2**31)))
    # Extra cells give starts that are not deletion-minimal.
    extra = draw(st.integers(0, (1 << cell_count(shape)) - 1)) & draw(
        st.integers(0, (1 << cell_count(shape)) - 1))
    return CellSet(shape, start.bits | extra), params


def _outcome(res):
    return res.status, res.records, res.states_explored, res.depth_reached


@settings(max_examples=150, deadline=None)
@given(
    shift_instances(),
    st.sampled_from(("contains-l", "one-phase")),
    st.booleans(),
    st.integers(0, 300),
    st.integers(0, 8),
)
def test_shift_reach_matches_edge_tuple_reference(inst, goal, maximal_only, max_states, max_ops):
    start, params = inst
    res = shift_reach(start, params, goal, max_ops=max_ops, max_states=max_states,
                      maximal_only=maximal_only)
    assert _outcome(res) == naive_shift_reach(start, params, goal, max_ops, max_states, maximal_only)


def test_shift_reach_reference_covers_every_status():
    # Pin one differential case per status, so that the comparison above
    # never rests on one kind of outcome.
    start = random_percolating_set(GridShape((3, 3)), P22, 8)
    cube = min_percolating_size(GridShape((2, 2, 2)), P22).witness
    cases = [(start, "contains-l", maximal_only, max_states, max_ops)
             for maximal_only in (False, True) for max_states, max_ops in ((3, 8), (20000, 32))]
    cases.append((cube, "one-phase", False, 100000, 1000))
    seen = set()
    for a, goal, maximal_only, max_states, max_ops in cases:
        res = shift_reach(a, P22, goal, max_ops=max_ops, max_states=max_states,
                          maximal_only=maximal_only)
        assert _outcome(res) == naive_shift_reach(a, P22, goal, max_ops, max_states, maximal_only)
        seen.add(res.status)
    assert seen == {"found", "inconclusive", "unreachable"}
