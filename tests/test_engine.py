import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxperc import engine
from boxperc.constructions import l_set
from boxperc.engine import (
    _edge_table,
    all_edges,
    full_form,
    infecting_edge,
    one_phase,
    percolates,
    phase_step,
    step_by_step,
)
from boxperc.lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    cell_count,
    edge_vertices,
    iter_bits,
    linear_index,
    row_strides,
    vertex_at,
)
from boxperc.search import (
    min_one_phase_size,
    min_percolating_size,
    random_percolating_set,
    shift_reach,
)
from boxperc.transforms import normalize_max_shifts

P22 = Params(2, 2)


def edge_order(e):
    """The documented edge order: varying axes ascending, then the varying
    value tuples in axis order, then the fixed coordinates."""
    return (
        e.axes,
        tuple(s for s in e.sets if len(s) > 1),
        tuple(s[0] for s in e.sets if len(s) == 1),
    )


def rand_set(shape, rng):
    return CellSet(shape, rng.getrandbits(cell_count(shape)))


def test_infecting_edge_rectangle_example():
    shape = GridShape((2, 5))
    a = CellSet.from_cells(shape, [(1, 1), (1, 5), (2, 1)])
    e = infecting_edge(a, (2, 5), P22)
    assert e is not None
    assert e.sets == ((1, 2), (1, 5))


def test_infecting_edge_none_for_empty_set():
    shape = GridShape((3, 3))
    assert infecting_edge(CellSet.empty(shape), (2, 2), P22) is None


def test_infecting_edge_one_dimensional():
    shape = GridShape((3,))
    a = CellSet.from_cells(shape, [(1,)])
    e = infecting_edge(a, (3,), Params(2, 1))
    assert e is not None
    assert e.sets == ((1, 3),)


def test_infecting_edge_rejects_infected_vertex():
    shape = GridShape((2, 2))
    a = CellSet.from_cells(shape, [(1, 1)])
    with pytest.raises(ValueError):
        infecting_edge(a, (1, 1), P22)


def test_infecting_edge_returns_least_edge():
    # Brute-force the least infecting edge over the whole edge list and
    # compare, on random sets.
    shape = GridShape((3, 4))
    rng = random.Random(2)
    edges = all_edges(shape, P22)
    for _ in range(40):
        a = rand_set(shape, rng)
        for v in CellSet.full(shape).cells():
            if v in a:
                continue
            witnesses = [
                e
                for e in edges
                if v in edge_vertices(e)
                and all(w in a for w in edge_vertices(e) if w != v)
            ]
            got = infecting_edge(a, v, P22)
            if witnesses:
                assert got == min(witnesses, key=edge_order)
            else:
                assert got is None


def test_phase_step_examples():
    shape = GridShape((5, 6))
    assert phase_step(CellSet.full(shape), P22) == CellSet.full(shape)
    seed = l_set(shape, P22)
    assert phase_step(seed, P22) == CellSet.full(shape)
    empty = CellSet.empty(GridShape((2, 2)))
    assert phase_step(empty, P22) == empty


def test_full_form_examples():
    shape = GridShape((2, 2))
    full = CellSet.full(shape)
    closed, trace = full_form(full, P22)
    assert closed == full and trace.f == 0
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    closed, trace = full_form(a, P22)
    assert closed == full and trace.f == 1
    assert trace.phases[0] == a


def test_full_form_matches_iterated_phase_step():
    # The closure runs phases on one generator; it must agree with the
    # plain one-step operation iterated to a fixpoint.
    rng = random.Random(9)
    for dims, t, r in (((4, 4), 2, 2), ((3, 3, 3), 2, 2), ((5, 5), 3, 2)):
        shape, params = GridShape(dims), Params(t, r)
        for _ in range(40):
            a = rand_set(shape, rng)
            closed, trace = full_form(a, params)
            current = a
            stages = [current]
            while True:
                nxt = phase_step(current, params)
                if nxt == current:
                    break
                current = nxt
                stages.append(current)
            assert closed == current
            assert list(trace.phases) == stages


def test_phase_trace_strictly_increasing_and_bounded():
    shape = GridShape((4, 4))
    rng = random.Random(13)
    for _ in range(50):
        a = rand_set(shape, rng)
        _, trace = full_form(a, P22)
        for earlier, later in zip(trace.phases, trace.phases[1:]):
            assert earlier.is_subset(later) and len(earlier) < len(later)
        assert trace.f <= cell_count(shape) - len(a)


def test_percolates_examples():
    assert percolates(l_set(GridShape((3, 3)), P22), P22)
    # An empty row can never fill in.
    shape = GridShape((3, 3))
    a = CellSet.from_cells(shape, [(2, 1), (2, 2), (2, 3), (3, 1), (3, 3)])
    assert not percolates(a, P22)
    assert not percolates(CellSet.empty(GridShape((1, 1))), P22)
    assert percolates(CellSet.full(GridShape((1,))), Params(2, 1))


def test_degenerate_parameters_have_no_edges():
    # Fewer than r axes reach length t: nothing can ever be infected.
    shape = GridShape((1, 5))
    assert all_edges(shape, P22) == ()
    assert percolates(CellSet.full(shape), P22)
    assert not percolates(CellSet.from_cells(shape, [(1, j) for j in range(1, 5)]), P22)


def test_step_by_step_examples():
    shape = GridShape((2, 2))
    full = CellSet.full(shape)
    assert step_by_step(full, P22).steps == ()
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    trace = step_by_step(a, P22)
    assert len(trace.steps) == 1
    v, e = trace.steps[0]
    assert v == (2, 2)
    assert e.sets == ((1, 2), (1, 2))


def test_step_by_step_terminal_matches_closure_any_seed():
    rng = random.Random(31)
    for dims, t, r in (((4, 4), 2, 2), ((3, 3, 3), 2, 2)):
        shape, params = GridShape(dims), Params(t, r)
        for _ in range(10):
            a = rand_set(shape, rng)
            closed, _ = full_form(a, params)
            for s in range(20):
                assert step_by_step(a, params, seed=s).terminal == closed


def test_step_by_step_edges_witness_each_step():
    shape = GridShape((4, 4))
    rng = random.Random(37)
    for _ in range(20):
        a = rand_set(shape, rng)
        trace = step_by_step(a, P22, seed=1)
        current = a
        for v, e in trace.steps:
            outside = [w for w in edge_vertices(e) if w not in current]
            assert outside == [v]
            current = current.with_cells([v])
        assert current == trace.terminal


def test_one_phase_examples():
    shape = GridShape((5, 6))
    assert one_phase(l_set(shape, P22), P22)
    assert one_phase(CellSet.full(shape), P22)
    assert not one_phase(CellSet.from_cells(GridShape((2, 2)), [(1, 1)]), P22)


def test_one_phase_implies_percolates():
    rng = random.Random(41)
    shape = GridShape((3, 4))
    for _ in range(80):
        a = rand_set(shape, rng)
        if one_phase(a, P22):
            assert percolates(a, P22)


def test_closure_laws_on_random_sets():
    rng = random.Random(43)
    for dims, t, r in (((4, 4), 2, 2), ((2, 2, 2), 2, 3)):
        shape, params = GridShape(dims), Params(t, r)
        for _ in range(40):
            a = rand_set(shape, rng)
            closed, _ = full_form(a, params)
            assert a.is_subset(closed)
            assert full_form(closed, params)[0] == closed
            b = CellSet(shape, a.bits | rng.getrandbits(cell_count(shape)))
            assert closed.is_subset(full_form(b, params)[0])


def test_edge_enumeration_cap():
    # (50,50) at t=r=2 would need about 1.5 million hyperedges; the engine
    # refuses before enumerating anything.
    shape = GridShape((50, 50))
    with pytest.raises(ValueError, match="desk-scale"):
        percolates(CellSet.empty(shape), P22)


def test_edge_cap_counts_every_block(monkeypatch):
    # (2,5) at t=2, r=1 has a block of 5 edges (axis 1 varies) and one of
    # 20 (axis 2 varies): the cap holds the running total, not one block.
    shape, params = GridShape((2, 5)), Params(2, 1)
    monkeypatch.setattr(engine, "EDGE_TABLE_CAP", 25)
    assert len(_edge_table.__wrapped__(shape, params).masks) == 25
    monkeypatch.setattr(engine, "EDGE_TABLE_CAP", 24)
    with pytest.raises(ValueError, match="more than 24 hyperedges"):
        _edge_table.__wrapped__(shape, params)


# Naive reference engine: enumerate Edge objects, sort them, then build each
# mask vertex by vertex; step traces rescan every mask at every step.


def naive_edge_table(shape, params):
    edges = []
    for axes in combinations(range(shape.d), params.r):
        options = []
        for i, n in enumerate(shape.dims):
            if i in axes:
                options.append(list(combinations(range(1, n + 1), params.t)))
            else:
                options.append([(v,) for v in range(1, n + 1)])
        edges.extend(Edge(sets) for sets in product(*options))
    edges.sort(key=edge_order)
    masks = [sum(1 << linear_index(shape, v) for v in product(*e.sets)) for e in edges]
    return edges, masks


def naive_step_by_step(a, params, seed):
    edges, masks = naive_edge_table(a.shape, params)
    rng = random.Random(seed) if seed is not None else None
    bits = a.bits
    steps = []
    while True:
        add = 0
        for m in masks:
            miss = m & ~bits
            if miss and miss & (miss - 1) == 0:
                add |= miss
        if not add:
            return steps
        choices = [i for i in range(cell_count(a.shape)) if add >> i & 1]
        idx = choices[0] if rng is None else rng.choice(choices)
        vbit = 1 << idx
        witness = next(e for e, m in zip(edges, masks) if m & vbit and m & ~bits == vbit)
        steps.append((vertex_at(a.shape, idx), witness))
        bits |= vbit


@st.composite
def instances(draw, max_d=3, max_n=4, min_d=1):
    dims = tuple(draw(st.lists(st.integers(1, max_n), min_size=min_d, max_size=max_d)))
    shape = GridShape(dims)
    params = Params(draw(st.sampled_from((2, 3))), draw(st.integers(1, len(dims))))
    return shape, params


def assert_units_cover_the_masks(table, params):
    """Each unit's boxes, one per point along its axis h, each t^(r-1)
    cells ascending; their unions over every t-set of those points are the
    edge masks, each exactly once. A unit holds at least one edge."""
    got = []
    for rows in table.units:
        assert len(rows) >= params.t
        assert all(list(row) == sorted(row) and len(row) == params.t ** (params.r - 1) for row in rows)
        boxes = [sum(1 << c for c in row) for row in rows]
        for points in combinations(boxes, params.t):
            union = 0
            for box in points:
                assert not union & box
                union |= box
            got.append(union)
    assert sorted(got) == sorted(table.masks)


def mask_walk_through(shape, masks):
    """Per-cell incidence lists read off the mask bits, edge by edge."""
    through = [[] for _ in range(cell_count(shape))]
    for k, m in enumerate(masks):
        for c in iter_bits(m):
            through[c].append(k)
    return through


def assert_table_matches_reference(shape, params):
    edges, masks = naive_edge_table(shape, params)
    # A fresh table, so every edge is decoded here rather than read back
    # from an earlier example's memo; last edge first.
    table = _edge_table.__wrapped__(shape, params)
    decoded = [table.edge(k).sets for k in reversed(range(len(edges)))]
    assert decoded[::-1] == [e.sets for e in edges]
    for k in (-1, len(edges)):
        with pytest.raises(IndexError):
            table.edge(k)
    assert table.masks == tuple(masks)
    assert_units_cover_the_masks(table, params)
    through = mask_walk_through(shape, masks)
    assert table.columns == [sum(1 << k for k in ks) for ks in through]
    # A cell's edges in a block are its line's entries plus each rank of
    # its coordinate on the block's last varying axis, as step traces read.
    strides = row_strides(shape.dims)
    for cell, ks in enumerate(through):
        got = []
        for _, axes, _, _, _, held, lines in table.blocks:
            s, n = strides[axes[-1]], shape.dims[axes[-1]]
            got += [k + q for k in lines[cell // (s * n) * s + cell % s] for q in held[-1][cell // s % n]]
        assert sorted(got) == ks
    assert all_edges(shape, params) == tuple(edges)
    assert tuple(sorted(all_edges(shape, params), key=edge_order)) == tuple(edges)


@settings(max_examples=80, deadline=None)
@given(instances(max_n=5))
def test_edge_table_matches_sorted_reference(inst):
    shape, params = inst
    for r in range(1, shape.d + 1):
        assert_table_matches_reference(shape, Params(params.t, r))


@pytest.mark.parametrize("dims,t", [((2, 3, 2, 3), 2), ((3, 2, 4, 3), 3), ((1, 3, 1, 4), 2)])
def test_four_dimensional_edge_table_matches_reference(dims, t):
    shape = GridShape(dims)
    for r in range(1, 5):
        assert_table_matches_reference(shape, Params(t, r))


@settings(max_examples=120, deadline=None)
@given(instances(), st.data())
def test_step_trace_matches_rescan_reference(inst, data):
    shape, params = inst
    bits = data.draw(st.integers(0, (1 << cell_count(shape)) - 1))
    a = CellSet(shape, bits)
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**32)))
    assert list(step_by_step(a, params, seed=seed).steps) == naive_step_by_step(a, params, seed)


@settings(max_examples=60, deadline=None)
@given(instances(max_d=4, max_n=3, min_d=4), st.data())
def test_step_trace_matches_rescan_reference_in_four_dimensions(inst, data):
    shape, params = inst
    a = CellSet(shape, data.draw(st.integers(0, (1 << cell_count(shape)) - 1)))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**32)))
    assert list(step_by_step(a, params, seed=seed).steps) == naive_step_by_step(a, params, seed)


def test_step_trace_matches_reference_on_l_sets():
    # Sparse starts give long traces, where the incremental counts matter.
    for dims, t, r in (((6, 6), 2, 2), ((5, 5), 3, 2), ((3, 4, 3), 2, 2), ((3, 3, 3), 2, 3),
                       ((2, 3, 2, 3), 2, 2), ((3, 2, 3, 2), 2, 3), ((3, 3, 3, 3), 3, 2)):
        shape, params = GridShape(dims), Params(t, r)
        a = l_set(shape, params)
        for seed in (None, 0, 5):
            assert list(step_by_step(a, params, seed=seed).steps) == naive_step_by_step(a, params, seed)


def test_cold_step_trace_keeps_nothing_but_its_witnesses(monkeypatch):
    # A step trace computes each infected cell's edges from the block
    # layout: on a fresh table it leaves every attribute as it was, except
    # the edge memo, which then holds exactly the witness edges.
    for dims, t, r in (((6, 6), 2, 2), ((3, 4, 3), 2, 2), ((3, 3, 3), 2, 3), ((2, 3, 2, 3), 3, 2)):
        shape, params = GridShape(dims), Params(t, r)
        order = {e: k for k, e in enumerate(naive_edge_table(shape, params)[0])}
        table = _edge_table.__wrapped__(shape, params)
        monkeypatch.setattr(engine, "_edge_table", lambda *_: table)
        before = dict(vars(table))
        a = l_set(shape, params)
        for seed in (None, 3):
            trace = step_by_step(a, params, seed=seed)
            after = dict(vars(table))
            memo = after.pop("_memo")
            assert after.keys() == before.keys() - {"_memo"}
            assert all(after[name] is before[name] for name in after)
            assert set(memo) == {order[e] for _, e in trace.steps}
            table._memo.clear()


def naive_infecting_edge(a, v, params):
    """The Edge-tuple scan that infecting_edge replaced."""
    vbit = 1 << linear_index(a.shape, v)
    inv = ~a.bits
    for e, m in zip(all_edges(a.shape, params), _edge_table(a.shape, params).masks):
        if m & vbit and m & inv == vbit:
            return e
    return None


@settings(max_examples=120, deadline=None)
@given(instances(), st.data())
def test_infecting_edge_matches_edge_tuple_reference(inst, data):
    shape, params = inst
    a = CellSet(shape, data.draw(st.integers(0, (1 << cell_count(shape)) - 1)))
    for idx in range(cell_count(shape)):
        if not a.bits >> idx & 1:
            v = vertex_at(shape, idx)
            assert infecting_edge(a, v, params) == naive_infecting_edge(a, v, params)


def test_shift_layer_builds_only_reported_edges():
    _edge_table.cache_clear()
    shape, params = GridShape((4, 5)), Params(2, 2)
    table = _edge_table(shape, params)
    a = random_percolating_set(shape, params, 4)
    witness = infecting_edge(a, next(v for v in CellSet.full(shape).cells() if v not in a), params)
    _, records = normalize_max_shifts(a, params)
    reach = shift_reach(a, params, "contains-l", max_ops=len(records), maximal_only=True)
    assert records and reach.records
    reported = [witness] + [r.edge for r in records + reach.records]
    index = {e: k for k, e in enumerate(naive_edge_table(shape, params)[0])}
    # The memo holds exactly the reported edges, as the objects reported.
    assert set(table._memo) == {index[e] for e in reported}
    assert all(table._memo[index[e]] is e for e in reported)
    edges = all_edges(shape, params)
    assert all(table.edge(k) is edges[k] for k in range(len(edges)))


def test_search_units_cover_the_masks_and_searches_build_no_edges():
    _edge_table.cache_clear()
    for dims, params in (((3, 4), P22), ((2, 3, 3), Params(3, 2)), ((2, 4), Params(3, 1))):
        shape = GridShape(dims)
        table = _edge_table(shape, params)
        min_percolating_size(shape, params)
        min_one_phase_size(shape, params)
        assert not table._memo
        units = table.units
        assert units is table.units
        assert_units_cover_the_masks(table, params)
    # h is the longest varying axis: at (3, 4) a unit is a t-set on the first
    # axis and a box at each of the 4 points of the second.
    assert [len(rows) for rows in _edge_table(GridShape((3, 4)), P22).units] == [4] * 3


def test_columns_build_peaks_near_their_final_size():
    # Each block product is dropped once shifted into place, so building
    # the columns never holds much more than the columns themselves.
    table = _edge_table.__wrapped__(GridShape((20, 20)), P22)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table.columns
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.25 * (held - before)


def test_mask_build_peaks_near_the_table_size():
    # At 30x30 every block varies both axes, so its box products are the
    # masks themselves and are not copied while they are held.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = _edge_table.__wrapped__(GridShape((30, 30)), P22)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.masks) == 435 * 435
    assert peak - before <= 1.3 * (held - before)


# Reference: the scalar closure core as it ran before the edge columns,
# scanning every edge mask for the edges that miss exactly one cell.


def mask_scan_additions(bits, masks):
    add = 0
    for m in masks:
        miss = m & ~bits
        if miss and miss & (miss - 1) == 0:
            add |= miss
    return add


def mask_phases(bits, masks):
    """Phase sets after `bits`, rescanning only the edges that gained cells."""
    phases = []
    scan = masks
    while True:
        add = mask_scan_additions(bits, scan)
        if not add:
            return phases
        bits |= add
        phases.append(bits)
        scan = [m for m in masks if m & add]


def mask_closure_bits(bits, masks, full):
    scan = masks
    while True:
        add = mask_scan_additions(bits, scan)
        if not add:
            return bits
        bits |= add
        if bits == full:
            return bits
        scan = [m for m in masks if m & add]


def mask_infecting_edge(bits, idx, table):
    inv = ~bits
    for k, m in enumerate(table.masks):
        if m & inv == 1 << idx:
            return table.edge(k)
    return None


@st.composite
def closure_instances(draw):
    d = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, (8, 5, 4, 3)[d - 1]), min_size=d, max_size=d)))
    shape = GridShape(dims)
    # Dense, sparse and uniform random sets.
    n = cell_count(shape)
    words = [draw(st.integers(0, (1 << n) - 1)) for _ in range(2)]
    bits = draw(st.sampled_from((words[0], words[0] | words[1], words[0] & words[1])))
    return CellSet(shape, bits), draw(st.sampled_from((2, 3)))


def assert_core_matches_mask_scan(a, params):
    table = _edge_table(a.shape, params)
    full = (1 << cell_count(a.shape)) - 1
    phases = mask_phases(a.bits, table.masks)
    closed, trace = full_form(a, params)
    assert [p.bits for p in trace.phases] == [a.bits, *phases]
    assert closed.bits == mask_closure_bits(a.bits, table.masks, full)
    assert phase_step(a, params).bits == a.bits | mask_scan_additions(a.bits, table.masks)
    assert percolates(a, params) == (mask_closure_bits(a.bits, table.masks, full) == full)
    assert one_phase(a, params) == (a.bits | mask_scan_additions(a.bits, table.masks) == full)
    for idx in range(cell_count(a.shape)):
        if not a.bits >> idx & 1:
            v = vertex_at(a.shape, idx)
            assert infecting_edge(a, v, params) == mask_infecting_edge(a.bits, idx, table)


@settings(max_examples=150, deadline=None)
@given(closure_instances())
def test_scalar_core_matches_mask_scan_reference(inst):
    a, t = inst
    for r in range(1, a.shape.d + 1):
        assert_core_matches_mask_scan(a, Params(t, r))


def test_scalar_core_matches_mask_scan_reference_on_l_sets():
    # L sets percolate through long phase traces; dropping a cell stops them.
    for dims, t, r in (((6, 6), 2, 2), ((5, 6), 3, 2), ((3, 4, 3), 2, 2), ((3, 3, 3), 2, 3),
                       ((1, 3, 1, 4), 2, 2), ((2, 3, 2, 3), 2, 3)):
        shape, params = GridShape(dims), Params(t, r)
        a = l_set(shape, params)
        assert_core_matches_mask_scan(a, params)
        for idx in iter_bits(a.bits):
            assert_core_matches_mask_scan(CellSet(shape, a.bits ^ 1 << idx), params)


def assert_table_scan_matches_mask_scan(a, params):
    table = _edge_table(a.shape, params)
    full = (1 << cell_count(a.shape)) - 1
    single = table.single_missing(a.bits)
    for k, m in enumerate(table.masks):
        miss = m & ~a.bits
        assert single >> k & 1 == (miss.bit_count() == 1)
    assert single >> len(table.masks) == 0
    assert list(table.phases(a.bits)) == mask_phases(a.bits, table.masks)
    assert table.percolates(a.bits) == (mask_closure_bits(a.bits, table.masks, full) == full)
    assert table.one_phase(a.bits) == (a.bits | mask_scan_additions(a.bits, table.masks) == full)


@settings(max_examples=150, deadline=None)
@given(closure_instances())
def test_table_scan_matches_mask_scan_reference(inst):
    # The edge table's scan methods, read directly: the edges missing one
    # cell, the phases, and the two predicates.
    a, t = inst
    for r in range(1, a.shape.d + 1):
        assert_table_scan_matches_mask_scan(a, Params(t, r))


def test_table_scan_matches_mask_scan_reference_on_l_sets():
    for dims, t, r in (((6, 6), 2, 2), ((5, 6), 3, 2), ((3, 3, 3), 2, 3)):
        shape, params = GridShape(dims), Params(t, r)
        a = l_set(shape, params)
        for bits in (a.bits, *(a.bits ^ 1 << idx for idx in iter_bits(a.bits))):
            assert_table_scan_matches_mask_scan(CellSet(shape, bits), params)


# Reference: the shift moves over the Edge tuple. Edges in table order;
# members in edge_vertices order, which is ascending linear index; the
# maximal corner read through max_corner.


def naive_moves(a, params, maximal_only):
    moves = []
    for k, e in enumerate(all_edges(a.shape, params)):
        missing = [v for v in edge_vertices(e) if v not in a]
        if len(missing) != 1:
            continue
        v = missing[0]
        for w in edge_vertices(e):
            if w != v and (not maximal_only or w == e.max_corner()):
                moves.append((k, 1 << linear_index(a.shape, v), 1 << linear_index(a.shape, w)))
    return moves


@st.composite
def move_instances(draw):
    d = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, (7, 5, 3, 3)[d - 1]), min_size=d, max_size=d)))
    shape = GridShape(dims)
    full = (1 << cell_count(shape)) - 1
    # Empty, full, uniform random and dense random sets.
    words = [draw(st.integers(0, full)) for _ in range(2)]
    bits = draw(st.sampled_from((0, full, words[0], words[0] | words[1])))
    return CellSet(shape, bits), draw(st.sampled_from((2, 3)))


@settings(max_examples=150, deadline=None)
@given(move_instances())
def test_moves_match_edge_tuple_reference(inst):
    # The exact sequence, order included, at every r and both values of
    # maximal_only.
    a, t = inst
    for r in range(1, a.shape.d + 1):
        params = Params(t, r)
        table = _edge_table(a.shape, params)
        for maximal_only in (False, True):
            assert list(table.moves(a.bits, maximal_only)) == naive_moves(a, params, maximal_only)


def test_moves_match_edge_tuple_reference_on_l_sets():
    # An L set less one cell has many edges missing exactly one cell.
    for dims, t, r in (((5, 5), 2, 2), ((4, 5), 3, 2), ((3, 3, 3), 2, 3), ((2, 3, 2, 3), 2, 2)):
        shape, params = GridShape(dims), Params(t, r)
        table = _edge_table(shape, params)
        a = l_set(shape, params)
        for idx in iter_bits(a.bits):
            b = CellSet(shape, a.bits ^ 1 << idx)
            for maximal_only in (False, True):
                assert list(table.moves(b.bits, maximal_only)) == naive_moves(b, params, maximal_only)
