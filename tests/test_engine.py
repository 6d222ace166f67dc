import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxperc.constructions import l_set
from boxperc.engine import (
    _edge_table,
    all_edges,
    full_form,
    infecting_edge,
    one_phase,
    percolates,
    phase_step,
    rectangle_blocks,
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
                assert got == min(witnesses, key=Edge.sort_key)
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
    # The closure loop rescans only edges touching fresh cells; it must agree
    # with the plain one-step operation iterated to a fixpoint.
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


def test_rectangle_blocks():
    shape = GridShape((3, 3))
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
    blocks = rectangle_blocks(a)
    assert blocks == [((1, 2), (1, 2)), ((3,), (3,))]
    # Overlapping but unequal row patterns are not a block union.
    b = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    assert rectangle_blocks(b) is None
    with pytest.raises(ValueError):
        rectangle_blocks(CellSet.empty(GridShape((2, 2, 2))))


def test_closures_decompose_into_blocks():
    rng = random.Random(47)
    shape = GridShape((5, 5))
    for _ in range(60):
        a = rand_set(shape, rng)
        closed, _ = full_form(a, P22)
        assert rectangle_blocks(closed) is not None


def test_edge_enumeration_cap():
    # (50,50) at t=r=2 would need about 1.5 million hyperedges; the engine
    # refuses before enumerating anything.
    shape = GridShape((50, 50))
    with pytest.raises(ValueError, match="desk-scale"):
        percolates(CellSet.empty(shape), P22)


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
    edges.sort(key=Edge.sort_key)
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


def naive_edge_cells(shape, edges):
    return [tuple(sorted(linear_index(shape, v) for v in product(*e.sets))) for e in edges]


def mask_walk_through(shape, masks):
    """Per-cell incidence lists read off the mask bits, edge by edge."""
    through = [[] for _ in range(cell_count(shape))]
    for k, m in enumerate(masks):
        for c in iter_bits(m):
            through[c].append(k)
    return through


def assert_table_matches_reference(shape, params):
    edges, masks = naive_edge_table(shape, params)
    table = _edge_table(shape, params)
    assert table.sets == tuple(e.sets for e in edges)
    assert table.masks == tuple(masks)
    assert table.cells() == naive_edge_cells(shape, edges)
    assert table.through() == mask_walk_through(shape, masks)
    assert all_edges(shape, params) == tuple(edges)
    assert tuple(sorted(all_edges(shape, params), key=Edge.sort_key)) == tuple(edges)


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
    assert table._edges is None
    built = [witness] + [r.edge for r in records + reach.records]
    # Edges built before the tuple are its members, and the tuple is what
    # edge() hands out from then on.
    edges = all_edges(shape, params)
    assert all(any(e is f for f in edges) for e in built)
    assert all(table.edge(k) is edges[k] for k in range(len(edges)))


def test_edge_cells_are_the_mask_bits_and_searches_build_no_edges():
    _edge_table.cache_clear()
    shape = GridShape((3, 4))
    table = _edge_table(shape, P22)
    min_percolating_size(shape, P22)
    min_one_phase_size(shape, P22)
    assert table._edges is None and not table._built
    cells = table.cells()
    assert cells is table.cells()
    assert cells == [tuple(iter_bits(m)) for m in table.masks]
