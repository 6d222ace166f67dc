import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxperc.engine import all_edges, full_form, infecting_edge, one_phase, percolates, phase_step
from boxperc.lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    cell_count,
    edge_vertices,
    slice_cells,
)
from boxperc.search import random_one_phase_set, random_percolating_set
from boxperc.transforms import (
    is_standard_position,
    normalize_max_shifts,
    p_row_decomposition,
    remove_slice,
    repack_first_column,
    shift,
    stable_full_form,
    standardize_blocking_corner,
    union_slices,
)

P22 = Params(2, 2)


def test_union_slices_merges_projections():
    shape = GridShape((3, 3))
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1)])
    merged = union_slices(a, 1, 1, 2)
    assert merged.shape.dims == (2, 3)
    assert set(merged.cells()) == {(1, 1), (1, 2), (1, 3), (2, 1)}
    assert len(merged) == len(a) - 1  # the overlap at column 2 collapses


def test_union_slices_disjoint_keeps_size():
    shape = GridShape((3, 4))
    a = CellSet.from_cells(shape, [(1, 1), (2, 3), (2, 4), (3, 2)])
    merged = union_slices(a, 1, 1, 2)
    assert len(merged) == len(a)
    with pytest.raises(ValueError):
        union_slices(a, 1, 2, 2)
    with pytest.raises(ValueError):
        union_slices(a, 1, 0, 2)


def test_union_slices_preserves_percolation():
    from itertools import combinations

    for dims in ((4, 4), (3, 3, 3)):
        shape = GridShape(dims)
        for seed in range(25):
            a = random_percolating_set(shape, P22, seed)
            for axis in range(1, len(dims) + 1):
                for m1, m2 in combinations(range(1, dims[axis - 1] + 1), 2):
                    assert percolates(union_slices(a, axis, m1, m2), P22)


def test_remove_slice_basics():
    shape = GridShape((3, 3))
    a = CellSet.from_cells(shape, [(1, 1), (3, 2)])
    out = remove_slice(a, 1, 2)  # row 2 is empty
    assert out.shape.dims == (2, 3)
    assert set(out.cells()) == {(1, 1), (2, 2)}
    assert len(out) == len(a)
    full = CellSet.full(shape)
    assert remove_slice(full, 2, 3) == CellSet.full(GridShape((3, 2)))
    with pytest.raises(ValueError):
        remove_slice(a, 1, 4)
    with pytest.raises(ValueError):
        remove_slice(CellSet.full(GridShape((1, 2))), 1, 1)


def test_remove_thin_row_preserves_percolation():
    for t in (2, 3):
        params = Params(t, 2)
        shape = GridShape((5, 5))
        found = 0
        seed = 0
        while found < 30:
            a = random_percolating_set(shape, params, seed)
            seed += 1
            thin = [m for m in range(1, 6) if len(slice_cells(a, 1, m)) == t - 1]
            if not thin:
                continue
            found += 1
            for m in thin:
                assert percolates(remove_slice(a, 1, m), params)


def test_repack_moves_first_cell_into_the_prefix():
    shape = GridShape((3, 5))
    t2 = Params(2, 2)
    a = CellSet.from_cells(shape, [(1, 1), (1, 5), (2, 1), (2, 2), (3, 3)])
    out = repack_first_column(a, t2)
    # Row 1 = {1, 5}: the 1 moves to column 2. Row 2 already fills the
    # prefix. Row 3 has no column-1 cell.
    assert set(out.cells()) == {(1, 2), (1, 5), (2, 1), (2, 2), (3, 3)}
    assert len(out) == len(a)


def test_repack_leaves_full_prefix_rows_alone():
    shape = GridShape((2, 4))
    t3 = Params(3, 2)
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (1, 3), (2, 4)])
    assert repack_first_column(a, t3) == a


def test_repack_requirements_on_blocked_instances():
    for dims, t in (((4, 4), 2), ((4, 5), 3)):
        shape, params = GridShape(dims), Params(t, 2)
        found = 0
        seed = 0
        while found < 25:
            a = random_one_phase_set(shape, params, seed)
            seed += 1
            if one_phase(remove_slice(a, 2, 1), params):
                continue
            found += 1
            align = standardize_blocking_corner(a, params)
            assert align is not None
            b = align.aligned
            # [t] x [t] misses exactly (t, t) ...
            box = CellSet.from_cells(shape, product(range(1, t + 1), repeat=2))
            assert (box - b).cells() == [(t, t)]
            # ... and every infecting edge of (t, t) meets column 1.
            assert (t, t - 1) not in phase_step(remove_slice(b, 2, 1), params)
            assert one_phase(b, params)
            assert not one_phase(remove_slice(b, 2, 1), params)
            assert len(slice_cells(b, 2, 1)) >= t - 1
            star = repack_first_column(b, params)
            assert len(star) == len(b)                          # requirement I
            assert len(slice_cells(star, 2, 1)) >= t - 1        # requirement II
            assert one_phase(remove_slice(star, 2, 1), params)  # requirement III


def test_standardize_returns_none_without_blocked_vertex():
    shape, params = GridShape((3, 4)), Params(2, 2)
    seed = 0
    while True:
        a = random_one_phase_set(shape, params, seed)
        seed += 1
        if one_phase(remove_slice(a, 2, 1), params):
            assert standardize_blocking_corner(a, params) is None
            break


def test_standardize_rejects_r_other_than_2():
    # At r = 1 the least infecting edge of the blocked cell (1, 2) is the
    # row {1} x {1, 2}, which is no [t] x [t] square to align to.
    shape, params = GridShape((3, 3)), Params(2, 1)
    a = random_one_phase_set(shape, params, 10)
    assert a.cells() == [(1, 1), (2, 1), (3, 1)]
    with pytest.raises(ValueError, match="needs r = 2"):
        standardize_blocking_corner(a, params)


def per_cell_blocked_vertex(a, params):
    """Reference: the blocked vertex as standardize_blocking_corner found it
    before it read one phase step, by one infecting_edge call per cell."""
    a_minus = remove_slice(a, 2, 1)
    for v in CellSet.full(a.shape).cells():
        i, j = v
        if j >= 2 and v not in a and infecting_edge(a_minus, (i, j - 1), params) is None:
            return v
    return None


def test_blocked_vertex_matches_per_cell_reference():
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for dims in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 3)):
        shape = GridShape(dims)
        for params in (Params(2, 2), Params(3, 2)):
            for seed in range(12):
                a = random_one_phase_set(shape, params, seed)
                # Supersets of a one-phase set are one-phase too, and often
                # have no blocked vertex.
                for b in (a, CellSet(shape, a.bits | rng.getrandbits(cell_count(shape)))):
                    ref = per_cell_blocked_vertex(b, params)
                    align = standardize_blocking_corner(b, params)
                    outcomes[ref is None] += 1
                    if ref is None:
                        assert align is None
                    else:
                        # The blocked vertex is placed at (t, t).
                        t = params.t
                        assert (align.row_order[t - 1], align.col_order[t - 1]) == ref
    assert min(outcomes.values()) >= 50


def test_shift_preserves_size_and_closure():
    shape = GridShape((4, 4))
    rng = random.Random(3)
    checked = 0
    while checked < 50:
        a = CellSet(shape, rng.getrandbits(16))
        closed, _ = full_form(a, P22)
        for e in all_edges(shape, P22):
            missing = [v for v in edge_vertices(e) if v not in a]
            if len(missing) != 1:
                continue
            v = missing[0]
            for w in edge_vertices(e):
                if w == v:
                    continue
                moved, record = shift(a, e, w)
                assert len(moved) == len(a)
                assert v in moved and w not in moved
                assert full_form(moved, P22)[0] == closed
                assert record.infected == v and record.removed == w
                checked += 1


def test_shift_maximal_flag_and_errors():
    shape = GridShape((3, 3))
    t3 = Params(3, 2)
    # The full 3x3 block minus its lowest corner: maximal shift evicts (3,3).
    e = Edge(((1, 2, 3), (1, 2, 3)))
    a = CellSet.full(shape).without_cells([(1, 1)])
    moved, record = shift(a, e, (3, 3))
    assert record.maximal and record.removed == (3, 3) and record.infected == (1, 1)
    assert (1, 1) in moved and (3, 3) not in moved
    moved2, record2 = shift(a, e, (2, 2))
    assert not record2.maximal
    with pytest.raises(ValueError):
        shift(a, e, (1, 1))  # w is the missing vertex
    with pytest.raises(ValueError):
        shift(CellSet.full(shape), e, (3, 3))  # nothing missing
    with pytest.raises(ValueError):
        shift(a.without_cells([(2, 2)]), e, (3, 3))  # two vertices missing
    with pytest.raises(ValueError, match="out of bounds"):
        shift(a, Edge(((1, 2, 4), (1, 2, 3))), (2, 2))  # edge off the grid
    with pytest.raises(ValueError, match="not an infected vertex"):
        shift(a, Edge(((1, 2), (1, 2))), (3, 3))  # w outside the edge
    with pytest.raises(ValueError, match="2 vertices missing"):
        is_standard_position(e, a.without_cells([(2, 2)]))


def test_is_standard_position():
    shape = GridShape((2, 2))
    e = Edge(((1, 2), (1, 2)))
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    assert is_standard_position(e, a)  # missing vertex (2,2) is the corner
    b = CellSet.from_cells(shape, [(1, 2), (2, 1), (2, 2)])
    assert not is_standard_position(e, b)


def test_standard_position_means_no_maximal_shift():
    shape = GridShape((3, 3))
    rng = random.Random(7)
    for _ in range(40):
        a = CellSet(shape, rng.getrandbits(9))
        for e in all_edges(shape, P22):
            missing = [v for v in edge_vertices(e) if v not in a]
            if len(missing) != 1:
                continue
            can_shift = missing[0] != e.max_corner()
            assert can_shift == (not is_standard_position(e, a))


def test_normalize_fixpoint_and_bounds():
    shape = GridShape((4, 4))
    seed_set = random_percolating_set(shape, P22, 5)
    stable, records = normalize_max_shifts(seed_set, P22)
    assert len(stable) == len(seed_set)
    assert len(records) <= sum(sum(v) for v in seed_set.cells())
    assert all(r.maximal for r in records)
    # Stable means every infecting edge sits in standard position.
    for e in all_edges(shape, P22):
        missing = [v for v in edge_vertices(e) if v not in stable]
        if len(missing) == 1:
            assert is_standard_position(e, stable)
    again, more = normalize_max_shifts(stable, P22)
    assert again == stable and more == ()


def test_normalize_fills_first_row_and_column():
    shape = GridShape((5, 4))
    for seed in range(30):
        a = random_percolating_set(shape, P22, seed)
        stable, _ = normalize_max_shifts(a, P22)
        assert all((1, j) in stable for j in range(1, 5))
        assert all((i, 1) in stable for i in range(1, 6))


def test_normalize_seeded_order_still_stabilizes():
    shape = GridShape((4, 4))
    a = random_percolating_set(shape, P22, 11)
    stable, _ = normalize_max_shifts(a, P22, seed=99)
    for e in all_edges(shape, P22):
        missing = [v for v in edge_vertices(e) if v not in stable]
        if len(missing) == 1:
            assert is_standard_position(e, stable)
    assert len(stable) == len(a)


# Reference: the normal form over the Edge tuple. Candidates come from
# edge_vertices and max_corner, sorted by vertex then edge_order, and
# every move goes through shift().


def edge_order(e):
    """The documented edge order: varying axes ascending, then the varying
    value tuples in axis order, then the fixed coordinates."""
    return (
        e.axes,
        tuple(s for s in e.sets if len(s) > 1),
        tuple(s[0] for s in e.sets if len(s) == 1),
    )


def naive_normalize_max_shifts(a, params, seed=None):
    rng = random.Random(seed) if seed is not None else None
    records = []
    while True:
        candidates = []
        for e in all_edges(a.shape, params):
            missing = [v for v in edge_vertices(e) if v not in a]
            if len(missing) == 1 and missing[0] != e.max_corner():
                candidates.append((missing[0], e))
        candidates.sort(key=lambda ve: (ve[0], edge_order(ve[1])))
        if not candidates:
            return a, tuple(records)
        _, e = candidates[0] if rng is None else rng.choice(candidates)
        a, rec = shift(a, e, e.max_corner())
        records.append(rec)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_normalize_matches_edge_tuple_reference(data):
    d = data.draw(st.sampled_from((2, 3)))
    dims = tuple(data.draw(st.lists(st.integers(1, 6 - d), min_size=d, max_size=d)))
    shape = GridShape(dims)
    params = Params(data.draw(st.sampled_from((2, 3))), data.draw(st.integers(1, d)))
    a = CellSet(shape, data.draw(st.integers(0, (1 << cell_count(shape)) - 1)))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**32)))
    assert normalize_max_shifts(a, params, seed) == naive_normalize_max_shifts(a, params, seed)


def test_p_row_decomposition_single_class():
    shape = GridShape((4, 4))
    a = random_percolating_set(shape, P22, 2)
    stable, _ = normalize_max_shifts(a, P22)
    decomp = p_row_decomposition(stable)
    assert decomp.classes == ((1, 2, 3, 4),)
    assert decomp.representatives == ((1, 2, 3, 4),)
    assert decomp.rep_rows == (1,)


def test_p_row_decomposition_two_blocks():
    shape = GridShape((4, 4))
    a = CellSet.from_cells(
        shape,
        [(1, 1), (1, 2), (2, 1), (3, 3), (3, 4), (4, 4)],
    )
    decomp = p_row_decomposition(a)
    assert decomp.classes == ((1, 2), (3, 4))
    assert decomp.representatives == ((1, 2), (3, 4))


def test_p_row_decomposition_single_row():
    a = CellSet.from_cells(GridShape((1, 5)), [(1, 2), (1, 4)])
    decomp = p_row_decomposition(a)
    assert decomp.classes == ((1,),)
    assert decomp.representatives == ((2, 4),)


def test_p_row_decomposition_rejects_empty_row():
    a = CellSet.from_cells(GridShape((2, 2)), [(1, 1)])
    with pytest.raises(ValueError, match="row 2 is empty"):
        p_row_decomposition(a)


def test_p_row_decomposition_rejects_unstable_input():
    # Row 2 overlaps row 1 but is not contained in it; no stable set looks
    # like this and the error names the offending pair.
    a = CellSet.from_cells(GridShape((2, 3)), [(1, 1), (1, 2), (2, 2), (2, 3)])
    with pytest.raises(ValueError, match="row 2"):
        p_row_decomposition(a)


def test_stable_full_form_matches_engine():
    shape = GridShape((4, 4))
    hits = 0
    for seed in range(40):
        a = random_percolating_set(shape, P22, seed)
        stable, _ = normalize_max_shifts(a, P22)
        assert stable_full_form(stable) == full_form(stable, P22)[0] == CellSet.full(shape)
    # Non-percolating stable sets too, when every row is occupied.
    rng = random.Random(4)
    while hits < 20:
        a = CellSet(shape, rng.getrandbits(16))
        stable, _ = normalize_max_shifts(a, P22)
        if any(len(slice_cells(stable, 1, m)) == 0 for m in range(1, 5)):
            continue
        hits += 1
        assert stable_full_form(stable) == full_form(stable, P22)[0]


def test_stable_full_form_single_cell():
    a = CellSet.from_cells(GridShape((1, 1)), [(1, 1)])
    assert stable_full_form(a) == a


def test_stable_full_form_two_blocks():
    shape = GridShape((4, 4))
    a = CellSet.from_cells(
        shape,
        [(1, 1), (1, 2), (2, 1), (3, 3), (3, 4), (4, 4)],
    )
    expected, _ = full_form(a, P22)
    assert stable_full_form(a) == expected
