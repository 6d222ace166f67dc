import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxperc.lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    cell_count,
    check_compatible,
    check_vertex,
    edge_mask,
    edge_vertices,
    edgesum,
    linear_index,
    p_slice,
    permute_slices,
    project,
    slice_cells,
    unchecked_index,
    unchecked_vertex,
    validate_edge,
    vertex_at,
)


def test_shape_validation():
    assert GridShape((5, 6)).d == 2
    with pytest.raises(ValueError):
        GridShape(())
    with pytest.raises(ValueError):
        GridShape((3, 0))
    with pytest.raises(ValueError):
        GridShape((2, -1))
    with pytest.raises(ValueError):
        GridShape((1 << 40, 1 << 40))  # beyond the supported integer range


def test_cell_count_examples():
    assert cell_count(GridShape((5, 6))) == 30
    assert cell_count(GridShape((1,))) == 1
    assert cell_count(GridShape((2, 2, 2))) == 8


def test_edgesum_examples():
    assert edgesum(GridShape((1, 1, 1))) == 3
    assert edgesum(GridShape((5, 6))) == 11
    assert edgesum(GridShape((3, 3, 3))) == 9


def test_params_validation():
    Params(2, 1)
    with pytest.raises(ValueError):
        Params(1, 1)
    with pytest.raises(ValueError):
        Params(2, 0)
    check_compatible(GridShape((2, 2)), Params(2, 2))
    with pytest.raises(ValueError):
        check_compatible(GridShape((2, 2)), Params(2, 3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GridShape((2.9, 3)),
        lambda: GridShape(("3", "4")),
        lambda: Params(2.5, 2),
        lambda: Params(2, "2"),
        lambda: Edge(((1.9, 2.5), (3,))),
        lambda: Edge((("1", "2"), (3,))),
        lambda: check_vertex(GridShape((3, 3)), (1.9, 1)),
        lambda: CellSet.from_cells(GridShape((3, 3)), [(1.9, 1)]),
        lambda: (2.5, 1) in CellSet.empty(GridShape((3, 3))),
        lambda: ("2", 1) in CellSet.empty(GridShape((3, 3))),
        lambda: permute_slices(CellSet.from_cells(GridShape((3, 3)), [(1, 1), (2, 3)]),
                               1, [1.9, 3.2, 2.0]),
        lambda: permute_slices(CellSet.from_cells(GridShape((3, 3)), [(1, 1), (2, 3)]),
                               1, ["1", "3", "2"]),
        lambda: p_slice(CellSet.from_cells(GridShape((3, 3)), [(1, 1), (2, 3)]), 1, 2.0),
    ],
)
def test_constructors_reject_floats_and_strings(build):
    # A float is not truncated and a string is not parsed: both raise.
    with pytest.raises(TypeError):
        build()


shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda dims: GridShape(tuple(dims))
)


@settings(max_examples=60, deadline=None)
@given(shapes, st.data())
def test_linear_index_round_trip(shape, data):
    idx = data.draw(st.integers(0, cell_count(shape) - 1))
    v = vertex_at(shape, idx)
    assert linear_index(shape, v) == idx
    assert unchecked_vertex(shape, idx) == v and unchecked_index(shape, v) == idx
    for c, n in zip(v, shape.dims):
        assert 1 <= c <= n


def test_linear_index_is_row_major():
    shape = GridShape((2, 3))
    # Last coordinate varies fastest.
    assert [vertex_at(shape, i) for i in range(6)] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
    ]


def test_cellset_basics():
    shape = GridShape((2, 3))
    a = CellSet.from_cells(shape, [(1, 1), (2, 3)])
    assert len(a) == 2
    assert a.cardinality == 2
    assert (1, 1) in a and (2, 3) in a and (1, 2) not in a
    assert a.cells() == [(1, 1), (2, 3)]
    with pytest.raises(ValueError):
        CellSet.from_cells(shape, [(3, 1)])
    with pytest.raises(ValueError):
        CellSet.from_cells(shape, [(1, 0)])
    with pytest.raises(ValueError):
        CellSet(shape, 1 << 6)


def test_cellset_set_operations():
    shape = GridShape((2, 2))
    a = CellSet.from_cells(shape, [(1, 1), (1, 2)])
    b = CellSet.from_cells(shape, [(1, 2), (2, 1)])
    assert (a | b).cells() == [(1, 1), (1, 2), (2, 1)]
    assert (a & b).cells() == [(1, 2)]
    assert (a - b).cells() == [(1, 1)]
    assert a.is_subset(a | b)
    assert a.complement().cells() == [(2, 1), (2, 2)]
    assert CellSet.full(shape).is_full()
    with pytest.raises(ValueError):
        a | CellSet.empty(GridShape((3, 3)))


def test_edge_vertices_examples():
    e = Edge(((1, 2), (1, 5)))
    assert set(edge_vertices(e)) == {(1, 1), (1, 5), (2, 1), (2, 5)}
    e = Edge(((1, 2, 3), (1, 2, 3)))
    assert len(edge_vertices(e)) == 9
    assert set(edge_vertices(e)) == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    e = Edge(((1,), (1,), (1, 2)))
    assert set(edge_vertices(e)) == {(1, 1, 1), (1, 1, 2)}
    assert e.axes == (3,)
    assert e.sets[:2] == ((1,), (1,))


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(((1, 2), (1, 2, 3)))  # varying sets of mixed size
    with pytest.raises(ValueError):
        Edge(((1,), (2,)))  # no varying axis at all
    with pytest.raises(ValueError):
        Edge(((0, 1),))  # not 1-based
    shape, params = GridShape((2, 2)), Params(2, 2)
    validate_edge(Edge(((1, 2), (1, 2))), shape, params)
    with pytest.raises(ValueError):
        validate_edge(Edge(((1, 2), (1, 3))), shape, params)  # out of bounds
    with pytest.raises(ValueError):
        validate_edge(Edge(((1, 2), (1,))), shape, params)  # r mismatch


def test_edge_vertex_count_is_t_power_r():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(1, 4)
        dims = tuple(rng.randint(2, 5) for _ in range(d))
        t = rng.randint(2, min(dims))
        r = rng.randint(1, d)
        axes = rng.sample(range(d), r)
        sets = []
        for i in range(d):
            if i in axes:
                sets.append(tuple(rng.sample(range(1, dims[i] + 1), t)))
            else:
                sets.append((rng.randint(1, dims[i]),))
        e = Edge(tuple(sets))
        assert len(edge_vertices(e)) == t**r
        shape = GridShape(dims)
        mask = edge_mask(e, shape)
        assert mask.bit_count() == t**r
        assert mask == sum(1 << linear_index(shape, v) for v in edge_vertices(e))
        assert mask.bit_length() - 1 == linear_index(shape, e.max_corner())


def test_edge_mask_rejects_edges_off_the_shape():
    shape = GridShape((3, 3))
    with pytest.raises(ValueError, match="out of bounds"):
        edge_mask(Edge(((1, 4), (2,))), shape)
    with pytest.raises(ValueError, match="out of bounds"):
        edge_mask(Edge(((2,), (1, 4))), shape)
    with pytest.raises(ValueError, match="axes"):
        edge_mask(Edge(((1, 2), (1, 2), (1,))), shape)


def test_edge_max_corner():
    e = Edge(((1, 3), (2, 5)))
    assert e.max_corner() == (3, 5)


def test_slice_examples():
    shape = GridShape((3, 4))
    a = CellSet.from_cells(shape, [(1, 1), (2, 2), (2, 4), (3, 1)])
    assert slice_cells(a, 1, 2).cells() == [(2, 2), (2, 4)]
    full = CellSet.full(shape)
    assert slice_cells(full, 2, 3).cells() == [(1, 3), (2, 3), (3, 3)]
    assert slice_cells(CellSet.empty(shape), 1, 1).cells() == []
    with pytest.raises(ValueError):
        slice_cells(a, 3, 1)
    with pytest.raises(ValueError):
        slice_cells(a, 1, 4)


def test_slices_partition_the_set():
    shape = GridShape((3, 2, 2))
    rng = random.Random(3)
    for _ in range(10):
        a = CellSet(shape, rng.getrandbits(cell_count(shape)))
        for axis in (1, 2, 3):
            pieces = [slice_cells(a, axis, m) for m in range(1, shape.dims[axis - 1] + 1)]
            assert sum(len(p) for p in pieces) == len(a)
            union = CellSet.empty(shape)
            for p in pieces:
                union = union | p
            assert union == a


def test_project_examples():
    shape = GridShape((4, 6))
    a = CellSet.from_cells(shape, [(2, 3), (2, 5)])
    proj = project(a, 1)
    assert proj.shape.dims == (6,)
    assert proj.cells() == [(3,), (5,)]
    assert project(CellSet.empty(shape), 2).cells() == []
    # Projection of one slice is that row seen on the reduced shape.
    b = CellSet.from_cells(shape, [(1, 2), (2, 3), (2, 6)])
    assert p_slice(b, 1, 2).cells() == [(3,), (6,)]


def test_project_merges_collapsing_cells():
    shape = GridShape((2, 2))
    a = CellSet.from_cells(shape, [(1, 1), (2, 1)])
    assert project(a, 1).cells() == [(1,)]


def test_permute_slices():
    shape = GridShape((3, 2))
    a = CellSet.from_cells(shape, [(1, 1), (2, 2), (3, 1)])
    b = permute_slices(a, 1, (3, 1, 2))
    assert b.cells() == [(1, 1), (2, 1), (3, 2)]
    assert len(b) == len(a)
    with pytest.raises(ValueError):
        permute_slices(a, 1, (1, 1, 2))


def test_dense_occupancy_budget():
    # The shape itself is fine, but dense membership over it is refused.
    big = GridShape((1101, 1101))
    with pytest.raises(ValueError, match="dense budget"):
        CellSet.empty(big)
