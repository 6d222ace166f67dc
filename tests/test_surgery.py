"""Slice surgeries and the L set against per-member references.

The surgeries move whole slice runs through `relabel_axis`; the references
below decode every member to a coordinate tuple, edit one coordinate and
re-encode it, and the L reference counts high coordinates cell by cell.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxperc.constructions import l_set
from boxperc.lattice import (
    CellSet,
    GridShape,
    Params,
    cell_count,
    linear_index,
    p_slice,
    permute_slices,
    project,
    relabel_axis,
)
from boxperc.transforms import remove_slice, union_slices


def encode(shape, cells):
    return CellSet(shape, sum(1 << linear_index(shape, v) for v in set(cells)))


def ref_relabel(a, axis, new_of_old, dims):
    """Members with coordinate c on `axis` moved to new_of_old(c), or
    dropped where that is 0, on the shape `dims`."""
    shape = GridShape(dims)
    cells = []
    for v in a.cells():
        c = new_of_old(v[axis - 1])
        if c:
            cells.append(v[: axis - 1] + (c,) + v[axis:])
    return encode(shape, cells)


def with_axis_length(dims, axis, n):
    return dims[: axis - 1] + (n,) + dims[axis:]


def ref_project(a, axis):
    dims = a.shape.dims
    reduced = GridShape(dims[: axis - 1] + dims[axis:])
    return encode(reduced, [v[: axis - 1] + v[axis:] for v in a.cells()])


def ref_p_slice(a, axis, value):
    dims = a.shape.dims
    reduced = GridShape(dims[: axis - 1] + dims[axis:])
    cells = [v[: axis - 1] + v[axis:] for v in a.cells() if v[axis - 1] == value]
    return encode(reduced, cells)


def ref_permute(a, axis, order):
    new_of_old = {old: new for new, old in enumerate(order, start=1)}
    return ref_relabel(a, axis, new_of_old.get, a.shape.dims)


def one_shorter(a, axis):
    return with_axis_length(a.shape.dims, axis, a.shape.dims[axis - 1] - 1)


def ref_union(a, axis, m1, m2):
    lo, hi = sorted((m1, m2))
    return ref_relabel(a, axis, lambda c: lo if c == hi else c - (c > hi), one_shorter(a, axis))


def ref_remove(a, axis, m):
    return ref_relabel(a, axis, lambda c: 0 if c == m else c - (c > m), one_shorter(a, axis))


def ref_l_set(shape, params):
    cells = [
        v for v in CellSet.full(shape).cells()
        if sum(c > params.t - 1 for c in v) <= params.r - 1
    ]
    return encode(shape, cells)


@st.composite
def cases(draw):
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    shape = GridShape(dims)
    a = CellSet(shape, draw(st.integers(0, (1 << cell_count(shape)) - 1)))
    axis = draw(st.integers(1, len(dims)))
    return a, axis


@settings(max_examples=300, deadline=None)
@given(cases(), st.data())
def test_surgeries_match_member_references(case, data):
    a, axis = case
    dims = a.shape.dims
    n = dims[axis - 1]
    order = data.draw(st.permutations(range(1, n + 1)))
    assert permute_slices(a, axis, order) == ref_permute(a, axis, order)
    if len(dims) > 1:
        value = data.draw(st.integers(1, n))
        assert project(a, axis) == ref_project(a, axis)
        assert p_slice(a, axis, value) == ref_p_slice(a, axis, value)
    if n > 1:
        m1, m2 = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        assert union_slices(a, axis, m1, m2) == ref_union(a, axis, m1, m2)
        assert remove_slice(a, axis, m1) == ref_remove(a, axis, m1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_l_set_matches_coordinate_definition(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    t = data.draw(st.integers(2, 5))
    r = data.draw(st.integers(1, len(dims)))
    shape, params = GridShape(dims), Params(t, r)
    assert l_set(shape, params) == ref_l_set(shape, params)


@settings(max_examples=150, deadline=None)
@given(cases(), st.data())
def test_relabel_axis_merges_and_drops_slices(case, data):
    a, axis = case
    n = a.shape.dims[axis - 1]
    to = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n).filter(any))
    m = max(to)
    expected = ref_relabel(a, axis, lambda c: to[c - 1], with_axis_length(a.shape.dims, axis, m))
    assert relabel_axis(a, axis, to) == expected


def test_relabel_axis_rejects_a_bad_map():
    a = CellSet.full(GridShape((2, 3)))
    for to in ([], [1, 2], [1, 2, 4], [1, -1, 2], [0, 0, 0]):
        with pytest.raises(ValueError):
            relabel_axis(a, 2, to)


SURGERIES = {
    "project": lambda a, axis: project(a, axis),
    "p_slice": lambda a, axis: p_slice(a, axis, 1),
    "permute_slices": lambda a, axis: permute_slices(a, axis, (2, 1)),
    "union_slices": lambda a, axis: union_slices(a, axis, 1, 2),
    "remove_slice": lambda a, axis: remove_slice(a, axis, 1),
}


@pytest.mark.parametrize("axis", [0, -1, 3])
@pytest.mark.parametrize("name", sorted(SURGERIES))
def test_surgeries_reject_an_axis_outside_the_grid(name, axis):
    a = CellSet.full(GridShape((2, 2)))
    with pytest.raises(ValueError, match=f"axis {axis} out of range for shape"):
        SURGERIES[name](a, axis)
