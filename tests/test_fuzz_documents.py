"""Fuzz round trip of the JSON documents.

Valid instance, phase-trace and step-trace documents are generated, and
each gets one mutation: a repeated edge coordinate or a "01"-style axis
key, a float, bool or string value, a duplicate cell, an unknown field,
an out-of-range coordinate, a missing field, or a key written twice in
one JSON object. Each document must either parse and re-encode to the
same cells and edges, or raise InstanceError; when it raises, the command
line (`check` for instances, `render` for traces) must exit 2 with
nothing on stdout and one `error:` line. A document that repeats a key
must raise.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from boxperc import cli, jsonio
from boxperc.engine import full_form, step_by_step
from boxperc.jsonio import InstanceError
from boxperc.lattice import CellSet, GridShape, Params, cell_count


@st.composite
def valid_documents(draw):
    """(kind, document): an instance, phase trace or step trace on a grid
    of up to 3 axes of length up to 4, its cell lists and edge index sets
    in a drawn order (the order is free)."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shape = GridShape(tuple(dims))
    params = Params(draw(st.sampled_from((2, 3))), draw(st.integers(1, len(dims))))
    a = CellSet(shape, draw(st.integers(0, (1 << cell_count(shape)) - 1)))
    kind = draw(st.sampled_from(("instance", "phases", "steps")))
    if kind == "instance":
        doc = jsonio.instance_to_json(a, params)
        doc["cells"] = draw(st.permutations(doc["cells"]))
    elif kind == "phases":
        doc = jsonio.phase_trace_to_json(full_form(a, params)[1], params)
        doc["phases"] = [draw(st.permutations(cells)) for cells in doc["phases"]]
    else:
        seed = draw(st.none() | st.integers(0, 9))
        doc = jsonio.step_trace_to_json(step_by_step(a, params, seed=seed), params)
        doc["start"] = draw(st.permutations(doc["start"]))
        for step in doc["steps"]:
            varying = step["edge"]["varying"]
            for key in varying:
                varying[key] = draw(st.permutations(varying[key]))
    # A fresh copy of plain lists and dicts, so a mutation touches one place.
    return kind, json.loads(json.dumps(doc))


def _slots(doc, path=()):
    """(path, value) for every list and dict and every int inside `doc`."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _slots(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _slots(value, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_coordinate(path) -> bool:
    """An int that names a grid coordinate: of a cell, a step's vertex, or
    an edge's varying or fixed axis."""
    return any(key in ("cells", "phases", "start", "v", "varying", "fixed") for key in path)


MUTATIONS = (
    "repeat", "axis_key", "type", "duplicate_cell", "unknown", "range", "missing", "repeated_key"
)
# A key no document holds; the repeated-key mutation writes it and then
# renames it in the JSON text, since a dict cannot hold one key twice.
TWIN = "\x00twin"


@st.composite
def mutated_documents(draw):
    """(kind, JSON text) after one mutation of a valid document; a mutation
    with no place to act in the document (say, a repeated edge coordinate
    in an instance) leaves it as it is."""
    kind, doc = draw(valid_documents())
    slots = list(_slots(doc))
    ints = [p for p, v in slots if type(v) is int]
    dicts = [p for p, v in slots if isinstance(v, dict)]
    cell_lists = [p for p, v in slots if v and isinstance(v, list) and (
        p in (("cells",), ("start",)) or len(p) == 2 and p[0] == "phases")]
    axis_maps = [p for p in dicts if p and p[-1] in ("varying", "fixed") and _at(doc, p)]
    coords = [p for p in ints if _is_coordinate(p)]
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "repeat" and axis_maps:
        varying = _at(doc, draw(st.sampled_from(axis_maps))[:-1] + ("varying",))
        tset = varying[draw(st.sampled_from(sorted(varying)))]
        tset.insert(draw(st.integers(0, len(tset))), draw(st.sampled_from(tset)))
    elif mutation == "axis_key" and axis_maps:
        axes = _at(doc, draw(st.sampled_from(axis_maps)))
        key = draw(st.sampled_from(sorted(axes)))
        axes["0" + key] = axes.pop(key)
    elif mutation == "type" and ints:
        path = draw(st.sampled_from(ints))
        value = _at(doc, path)
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(
            (float(value), value + 0.5, value == 1, str(value))))
    elif mutation == "duplicate_cell" and cell_lists:
        cells = _at(doc, draw(st.sampled_from(cell_lists)))
        cells.insert(draw(st.integers(0, len(cells))), list(draw(st.sampled_from(cells))))
    elif mutation == "unknown":
        _at(doc, draw(st.sampled_from(dicts)))["bogus"] = 0
    elif mutation == "range" and coords:
        path = draw(st.sampled_from(coords))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from((0, -1, 5)))
    elif mutation == "missing":
        path = draw(st.sampled_from([p + (key,) for p in dicts for key in _at(doc, p)]))
        del _at(doc, path[:-1])[path[-1]]
    elif mutation == "repeated_key":
        obj = _at(doc, draw(st.sampled_from([p for p in dicts if _at(doc, p)])))
        key = draw(st.sampled_from(sorted(obj)))
        obj[TWIN] = obj[key]
        return kind, json.dumps(doc).replace(json.dumps(TWIN), json.dumps(key))
    return kind, json.dumps(doc)


def _cell_list(cells):
    # Order-free, but a repeated cell still counts twice.
    return sorted(map(tuple, cells))


def _edge(edge):
    return ({k: sorted(v) for k, v in edge["varying"].items()}, edge.get("fixed", {}))


def _content(kind, doc):
    """The cells and edges a document states, compared without order."""
    if kind == "instance":
        return doc["shape"], doc["t"], doc["r"], _cell_list(doc["cells"])
    if kind == "phases":
        return doc["shape"], doc["t"], doc["r"], [_cell_list(p) for p in doc["phases"]]
    steps = [(s["v"], _edge(s["edge"])) for s in doc["steps"]]
    return doc["shape"], doc["t"], doc["r"], _cell_list(doc.get("start", [])), steps


def _reencode(kind, text):
    """Parse `text` and encode what the parser read in the same format."""
    if kind == "instance":
        return jsonio.instance_to_json(*jsonio.parse_instance(text))
    params, trace = jsonio.parse_trace(text)
    write = jsonio.phase_trace_to_json if kind == "phases" else jsonio.step_trace_to_json
    return write(trace, params)


def _repeats_a_key(text) -> bool:
    """Whether some JSON object in `text` holds one key twice."""
    repeats = []
    json.loads(text, object_pairs_hook=lambda pairs: repeats.append(len(dict(pairs)) < len(pairs)))
    return any(repeats)


def _cli(command, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([command])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_documents_round_trip_or_exit_2(case):
    kind, text = case
    command = "check" if kind == "instance" else "render"
    try:
        again = _reencode(kind, text)
    except InstanceError:
        rc, out, err = _cli(command, text)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert not _repeats_a_key(text)
    assert _content(kind, again) == _content(kind, json.loads(text))
    rc, out, err = _cli(command, text)
    assert rc == 0 and out and err == ""
