import io
import json
import random
import re
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxperc import jsonio, render
from boxperc.cli import main
from boxperc.engine import full_form, step_by_step
from boxperc.constructions import l_set
from boxperc.jsonio import InstanceError
from boxperc.lattice import CellSet, Edge, GridShape, Params, cell_count, edge_vertices
from boxperc.search import min_percolating_size

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_instance_round_trip():
    rng = random.Random(1)
    for dims, t, r in (((3, 4), 2, 2), ((2, 2, 2), 2, 3), ((5,), 2, 1)):
        shape, params = GridShape(dims), Params(t, r)
        for _ in range(10):
            a = CellSet(shape, rng.getrandbits(cell_count(shape)))
            doc = jsonio.instance_to_json(a, params)
            b, q = jsonio.parse_instance(json.dumps(doc))
            assert b == a and q == params


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_instance_document_round_trip(data):
    # Whatever the library accepts, it writes a document it reads back; a
    # bool is no integer, so Params refuses it rather than write `true`.
    dims = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shape = GridShape(tuple(dims))
    t = data.draw(st.integers(2, 5) | st.booleans())
    r = data.draw(st.integers(1, len(dims)) | st.booleans())
    if isinstance(t, bool) or isinstance(r, bool):
        with pytest.raises(TypeError):
            Params(t, r)
        return
    params = Params(t, r)
    a = CellSet(shape, data.draw(st.integers(0, (1 << cell_count(shape)) - 1)))
    text = jsonio.dumps(jsonio.instance_to_json(a, params))
    assert jsonio.parse_instance(text) == (a, params)


def test_instance_diagnostics():
    with pytest.raises(InstanceError, match="missing required field"):
        jsonio.parse_instance({"shape": [2, 2], "t": 2, "r": 2})
    with pytest.raises(InstanceError, match="must be int"):
        jsonio.parse_instance({"shape": [2, 2], "t": "2", "r": 2, "cells": []})
    with pytest.raises(InstanceError, match="out of bounds"):
        jsonio.parse_instance({"shape": [2, 2], "t": 2, "r": 2, "cells": [[3, 1]]})
    with pytest.raises(InstanceError, match="t must be at least 2"):
        jsonio.parse_instance({"shape": [2, 2], "t": 1, "r": 2, "cells": []})
    with pytest.raises(InstanceError, match="exceeds the dimension"):
        jsonio.parse_instance({"shape": [2, 2], "t": 2, "r": 3, "cells": []})
    with pytest.raises(InstanceError, match="not valid JSON"):
        jsonio.parse_instance("{nope")


def test_edge_json_round_trip():
    e = Edge(((1, 3), (2,), (1, 2)))
    doc = jsonio.edge_to_json(e)
    assert doc == {"axes": [1, 3], "varying": {"1": [1, 3], "3": [1, 2]}, "fixed": {"2": 2}}
    assert jsonio.edge_from_json(doc, 3) == e
    with pytest.raises(InstanceError):
        jsonio.edge_from_json({"varying": {"1": [1, 2]}, "fixed": {}}, 2)
    with pytest.raises(InstanceError, match="unknown field 'note'"):
        jsonio.edge_from_json({**doc, "note": ""}, 3)
    with pytest.raises(InstanceError, match="not the varying axes"):
        jsonio.edge_from_json({**doc, "axes": [1, 2]}, 3)
    with pytest.raises(InstanceError, match="axes must be a list of integers"):
        jsonio.edge_from_json({**doc, "axes": 13}, 3)


# JSON-like values: str, int, bool, None and float leaves (NaN and the
# infinities among them) in nested lists, tuples and dicts, empty ones too.
# Lists of bools get their own branch: they must not take the plain-int path.
json_values = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats()),
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(st.text(), kids),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), kids, max_size=3),
        st.lists(st.booleans()),
        st.lists(st.integers()),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_dumps_matches_stdlib_indent_layout(obj):
    assert jsonio.dumps(obj) == json.dumps(obj, indent=2) + "\n"


def test_dumps_pinned_layouts():
    cases = [[], {}, [True, 1, False], [[]], {"a": {}}, ([1, 2], (3,)), {"k": [None, 1.5, "é"]}]
    for obj in cases:
        assert jsonio.dumps(obj) == json.dumps(obj, indent=2) + "\n"
    assert jsonio.dumps([True, 1]) == "[\n  true,\n  1\n]\n"


def test_phase_trace_json():
    shape, params = GridShape((2, 2)), Params(2, 2)
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    _, trace = full_form(a, params)
    doc = jsonio.phase_trace_to_json(trace, params)
    assert doc["phases"] == [
        [[1, 1], [1, 2], [2, 1]],
        [[1, 1], [1, 2], [2, 1], [2, 2]],
    ]
    assert jsonio.parse_trace(json.dumps(doc)) == (params, trace)


def test_step_trace_json():
    shape, params = GridShape((2, 2)), Params(2, 2)
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    trace = step_by_step(a, params)
    doc = jsonio.step_trace_to_json(trace, params)
    assert doc["steps"] == [
        {"v": [2, 2], "edge": {"axes": [1, 2], "varying": {"1": [1, 2], "2": [1, 2]}, "fixed": {}}}
    ]
    assert jsonio.parse_trace(doc) == (params, trace)


def test_parse_trace_inverts_the_trace_writers():
    rng = random.Random(4)
    for dims, t, r in (((7,), 2, 1), ((3, 4), 2, 2), ((4, 4), 3, 1), ((2, 3, 3), 2, 2),
                       ((3, 3, 2), 2, 3)):
        shape, params = GridShape(dims), Params(t, r)
        for _ in range(6):
            a = CellSet(shape, rng.getrandbits(cell_count(shape)))
            trace = full_form(a, params)[1]
            assert jsonio.parse_trace(jsonio.phase_trace_to_json(trace, params)) == (params, trace)
            for seed in (None, rng.randrange(100)):
                trace = step_by_step(a, params, seed=seed)
                doc = jsonio.dumps(jsonio.step_trace_to_json(trace, params))
                assert jsonio.parse_trace(doc) == (params, trace)


def test_search_report_json_and_csv():
    report = min_percolating_size(GridShape((3, 3)), Params(2, 2))
    doc = jsonio.search_report_to_json(report)
    assert doc["minimum"] == 5 and doc["exact"] is True
    row = jsonio.search_report_csv_row(report)
    fields = row.split(",")
    assert fields[0] == "3x3" and fields[3] == "percolate" and fields[4] == "5"
    assert fields[-1] == "true"
    assert jsonio.SEARCH_CSV_HEADER.count(",") == row.count(",")


def test_ascii_grid_seed_set_picture():
    shape, params = GridShape((5, 6)), Params(2, 2)
    art = render.ascii_grid(l_set(shape, params))
    assert art == (
        "######\n"
        "#.....\n"
        "#.....\n"
        "#.....\n"
        "#.....\n"
    )


def test_ascii_edge_highlight():
    shape = GridShape((2, 5))
    a = CellSet.from_cells(shape, [(1, 1), (1, 5), (2, 1)])
    e = Edge(((1, 2), (1, 5)))
    art = render.ascii_grid(a, edge=e)
    assert art == ("o...o\no...*\n")


def test_ascii_stages_marks_new_cells():
    shape, params = GridShape((2, 2)), Params(2, 2)
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    _, trace = full_form(a, params)
    art = render.ascii_stages(list(trace.phases))
    assert art == ("phase 0:\n##\n#.\n\nphase 1:\n##\n#*\n")


def test_ascii_step_stages_highlight_witness_edges():
    shape, params = GridShape((2, 2)), Params(2, 2)
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    trace = step_by_step(a, params)
    stages = [a, trace.terminal]
    art = render.ascii_stages(stages, edges=[trace.steps[0][1]])
    # The infected cell stays '*', its edge mates show as 'o'.
    assert art == ("step 0:\n##\n#.\n\nstep 1:\noo\no*\n")


def test_ascii_three_dimensional_panels():
    shape = GridShape((2, 2, 2))
    a = CellSet.from_cells(shape, [(1, 1, 1), (2, 2, 2)])
    art = render.ascii_grid(a)
    assert art == ("[axis1=1]\n#.\n..\n\n[axis1=2]\n..\n.#\n")


def test_render_rejects_high_dimensions():
    a = CellSet.empty(GridShape((2, 2, 2, 2)))
    with pytest.raises(render.RenderError):
        render.ascii_grid(a)
    with pytest.raises(render.RenderError):
        render.svg_grid(a)


def test_svg_is_deterministic_and_versioned():
    shape, params = GridShape((3, 3)), Params(2, 2)
    a = l_set(shape, params)
    one = render.svg_grid(a)
    two = render.svg_grid(a)
    assert one == two
    assert one.startswith("<svg ")
    assert "boxperc svg format 1" in one
    assert one.count("<rect") >= len(a)


def test_svg_golden_two_by_two():
    a = CellSet.from_cells(GridShape((2, 2)), [(1, 1)])
    golden = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="78" height="72" '
        'viewBox="0 0 78 72">\n'
        "<!-- boxperc svg format 1 -->\n"
        '<rect x="0" y="0" width="78" height="72" fill="white"/>\n'
        '<rect x="22" y="22" width="20" height="20" fill="#4a4a4a"/>\n'
        '<line x1="22" y1="22" x2="62" y2="22" stroke="#888888" stroke-width="1"/>\n'
        '<line x1="22" y1="42" x2="62" y2="42" stroke="#888888" stroke-width="1"/>\n'
        '<line x1="22" y1="62" x2="62" y2="62" stroke="#888888" stroke-width="1"/>\n'
        '<line x1="22" y1="22" x2="22" y2="62" stroke="#888888" stroke-width="1"/>\n'
        '<line x1="42" y1="22" x2="42" y2="62" stroke="#888888" stroke-width="1"/>\n'
        '<line x1="62" y1="22" x2="62" y2="62" stroke="#888888" stroke-width="1"/>\n'
        '<text x="32" y="16" font-family="monospace" font-size="10" '
        'text-anchor="middle">1</text>\n'
        '<text x="52" y="16" font-family="monospace" font-size="10" '
        'text-anchor="middle">2</text>\n'
        '<text x="16" y="35" font-family="monospace" font-size="10" '
        'text-anchor="end">1</text>\n'
        '<text x="16" y="55" font-family="monospace" font-size="10" '
        'text-anchor="end">2</text>\n'
        "</svg>\n"
    )
    assert render.svg_grid(a) == golden


@pytest.mark.parametrize(
    "doc",
    [
        {"shape": [2.7, 3], "t": 2, "r": 2, "cells": [[1, 1], [1.9, 2]]},
        {"shape": [2, 3.0], "t": 2, "r": 2, "cells": []},
        {"shape": [True, 3], "t": 2, "r": 2, "cells": []},
        {"shape": [2, 3], "t": 2.0, "r": 2, "cells": []},
        {"shape": [2, 3], "t": True, "r": 2, "cells": []},
        {"shape": [2, 3], "t": 2, "r": 2.5, "cells": []},
        {"shape": [2, 3], "t": 2, "r": 2, "cells": [[1.9, 1]]},
        {"shape": [2, 3], "t": 2, "r": 2, "cells": [[1, False]]},
        {"shape": [2, 3], "t": 2, "r": 2, "cells": [[1, "2"]]},
        {"shape": [2, 3], "t": 2, "r": 2, "cells": [5]},
    ],
)
def test_instance_rejects_non_integer_numbers(doc, capsys, monkeypatch):
    with pytest.raises(InstanceError, match="must be"):
        jsonio.parse_instance(doc)
    # The command line answers exit 2 with a diagnostic, never a result.
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc = main(["check"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == "" and "error:" in out.err


INSTANCE = {"shape": [3, 3], "t": 2, "r": 2, "cells": [[1, 1], [2, 2]]}
PHASES = {"shape": [2, 2], "t": 2, "r": 2, "phases": [[[1, 1], [1, 2], [2, 1]], [[1, 1], [1, 2], [2, 1], [2, 2]]]}
STEPS = {"shape": [2, 2], "t": 2, "r": 2, "start": [[1, 1], [1, 2], [2, 1]],
         "steps": [{"v": [2, 2], "edge": {"varying": {"1": [1, 2], "2": [1, 2]}}}]}
SQUARE = {"axes": [1, 2], "varying": {"1": [1, 2], "2": [1, 2]}, "fixed": {}}
LINE = {"shape": [2, 2], "t": 2, "r": 1, "start": [[1, 1]],
        "steps": [{"v": [2, 1], "edge": {"varying": {"1": [1, 2]}, "fixed": {"2": 1}}}]}


@pytest.mark.parametrize(
    "doc,command,message",
    [
        # A repeated cell is an error, not one cell.
        ({**INSTANCE, "cells": [[1, 1], [1, 1], [2, 2]]}, "check", r"instance: duplicate cell \[1, 1\]"),
        ({**PHASES, "phases": [[[1, 1], [1, 2], [2, 1], [1, 2]]]}, "render", r"trace: phase: duplicate cell \[1, 2\]"),
        ({**STEPS, "start": [[1, 1], [1, 2], [1, 1], [2, 1]]}, "render", r"trace: start: duplicate cell \[1, 1\]"),
        # A field the format does not define is an error, not ignored.
        ({**INSTANCE, "name": "x"}, "check", r"instance: unknown field 'name'"),
        ({**INSTANCE, "start": []}, "check", r"instance: unknown field 'start'"),
        ({**PHASES, "cells": []}, "render", r"trace: unknown field 'cells'"),
        ({**PHASES, "start": []}, "render", r"trace: unknown field 'start'"),
        ({**STEPS, "note": 1}, "render", r"trace: unknown field 'note'"),
        ({**PHASES, "steps": STEPS["steps"]}, "render", r"'phases' or 'steps', not both"),
        # Inside a step and its edge too; an edge's axes must be its varying axes.
        ({**STEPS, "steps": [{**STEPS["steps"][0], "note": 1}]}, "render",
         r"trace step: unknown field 'note'"),
        ({**STEPS, "steps": [{"v": [2, 2], "edge": {**SQUARE, "bogus": 1}}]}, "render",
         r"edge: unknown field 'bogus'"),
        ({**STEPS, "steps": [{"v": [2, 2], "edge": {**SQUARE, "axes": [7]}}]}, "render",
         r"edge: axes \[7\] are not the varying axes \[1, 2\]"),
        ({**STEPS, "steps": [{"v": [2, 2], "edge": {**SQUARE, "axes": [2, 1]}}]}, "render",
         r"edge: axes \[2, 1\] are not the varying axes \[1, 2\]"),
        ({**STEPS, "steps": [{"v": [2, 2], "note": "x",
                              "edge": {**SQUARE, "axes": [7], "bogus": 1}}]}, "render",
         r"trace step: unknown field 'note'"),
        # A repeated edge coordinate is an error, not merged away: this edge
        # is not the square {1,2}x{1,2}.
        ({**STEPS, "steps": [{"v": [2, 2], "edge": {"varying": {"1": [1, 1, 2], "2": [2, 1]}}}]},
         "render", r"edge: varying axis 1 repeats a coordinate in \[1, 1, 2\]"),
        # "01" is not axis 1, so it cannot stand beside "1" and silently win.
        ({**STEPS, "steps": [{"v": [2, 2], "edge": {"varying": {"1": [1, 3], "01": [1, 2], "2": [1, 2]}}}]},
         "render", r"edge: axis '01' is not one of 1..2 in plain decimal"),
        ({**LINE, "steps": [{"v": [2, 1], "edge": {"varying": {"1": [1, 2]}, "fixed": {"02": 1}}}]},
         "render", r"edge: axis '02' is not one of 1..2 in plain decimal"),
    ],
)
def test_documents_reject_duplicate_cells_and_unknown_fields(doc, command, message, capsys, monkeypatch):
    parse = jsonio.parse_instance if command == "check" else jsonio.parse_trace
    with pytest.raises(InstanceError, match=message):
        parse(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc = main([command])
    out = capsys.readouterr()
    assert rc == 2 and out.out == "" and re.search(message, out.err)
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_documents_without_extra_fields_still_parse():
    # The order of an edge's coordinates is free, as for cells.
    reversed_square = {"varying": {"2": [2, 1], "1": [2, 1]}}
    for doc in (PHASES, STEPS, {**STEPS, "steps": [{"v": [2, 2], "edge": SQUARE}]},
                {**STEPS, "steps": [{"v": [2, 2], "edge": reversed_square}]}, LINE):
        jsonio.parse_trace(doc)
    jsonio.parse_instance(INSTANCE)
    # A step trace may leave out its start (an empty set).
    jsonio.parse_trace({"shape": [1, 1], "t": 2, "r": 2, "steps": []})


@pytest.mark.parametrize(
    "command,text,key",
    [
        # Plain json.loads keeps the last value, which would percolate.
        ("check", '{"shape":[3,3],"t":2,"r":2,"cells":[[1,1]],"cells":[[1,1],[1,2],[2,1]]}',
         "cells"),
        # Twice the same value is rejected too.
        ("check", '{"shape":[2,2],"t":2,"t":2,"r":2,"cells":[]}', "t"),
        # In a nested edge: the last "1" would make this the square {1,2}x{1,2}.
        ("render", '{"shape":[2,2],"t":2,"r":2,"start":[[1,1],[1,2],[2,1]],"steps":[{"v":[2,2],'
         '"edge":{"varying":{"1":[1,3],"1":[1,2],"2":[1,2]}}}]}', "1"),
    ],
)
def test_documents_reject_a_repeated_key(command, text, key, capsys, monkeypatch):
    parse = jsonio.parse_instance if command == "check" else jsonio.parse_trace
    with pytest.raises(InstanceError, match="JSON object repeats the key"):
        parse(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc = main([command])
    out = capsys.readouterr()
    assert rc == 2 and out.out == "" and out.err == f"error: JSON object repeats the key {key!r}\n"


def _step_trace_doc(**overrides):
    shape, params = GridShape((3, 3)), Params(2, 2)
    a = CellSet.from_cells(shape, [(1, 1), (1, 2), (2, 1)])
    doc = jsonio.step_trace_to_json(step_by_step(a, params), params)
    doc.update(overrides)
    return doc


@pytest.mark.parametrize(
    "parse,message",
    [
        (lambda: jsonio.parse_instance("[1]"), "instance document must be a JSON object"),
        (lambda: jsonio.parse_trace("[]"), "trace document must be a JSON object"),
        (lambda: jsonio.parse_trace(_step_trace_doc(start=5)), "trace: start must be a list of cells"),
        (lambda: jsonio.edge_from_json([1, 2], 2), "edge must be a JSON object"),
        (lambda: jsonio.edge_from_json({"varying": {"1": [1, 2], "2": [1, 2]}, "fixed": {"1": 1}}, 2),
         "edge: axis 1 is both varying and fixed"),
        (lambda: jsonio.edge_from_json({"varying": {"1": [1, 2], "2": [1, 2, 3]}}, 2),
         "invalid edge: varying index sets must share one size"),
    ],
)
def test_documents_of_the_wrong_form_are_rejected(parse, message):
    with pytest.raises(InstanceError, match=re.escape(message)):
        parse()


def test_trace_rejects_params_and_edges_off_its_shape():
    jsonio.parse_trace(_step_trace_doc())
    with pytest.raises(InstanceError, match="exceeds the dimension"):
        jsonio.parse_trace(_step_trace_doc(r=3))
    doc = _step_trace_doc()
    doc["steps"][0]["edge"]["varying"]["1"] = [7, 9]
    with pytest.raises(InstanceError, match="out of bounds"):
        jsonio.parse_trace(doc)
    doc = _step_trace_doc()
    doc["steps"][0]["edge"]["fixed"] = {"3": 1}
    with pytest.raises(InstanceError, match="axis"):
        jsonio.parse_trace(doc)
    doc = _step_trace_doc(t=3)
    with pytest.raises(InstanceError, match="does not match t=3"):
        jsonio.parse_trace(doc)


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d.update(shape=[3, 3.0]),
        lambda d: d.update(t=2.0),
        lambda d: d.update(start=[[1, 1.0]]),
        lambda d: d["steps"][0].update(v=[2, True]),
        lambda d: d["steps"][0]["edge"]["varying"].update({"1": [1, 2.0]}),
        lambda d: d["steps"][0]["edge"].update(fixed={"1": 2.5}),
        lambda d: d["steps"][0]["edge"].update(fixed=[]),
        lambda d: d.update(steps=[5]),
        lambda d: d["steps"][0].pop("edge"),
    ],
)
def test_trace_rejects_malformed_steps(change):
    doc = _step_trace_doc()
    change(doc)
    with pytest.raises(InstanceError):
        jsonio.parse_trace(doc)


@pytest.mark.parametrize(
    "steps,message",
    [
        # (3,3) is not in the square {1,2}x{1,2}, and (1,1) starts infected.
        ([[3, 3], [1, 1]], r"step 1 infects \[3, 3\], which is not the one cell"),
        ([[2, 2], [1, 1]], r"step 2 infects \[1, 1\], already infected"),
        ([[2, 2], [2, 2]], r"step 2 infects \[2, 2\], already infected"),
    ],
)
def test_trace_rejects_steps_their_edges_do_not_witness(steps, message, capsys, monkeypatch):
    doc = {"shape": [3, 3], "t": 2, "r": 2, "start": [[1, 1], [1, 2], [2, 1]],
           "steps": [{"v": v, "edge": SQUARE} for v in steps]}
    with pytest.raises(InstanceError, match=message):
        jsonio.parse_trace(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc = main(["render"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == "" and "error:" in out.err


def test_trace_rejects_a_step_whose_edge_misses_two_cells():
    doc = {"shape": [3, 3], "t": 2, "r": 2, "start": [[1, 1]],
           "steps": [{"v": [2, 2], "edge": SQUARE}]}
    with pytest.raises(InstanceError, match="not the one cell"):
        jsonio.parse_trace(doc)


def test_trace_rejects_non_integer_phase_cells():
    doc = {"shape": [2, 2], "t": 2, "r": 2, "phases": [[[1, 1]], [[1, 1], [2, 1.5]]]}
    with pytest.raises(InstanceError, match="list of integers"):
        jsonio.parse_trace(doc)


START = [[1, 1], [1, 2], [2, 1]]
BLOCK = START + [[2, 2]]


@pytest.mark.parametrize(
    "phases,message",
    [
        # Phase 1 drops every start cell and adds (3,3), which no edge infects.
        ([START, [[3, 3]]], r"phase 1 is not the phase step of phase 0"),
        ([START, BLOCK + [[3, 3]]], r"phase 1 is not the phase step of phase 0"),
        ([START], r"the last phase 0 is not a fixpoint"),
        ([START, BLOCK, BLOCK], r"phase 1 is a fixpoint, but phase 2 follows it"),
        ([], r"needs at least one phase"),
    ],
)
def test_trace_rejects_phases_that_are_not_phase_steps(phases, message, capsys, monkeypatch):
    doc = {"shape": [3, 3], "t": 2, "r": 2, "phases": phases}
    with pytest.raises(InstanceError, match=message):
        jsonio.parse_trace(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc = main(["render"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == "" and "error:" in out.err
    # The phase trace of the start set itself renders.
    doc["phases"] = [START, BLOCK]
    _, trace = jsonio.parse_trace(doc)
    assert trace == full_form(trace.phases[0], Params(2, 2))[1]


# Naive reference renderer: one membership test per cell through
# CellSet.__contains__ and a set of edge vertices.


def naive_ascii_grid(a, new=None, edge=None):
    edge_cells = set(edge_vertices(edge)) if edge is not None else None

    def char(v):
        if new is not None and v in new:
            return "*"
        if edge_cells and v in edge_cells:
            return "o" if v in a else "*"
        return "#" if v in a else "."

    dims = a.shape.dims
    if a.shape.d == 1:
        return "".join(char((j,)) for j in range(1, dims[0] + 1)) + "\n"
    rows, cols = dims[-2], dims[-1]
    blocks = []
    for panel in range(1, dims[0] + 1) if a.shape.d == 3 else [None]:
        lines = [] if panel is None else [f"[axis1={panel}]"]
        for i in range(1, rows + 1):
            prefix = () if panel is None else (panel,)
            lines.append("".join(char(prefix + (i, j)) for j in range(1, cols + 1)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def naive_ascii_stages(stages, label, edges):
    out = []
    for k, stage in enumerate(stages):
        new = stage - stages[k - 1] if k > 0 else None
        edge = edges[k - 1] if edges is not None and k > 0 else None
        out.append(f"{label} {k}:\n" + naive_ascii_grid(stage, new=new, edge=edge))
    return "\n".join(out)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ascii_stages_match_per_cell_reference(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    shape = GridShape(dims)
    params = Params(data.draw(st.sampled_from((2, 3))), data.draw(st.integers(1, len(dims))))
    a = CellSet(shape, data.draw(st.integers(0, (1 << cell_count(shape)) - 1)))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 1000)))
    trace = step_by_step(a, params, seed=seed)
    stages = [a]
    for v, _ in trace.steps:
        stages.append(stages[-1].with_cells([v]))
    edges = [e for _, e in trace.steps]
    assert render.ascii_stages(stages, edges=edges) == naive_ascii_stages(stages, "step", edges)
    phases = list(full_form(a, params)[1].phases)
    assert render.ascii_stages(phases) == naive_ascii_stages(phases, "phase", None)
    # The SVG draws one rectangle per infected cell, light for the newly
    # infected ones, and one outline per highlighted edge vertex.
    svg = render.svg_stages(stages, edges=edges)
    assert svg.count(f'fill="{render.NEW_FILL}"') == len(trace.steps)
    assert svg.count(f'fill="{render.INFECTED_FILL}"') == sum(map(len, stages)) - len(trace.steps)
    assert svg.count(f'stroke="{render.EDGE_STROKE}"') == len(trace.steps) * params.t**params.r


def test_gallery_matches_tracked_svgs():
    figures = runpy.run_path(str(DEMOS / "05_figures.py"))["figures"]()
    assert sorted(figures) == sorted(p.name for p in (DEMOS / "out").glob("*.svg"))
    for name, svg in figures.items():
        assert (DEMOS / "out" / name).read_text() == svg, name
