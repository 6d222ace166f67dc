"""JSON wire formats: instances, edges, traces, search and verify reports.

An instance file is {"shape": [n1, ..., nd], "t": T, "r": R,
"cells": [[c1, ..., cd], ...]} with 1-based coordinates. Parsing validates
every structural invariant and raises InstanceError with a diagnostic; a
top-level field the format does not define and a cell listed twice are
rejected too.

Trace files carry the declared "phases" / "steps" payloads plus the
instance header fields (shape, t, r) so they can be rendered standalone.
A JSON object that repeats a key is rejected wherever it appears.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .engine import PhaseTrace, StepTrace, phase_step
from .lattice import (
    CellSet,
    Edge,
    GridShape,
    Params,
    check_compatible,
    edge_mask,
    linear_index,
    validate_edge,
)
from .search import ReachResult, SearchReport
from .transforms import PRowDecomposition, ShiftRecord


class InstanceError(ValueError):
    """Raised when an instance or trace document fails validation."""


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise InstanceError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise InstanceError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _coords(value, what: str) -> tuple[int, ...]:
    """A JSON array of integers, taken exactly; floats and booleans are rejected."""
    if not isinstance(value, list) or not all(_is_int(c) for c in value):
        got = json.dumps(value, default=repr)
        raise InstanceError(f"{what} must be a list of integers, got {got}")
    return tuple(value)


def _cells(value, what: str) -> list[tuple[int, ...]]:
    """A JSON array of distinct cells; a repeated cell is rejected, not merged."""
    if not isinstance(value, list):
        raise InstanceError(f"{what} must be a list of cells")
    cells = [_coords(cell, f"{what}: cell") for cell in value]
    seen: set[tuple[int, ...]] = set()
    for cell in cells:
        if cell in seen:
            raise InstanceError(f"{what}: duplicate cell {list(cell)}")
        seen.add(cell)
    return cells


def _only(doc: dict, fields: tuple[str, ...], where: str) -> None:
    """Reject fields the format does not define."""
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise InstanceError(f"{where}: unknown field {unknown[0]!r}; expected {', '.join(fields)}")


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A decoded JSON object whose keys are all distinct."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
        raise InstanceError(f"JSON object repeats the key {key!r}")
    return obj


def loads(text: str) -> Any:
    """Decode a JSON document; text that is not JSON, or that repeats a key
    within one object, is an InstanceError."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc


def header(shape: GridShape, params: Params) -> dict:
    """The {"shape", "t", "r"} fields that open every document about a grid."""
    return {"shape": list(shape.dims), "t": params.t, "r": params.r}


def _grid(doc: dict, where: str) -> tuple[GridShape, Params]:
    """The grid and parameters a document states in its shape, t and r."""
    dims = _coords(_require(doc, "shape", list, where), f"{where}: shape")
    t, r = (_require(doc, key, int, where) for key in ("t", "r"))
    try:
        shape, params = GridShape(dims), Params(t, r)
        check_compatible(shape, params)
    except (ValueError, TypeError) as exc:
        raise InstanceError(f"invalid {where}: {exc}") from exc
    return shape, params


def parse_instance(doc: str | dict) -> tuple[CellSet, Params]:
    """Parse and validate an instance document (JSON text or dict)."""
    if isinstance(doc, str):
        doc = loads(doc)
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    _only(doc, ("shape", "t", "r", "cells"), "instance")
    shape, params = _grid(doc, "instance")
    cells = _cells(_require(doc, "cells", list, "instance"), "instance")
    try:
        return CellSet.from_cells(shape, cells), params
    except (ValueError, TypeError) as exc:
        raise InstanceError(f"invalid instance: {exc}") from exc


def instance_to_json(a: CellSet, params: Params) -> dict:
    return {**header(a.shape, params), "cells": [list(v) for v in a.cells()]}


def edge_to_json(edge: Edge) -> dict:
    # One pass over the index sets fills all three fields.
    axes: list[int] = []
    varying: dict[str, list[int]] = {}
    fixed: dict[str, int] = {}
    for i, s in enumerate(edge.sets, 1):
        if len(s) > 1:
            axes.append(i)
            varying[str(i)] = list(s)
        else:
            fixed[str(i)] = s[0]
    return {"axes": axes, "varying": varying, "fixed": fixed}


def _axis(key: str, d: int) -> int:
    """An axis key, written exactly as the encoder writes it: "1", not "01"."""
    if key not in map(str, range(1, d + 1)):
        raise InstanceError(f"edge: axis {key!r} is not one of 1..{d} in plain decimal")
    return int(key)


def _tset(value, key: str) -> tuple[int, ...]:
    """A varying axis's index set, in any order; a repeated coordinate is
    rejected, not merged."""
    coords = _coords(value, f"edge: varying axis {key}")
    if len(set(coords)) != len(coords):
        raise InstanceError(f"edge: varying axis {key} repeats a coordinate in {list(coords)}")
    return coords


def edge_from_json(obj: dict, d: int) -> Edge:
    if not isinstance(obj, dict):
        raise InstanceError("edge must be a JSON object")
    _only(obj, ("axes", "varying", "fixed"), "edge")
    varying = {_axis(k, d): _tset(v, k) for k, v in _require(obj, "varying", dict, "edge").items()}
    # `axes` is redundant; when present it must agree with `varying`.
    if "axes" in obj and _coords(obj["axes"], "edge: axes") != tuple(sorted(varying)):
        raise InstanceError(
            f"edge: axes {obj['axes']} are not the varying axes {sorted(varying)}"
        )
    fixed_doc = obj.get("fixed", {})
    if not isinstance(fixed_doc, dict):
        raise InstanceError("edge: field 'fixed' must be dict")
    fixed = {}
    for k, v in fixed_doc.items():
        if not _is_int(v):
            got = json.dumps(v, default=repr)
            raise InstanceError(f"edge: fixed axis {k} must be an integer, got {got}")
        fixed[_axis(k, d)] = v
    sets = []
    for axis in range(1, d + 1):
        if axis in varying and axis in fixed:
            raise InstanceError(f"edge: axis {axis} is both varying and fixed")
        if axis in varying:
            sets.append(varying[axis])
        elif axis in fixed:
            sets.append((fixed[axis],))
        else:
            raise InstanceError(f"edge: axis {axis} neither varying nor fixed")
    try:
        return Edge(tuple(sets))
    except ValueError as exc:
        raise InstanceError(f"invalid edge: {exc}") from exc


def phase_trace_to_json(trace: PhaseTrace, params: Params) -> dict:
    return {
        **header(trace.phases[0].shape, params),
        "phases": [[list(v) for v in a.cells()] for a in trace.phases],
    }


def step_trace_to_json(trace: StepTrace, params: Params) -> dict:
    return {
        **header(trace.start.shape, params),
        "start": [list(v) for v in trace.start.cells()],
        "steps": [
            {"v": list(v), "edge": edge_to_json(e)} for v, e in trace.steps
        ],
    }


def shift_record_to_json(rec: ShiftRecord) -> dict:
    return {
        "edge": edge_to_json(rec.edge),
        "infected": list(rec.infected),
        "removed": list(rec.removed),
        "maximal": rec.maximal,
    }


def decomposition_to_json(d: PRowDecomposition) -> dict:
    return {
        "classes": [list(c) for c in d.classes],
        "representatives": [list(r) for r in d.representatives],
        "representative_rows": list(d.rep_rows),
    }


def search_report_to_json(report: SearchReport) -> dict:
    return {
        **header(report.shape, report.params),
        "target": report.target,
        "minimum": report.minimum,
        "witness": None
        if report.witness is None
        else [list(v) for v in report.witness.cells()],
        "examined_per_size": {str(k): v for k, v in report.examined.items()},
        "examined": report.examined_total,
        "checks": report.checks,
        "duration_ms": report.duration_ms,
        "exact": report.exact,
        "budget": report.budget,
        "refuted_below": report.refuted_below,
    }


def search_report_csv_row(report: SearchReport) -> str:
    shape = "x".join(str(n) for n in report.shape.dims)
    return ",".join(
        str(x)
        for x in (
            shape,
            report.params.t,
            report.params.r,
            report.target,
            "" if report.minimum is None else report.minimum,
            report.examined_total,
            report.duration_ms,
            str(report.exact).lower(),
        )
    )


SEARCH_CSV_HEADER = "shape,t,r,target,minimum,examined,duration_ms,exact"


def reach_result_to_json(result: ReachResult) -> dict:
    return {
        "status": result.status,
        "records": None
        if result.records is None
        else [shift_record_to_json(r) for r in result.records],
        "states_explored": result.states_explored,
        "depth_reached": result.depth_reached,
    }


def parse_trace(doc: str | dict) -> tuple[Params, PhaseTrace | StepTrace]:
    """Parse a phases or steps trace document into the trace it records.

    Returns (params, trace): a PhaseTrace for a "phases" document and a
    StepTrace for a "steps" one, the objects that `engine.full_form` and
    `engine.step_by_step` return, so that `parse_trace(writer(trace,
    params)) == (params, trace)`. Both kinds are replayed: each phase must
    be the phase step of the one before and the last a fixpoint; each step
    must infect the one cell of its edge missing from the stage before it.
    """
    if isinstance(doc, str):
        doc = loads(doc)
    if not isinstance(doc, dict):
        raise InstanceError("trace document must be a JSON object")
    if "phases" in doc and "steps" in doc:
        raise InstanceError("trace: a trace has 'phases' or 'steps', not both")
    if "phases" in doc:
        _only(doc, ("shape", "t", "r", "phases"), "trace")
    elif "steps" in doc:
        _only(doc, ("shape", "t", "r", "start", "steps"), "trace")
    shape, params = _grid(doc, "trace")
    try:
        if "phases" in doc:
            stages = [CellSet.from_cells(shape, _cells(cells, "trace: phase"))
                      for cells in _require(doc, "phases", list, "trace")]
            if not stages:
                raise InstanceError("trace: a phases trace needs at least one phase")
            # Phases grow by phase steps up to the fixpoint, which ends the trace.
            for i, stage in enumerate(stages):
                step = phase_step(stage, params)
                if i + 1 == len(stages):
                    if step != stage:
                        raise InstanceError(f"trace: the last phase {i} is not a fixpoint")
                elif step == stage:
                    raise InstanceError(
                        f"trace: phase {i} is a fixpoint, but phase {i + 1} follows it"
                    )
                elif step != stages[i + 1]:
                    raise InstanceError(f"trace: phase {i + 1} is not the phase step of phase {i}")
            return params, PhaseTrace(tuple(stages))
        if "steps" in doc:
            start = CellSet.from_cells(shape, _cells(doc.get("start", []), "trace: start"))
            infected = start.bits
            steps = []
            for i, step in enumerate(_require(doc, "steps", list, "trace"), start=1):
                if not isinstance(step, dict):
                    raise InstanceError("trace: each step must be a JSON object")
                _only(step, ("v", "edge"), "trace step")
                v = _coords(_require(step, "v", list, "trace step"), "trace: step v")
                edge = edge_from_json(_require(step, "edge", dict, "trace step"), shape.d)
                validate_edge(edge, shape, params)
                vbit = 1 << linear_index(shape, v)
                if infected & vbit:
                    raise InstanceError(f"trace: step {i} infects {list(v)}, already infected")
                if edge_mask(edge, shape) & ~infected != vbit:
                    raise InstanceError(
                        f"trace: step {i} infects {list(v)}, which is not the one "
                        f"cell of its edge missing from the stage before it"
                    )
                infected |= vbit
                steps.append((v, edge))
            return params, StepTrace(start, tuple(steps))
    except InstanceError:
        raise
    except (ValueError, TypeError) as exc:
        raise InstanceError(f"invalid trace: {exc}") from exc
    raise InstanceError("trace document needs a 'phases' or 'steps' field")


def dumps(obj: Any) -> str:
    """Stable JSON encoding used by the command line: exactly
    `json.dumps(obj, indent=2) + "\n"`, written directly.

    Dicts with string keys, lists and tuples, strings, ints, booleans and
    None are laid out here, one join per container; a list of plain ints
    (not booleans, which are ints too) is joined from one `map`. Any other
    value, a float or a dict with a non-string key among them, goes to
    `json.dumps` and is indented to its depth.
    """
    return _encode(obj, "\n") + "\n"


_CONSTANTS = {None: "null", True: "true", False: "false"}
_all_int = frozenset({int}).issuperset
_all_str = frozenset({str}).issuperset


def _encode(obj: Any, newline: str) -> str:
    """`obj` in the indent=2 layout; `newline` is a line break followed by
    the indentation of the line that holds `obj`."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return _CONSTANTS[obj]
    inner = newline + "  "
    sep = "," + inner
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if _all_int(map(type, obj)):
            return f"[{inner}{sep.join(map(int.__repr__, obj))}{newline}]"
        return f"[{inner}{sep.join([_encode(x, inner) for x in obj])}{newline}]"
    if kind is dict and _all_str(map(type, obj)):
        if not obj:
            return "{}"
        body = sep.join([
            f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in obj.items()
        ])
        return f"{{{inner}{body}{newline}}}"
    return json.dumps(obj, indent=2).replace("\n", newline)
