"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py      (from the root of a boxperc checkout)

Each checker first accepts a real output of the program, then must reject
the same output with one fault planted in it. Exits 0 when every checker
behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import reference
from workloads import Oracle, Program, Shifts, Trace


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except (reference.CheckError, KeyError, TypeError, ValueError) as exc:
        print(f"     rejected: {exc}")
        return True
    return False


def oracle_cases(program, model):
    w = Oracle(0)
    w.bind(program, model)
    op = ((3, 4), 2, 2, "percolate")
    doc = json.loads(w.run(op))
    wrong_min = copy.deepcopy(doc)
    wrong_min["minimum"] -= 1
    short_witness = copy.deepcopy(doc)
    short_witness["witness"].pop()
    check = lambda d: reference.check_search(model, op, d)  # noqa: E731
    yield "oracle: real report accepted", not rejects(check, doc)
    yield "oracle: wrong minimum rejected", rejects(check, wrong_min)
    yield "oracle: witness one cell short rejected", rejects(check, short_witness)


def trace_cases(program, model):
    w = Trace(0)
    w.bind(program, model)
    shape, t, r, cells, _ = op = w.ops[0]
    steps_out, report_out = w.run(op)
    doc, _ = w.split(steps_out)
    report = json.loads(report_out)

    # Move the witness edge of the middle step off its vertex: on one varying
    # axis, swap the vertex's coordinate for a value the edge does not use.
    bad_edge = copy.deepcopy(doc)
    step = bad_edge["steps"][len(bad_edge["steps"]) // 2]
    axis = str(step["edge"]["axes"][0])
    values = step["edge"]["varying"][axis]
    coord = step["v"][int(axis) - 1]
    spare = next(c for c in range(1, shape[int(axis) - 1] + 1) if c not in values)
    step["edge"]["varying"][axis] = sorted(spare if c == coord else c for c in values)
    no_perc = dict(report, percolates=False)

    check = lambda d: reference.check_step_trace(cells, shape, t, r, d)  # noqa: E731
    yield "trace: real step trace accepted", not rejects(check, doc)
    yield "trace: witness edge missing its vertex rejected", rejects(check, bad_edge)
    check_rep = lambda d: reference.check_report(model, cells, shape, t, r, d)  # noqa: E731
    yield "trace: real check report accepted", not rejects(check_rep, report)
    yield "trace: report without percolation rejected", rejects(check_rep, no_perc)


def shifts_cases(program, model):
    w = Shifts(0)
    w.bind(program, model)
    # The first op at t = 2 whose reach chain has a step to corrupt.
    for op in w.ops:
        if op[1] == 2:
            start, normal, records, reach = w.fingerprint(w.run(op))
            if reach[1]:
                break
    shape, t, _ = op
    status, chain, explored, depth = reach
    sets, infected, removed, maximal = chain[0]
    bad_step = (sets, infected, infected, maximal)  # evicts the cell it just infected
    bad_reach = (status, (bad_step,) + chain[1:], explored, depth)
    check = lambda rc: reference.check_shifts(  # noqa: E731
        model, shape, t, start, normal, records, rc, w.MAX_STATES)
    yield "shifts: real chain accepted", not rejects(check, reach)
    yield "shifts: chain with a bad step rejected", rejects(check, bad_reach)


def main() -> int:
    program = Program(os.getcwd())
    model = reference.Model()
    ok = True
    for cases in (oracle_cases, trace_cases, shifts_cases):
        for label, passed in cases(program, model):
            print(("PASS " if passed else "FAIL ") + label)
            ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
