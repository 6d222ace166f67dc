"""The traced run: per-layer self time and counts on all three op lists.

Every per-layer metric is measured on the workload that exercises its
layer, so a traced run goes through the oracle, trace and shifts op lists
in turn, each for a third of the run. Times and counts are totals over
one pass of an op list (the median over the passes run), except the `_us`
metrics, which are per call. `<workload>.traced_op_p50_s` is the traced
op median; set against the untraced `op_p50_s` it gives the overhead of
tracing.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from itertools import islice

import harness
import reference
from workloads import Oracle, Shifts, Trace

PROBE_REPEATS = 3
PROBE_SETS = 64


def _per_pass(tracer, workload: str, *names: str, self_time: bool = False) -> float:
    """Median over passes of the summed duration (or self time) of spans named `names`."""
    values = [
        sum((own if self_time else dur).get(n, 0.0) for n in names)
        for dur, own in tracer.by_pass(workload).values()
    ]
    return statistics.median(values)


class Counts:
    """Counts per pass, which must repeat exactly from pass to pass."""

    def __init__(self) -> None:
        self.by_pass: dict[int, dict[str, int]] = {}

    def add(self, pass_no: int, **counts: int) -> None:
        row = self.by_pass.setdefault(pass_no, {})
        for k, v in counts.items():
            row[k] = row.get(k, 0) + v

    def per_pass(self, stats) -> dict[str, int]:
        rows = [self.by_pass[p] for p in range(stats.passes)]
        if any(row != rows[0] for row in rows):
            stats.reject("per-pass counts differ between passes")
        return rows[0]


def _median_time(fn) -> float:
    """Median wall time of PROBE_REPEATS calls of fn()."""
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def oracle_layers(program, model, seed: int, seconds: float, tracer):
    w = Oracle(seed)
    w.bind(program, model)
    for module, attr, name in (
        (program.cli, "main", "cli.main"),
        (program.search, "min_percolating_size", "search.min_size"),
        (program.search, "min_one_phase_size", "search.min_size"),
        (program.jsonio, "search_report_to_json", "jsonio.encode"),
        (program.jsonio, "dumps", "jsonio.encode"),
    ):
        tracer.wrap(module, attr, name)
    counts = Counts()
    per_size = {}

    def on_op(pass_no, index, op, out):
        doc = json.loads(out)
        counts.add(pass_no, examined=doc["examined"], checks=doc["checks"])
        per_size[index] = doc["examined_per_size"]

    stats = harness.run_passes(w, seconds, min_ops=1, on_op=on_op, tracer=tracer)
    tracer.unwrap_all()
    c = counts.per_pass(stats)

    # Enumeration alone, over the same candidates the searches examined.
    colex = program.search.colex_combinations

    def enumerate_pass():
        for index, (shape, _, _, _) in enumerate(w.ops):
            n = math.prod(shape)
            for k, cnt in per_size[index].items():
                for _ in islice(colex(n, int(k)), cnt):
                    pass

    enumerate_s = _median_time(enumerate_pass)

    # Predicate calls on seeded random sets of the closed-form size, per grid.
    rng = random.Random(seed)
    calls = []
    for shape, t, r in sorted({op[:3] for op in w.ops}):
        cells = reference.all_cells(shape)
        size = reference.closed_form_minimum(shape, t, r)
        params = program.pkg.Params(t, r)
        grid = program.pkg.GridShape(shape)
        for _ in range(PROBE_SETS):
            calls.append((program.pkg.CellSet.from_cells(grid, rng.sample(cells, size)), params))
    perc = _median_time(lambda: [program.engine.percolates(a, params) for a, params in calls])
    phase = _median_time(lambda: [program.engine.one_phase(a, params) for a, params in calls])

    metrics = {
        "search.examined": (c["examined"], "count"),
        "search.checks": (c["checks"], "count"),
        "search.checks_per_examined": (c["checks"] / c["examined"], "ratio"),
        "search.enumerate_s": (enumerate_s, "s"),
        "search.min_size_s": (_per_pass(tracer, w.name, "search.min_size"), "s"),
        "engine.percolates_us": (perc / len(calls) * 1e6, "us"),
        "engine.one_phase_us": (phase / len(calls) * 1e6, "us"),
        "oracle.traced_op_p50_s": (stats.p50(), "s"),
    }
    return metrics, stats


def trace_layers(program, model, seed: int, seconds: float, tracer):
    w = Trace(seed)
    w.bind(program, model)
    counts = Counts()
    edges = {}

    def before(op):
        tracer.unwrap_all()  # let the previous import's modules go
        w.before(op)
        for module, attr, name in (
            (program.cli, "main", "cli.main"),
            (program.jsonio, "parse_instance", "jsonio.parse"),
            (program.jsonio, "step_trace_to_json", "jsonio.encode"),
            (program.jsonio, "dumps", "jsonio.encode"),
            (program.engine, "step_by_step", "engine.step_by_step"),
            (program.engine, "full_form", "engine.full_form"),
            (program.engine, "percolates", "engine.predicates"),
            (program.engine, "one_phase", "engine.predicates"),
            (program.render, "ascii_stages", "render.ascii"),
        ):
            tracer.wrap(module, attr, name)

    def run(op):
        shape, t, r = op[:3]
        # The first all_edges call on a fresh import builds the edge table,
        # which the CLI call below then finds ready.
        with tracer.span("engine.all_edges"):
            edges[tracer.op] = len(program.engine.all_edges(program.pkg.GridShape(shape), program.pkg.Params(t, r)))
        return w.run(op)

    def on_op(pass_no, index, op, out):
        doc, picture = w.split(out[0])
        report = json.loads(out[1])
        json_bytes = len(out[0].encode()) - len(picture.encode()) + len(out[1].encode())
        counts.add(
            pass_no, edges=edges[(w.name, pass_no, index)], steps=len(doc["steps"]),
            phases=report["phases"], json_bytes=json_bytes, picture_bytes=len(picture.encode()),
        )

    stats = harness.run_passes(w, seconds, min_ops=1, before=before, run=run, on_op=on_op, tracer=tracer)
    tracer.unwrap_all()
    c = counts.per_pass(stats)

    def per_pass(*names, self_time=False):
        return _per_pass(tracer, w.name, *names, self_time=self_time)

    metrics = {
        "engine.edge_table_s": (per_pass("engine.all_edges"), "s"),
        "engine.edges": (c["edges"], "count"),
        "engine.step_by_step_s": (per_pass("engine.step_by_step"), "s"),
        "engine.steps": (c["steps"], "count"),
        "engine.full_form_s": (per_pass("engine.full_form"), "s"),
        "engine.phases": (c["phases"], "count"),
        "engine.predicates_s": (per_pass("engine.predicates"), "s"),
        "jsonio.parse_s": (per_pass("jsonio.parse"), "s"),
        "jsonio.encode_s": (per_pass("jsonio.encode"), "s"),
        "jsonio.out_bytes": (c["json_bytes"], "bytes"),
        "render.ascii_s": (per_pass("render.ascii"), "s"),
        "render.out_bytes": (c["picture_bytes"], "bytes"),
        "cli.self_s": (per_pass("cli.main", self_time=True), "s"),
        "trace.traced_op_p50_s": (stats.p50(), "s"),
    }
    return metrics, stats


def shifts_layers(program, model, seed: int, seconds: float, tracer):
    w = Shifts(seed)
    w.bind(program, model)
    for module, attr, name in (
        (program.search, "random_percolating_set", "search.sampler"),
        (program.transforms, "normalize_max_shifts", "transforms.normalize"),
        (program.search, "shift_reach", "search.reach"),
    ):
        tracer.wrap(module, attr, name)
    counts = Counts()

    def on_op(pass_no, index, op, out):
        _, _, records, reach = out
        counts.add(pass_no, shifts=len(records), states=reach.states_explored)

    stats = harness.run_passes(w, seconds, min_ops=1, on_op=on_op, tracer=tracer)
    tracer.unwrap_all()
    c = counts.per_pass(stats)
    reach_s = _per_pass(tracer, w.name, "search.reach")
    metrics = {
        "search.sampler_s": (_per_pass(tracer, w.name, "search.sampler"), "s"),
        "transforms.normalize_s": (_per_pass(tracer, w.name, "transforms.normalize"), "s"),
        "transforms.shifts_applied": (c["shifts"], "count"),
        "search.reach_s": (reach_s, "s"),
        "search.reach_states": (c["states"], "count"),
        "search.reach_states_per_s": (c["states"] / reach_s, "1/s"),
        "shifts.traced_op_p50_s": (stats.p50(), "s"),
    }
    return metrics, stats


LAYERS = (oracle_layers, trace_layers, shifts_layers)
