"""Command-line surface.

Subcommands: percolate, check, lset, mvalue, search, normalize, decompose,
reach, verify, render. Exit codes: 0 success, 1 claim failure, 2 invalid
input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from pathlib import Path

from . import engine, jsonio, render, search, transforms
from .constructions import l_set, m_formula
from .jsonio import InstanceError
from .lattice import CellSet, GridShape, Params, check_compatible
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    p = Path(path)
    if not p.exists():
        raise InstanceError(f"input file not found: {path}")
    return p.read_text()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_shape(text: str) -> GridShape:
    """Axis lengths: runs of ASCII digits separated by `,` or `x`, nothing else."""
    if not re.fullmatch(r"[0-9]+([,x][0-9]+)*", text):
        raise InstanceError(
            f"bad shape {text!r}: expected axis lengths separated by ',' or 'x', e.g. 5,6 or 2x2x3"
        )
    try:
        return GridShape(tuple(int(part) for part in re.split("[,x]", text)))
    except ValueError as exc:
        raise InstanceError(f"bad shape {text!r}: {exc}") from exc


def _instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", default="-", help="instance JSON file, or - for stdin")
    sub.add_argument("--output", default="-", help="output file, or - for stdout")


def _shape_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--shape", required=True, help="axis lengths, e.g. 5,6 or 2x2x3")
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--output", default="-", help="output file, or - for stdout")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    later call. `parse_args` fills a fresh namespace each time, so no value
    carries over from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="boxperc", description="Bootstrap percolation on box grids."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("percolate", help="run the infection process on an instance")
    _instance_args(p)
    p.add_argument("--steps", action="store_true", help="one vertex per step")
    p.add_argument("--seed", type=int, default=None, help="step choice seed")
    p.add_argument("--render", choices=["ascii", "svg"], default=None)
    p.add_argument("--render-output", default=None, help="file for the rendering")

    p = subs.add_parser("check", help="report percolation predicates for an instance")
    _instance_args(p)

    p = subs.add_parser("lset", help="emit the minimal seed set for a grid")
    _shape_args(p)
    p.add_argument("--format", choices=["json", "ascii"], default="json")

    p = subs.add_parser("mvalue", help="emit the closed-form minimum size breakdown")
    _shape_args(p)

    p = subs.add_parser("search", help="exact minimum-size search")
    _shape_args(p)
    p.add_argument("--target", choices=["percolate", "one-phase"], default="percolate")
    p.add_argument("--mode", choices=["exact"], default="exact")
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--csv", default=None, help="append a summary row to this CSV file")

    p = subs.add_parser("normalize", help="apply maximal shifts to a fixpoint")
    _instance_args(p)
    p.add_argument("--seed", type=int, default=None, help="randomize the shift order")

    p = subs.add_parser("decompose", help="row-projection decomposition of a stable set")
    _instance_args(p)

    p = subs.add_parser("reach", help="bounded breadth-first search over shift moves")
    _instance_args(p)
    p.add_argument("--goal", choices=["contains-l", "one-phase"], required=True)
    p.add_argument("--max-ops", type=int, default=64)
    p.add_argument("--max-states", type=int, default=100_000)
    p.add_argument("--maximal-only", action="store_true")

    p = subs.add_parser("verify", help="run a claim-verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--step-seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=2026, help="base seed")
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--cap-n", type=int, default=4, help="axis cap for size sweeps")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--output", default="-")

    p = subs.add_parser("render", help="draw an instance or trace")
    _instance_args(p)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")

    return parser


def _cmd_percolate(args) -> int:
    a, params = jsonio.parse_instance(_read_input(args.input))
    edges = None
    if args.steps:
        trace = engine.step_by_step(a, params, seed=args.seed)
        doc = jsonio.step_trace_to_json(trace, params)
        stages = [a]
        for v, _ in trace.steps:
            stages.append(stages[-1].with_cells([v]))
        edges = [e for _, e in trace.steps]
    else:
        _, trace = engine.full_form(a, params)
        doc = jsonio.phase_trace_to_json(trace, params)
        stages = list(trace.phases)
    _write_output(args.output, jsonio.dumps(doc))
    if args.render:
        if args.render == "ascii":
            picture = render.ascii_stages(
                stages, "step" if args.steps else "phase", edges=edges
            )
        else:
            picture = render.svg_stages(stages, edges=edges)
        _write_output(args.render_output or "-", picture)
    return EXIT_OK


def _cmd_check(args) -> int:
    a, params = jsonio.parse_instance(_read_input(args.input))
    closed, trace = engine.full_form(a, params)
    # A set covers the grid in one phase exactly when its closure is full
    # after at most one phase.
    doc = {
        "cardinality": len(a),
        "percolates": closed.is_full(),
        "one_phase": closed.is_full() and trace.f <= 1,
        "closure_cardinality": len(closed),
        "phases": trace.f,
    }
    _write_output(args.output, jsonio.dumps(doc))
    return EXIT_OK


def _cmd_lset(args) -> int:
    shape = _parse_shape(args.shape)
    params = Params(args.t, args.r)
    check_compatible(shape, params)
    seed = l_set(shape, params)
    if args.format == "ascii":
        _write_output(args.output, render.ascii_grid(seed))
    else:
        _write_output(args.output, jsonio.dumps(jsonio.instance_to_json(seed, params)))
    return EXIT_OK


def _cmd_mvalue(args) -> int:
    shape = _parse_shape(args.shape)
    params = Params(args.t, args.r)
    check_compatible(shape, params)
    terms = m_formula(shape, params)
    doc = {
        "shape": list(shape.dims),
        "t": params.t,
        "r": params.r,
        "terms_by_s": list(terms.per_order),
        "total": terms.total,
        "flagged_small_axes": terms.flagged,
    }
    _write_output(args.output, jsonio.dumps(doc))
    return EXIT_OK


def _cmd_search(args) -> int:
    shape = _parse_shape(args.shape)
    params = Params(args.t, args.r)
    check_compatible(shape, params)
    run = (
        search.min_percolating_size
        if args.target == "percolate"
        else search.min_one_phase_size
    )
    report = run(shape, params, mode=args.mode, budget=args.budget)
    _write_output(args.output, jsonio.dumps(jsonio.search_report_to_json(report)))
    if args.csv:
        path = Path(args.csv)
        lines = [] if path.exists() else [jsonio.SEARCH_CSV_HEADER]
        lines.append(jsonio.search_report_csv_row(report))
        with path.open("a") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK if report.exact else EXIT_BUDGET


def _cmd_normalize(args) -> int:
    a, params = jsonio.parse_instance(_read_input(args.input))
    stable, records = transforms.normalize_max_shifts(a, params, seed=args.seed)
    doc = {
        "records": [jsonio.shift_record_to_json(r) for r in records],
        "result": jsonio.instance_to_json(stable, params),
    }
    _write_output(args.output, jsonio.dumps(doc))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    a, _ = jsonio.parse_instance(_read_input(args.input))
    decomp = transforms.p_row_decomposition(a)
    _write_output(args.output, jsonio.dumps(jsonio.decomposition_to_json(decomp)))
    return EXIT_OK


def _cmd_reach(args) -> int:
    a, params = jsonio.parse_instance(_read_input(args.input))
    result = search.shift_reach(
        a,
        params,
        args.goal,
        max_ops=args.max_ops,
        max_states=args.max_states,
        maximal_only=args.maximal_only,
    )
    _write_output(args.output, jsonio.dumps(jsonio.reach_result_to_json(result)))
    return EXIT_BUDGET if result.status == "inconclusive" else EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        seeds=args.seeds,
        step_seeds=args.step_seeds,
        seed_base=args.seed,
        budget=args.budget,
        n_cap=args.cap_n,
    )
    text = jsonio.dumps(report.to_json()) if args.json else report.to_text()
    _write_output(args.output, text)
    return report.exit_code


def _cmd_render(args) -> int:
    raw = _read_input(args.input)
    import json as _json

    try:
        doc = _json.loads(raw)
    except _json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and ("phases" in doc or "steps" in doc):
        _, stages, kind, edges = jsonio.parse_trace(doc)
        highlight = edges if kind == "steps" else None
        if args.format == "ascii":
            out = render.ascii_stages(
                stages, "phase" if kind == "phases" else "step", edges=highlight
            )
        else:
            out = render.svg_stages(stages, edges=highlight)
    else:
        a, _ = jsonio.parse_instance(doc)
        out = render.ascii_grid(a) if args.format == "ascii" else render.svg_grid(a)
    _write_output(args.output, out)
    return EXIT_OK


_HANDLERS = {
    "percolate": _cmd_percolate,
    "check": _cmd_check,
    "lset": _cmd_lset,
    "mvalue": _cmd_mvalue,
    "search": _cmd_search,
    "normalize": _cmd_normalize,
    "decompose": _cmd_decompose,
    "reach": _cmd_reach,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        # Invalid input (InstanceError and RenderError are ValueErrors) and
        # files that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
