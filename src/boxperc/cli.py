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


def _grid(args) -> tuple[GridShape, Params]:
    """The grid and parameters of `--shape`, `--t` and `--r`."""
    shape, params = _parse_shape(args.shape), Params(args.t, args.r)
    check_compatible(shape, params)
    return shape, params


def _picture(trace: engine.PhaseTrace | engine.StepTrace, fmt: str) -> str:
    """A phase or step trace drawn in `fmt` ("ascii" or "svg"), one panel
    per stage; a step's panel marks the edge that witnessed it."""
    if isinstance(trace, engine.PhaseTrace):
        stages, edges = list(trace.phases), None
    else:
        stages, edges = [trace.start], [e for _, e in trace.steps]
        for v, _ in trace.steps:
            stages.append(stages[-1].with_cells([v]))
    draw = render.ascii_stages if fmt == "ascii" else render.svg_stages
    return draw(stages, edges)


def _instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", default="-", help="instance JSON file, or - for stdin")
    sub.add_argument("--output", default="-", help="output file, or - for stdout")


def _shape_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--shape", required=True, help="axis lengths, e.g. 5,6 or 2x2x3")
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--output", default="-", help="output file, or - for stdout")


def _percolate_args(p: argparse.ArgumentParser) -> None:
    _instance_args(p)
    p.add_argument("--steps", action="store_true", help="one vertex per step")
    p.add_argument("--seed", type=int, default=None, help="step choice seed")
    p.add_argument("--render", choices=["ascii", "svg"], default=None)
    p.add_argument("--render-output", default=None, help="file for the rendering")


def _lset_args(p: argparse.ArgumentParser) -> None:
    _shape_args(p)
    p.add_argument("--format", choices=["json", "ascii"], default="json")


def _search_args(p: argparse.ArgumentParser) -> None:
    _shape_args(p)
    p.add_argument("--target", choices=["percolate", "one-phase"], default="percolate")
    # "exact" is the one mode; the option stays so `--mode exact` still parses.
    p.add_argument("--mode", choices=["exact"], default="exact")
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--csv", default=None, help="append a summary row to this CSV file")


def _normalize_args(p: argparse.ArgumentParser) -> None:
    _instance_args(p)
    p.add_argument("--seed", type=int, default=None, help="randomize the shift order")


def _reach_args(p: argparse.ArgumentParser) -> None:
    _instance_args(p)
    p.add_argument("--goal", choices=["contains-l", "one-phase"], required=True)
    p.add_argument("--max-ops", type=int, default=64)
    p.add_argument("--max-states", type=int, default=100_000)
    p.add_argument("--maximal-only", action="store_true")


def _verify_args(p: argparse.ArgumentParser) -> None:
    # verify is imported only where its command is built or run, so that
    # the other commands do not pay for it.
    from .verify import SUITE_DEFAULTS, SUITES

    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    d = SUITE_DEFAULTS
    p.add_argument("--seeds", type=int, default=d["seeds"])
    p.add_argument("--step-seeds", type=int, default=d["step_seeds"])
    p.add_argument("--seed", type=int, default=d["seed_base"], help="base seed")
    p.add_argument("--budget", type=int, default=d["budget"])
    p.add_argument("--cap-n", type=int, default=d["n_cap"], help="axis cap for size sweeps")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--output", default="-")


def _render_args(p: argparse.ArgumentParser) -> None:
    _instance_args(p)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")


@cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, built once per process and command and
    shared by every later call. `parse_args` fills a fresh namespace each
    time, so no value carries over from one call to the next.

    With a command name, only that command's subparser is built: a CLI call
    runs one command, and building all of them costs more than most calls.
    Its metavar keeps the top-level usage listing every command. With None
    (help, or no known command), every subparser is built, and argparse's
    own metavar keeps its error text ("argument command: invalid choice").
    """
    parser = argparse.ArgumentParser(
        prog="boxperc", description="Bootstrap percolation on box grids."
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, add_args, _ = _COMMANDS[name]
        add_args(subs.add_parser(name, help=help_text))
    return parser


def _cmd_percolate(args) -> int:
    if args.seed is not None and not args.steps:
        raise ValueError("--seed picks the step order; it needs --steps")
    if args.render_output is not None and not args.render:
        raise ValueError("--render-output names the rendering's file; it needs --render")
    a, params = jsonio.parse_instance(_read_input(args.input))
    if args.steps:
        trace = engine.step_by_step(a, params, seed=args.seed)
        doc = jsonio.step_trace_to_json(trace, params)
    else:
        _, trace = engine.full_form(a, params)
        doc = jsonio.phase_trace_to_json(trace, params)
    text = jsonio.dumps(doc)
    # The picture is drawn before anything is written, so a grid it cannot
    # draw leaves no output behind.
    picture = _picture(trace, args.render) if args.render else None
    _write_output(args.output, text)
    if picture is not None:
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
    shape, params = _grid(args)
    seed = l_set(shape, params)
    if args.format == "ascii":
        _write_output(args.output, render.ascii_grid(seed))
    else:
        _write_output(args.output, jsonio.dumps(jsonio.instance_to_json(seed, params)))
    return EXIT_OK


def _cmd_mvalue(args) -> int:
    shape, params = _grid(args)
    terms = m_formula(shape, params)
    doc = {
        **jsonio.header(shape, params),
        "terms_by_s": list(terms.per_order),
        "total": terms.total,
        "flagged_small_axes": terms.flagged,
    }
    _write_output(args.output, jsonio.dumps(doc))
    return EXIT_OK


def _cmd_search(args) -> int:
    shape, params = _grid(args)
    run = (
        search.min_percolating_size
        if args.target == "percolate"
        else search.min_one_phase_size
    )
    report = run(shape, params, budget=args.budget)
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
    from .verify import run_suite

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
    doc = jsonio.loads(_read_input(args.input))
    if isinstance(doc, dict) and ("phases" in doc or "steps" in doc):
        out = _picture(jsonio.parse_trace(doc)[1], args.format)
    else:
        a, _ = jsonio.parse_instance(doc)
        out = render.ascii_grid(a) if args.format == "ascii" else render.svg_grid(a)
    _write_output(args.output, out)
    return EXIT_OK


# name -> (help, argument adder, handler), in the order the help lists them.
_COMMANDS = {
    "percolate": ("run the infection process on an instance", _percolate_args, _cmd_percolate),
    "check": ("report percolation predicates for an instance", _instance_args, _cmd_check),
    "lset": ("emit the minimal seed set for a grid", _lset_args, _cmd_lset),
    "mvalue": ("emit the closed-form minimum size breakdown", _shape_args, _cmd_mvalue),
    "search": ("exact minimum-size search", _search_args, _cmd_search),
    "normalize": ("apply maximal shifts to a fixpoint", _normalize_args, _cmd_normalize),
    "decompose": ("row-projection decomposition of a stable set", _instance_args, _cmd_decompose),
    "reach": ("bounded breadth-first search over shift moves", _reach_args, _cmd_reach),
    "verify": ("run a claim-verification suite", _verify_args, _cmd_verify),
    "render": ("draw an instance or trace", _render_args, _cmd_render),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        # Invalid input (InstanceError and RenderError are ValueErrors) and
        # files that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
