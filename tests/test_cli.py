import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from boxperc import cli, jsonio, search
from boxperc.cli import _parse_shape, main
from boxperc.engine import one_phase, percolates
from boxperc.jsonio import InstanceError
from boxperc.lattice import CellSet, GridShape, Params, cell_count


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_instance(tmp_path, name="inst.json", **overrides):
    doc = {"shape": [2, 2], "t": 2, "r": 2, "cells": [[1, 1], [1, 2], [2, 1]]}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_percolate_phases(tmp_path, capsys):
    path = write_instance(tmp_path)
    rc, out, _ = run(capsys, "percolate", "--input", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["phases"][-1] == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_percolate_steps_with_render(tmp_path, capsys):
    path = write_instance(tmp_path)
    out_file = tmp_path / "trace.json"
    art_file = tmp_path / "steps.txt"
    rc, _, _ = run(
        capsys,
        "percolate", "--input", str(path), "--steps", "--seed", "3",
        "--output", str(out_file), "--render", "ascii",
        "--render-output", str(art_file),
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["steps"][0]["v"] == [2, 2]
    assert "step 1:" in art_file.read_text()


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
@pytest.mark.parametrize("steps", [[], ["--steps"]])
def test_percolate_render_of_4d_grid_writes_nothing(tmp_path, capsys, fmt, steps):
    path = write_instance(tmp_path, shape=[2, 2, 2, 2], cells=[[1, 1, 1, 1]])
    out_file = tmp_path / "trace.json"
    rc, out, err = run(
        capsys, "percolate", "--input", str(path), *steps, "--render", fmt,
        "--output", str(out_file),
    )
    assert (rc, out) == (2, "")
    assert "at most 3 dimensions" in err
    assert not out_file.exists()
    rc, out, _ = run(capsys, "percolate", "--input", str(path), *steps, "--render", fmt)
    assert (rc, out) == (2, "")

def test_check(tmp_path, capsys):
    path = write_instance(tmp_path)
    rc, out, _ = run(capsys, "check", "--input", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "cardinality": 3,
        "percolates": True,
        "one_phase": True,
        "closure_cardinality": 4,
        "phases": 1,
    }


def test_check_flags_agree_with_the_predicates(tmp_path, capsys):
    # check reads both flags off one closure; they must equal the predicates.
    rng = random.Random(53)
    for dims, t, r in (((3, 4), 2, 2), ((3, 3, 2), 2, 2), ((4, 4), 3, 2), ((2, 2, 3), 2, 3)):
        shape, params = GridShape(dims), Params(t, r)
        for _ in range(15):
            a = CellSet(shape, rng.getrandbits(cell_count(shape)) | rng.getrandbits(cell_count(shape)))
            path = write_instance(tmp_path, **jsonio.instance_to_json(a, params))
            rc, out, _ = run(capsys, "check", "--input", str(path))
            doc = json.loads(out)
            assert rc == 0
            assert doc["percolates"] == percolates(a, params)
            assert doc["one_phase"] == one_phase(a, params)


def test_lset_formats(capsys):
    rc, out, _ = run(capsys, "lset", "--shape", "5,6", "--t", "2", "--r", "2")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 10
    rc, out, _ = run(
        capsys, "lset", "--shape", "5,6", "--t", "2", "--r", "2", "--format", "ascii"
    )
    assert rc == 0
    assert out.splitlines()[0] == "######"


def test_mvalue(capsys):
    rc, out, _ = run(capsys, "mvalue", "--shape", "5,5", "--t", "3", "--r", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["total"] == 16 and doc["terms_by_s"] == [4, 12]


def test_search_with_csv(tmp_path, capsys):
    csv = tmp_path / "runs.csv"
    rc, out, _ = run(
        capsys, "search", "--shape", "3,3", "--t", "2", "--r", "2",
        "--csv", str(csv),
    )
    assert rc == 0
    assert json.loads(out)["minimum"] == 5
    rc, _, _ = run(
        capsys, "search", "--shape", "2,3", "--t", "2", "--r", "2",
        "--csv", str(csv),
    )
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "shape,t,r,target,minimum,examined,duration_ms,exact"
    assert lines[1].startswith("3x3,2,2,percolate,5,")
    assert lines[2].startswith("2x3,2,2,percolate,4,")


def test_search_budget_exit_code(capsys):
    rc, out, _ = run(
        capsys, "search", "--shape", "4,4", "--t", "2", "--r", "2",
        "--budget", "10",
    )
    assert rc == 3
    assert json.loads(out)["exact"] is False
    # A zero budget checks nothing: the search stops at the first candidate
    # the empty-slice prune lets through.
    rc, out, _ = run(
        capsys, "search", "--shape", "3,3", "--t", "2", "--r", "2", "--budget", "0",
    )
    doc = json.loads(out)
    assert rc == 3 and doc["checks"] == 0 and doc["refuted_below"] == 3
    assert doc["examined_per_size"] == {"0": 1, "1": 9, "2": 36, "3": 29}


def test_search_rejects_negative_budget_and_unknown_mode(capsys):
    rc, out, err = run(
        capsys, "search", "--shape", "3,3", "--t", "2", "--r", "2", "--budget", "-5",
    )
    assert rc == 2 and out == "" and "budget must be nonnegative" in err
    with pytest.raises(SystemExit) as exc:
        main(["search", "--shape", "3,3", "--t", "2", "--r", "2", "--mode", "dedup"])
    assert exc.value.code == 2
    assert "invalid choice: 'dedup'" in capsys.readouterr().err


def test_budgeted_search_on_a_large_grid_returns_its_flagged_report(capsys):
    # Layer 1 of the 40x40 grid has 1600 cells. Its columns, and with
    # BLOCK = 1 its split into blocks, are built without recursing per cell.
    for block in (search.BLOCK, 1):
        with mock.patch.object(search, "BLOCK", block):
            rc, out, err = run(
                capsys, "search", "--shape", "40,40", "--t", "2", "--r", "1", "--budget", "1",
            )
        doc = json.loads(out)
        assert rc == 3 and err == ""
        assert doc["exact"] is False and doc["minimum"] is None and doc["checks"] == 1
        assert doc["examined_per_size"] == {"0": 1, "1": 1} and doc["refuted_below"] == 1


def test_search_one_phase_target(capsys):
    rc, out, _ = run(
        capsys, "search", "--shape", "3,3", "--t", "3", "--r", "2",
        "--target", "one-phase",
    )
    assert rc == 0
    assert json.loads(out)["minimum"] == 8


def test_normalize(tmp_path, capsys):
    path = write_instance(
        tmp_path,
        shape=[3, 3],
        cells=[[1, 3], [2, 2], [2, 3], [3, 1], [3, 2]],
    )
    rc, out, _ = run(capsys, "normalize", "--input", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert all(rec["maximal"] for rec in doc["records"])
    result_cells = {tuple(c) for c in doc["result"]["cells"]}
    assert len(result_cells) == 5


def test_decompose_and_invalid_input(tmp_path, capsys):
    path = write_instance(tmp_path, shape=[2, 2], cells=[[1, 1], [1, 2], [2, 1]])
    rc, out, _ = run(capsys, "decompose", "--input", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["classes"] == [[1, 2]]
    assert doc["representatives"] == [[1, 2]]
    # A violating instance is invalid input for this command.
    bad = write_instance(
        tmp_path, name="bad.json", shape=[2, 3],
        cells=[[1, 1], [1, 2], [2, 2], [2, 3]],
    )
    rc, _, err = run(capsys, "decompose", "--input", str(bad))
    assert rc == 2
    assert "row 2" in err


def test_reach(tmp_path, capsys):
    path = write_instance(
        tmp_path, shape=[3, 3],
        cells=[[1, 3], [2, 2], [2, 3], [3, 1], [3, 2]],
    )
    rc, out, _ = run(
        capsys, "reach", "--input", str(path), "--goal", "contains-l",
        "--maximal-only",
    )
    assert rc == 0
    assert json.loads(out)["status"] == "found"
    rc, out, _ = run(
        capsys, "reach", "--input", str(path), "--goal", "contains-l",
        "--max-states", "0",
    )
    assert rc == 3
    assert json.loads(out)["status"] == "inconclusive"
    for flag in ("--max-ops", "--max-states"):
        rc, out, err = run(
            capsys, "reach", "--input", str(path), "--goal", "contains-l", flag, "-3",
        )
        assert (rc, out) == (2, "")
        assert "must be >= 0" in err


@pytest.mark.parametrize("suite,flag,value", [
    ("lemma_union", "--seeds", "-5"),
    ("lemma_union", "--seeds", "0"),
    ("prop2_2", "--cap-n", "-3"),
    ("prop2_2", "--cap-n", "1"),
    ("closure_laws", "--step-seeds", "-2"),
    ("closure_laws", "--step-seeds", "0"),
])
def test_verify_rejects_counts_that_check_nothing(suite, flag, value, capsys):
    rc, out, err = run(capsys, "verify", "--suite", suite, flag, value)
    assert (rc, out) == (2, "")
    assert "at least" in err and value in err


def test_verify_prop4_4_checks_shifts_with_a_single_seed(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "prop4_4", "--seeds", "1")
    assert rc == 0
    assert out.count("r=2 x1 (") == 2 and "(0 shifts)" not in out


def test_verify_command(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "thm3_1")
    assert rc == 0
    assert "suite thm3_1" in out and "2/2 passed" in out
    rc, out, _ = run(capsys, "verify", "--suite", "thm3_1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["counts"]["fail"] == 0


def test_verify_budget_exit_code(capsys):
    rc, out, _ = run(
        capsys, "verify", "--suite", "prop2_2", "--budget", "5",
    )
    assert rc == 3
    assert "SKIP" in out


def test_render_instance_and_trace(tmp_path, capsys):
    path = write_instance(tmp_path)
    rc, out, _ = run(capsys, "render", "--input", str(path))
    assert rc == 0
    assert out == "##\n#.\n"
    rc, svg, _ = run(capsys, "render", "--input", str(path), "--format", "svg")
    assert rc == 0
    assert svg.startswith("<svg ")
    trace = tmp_path / "trace.json"
    rc, out, _ = run(
        capsys, "percolate", "--input", str(path), "--output", str(trace)
    )
    rc, out, _ = run(capsys, "render", "--input", str(trace))
    assert rc == 0
    assert "phase 1:" in out and "#*" in out


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
@pytest.mark.parametrize("steps", [[], ["--steps"], ["--steps", "--seed", "5"]])
@pytest.mark.parametrize("shape", ["4,5", "3,4,3"])
def test_percolate_render_draws_what_render_draws_from_its_trace(shape, steps, fmt, tmp_path, capsys):
    # The L set percolates, so every trace runs to the full grid.
    _, inst, _ = run(capsys, "lset", "--shape", shape, "--t", "2", "--r", "2")
    path, trace = tmp_path / "inst.json", tmp_path / "trace.json"
    path.write_text(inst)
    rc, picture, _ = run(capsys, "percolate", "--input", str(path), "--output", str(trace),
                         *steps, "--render", fmt)
    assert rc == 0 and picture
    rc, again, _ = run(capsys, "render", "--input", str(trace), "--format", fmt)
    assert rc == 0 and again == picture


def test_invalid_inputs_exit_two(tmp_path, capsys):
    rc, _, err = run(capsys, "check", "--input", str(tmp_path / "missing.json"))
    assert rc == 2 and "not found" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": [2, 2], "t": 2, "r": 2}')
    rc, _, err = run(capsys, "check", "--input", str(bad))
    assert rc == 2 and "cells" in err
    rc, _, err = run(capsys, "lset", "--shape", "2,zebra", "--t", "2", "--r", "2")
    assert rc == 2
    rc, _, err = run(capsys, "lset", "--shape", "2,2", "--t", "2", "--r", "5")
    assert rc == 2
    big = write_instance(tmp_path, name="4d.json", shape=[2, 2, 2, 2], cells=[[1, 1, 1, 1]])
    rc, _, err = run(capsys, "render", "--input", str(big))
    assert rc == 2 and "3 dimensions" in err


def _cli_import_output(module):
    """What a fresh interpreter that imports boxperc.cli prints for whether
    `module` is loaded: exactly "True\\n" or "False\\n"."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = f"import sys, boxperc.cli; print({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def test_cli_import_leaves_numpy_out():
    # boxperc has no runtime dependency; numpy must not come in by accident.
    assert _cli_import_output("numpy") == "False\n"


def test_cli_import_leaves_verify_out():
    # Only the verify command needs the verify module; every other CLI
    # process (and every import of the package's CLI) skips compiling it.
    assert _cli_import_output("boxperc.verify") == "False\n"


def test_io_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.json"
    for argv, message in (
        (["lset", "--shape", "3,3", "--t", "2", "--r", "2", "--output", str(missing)], "No such file"),
        (["check", "--input", str(tmp_path)], "Is a directory"),
        (["search", "--shape", "2,2", "--t", "2", "--r", "2", "--csv", str(missing)], "No such file"),
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and err.startswith("error: ") and message in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["3,,4", "x3x4", "3,4,", "1_0,3", " 3,4", "3;4", "3X4", "", "\u0663,4"])
def test_shape_must_be_digit_runs(text, capsys):
    with pytest.raises(InstanceError, match="bad shape"):
        _parse_shape(text)
    for command in ("lset", "mvalue", "search"):
        rc, out, err = run(capsys, command, "--shape", text, "--t", "2", "--r", "2")
        assert rc == 2 and out == "" and "bad shape" in err


def test_shape_axis_lengths_must_be_positive(capsys):
    rc, out, err = run(capsys, "lset", "--shape", "0,3", "--t", "2", "--r", "2")
    assert rc == 2 and out == ""
    assert err == "error: bad shape '0,3': axis lengths must be positive, got (0, 3)\n"


def test_shape_separators():
    assert _parse_shape("3,4").dims == (3, 4)
    assert _parse_shape("2x2x3").dims == (2, 2, 3)
    assert _parse_shape("2x2,3").dims == (2, 2, 3)
    assert _parse_shape("12").dims == (12,)


def test_parser_is_built_once_and_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    path = write_instance(tmp_path, shape=[3, 3], cells=[[1, 1], [1, 2], [1, 3], [2, 1], [3, 1]])
    search_args = ["search", "--shape", "3,3", "--t", "2", "--r", "2"]
    sequence = [
        search_args + ["--budget", "0"],
        ["search", "--shape", "3,3", "--t", "2"],  # argparse error: --r missing
        search_args,
        ["percolate", "--input", str(path), "--steps", "--seed", "3"],
        ["--help"],
        ["percolate", "--input", str(path), "--steps"],
    ]

    def outcomes():
        got = []
        for argv in sequence:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = f"SystemExit {exc.code}"
            out, err = capsys.readouterr()
            if argv[0] == "search" and rc in (0, 3):
                doc = json.loads(out)
                del doc["duration_ms"]
                out = json.dumps(doc)
            got.append((rc, out, err))
        return got

    shared = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = outcomes()
    assert shared == fresh
    codes = [rc for rc, _, _ in shared]
    assert codes == [3, "SystemExit 2", 0, 0, "SystemExit 0", 0]
    # The unseeded trace differs from the seeded one, so a seed left over
    # from the call before would show.
    assert shared[3][1] != shared[5][1]


def test_percolate_rejects_flags_it_would_ignore(tmp_path, capsys):
    # --seed only orders steps and --render-output only places a rendering;
    # without --steps or --render they would be dropped without a word.
    path = write_instance(tmp_path)
    art = tmp_path / "art.txt"
    for argv, needs in (
        (["--seed", "3"], "--steps"),
        (["--render-output", str(art)], "--render"),
        (["--render-output", str(art), "--steps", "--seed", "1"], "--render"),
    ):
        rc, out, err = run(capsys, "percolate", "--input", str(path), *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and needs in err and err.count("\n") == 1
    assert not art.exists()


PARSER_CASES = [
    *([name, "-h"] for name in cli._COMMANDS),
    ["-h"],
    [],
    ["bogus"],
    ["--"],
    ["check", "--bogus"],
    ["check", "extra"],
    ["search", "--shape", "3,3", "--t", "2"],
    ["render", "--format", "png"],
    ["reach", "--goal", "nowhere"],
]


@pytest.mark.parametrize("columns", ["80", "200"])
def test_one_command_parser_matches_the_full_parser(columns, capsys, monkeypatch):
    # main builds only the invoked command's subparser; help, usage and
    # error text must be what the parser with every subcommand prints.
    monkeypatch.setenv("COLUMNS", columns)

    def outcomes():
        got = []
        for argv in PARSER_CASES:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            got.append((argv, rc, *capsys.readouterr()))
        return got

    one = outcomes()
    full = cli.build_parser.__wrapped__
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert one == outcomes()
    assert all(rc in (0, 2) and (out or err) for _, rc, out, err in one)
    # The full parser keeps argparse's own name for the command argument.
    assert "argument command: invalid choice: 'bogus'" in one[PARSER_CASES.index(["bogus"])][3]


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    # The console script calls main() with no arguments.
    monkeypatch.setattr(sys, "argv", ["boxperc", "mvalue", "--shape", "5,5", "--t", "3", "--r", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["total"] == 16
