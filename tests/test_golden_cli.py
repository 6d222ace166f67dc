"""Byte-for-byte golden outputs of the command line.

Each case runs `boxperc.cli.main` in-process and compares its standard
output with `tests/golden/<name>.txt`. Lines carrying `duration_ms`, the
one field that depends on the clock, are dropped on both sides. Any change
to the edge table, the tracers, the JSON encoder or the renderers that
alters a byte of these outputs fails here.

To rewrite the golden files after an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from boxperc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# Deletion-minimal percolating sets (`random_percolating_set`, seeds 3 and 5).
INST_2D = {
    "shape": [4, 5], "t": 2, "r": 2,
    "cells": [[1, 5], [2, 3], [2, 5], [3, 1], [3, 2], [3, 5], [4, 3], [4, 4]],
}
INST_3D = {
    "shape": [3, 3, 3], "t": 2, "r": 2,
    "cells": [[1, 1, 1], [1, 3, 3], [2, 1, 3], [2, 3, 2], [3, 1, 2], [3, 2, 2], [3, 2, 3]],
}

# name -> (argv, stdin document or None, exit code)
CASES = {
    "percolate_steps_2d": (["percolate", "--steps", "--render", "ascii"], INST_2D, 0),
    "percolate_steps_3d": (["percolate", "--steps", "--render", "ascii"], INST_3D, 0),
    "percolate_steps_seeded_3d": (
        ["percolate", "--steps", "--seed", "7", "--render", "ascii"], INST_3D, 0
    ),
    "check_2d": (["check"], INST_2D, 0),
    "check_3d": (["check"], INST_3D, 0),
    "mvalue": (["mvalue", "--shape", "4,5,3", "--t", "2", "--r", "2"], None, 0),
    "search_budget_0": (
        ["search", "--shape", "3,3", "--t", "2", "--r", "2", "--budget", "0"], None, 3
    ),
    "normalize_2d": (["normalize"], INST_2D, 0),
    "reach_2d": (["reach", "--goal", "contains-l", "--maximal-only"], INST_2D, 0),
    "verify_prop2_2": (["verify", "--suite", "prop2_2", "--json"], None, 0),
    # The shift battery and the closure laws run the scalar closure core.
    "verify_prop4_4": (["verify", "--suite", "prop4_4", "--json"], None, 0),
    "verify_closure_laws": (["verify", "--suite", "closure_laws", "--json"], None, 0),
    # The slice surgeries: slice union, thin-row removal and the row repack.
    "verify_lemma_union": (["verify", "--suite", "lemma_union", "--json"], None, 0),
    "verify_prop_removal": (["verify", "--suite", "prop_removal", "--json"], None, 0),
    "verify_thm2_7": (["verify", "--suite", "thm2_7", "--json"], None, 0),
    "verify_thm3_1": (["verify", "--suite", "thm3_1", "--json"], None, 0),
    "verify_formula_vs_oracle": (["verify", "--suite", "formula_vs_oracle", "--json"], None, 0),
    # The text report, with rows whose search ran out of budget.
    "verify_prop2_2_budget_3": (["verify", "--suite", "prop2_2", "--budget", "3"], None, 3),
}


def run_case(name: str) -> tuple[int, str]:
    argv, doc, _ = CASES[name]
    stdin = io.StringIO("" if doc is None else json.dumps(doc))
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out):
        rc = cli.main(argv)
    text = "".join(
        line for line in out.getvalue().splitlines(keepends=True)
        if '"duration_ms"' not in line
    )
    return rc, text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    rc, text = run_case(name)
    assert rc == CASES[name][2]
    assert text == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.txt").write_text(run_case(case)[1])
