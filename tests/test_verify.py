import random

import pytest

from boxperc import cli, jsonio
from boxperc.engine import all_edges
from boxperc.lattice import CellSet, GridShape, Params, cell_count, edge_vertices
from boxperc.verify import SUITES, run_suite, shift_invariance_battery


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_at_small_sizes(name):
    report = run_suite(name, seeds=15, step_seeds=4, n_cap=3)
    assert report.passed, report.to_text()
    assert report.exit_code == 0
    assert report.counts["total"] == len(report.rows)


def test_report_forms_agree():
    report = run_suite("thm3_1")
    doc = report.to_json()
    text = report.to_text()
    assert doc["pass"] == report.passed
    assert doc["counts"] == report.counts
    for row in doc["rows"]:
        assert row["status"].upper() in text
        assert row["claim"] in text


def test_budget_overrun_skips_without_failing():
    report = run_suite("prop2_2", n_cap=4, budget=3)
    assert report.counts["skip"] > 0
    assert report.counts["fail"] == 0
    assert not report.passed
    assert report.exit_code == 3


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def naive_shift_count(shape, params, seeds, seed_base):
    """Applicable shifts of the battery's random sets, counted over the
    Edge tuple."""
    count = 0
    for k in range(seeds):
        rng = random.Random(seed_base + k)
        a = CellSet(shape, rng.getrandbits(cell_count(shape)))
        for e in all_edges(shape, params):
            if sum(v not in a for v in edge_vertices(e)) == 1:
                count += len(edge_vertices(e)) - 1
    return count


@pytest.mark.parametrize("dims,t", [((4, 4), 2), ((4, 4), 3), ((3, 2, 3), 2)])
def test_shift_invariance_battery_checks_every_shift(dims, t):
    shape, params = GridShape(dims), Params(t, 2)
    bad, checked = shift_invariance_battery(shape, params, 12, 2026)
    assert bad == 0
    assert checked == naive_shift_count(shape, params, 12, 2026) > 0


@pytest.mark.parametrize("name", sorted(SUITES))
def test_library_and_cli_share_the_suite_defaults(name, capsys):
    rc = cli.main(["verify", "--suite", name, "--json"])
    report = run_suite(name)
    assert capsys.readouterr().out == jsonio.dumps(report.to_json())
    assert rc == report.exit_code
