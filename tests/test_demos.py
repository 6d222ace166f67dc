"""The narrative demos print the same bytes on every run.

Each demo's standard output is compared with `tests/golden/demo_<name>.txt`.
To rewrite those files after an intended output change:

    python tests/test_demos.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = [
    "01_processes.py",
    "02_minimum_seeds.py",
    "03_surgeries_and_shifts.py",
    "04_search_and_open_questions.py",
]


def run_demo(name: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def golden(name: str) -> Path:
    return GOLDEN / f"demo_{Path(name).stem}.txt"


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr
    assert done.stdout == golden(name).read_text()


if __name__ == "__main__":
    for demo in DEMOS:
        golden(demo).write_text(run_demo(demo).stdout)
