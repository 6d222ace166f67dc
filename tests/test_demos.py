import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_processes.py",
    "02_minimum_seeds.py",
    "03_surgeries_and_shifts.py",
    "04_search_and_open_questions.py",
])
def test_demo_runs(name):
    # The narrative demos only print; each must run to the end.
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
