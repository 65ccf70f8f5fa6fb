"""Each demo, and README's Quick start, runs to completion in a child
interpreter.

``phase_diagram.py`` (a few seconds: a swept ``run_grid`` over 390 cells)
writes next to itself, so it runs from a copy in a temporary directory and
leaves ``demos/output/`` in the checkout alone.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = (
    "solve_and_certify",
    "sketch_pipeline",
    "vote_extension",
    "thresholds_tour",
    "unbalanced_blocks",
)


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, check=False, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    done = run_python(str(ROOT / "demos" / f"{name}.py"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_phase_diagram_runs_from_a_copy(tmp_path):
    script = shutil.copy(ROOT / "demos" / "phase_diagram.py", tmp_path)
    done = run_python(str(script))
    assert done.returncode == 0, done.stderr
    assert ", 0 failed" in done.stdout
    for name in ("phase_grid.csv", "recovery.svg", "runtime.svg"):
        assert (tmp_path / "output" / name).stat().st_size > 0


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "218 vertices solved, CERTIFIED\nrecovered: True\n"
