"""Each quick demo runs to completion in a child interpreter.

``phase_diagram.py`` is left out: it takes ~20 s and writes
``demos/output/``.
"""

import os
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


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, text=True, check=False, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
