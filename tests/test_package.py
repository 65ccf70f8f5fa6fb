import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_linalg_unloaded():
    # the package needs scipy.sparse only; pulling in scipy.linalg costs
    # import time and resident memory on every run
    code = (
        "import sys\n"
        "import sketchbisect\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
