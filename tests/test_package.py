import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_child(code):
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_leaves_scipy_linalg_unloaded():
    # the package needs scipy.sparse only; pulling in scipy.linalg costs
    # import time and resident memory on every run
    code = (
        "import sys\n"
        "import sketchbisect\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    assert _run_child(code) == ["False"]


def test_solve_and_certify_leave_scipy_linalg_unloaded():
    # the sweep-0 spectral cut and the certificate run their own Lanczos
    # in numpy; neither may reach for scipy's eigensolvers
    code = (
        "import sys\n"
        "from sketchbisect import LogScaleParams, full_solve, sample_sbm\n"
        "graph, _ = sample_sbm(LogScaleParams(50, 1, 300).to_sbm_params(), 1)\n"
        "result = full_solve(graph, seed=1)\n"
        "print(result.certificate.verdict, result.sdp.sweeps_used)\n"
        "print('scipy.linalg' in sys.modules, 'scipy.sparse.linalg' in sys.modules)\n"
    )
    assert _run_child(code) == ["CERTIFIED", "0", "False", "False"]
