"""The benchmark's tracer wraps program entry points by name, from outside the
program. Installing it here makes a renamed entry point fail the test suite,
not only ``bench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_bench_tracer_installs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import worker; worker.Tracer().install()"],
        cwd=ROOT / "bench",
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
