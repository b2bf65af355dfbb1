"""The benchmark's tracer rebinds library functions by name; every name it
targets must exist, or the traced benchmark run fails."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_install():
    # a subprocess, so the functions of this test session are not rebound
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
                         env=env, capture_output=True, text=True, cwd=ROOT)
    assert out.returncode == 0, out.stderr
