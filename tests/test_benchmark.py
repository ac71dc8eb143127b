"""The benchmark's own self-test, so that a library change that breaks an
entry point the benchmark calls fails here and not only in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_quick_sweep_passes():
    # every workload once on its reduced input, traced and untraced
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "sweep.py"), "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
