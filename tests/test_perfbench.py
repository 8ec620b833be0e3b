"""The benchmark under perfbench/ calls the toolkit by name, and its tracer
patches names of minimt's modules, so a rename there can break the
benchmark without failing any other test. Its self-test runs every
workload at a tiny size, untraced and traced."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
